"""Property-based invariants of the individual ESPRESSO steps.

Each pass of the loop must preserve the function being covered:

* EXPAND — every output cube is prime w.r.t. the OFF-set, the result
  still covers the input cover, and never intersects the OFF-set;
* IRREDUNDANT — the result is a subset of the input, still covers the
  ON-set, and no remaining cube is redundant;
* REDUCE — every output cube is contained in its input cube, and the
  reduced cover (with DC) still covers the ON-set;
* make_offset — complement semantics per output.

These are checked on randomized multi-output (F, D, R) partitions.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.logic import (
    Cover,
    Cube,
    cover_covers_cube_multi,
    expand,
    irredundant,
    make_offset,
    reduce_cover,
)
from tests.cover_reference import covers_cover

SETTINGS = settings(max_examples=60, deadline=None)


def random_multi_fdr(seed: int, max_inputs: int = 4, max_outputs: int = 3):
    rng = random.Random(seed)
    n = rng.randint(1, max_inputs)
    m = rng.randint(1, max_outputs)
    on, dc, off = Cover.empty(n, m), Cover.empty(n, m), Cover.empty(n, m)
    truth = []
    for o in range(m):
        col = [rng.choice([0, 1, 2]) for _ in range(1 << n)]
        truth.append(col)
        for mt, v in enumerate(col):
            {1: on, 2: dc, 0: off}[v].add(Cube.from_minterm(mt, n).with_outputs(1 << o))
    return truth, on, dc, off


class TestExpand:
    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_expand_covers_and_avoids_off(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        result = expand(on, off)
        assert covers_cover(result, on)
        for c in result.cubes:
            for r in off.cubes:
                assert not c.intersects(r)

    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_expand_produces_primes(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        result = expand(on, off)
        for c in result.cubes:
            # no single literal can be raised without hitting the OFF-set
            for var in c.fixed_vars():
                raised = c.raise_var(var)
                assert any(raised.intersects(r) for r in off.cubes), (
                    c.input_string(),
                    var,
                )

    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_expand_no_single_cube_containment(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        result = expand(on, off)
        for i, a in enumerate(result.cubes):
            for j, b in enumerate(result.cubes):
                if i != j:
                    assert not a.contains(b)


class TestIrredundant:
    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_subset_and_still_covers(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        grown = expand(on, off)
        result = irredundant(grown, dc)
        masks = {(c.inputs, c.outputs) for c in grown.cubes}
        for c in result.cubes:
            assert (c.inputs, c.outputs) in masks
        assert covers_cover(result, on)

    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_result_is_minimal(self, seed):
        """No cube of the irredundant cover can be dropped."""
        truth, on, dc, off = random_multi_fdr(seed)
        grown = expand(on, off)
        result = irredundant(grown, dc)
        for i, c in enumerate(result.cubes):
            rest = Cover(
                result.num_inputs,
                result.num_outputs,
                [x for j, x in enumerate(result.cubes) if j != i]
                + dc.cubes,
            )
            assert not cover_covers_cube_multi(rest, c), i


class TestReduce:
    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_cubes_shrink_and_cover_holds(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        grown = irredundant(expand(on, off), dc)
        reduced = reduce_cover(grown, dc)
        # cover maintained with the DC set
        assert covers_cover(
            Cover(on.num_inputs, on.num_outputs, reduced.cubes + dc.cubes), on
        )
        # the reduced cover stays within F ∪ D
        fd = Cover(on.num_inputs, on.num_outputs, on.cubes + dc.cubes)
        for c in reduced.cubes:
            assert cover_covers_cube_multi(fd, c)


class TestMakeOffset:
    @given(st.integers(0, 10**9))
    @SETTINGS
    def test_offset_is_complement_of_on_dc(self, seed):
        truth, on, dc, off = random_multi_fdr(seed)
        computed = make_offset(on, dc)
        n, m = on.num_inputs, on.num_outputs
        for o in range(m):
            for mt in range(1 << n):
                in_f_or_d = on.contains_minterm(mt, o) or dc.contains_minterm(mt, o)
                assert computed.contains_minterm(mt, o) == (not in_f_or_d)

    def test_merges_identical_input_parts(self):
        on = Cover.empty(2, 2)
        on.add(Cube.from_minterm(0, 2).with_outputs(0b01))
        on.add(Cube.from_minterm(0, 2).with_outputs(0b10))
        off = make_offset(on)
        # the three complementary minterms appear once each with both
        # output bits, not twice
        seen = {}
        for c in off.cubes:
            for mt in c.minterms():
                seen.setdefault(mt, 0)
                seen[mt] += 1
        # compact cover: no input point enumerated per output
        assert all(v <= 2 for v in seen.values())
