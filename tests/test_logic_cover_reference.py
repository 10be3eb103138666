"""``compact_minterm_cover`` against the set-splitting construction.

The library splits one sorted minterm list by bisection and merges
twin cubes by direct lookup.  The reference below is the earlier
construction: per-variable set splitting and a merge pass that groups
cubes by everything but one variable.  Both must return the same cube
list on every input.
"""

import random

import pytest

from repro.logic.cover import compact_minterm_cover
from repro.logic.cube import LIT_DC, LIT_ONE, LIT_ZERO


def reference_cover(minterms: set[int], num_inputs: int) -> list[int]:
    """Input masks of the cubes, sorted."""
    cubes: list[int] = []

    def rec(prefix_mask: int, var: int, members: set[int]) -> None:
        if not members:
            return
        if len(members) == 1 << (var + 1):
            mask = prefix_mask
            for v in range(var + 1):
                mask |= LIT_DC << (2 * v)
            cubes.append(mask)
            return
        bit = 1 << var
        lo = {m for m in members if not m & bit}
        hi = {m & ~bit for m in members if m & bit}
        rec(prefix_mask | (LIT_ZERO << (2 * var)), var - 1, lo)
        rec(prefix_mask | (LIT_ONE << (2 * var)), var - 1, hi)

    rec(0, num_inputs - 1, set(minterms))

    work = set(cubes)
    changed = True
    while changed:
        changed = False
        for var in range(num_inputs):
            shift = 2 * var
            by_rest: dict[int, int] = {}
            for mask in work:
                rest = mask & ~(0b11 << shift)
                by_rest[rest] = by_rest.get(rest, 0) | ((mask >> shift) & 0b11)
            for rest, phases in by_rest.items():
                if phases == 0b11:
                    lo = rest | (LIT_ZERO << shift)
                    hi = rest | (LIT_ONE << shift)
                    if lo in work and hi in work:
                        work.discard(lo)
                        work.discard(hi)
                        work.add(rest | (LIT_DC << shift))
                        changed = True
    return sorted(work)


def assert_same(minterms: set[int], n: int) -> None:
    got = compact_minterm_cover(minterms, n, outputs=3, num_outputs=2)
    assert [c.inputs for c in got.cubes] == reference_cover(minterms, n)
    assert all(c.outputs == 3 and c.num_inputs == n for c in got.cubes)
    assert got.num_outputs == 2


@pytest.mark.parametrize("n", range(3, 15))
def test_seeded_random_sets(n):
    rng = random.Random(1000 + n)
    space = 1 << n
    for density in (0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0):
        for _ in range(3 if n > 11 else 6):
            assert_same({m for m in range(space) if rng.random() < density}, n)


@pytest.mark.parametrize("n", range(3, 15))
def test_structured_sets(n):
    space = range(1 << n)
    parity = {m for m in space if bin(m).count("1") % 2}
    assert_same(parity, n)
    assert_same({m for m in space if m not in parity}, n)
    for k in range(n):
        # half-spaces on one variable, and on one low and one high variable
        assert_same({m for m in space if m >> k & 1}, n)
        assert_same({m for m in space if m >> k & 1 or m >> (n - 1) & 1}, n)
    assert_same({m for m in space if m < (1 << n) // 3}, n)


def test_degenerate_inputs():
    assert_same(set(), 0)
    assert_same({0}, 0)
    assert_same(set(), 4)
    assert_same({5}, 4)
    # any iterable of minterms, duplicates collapsing
    got = compact_minterm_cover([3, 1, 3, 1], 2)
    assert [c.inputs for c in got.cubes] == reference_cover({1, 3}, 2)
