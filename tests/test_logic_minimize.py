"""Tests for tautology, complement, ESPRESSO loop and exact minimization.

The oracle everywhere is brute-force truth-table evaluation on small
variable counts; hypothesis drives randomized (F, D, R) partitions.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    Cover,
    Cube,
    MinimizationError,
    complement,
    complement_cube,
    covers_cube,
    cube_sharp,
    espresso,
    exact_minimize,
    expand,
    generate_primes,
    irredundant,
    is_tautology,
    make_offset,
    minimize,
    reduce_cover,
    unate_cover,
    verify_cover,
)
from tests.cover_reference import covers_cover, from_rows


def random_fdr(rng, n):
    """A random (F, D, R) minterm partition over n variables."""
    truth = [rng.choice([0, 1, 2]) for _ in range(1 << n)]
    on = Cover.from_minterms([m for m, v in enumerate(truth) if v == 1], n)
    dc = Cover.from_minterms([m for m, v in enumerate(truth) if v == 2], n)
    off = Cover.from_minterms([m for m, v in enumerate(truth) if v == 0], n)
    return truth, on, dc, off


class TestTautology:
    def test_universe_is_tautology(self):
        assert is_tautology(Cover.universe(4))

    def test_empty_is_not(self):
        assert not is_tautology(Cover.empty(3))

    def test_split_pair(self):
        assert is_tautology(from_rows(["1-", "0-"]))
        assert not is_tautology(from_rows(["1-", "00"]))

    def test_classic_three_cube_tautology(self):
        # x + x'y + x'y' = 1
        assert is_tautology(from_rows(["1--", "01-", "00-"]))

    @given(st.integers(1, 6), st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_against_bruteforce(self, n, seed):
        rng = random.Random(seed)
        ms = [m for m in range(1 << n) if rng.random() < 0.7]
        # lift some minterms to cubes for structural variety
        cubes = []
        for m in ms:
            c = Cube.from_minterm(m, n)
            if rng.random() < 0.3:
                c = c.raise_var(rng.randrange(n))
            cubes.append(c)
        cover = Cover(n, 1, cubes)
        expect = {mm for c in cubes for mm in c.minterms()} == set(range(1 << n))
        assert is_tautology(cover) == expect

    def test_covers_cube(self):
        cover = from_rows(["1-", "01"])
        assert covers_cube(cover, Cube.from_string("1-"))
        assert not covers_cube(cover, Cube.from_string("--"))


class TestComplement:
    def test_complement_cube_demorgan(self):
        comp = complement_cube(Cube.from_string("10-"))
        got = {m for c in comp.cubes for m in c.minterms()}
        expect = set(range(8)) - set(Cube.from_string("10-").minterms())
        assert got == expect

    @given(st.integers(1, 6), st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_complement_bruteforce(self, n, seed):
        rng = random.Random(seed)
        _, on, _, _ = random_fdr(rng, n)
        comp = complement(on)
        for m in range(1 << n):
            assert comp.contains_minterm(m) == (not on.contains_minterm(m))

    def test_complement_of_universe(self):
        assert complement(Cover.universe(3)).is_empty()

    def test_cube_sharp(self):
        cube = Cube.full(2)
        cover = from_rows(["1-"])
        rest = cube_sharp(cube, cover)
        assert {m for c in rest.cubes for m in c.minterms()} == {0b00, 0b10}


class TestEspressoLoop:
    def test_expand_produces_primes(self):
        on = Cover.from_minterms([0b00, 0b01], 2)  # f = x0'... wait codes
        off = Cover.from_minterms([0b10, 0b11], 2)
        result = expand(on, off)
        # both minterms merge into a single prime
        assert len(result) == 1
        assert result.cubes[0].num_literals() == 1

    def test_irredundant_removes_consensus_cube(self):
        # x y' + x' z + (redundant) y' z  over (x,y,z)
        on = from_rows(["10-", "0-1", "-01"])
        r = irredundant(on)
        assert len(r) == 2

    def test_reduce_shrinks_overlap(self):
        on = from_rows(["1-", "-1"])
        r = reduce_cover(on)
        total = {m for c in r.cubes for m in c.minterms()}
        assert total == {0b01, 0b10, 0b11}

    def test_make_offset(self):
        on = Cover.empty(2, 2)
        on.add(Cube.from_minterm(0, 2).with_outputs(0b01))
        on.add(Cube.from_minterm(3, 2).with_outputs(0b10))
        off = make_offset(on)
        assert off.contains_minterm(3, output=0)
        assert not off.contains_minterm(0, output=0)
        assert off.contains_minterm(0, output=1)

    @given(st.integers(1, 5), st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_espresso_sound_and_complete(self, n, seed):
        rng = random.Random(seed)
        truth, on, dc, off = random_fdr(rng, n)
        result = espresso(on, dc, off)
        check = verify_cover(result, on, dc, off)
        assert check.ok
        for m, v in enumerate(truth):
            got = result.contains_minterm(m)
            if v == 1:
                assert got
            elif v == 0:
                assert not got

    @given(st.integers(1, 4), st.integers(2, 3), st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_espresso_multi_output(self, n, m, seed):
        rng = random.Random(seed)
        on, dc, off = Cover.empty(n, m), Cover.empty(n, m), Cover.empty(n, m)
        truth = [[rng.choice([0, 1, 2]) for _ in range(1 << n)] for _ in range(m)]
        for o in range(m):
            for mt, v in enumerate(truth[o]):
                target = {1: on, 2: dc, 0: off}[v]
                target.add(Cube.from_minterm(mt, n).with_outputs(1 << o))
        result = espresso(on, dc, off)
        assert verify_cover(result, on, dc, off).ok
        for o in range(m):
            for mt, v in enumerate(truth[o]):
                if v == 1:
                    assert result.contains_minterm(mt, o)
                elif v == 0:
                    assert not result.contains_minterm(mt, o)

    def test_espresso_achieves_known_minimum(self):
        # f = majority(x, y, z): minimum SOP is 3 cubes
        on = Cover.from_minterms([0b011, 0b101, 0b110, 0b111], 3)
        result = espresso(on)
        assert len(result) == 3
        assert result.num_literals() == 6


class TestExact:
    def test_generate_primes_xor_like(self):
        # f = x ⊕ y has exactly its two minterm primes
        on = Cover.from_minterms([0b01, 0b10], 2)
        primes = generate_primes(on)
        assert {p.input_string() for p in primes} == {"10", "01"}

    def test_generate_primes_with_dc(self):
        on = Cover.from_minterms([0b00], 2)
        dc = Cover.from_minterms([0b01], 2)
        primes = generate_primes(on, dc)
        assert any(p.input_string() == "-0" for p in primes)

    def test_unate_cover_essential(self):
        rows = [{0}, {0, 1}, {1, 2}]
        sel = unate_cover(rows, [1, 1, 1], 3)
        assert 0 in sel
        assert all(any(c in r for c in sel) for r in rows)

    def test_unate_cover_infeasible(self):
        with pytest.raises(ValueError):
            unate_cover([set()], [1], 1)

    def test_unate_cover_optimal_small(self):
        # two columns each covering half; a third covering everything
        rows = [{0, 2}, {1, 2}]
        sel = unate_cover(rows, [1, 1, 1], 3)
        assert sel == [2]

    @given(st.integers(1, 4), st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_worse_than_heuristic(self, n, seed):
        rng = random.Random(seed)
        truth, on, dc, off = random_fdr(rng, n)
        h = espresso(on, dc, off)
        e = exact_minimize(on, dc)
        assert verify_cover(e, on, dc, off).ok
        assert len(e) <= len(h)

    def test_exact_majority_minimum(self):
        on = Cover.from_minterms([0b011, 0b101, 0b110, 0b111], 3)
        assert len(exact_minimize(on)) == 3


class TestMinimizeApi:
    def test_rejects_overlapping_on_off(self):
        on = Cover.from_minterms([0], 1)
        off = Cover.from_minterms([0], 1)
        with pytest.raises(MinimizationError):
            minimize(on, off=off)

    def test_exact_dispatch_multi_output(self):
        on = Cover.empty(2, 2)
        on.add(Cube.from_minterm(0, 2).with_outputs(0b01))
        on.add(Cube.from_minterm(3, 2).with_outputs(0b10))
        result = minimize(on, method="exact")
        assert result.contains_minterm(0, 0)
        assert result.contains_minterm(3, 1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            minimize(Cover.empty(1), method="zap")

    def test_covers_cover(self):
        big = from_rows(["--"])
        small = from_rows(["10", "01"])
        assert covers_cover(big, small)
        assert not covers_cover(small, big)


class TestExactOptimality:
    def test_unate_cover_matches_bruteforce_minimum(self):
        """Branch-and-bound finds a true minimum on small instances."""
        import itertools
        import random

        rng = random.Random(7)
        from repro.logic import unate_cover

        for _ in range(25):
            n_rows = rng.randint(1, 6)
            n_cols = rng.randint(1, 6)
            rows = []
            for _ in range(n_rows):
                cols = {c for c in range(n_cols) if rng.random() < 0.5}
                if not cols:
                    cols = {rng.randrange(n_cols)}
                rows.append(cols)
            costs = [1] * n_cols
            sel = unate_cover(rows, costs, n_cols)
            assert all(set(sel) & r for r in rows)
            # brute-force minimum cardinality
            best = n_cols
            for k in range(0, n_cols + 1):
                if any(
                    all(set(combo) & r for r in rows)
                    for combo in itertools.combinations(range(n_cols), k)
                ):
                    best = k
                    break
            assert len(sel) == best

    def test_exact_minimize_true_minimum_bruteforce(self):
        """On tiny functions, exact_minimize matches exhaustive search
        over all prime subsets."""
        import itertools
        import random

        from repro.logic import Cover, exact_minimize, generate_primes

        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 3)
            ms = [m for m in range(1 << n) if rng.random() < 0.5]
            if not ms:
                continue
            on = Cover.from_minterms(ms, n)
            primes = generate_primes(on)
            best = None
            for k in range(1, len(primes) + 1):
                for combo in itertools.combinations(primes, k):
                    covered = set()
                    for c in combo:
                        covered.update(c.minterms())
                    if set(ms) <= covered:
                        best = k
                        break
                if best is not None:
                    break
            result = exact_minimize(on)
            assert len(result) == best
