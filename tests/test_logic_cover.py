"""Unit tests for covers and the compact minterm-cover constructor."""

import random

from hypothesis import given, strategies as st

from repro.logic import Cover, Cube
from repro.logic.cover import compact_minterm_cover
from repro.logic.tautology import cofactor, most_binate_var, var_usage
from tests.cover_reference import cube_from_string, from_rows


class TestConstruction:
    def test_empty_and_universe(self):
        assert Cover.empty(3).is_empty()
        u = Cover.universe(3, 2)
        assert u.contains_minterm(0b101, 0) and u.contains_minterm(0b101, 1)

    def test_from_strings_single_output(self):
        c = from_rows(["1-", "01"])
        assert len(c) == 2
        assert c.contains_minterm(0b01)   # var0=1 matches "1-"
        assert c.contains_minterm(0b10)   # var0=0,var1=1 matches "01"
        assert not c.contains_minterm(0b00)

    def test_from_strings_with_outputs(self):
        c = from_rows(["1- 10", "-1 01"])
        assert c.num_outputs == 2
        assert c.contains_minterm(0b01, output=0)
        assert not c.contains_minterm(0b01, output=1)

    def test_from_minterms(self):
        c = Cover.from_minterms([0, 3], 2)
        assert c.contains_minterm(0) and c.contains_minterm(3)
        assert not c.contains_minterm(1)


class TestQueries:
    def test_evaluate_multi_output(self):
        c = Cover.empty(2, 2)
        c.add(cube_from_string("1-", 0b01))
        c.add(cube_from_string("-1", 0b10))
        def outputs(m):
            return [o for o in range(2) if c.contains_minterm(m, o)]

        assert outputs(0b11) == [0, 1]
        assert outputs(0b01) == [0]
        assert outputs(0b00) == []

    def test_projection(self):
        c = Cover.empty(2, 2)
        c.add(cube_from_string("1-", 0b11))
        c.add(cube_from_string("01", 0b10))
        p0, p1 = c.projection(0), c.projection(1)
        assert len(p0) == 1 and len(p1) == 2

    def test_restrict_outputs(self):
        c = Cover.empty(1, 2)
        c.add(cube_from_string("1", 0b11))
        c.add(cube_from_string("0", 0b10))
        r = c.restrict_outputs(0b01)
        assert len(r) == 1

    def test_minterms(self):
        c = from_rows(["1-", "-1"])
        assert c.minterms() == {0b01, 0b10, 0b11}

    def test_supercube(self):
        c = from_rows(["10", "11"])
        assert c.supercube().input_string() == "1-"

    def test_cost(self):
        c = from_rows(["10", "1-"])
        assert c.cost() == (2, 3)


class TestRewrites:
    def test_single_cube_containment(self):
        c = from_rows(["1-", "10", "11"])
        r = c.single_cube_containment()
        assert len(r) == 1
        assert r.cubes[0].input_string() == "1-"

    def test_sccc_respects_outputs(self):
        c = Cover.empty(1, 2)
        c.add(cube_from_string("1", 0b01))
        c.add(cube_from_string("1", 0b11))
        r = c.single_cube_containment()
        assert len(r) == 1 and r.cubes[0].outputs == 0b11

    def test_drop_empty(self):
        c = Cover(2, 1, [Cube(2, 0), cube_from_string("1-")])
        assert len(c.drop_empty()) == 1

    def test_cofactor(self):
        c = from_rows(["1-", "00"])
        cf = cofactor(c, cube_from_string("1-"))
        assert len(cf) == 1  # "00" dropped (disjoint)


class TestUnateness:
    def test_unate_cover(self):
        c = from_rows(["1-", "11"])
        assert most_binate_var(c) is None

    def test_binate_cover(self):
        c = from_rows(["1-", "0-"])
        assert most_binate_var(c) == 0

    def test_most_binate_prefers_balanced(self):
        c = from_rows(["10", "01", "0-"])
        # var0: neg 2 / pos 1 ; var1: neg 1 / pos 1
        assert most_binate_var(c) in (0, 1)

    def test_var_usage(self):
        c = from_rows(["10", "0-"])
        assert var_usage(c, 0) == (1, 1)
        assert var_usage(c, 1) == (1, 0)


class TestCompactMintermCover:
    def test_empty(self):
        assert len(compact_minterm_cover(set(), 3)) == 0

    def test_full_space(self):
        c = compact_minterm_cover(set(range(8)), 3)
        assert len(c) == 1 and c.cubes[0].is_full_inputs()

    def test_half_space(self):
        c = compact_minterm_cover({m for m in range(8) if m & 1}, 3)
        assert len(c) == 1
        assert c.cubes[0].input_string() == "1--"

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_exactness(self, n, seed):
        rng = random.Random(seed)
        ms = {m for m in range(1 << n) if rng.random() < 0.45}
        c = compact_minterm_cover(ms, n)
        got = {m for m in range(1 << n) if c.contains_minterm(m)}
        assert got == ms

    def test_compression_beats_minterm_list(self):
        ms = set(range(200))  # dense prefix of an 8-var space
        c = compact_minterm_cover(ms, 8)
        assert len(c) < len(ms) / 4
