"""Degenerate cube-algebra cases: zero-variable spaces and empty covers.

The certifier discharges obligations against covers exactly as the
architecture lowered them, including planes that degenerate to CONST-0
(empty column) or CONST-1 (universal cube) gates.  These regression
tests pin the algebra's behaviour on those edges: the empty cover is
constant 0 *even over zero variables*, a non-empty zero-variable cube
is the universal cube, and complement/tautology/sharp round-trip
through both.
"""

from repro.logic.complement import complement, complement_cube, cube_sharp
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.tautology import (
    cover_covers_cube_multi,
    covers_cube,
    is_tautology,
)
from tests.cover_reference import covers_cover


class TestZeroVariableSpace:
    def test_empty_cover_is_not_tautology(self):
        # the zero-variable space has one minterm; the empty cover
        # (constant 0) does not cover it
        assert not is_tautology(Cover.empty(0, 1))

    def test_full_cube_is_tautology(self):
        assert is_tautology(Cover(0, 1, [Cube.full(0)]))

    def test_universe_is_tautology(self):
        assert is_tautology(Cover.universe(0, 1))

    def test_complement_of_empty_is_universe(self):
        comp = complement(Cover.empty(0, 1))
        assert is_tautology(comp)
        assert comp.contains_minterm(0)

    def test_complement_of_universe_is_empty(self):
        comp = complement(Cover.universe(0, 1))
        assert not is_tautology(comp)
        assert not comp.contains_minterm(0)

    def test_double_complement_round_trip(self):
        assert is_tautology(complement(complement(Cover.universe(0, 1))))
        assert not is_tautology(complement(complement(Cover.empty(0, 1))))

    def test_complement_cube_of_full_cube_is_empty(self):
        # a cube with no bound literals is universal; its De Morgan
        # complement has no terms (constant 0)
        assert complement_cube(Cube.full(0)).is_empty()

    def test_covers_cube(self):
        full = Cube.full(0)
        assert covers_cube(Cover.universe(0, 1), full)
        assert not covers_cube(Cover.empty(0, 1), full)

    def test_sharp_against_empty_cover_keeps_cube(self):
        out = cube_sharp(Cube.full(0), Cover.empty(0, 1))
        assert out.contains_minterm(0)

    def test_sharp_against_universe_is_empty(self):
        assert cube_sharp(Cube.full(0), Cover.universe(0, 1)).is_empty()


class TestEmptyCoverPositiveArity:
    def test_empty_cover_is_not_tautology(self):
        assert not is_tautology(Cover.empty(3, 1))

    def test_cover_of_empty_cubes_is_not_tautology(self):
        # rows that are themselves empty cubes contribute nothing
        empty_cube = Cube.from_string("1-0").intersect(Cube.from_string("0-0"))
        assert empty_cube is None
        raised = Cube.from_string("10")
        dropped = Cover(2, 1, [raised]).drop_empty()
        assert is_tautology(complement(dropped)) is False

    def test_complement_of_empty_is_universe(self):
        comp = complement(Cover.empty(2, 1))
        assert len(comp) == 1
        assert is_tautology(comp)

    def test_empty_cover_covers_empty_cube_only(self):
        empty = Cover.empty(2, 1)
        assert not covers_cube(empty, Cube.full(2))
        # the empty cube is vacuously covered (it has no minterms)
        assert covers_cube(empty, Cube(2, 0, 0))

    def test_multi_output_empty_column(self):
        # a cube asserting an output whose column is empty is uncovered
        cover = Cover.empty(2, 2)
        probe = Cube.from_string("1-", 0b10)
        assert not cover_covers_cube_multi(cover, probe)
        # ... but a cube asserting *no* outputs is vacuously covered
        silent = Cube.from_string("1-", 0b00)
        assert cover_covers_cube_multi(cover, silent)

    def test_covers_cover_empty_small(self):
        # every cover covers the empty cover
        assert covers_cover(Cover.empty(2, 1), Cover.empty(2, 1))
        assert covers_cover(Cover.universe(2, 1), Cover.empty(2, 1))
