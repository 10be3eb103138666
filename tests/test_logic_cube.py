"""Unit tests for the positional-cube representation."""

import pytest
from hypothesis import given, strategies as st

from repro.logic import Cover, Cube
from repro.logic.cube import LIT_DC, LIT_ONE, LIT_ZERO, full_input_mask, supercube_of
from repro.logic.tautology import cofactor


def cubes(num_inputs=st.integers(1, 6)):
    """Hypothesis strategy producing random non-empty cubes."""

    @st.composite
    def _build(draw):
        n = draw(num_inputs)
        fields = [draw(st.sampled_from([LIT_ZERO, LIT_ONE, LIT_DC])) for _ in range(n)]
        mask = 0
        for i, f in enumerate(fields):
            mask |= f << (2 * i)
        return Cube(n, mask)

    return _build()


class TestConstruction:
    def test_from_string(self):
        c = Cube.from_string("1-0")
        assert c.num_inputs == 3
        assert c.literal(0) == LIT_ONE
        assert c.literal(1) == LIT_DC
        assert c.literal(2) == LIT_ZERO

    def test_from_string_alternate_dc_chars(self):
        assert Cube.from_string("2x-").is_full_inputs()

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cube.from_string("1q0")

    def test_from_minterm(self):
        c = Cube.from_minterm(0b101, 3)
        assert c.input_string() == "101"
        assert c.contains_minterm(0b101)
        assert not c.contains_minterm(0b100)

    def test_full(self):
        c = Cube.full(4)
        assert c.is_full_inputs()
        assert c.inputs == full_input_mask(4)
        assert c.num_literals() == 0

    def test_roundtrip_string(self):
        for s in ["0", "1", "-", "01-", "1-0-1"]:
            assert Cube.from_string(s).input_string() == s


class TestPredicates:
    def test_empty_cube(self):
        c = Cube(2, 0b0100)  # var0 field = 00
        assert c.is_empty()

    def test_zero_outputs_is_empty(self):
        assert Cube.from_string("1-", outputs=0).is_empty()

    def test_fixed_and_free_vars(self):
        c = Cube.from_string("1-0")
        assert c.fixed_vars() == [0, 2]
        assert c.free_vars() == [1]

    def test_size(self):
        assert Cube.from_string("1-0").size() == 2
        assert Cube.full(3).size() == 8

    def test_output_list(self):
        c = Cube.from_string("1", outputs=0b101)
        assert c.output_list() == [0, 2]


class TestRelations:
    def test_containment(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("1-0")
        assert big.contains(small)
        assert not small.contains(big)

    def test_containment_includes_outputs(self):
        a = Cube.from_string("1-", outputs=0b11)
        b = Cube.from_string("1-", outputs=0b01)
        assert a.contains(b)
        assert not b.contains(a)

    def test_intersection(self):
        a = Cube.from_string("1-")
        b = Cube.from_string("-0")
        i = a.intersect(b)
        assert i is not None and i.input_string() == "10"

    def test_disjoint_intersection(self):
        a = Cube.from_string("1-")
        b = Cube.from_string("0-")
        assert a.intersect(b) is None
        assert not a.intersects(b)

    def test_output_disjoint(self):
        a = Cube.from_string("--", outputs=0b01)
        b = Cube.from_string("--", outputs=0b10)
        assert not a.intersects(b)

    def test_distance(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("01-")
        assert a.distance(b) == 2
        assert a.distance(a) == 0

    def test_supercube(self):
        a = Cube.from_string("10")
        b = Cube.from_string("11")
        assert a.supercube(b).input_string() == "1-"


class TestOperators:
    def test_raise_var(self):
        c = Cube.from_string("10")
        assert c.raise_var(1).input_string() == "1-"

    def test_with_literal(self):
        c = Cube.full(2)
        assert c.with_literal(0, LIT_ZERO).input_string() == "0-"

    def test_cofactor_basic(self):
        c = Cube.from_string("1-0")
        p = Cube.from_string("1--")
        (cf,) = cofactor(Cover(3, 1, [c]), p).cubes
        assert cf.input_string() == "--0"

    def test_cofactor_disjoint(self):
        assert cofactor(Cover(1, 1, [Cube.from_string("1")]), Cube.from_string("0")).cubes == []

    def test_consensus_distance1(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("00-")  # differ in var0 only
        c = a.consensus(b)
        assert c is not None and c.input_string() == "-0-"

    def test_consensus_distance2_undefined(self):
        a = Cube.from_string("10")
        b = Cube.from_string("01")
        assert a.consensus(b) is None

    def test_minterms(self):
        assert sorted(Cube.from_string("1-").minterms()) == [0b01, 0b11]

    def test_to_expression(self):
        c = Cube.from_string("10-")
        assert c.to_expression(["a", "b", "c"]) == "a b'"
        assert Cube.full(2).to_expression() == "1"

    def test_supercube_of(self):
        cubes_ = [Cube.from_minterm(m, 2) for m in range(4)]
        assert supercube_of(cubes_).is_full_inputs()
        assert supercube_of([]) is None


class TestProperties:
    @given(cubes())
    def test_minterm_membership_matches_enumeration(self, c):
        listed = set(c.minterms())
        for m in range(1 << c.num_inputs):
            assert (m in listed) == c.contains_minterm(m)

    @given(cubes())
    def test_self_containment(self, c):
        assert c.contains(c)
        assert c.distance(c) == 0

    @given(st.data())
    def test_intersection_is_conjunction(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(cubes(st.just(n)))
        b = data.draw(cubes(st.just(n)))
        i = a.intersect(b)
        got = set(i.minterms()) if i is not None else set()
        expect = set(a.minterms()) & set(b.minterms())
        assert got == expect

    @given(st.data())
    def test_supercube_contains_both(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(cubes(st.just(n)))
        b = data.draw(cubes(st.just(n)))
        s = a.supercube(b)
        assert s.contains(a) and s.contains(b)

    @given(st.data())
    def test_consensus_is_implied(self, data):
        """The consensus of two cubes lies inside their union's closure:
        every consensus minterm is covered by a ∪ b on at least one side
        of the resolved variable."""
        n = data.draw(st.integers(1, 5))
        a = data.draw(cubes(st.just(n)))
        b = data.draw(cubes(st.just(n)))
        c = a.consensus(b)
        if c is None or a.distance(b) != 1:
            return
        # classic consensus soundness: a + b = a + b + c
        union = set(a.minterms()) | set(b.minterms())
        assert set(c.minterms()) <= union or all(
            m in union for m in c.minterms()
        )
