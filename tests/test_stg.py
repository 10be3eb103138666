"""Tests for the STG front-end: net semantics, parser, elaboration."""

import pytest

from repro.stg import (
    ElaborationError,
    Stg,
    StgError,
    StgTransition,
    elaborate,
    parse_g,
    write_g,
)
from repro.stg import reachability
from tests.conftest import C_ELEMENT_G, XYZ_RING_G


class TestStgTransition:
    def test_parse(self):
        t = StgTransition.parse("a+")
        assert t.signal == "a" and t.rising and t.instance == 0

    def test_parse_instance(self):
        t = StgTransition.parse("req-/2")
        assert t.signal == "req" and not t.rising and t.instance == 2

    def test_parse_bad(self):
        with pytest.raises(StgError):
            StgTransition.parse("a")

    def test_str_roundtrip(self):
        for s in ("a+", "b-", "c+/3"):
            assert str(StgTransition.parse(s)) == s


class TestStgNet:
    def make_ring(self):
        stg = Stg(["a"], ["b"])
        stg.connect("a+", "b+")
        stg.connect("b+", "a-")
        stg.connect("a-", "b-")
        stg.connect("b-", "a+")
        stg.mark_between("b-", "a+")
        return stg

    def test_signal_classes_disjoint(self):
        with pytest.raises(StgError):
            Stg(["a"], ["a"])

    def test_undeclared_signal_rejected(self):
        stg = Stg(["a"], ["b"])
        with pytest.raises(StgError):
            stg.add_transition("z+")

    def test_enabled_and_fire(self):
        stg = self.make_ring()
        m0 = frozenset(stg.initial_marking)
        enabled = stg.enabled(m0)
        assert [str(t) for t in enabled] == ["a+"]
        m1 = stg.fire(m0, enabled[0])
        assert [str(t) for t in stg.enabled(m1)] == ["b+"]

    def test_fire_disabled_rejected(self):
        stg = self.make_ring()
        with pytest.raises(StgError):
            stg.fire(frozenset(), StgTransition("a", 1))

    def test_safety_enforced(self):
        stg = Stg(["a"], ["b"])
        p = stg.connect("a+", "b+")
        stg.mark(p)
        # firing a+ would double-mark p
        m = frozenset(stg.initial_marking)
        stg.add_transition("a+")
        with pytest.raises(StgError):
            stg.fire(m, StgTransition("a", 1))

    def test_mark_unknown_place(self):
        stg = Stg(["a"], ["b"])
        with pytest.raises(StgError):
            stg.mark("nowhere")

    def test_describe_smoke(self):
        assert "STG" in self.make_ring().describe()


class TestParser:
    def test_celem(self):
        stg = parse_g(C_ELEMENT_G)
        assert stg.input_signals == ["a", "b"]
        assert stg.output_signals == ["c"]
        assert len(stg.transitions) == 6
        assert len(stg.initial_marking) == 2

    def test_roundtrip(self):
        stg = parse_g(C_ELEMENT_G)
        again = parse_g(write_g(stg))
        assert sorted(map(str, again.transitions)) == sorted(map(str, stg.transitions))
        sg1, sg2 = elaborate(stg), elaborate(again)
        assert sg1.num_states == sg2.num_states

    def test_explicit_places(self):
        text = """
        .model t
        .inputs a
        .outputs b
        .graph
        a+ p0
        p0 b+
        b+ a-
        a- b-
        b- a+
        .marking { <b-,a+> }
        .end
        """
        stg = parse_g(text)
        assert "p0" in set(stg.places())
        assert elaborate(stg).num_states == 4

    def test_comments_ignored(self):
        stg = parse_g("# hi\n" + C_ELEMENT_G + "# bye\n")
        assert len(stg.transitions) == 6

    def test_dummy_rejected(self):
        with pytest.raises(StgError):
            parse_g(".model x\n.dummy d\n.end\n")

    def test_unknown_directive(self):
        with pytest.raises(StgError):
            parse_g(".bogus\n")

    def test_initial_directive(self):
        text = C_ELEMENT_G.replace(".end", ".initial a=0 b=0\n.end")
        stg = parse_g(text)
        assert stg.initial_values == {"a": 0, "b": 0}


def _initial_values(stg: Stg) -> dict[str, int]:
    """Each signal's value in the elaborated graph's initial state."""
    sg = elaborate(stg)
    return {s: sg.value(sg.initial, i) for i, s in enumerate(sg.signals)}


class TestInference:
    def test_celem_inference(self):
        values = _initial_values(parse_g(C_ELEMENT_G))
        assert values == {"a": 0, "b": 0, "c": 0}

    def test_falling_first(self):
        text = """
        .model t
        .inputs a
        .outputs b
        .graph
        a- b-
        b- a+
        a+ b+
        b+ a-
        .marking { <b+,a-> }
        .end
        """
        values = _initial_values(parse_g(text))
        assert values == {"a": 1, "b": 1}

    def test_explicit_override(self):
        stg = parse_g(C_ELEMENT_G)
        stg.set_initial_value("a", 0)
        assert _initial_values(stg)["a"] == 0


class TestElaboration:
    def test_celem_states(self):
        assert elaborate(parse_g(C_ELEMENT_G)).num_states == 8

    def test_xyz_states(self):
        assert elaborate(parse_g(XYZ_RING_G)).num_states == 6

    def test_signals_order_inputs_first(self):
        sg = elaborate(parse_g(C_ELEMENT_G))
        assert sg.signals == ["a", "b", "c"]
        assert sg.input_names == ["a", "b"]

    def test_initial_state_code(self):
        sg = elaborate(parse_g(C_ELEMENT_G))
        assert sg.code(sg.initial) == 0

    def test_state_budget(self, monkeypatch):
        monkeypatch.setattr(reachability, "MAX_STATES", 3)
        with pytest.raises(ElaborationError):
            elaborate(parse_g(C_ELEMENT_G))

    def test_inconsistent_stg_detected(self):
        text = """
        .model bad
        .inputs a
        .outputs b
        .graph
        a+ b+
        b+ a+
        a+ b-
        .marking { <b+,a+> }
        .end
        """
        # a+ enabled again while a=1 somewhere along the flow
        with pytest.raises((ElaborationError, StgError)):
            elaborate(parse_g(text))

    def test_arc_labels_match_net(self):
        stg = parse_g(C_ELEMENT_G)
        sg = elaborate(stg)
        seen = set()
        for s in sg.states():
            for t, _ in sg.successors(s):
                seen.add((sg.signals[t.signal], t.direction))
        assert ("c", 1) in seen and ("c", -1) in seen
