"""Unit tests for the state graph automaton and builders."""

import pytest

from repro.sg import SGBuilder, SGError, StateGraph, Transition


class TestTransition:
    def test_directions(self):
        t = Transition(0, 1)
        assert t.rising
        assert t.opposite() == Transition(0, -1)

    def test_bad_direction(self):
        with pytest.raises(SGError):
            Transition(0, 2)

    def test_label(self):
        assert Transition(1, -1).label(["a", "b"]) == "-b"


class TestStateGraph:
    def make(self):
        sg = StateGraph(["a", "b"], ["a"])
        sg.add_state("00", 0b00)
        sg.add_state("10", 0b01)  # a=1 (bit 0)
        sg.add_state("11", 0b11)
        sg.add_state("01", 0b10)
        sg.add_arc("00", Transition(0, 1), "10")
        sg.add_arc("10", Transition(1, 1), "11")
        sg.add_arc("11", Transition(0, -1), "01")
        sg.add_arc("01", Transition(1, -1), "00")
        return sg

    def test_duplicate_signal_names_rejected(self):
        with pytest.raises(SGError):
            StateGraph(["a", "a"], ["a"])

    def test_code_from_sequence(self):
        sg = StateGraph(["a", "b"], ["a"])
        sg.add_state("s", [1, 0])
        assert sg.code("s") == 0b01

    def test_code_width_enforced(self):
        sg = StateGraph(["a"], ["a"])
        with pytest.raises(SGError):
            sg.add_state("s", 0b10)

    def test_readding_state_same_code_ok(self):
        sg = StateGraph(["a"], ["a"])
        sg.add_state("s", 0)
        sg.add_state("s", 0)
        with pytest.raises(SGError):
            sg.add_state("s", 1)

    def test_arc_must_flip_exactly_its_signal(self):
        sg = StateGraph(["a", "b"], ["a"])
        sg.add_state("00", 0b00)
        sg.add_state("11", 0b11)
        with pytest.raises(SGError):
            sg.add_arc("00", Transition(0, 1), "11")

    def test_arc_polarity_enforced(self):
        sg = StateGraph(["a"], ["a"])
        sg.add_state("0", 0)
        sg.add_state("1", 1)
        with pytest.raises(SGError):
            sg.add_arc("1", Transition(0, 1), "0")  # +a from a=1

    def test_determinism_enforced(self):
        sg = StateGraph(["a", "b"], ["a"])
        sg.add_state("s", 0b00)
        sg.add_state("d1", 0b01)
        sg.add_state("d2", 0b01)
        sg.add_arc("s", Transition(0, 1), "d1")
        with pytest.raises(SGError):
            sg.add_arc("s", Transition(0, 1), "d2")

    def test_enabled_and_succ(self):
        sg = self.make()
        assert sg.enabled("00") == [Transition(0, 1)]
        assert sg.succ("00", Transition(0, 1)) == "10"
        assert sg.succ("00", Transition(1, 1)) is None

    def test_excitation_queries(self):
        sg = self.make()
        assert sg.excitation("10", 1) == Transition(1, 1)
        assert sg.excitation("00", 1) is None

    def test_predecessors(self):
        sg = self.make()
        assert sg.predecessors("10") == [("00", Transition(0, 1))]

    def test_reachability(self):
        sg = self.make()
        sg.add_state("orphan", 0b00)
        assert "orphan" not in sg.reachable()
        trimmed = sg.restrict_to_reachable()
        assert trimmed.num_states == 4

    def test_state_label_marks_excited(self):
        sg = self.make()
        assert sg.state_label("00") == "0*0"
        assert sg.state_label("10") == "10*"

    def test_value_and_vector(self):
        sg = self.make()
        assert sg.value("11", 0) == 1
        assert sg.value("10", 1) == 0

    def test_describe_smoke(self):
        assert "signals" in self.make().describe()


class TestSGBuilder:
    def test_inferred_destination(self):
        b = SGBuilder(["a", "b"], ["a"])
        dst = b.arc("00", "+a")
        assert dst == "10"

    def test_chain(self):
        b = SGBuilder(["a", "b"], ["a"])
        end = b.chain("00", "+a", "+b", "-a", "-b")
        assert end == "00"

    def test_tagged_states_share_codes(self):
        b = SGBuilder(["a"], ["a"])
        b.state("0/x")
        b.state("0/y")
        assert b.sg.code("0/x") == b.sg.code("0/y")

    def test_bad_transition_string(self):
        b = SGBuilder(["a"], ["a"])
        with pytest.raises(SGError):
            b.arc("0", "a+")

    def test_wrong_code_width(self):
        b = SGBuilder(["a", "b"], ["a"])
        with pytest.raises(SGError):
            b.state("0")

    def test_build_restricts_to_reachable(self):
        b = SGBuilder(["a"], ["a"])
        b.arc("0", "+a")
        b.arc("1", "-a")
        b.initial("0")
        assert b.build().num_states == 2


class TestTraceSpec:
    def test_basic(self):
        b = SGBuilder(["r", "y"], ["r"])
        assert b.chain("00", "+r", "+y", "-r", "-y") == "00"
        b.initial("00")
        sg = b.build()
        assert sg.num_states == 4
        assert sg.initial == "00"

    def test_explicit_destination(self):
        b = SGBuilder(["a"], ["a"])
        b.arc("0", "+a", "1")
        b.arc("1", "-a", "0")
        b.initial("0")
        assert b.build().num_states == 2
