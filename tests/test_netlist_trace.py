"""Tests for critical-path tracing."""

import pytest

from repro.core import synthesize
from repro.netlist import Gate, GateType, Netlist, Pin


class TestCriticalPathTrace:
    def test_trace_matches_critical_path(self, celem_sg, or_element_sg):
        for sg in (celem_sg, or_element_sg):
            circuit = synthesize(sg)
            nl = circuit.netlist
            trace = nl.critical_path_trace()
            assert trace, "non-empty netlist must have a path"
            assert trace[-1][1] == pytest.approx(nl.critical_path())

    def test_trace_is_connected(self, or_element_sg):
        nl = synthesize(or_element_sg).netlist
        trace = nl.critical_path_trace()
        by_name = {g.name: g for g in nl.gates}
        for (a, _), (b, _) in zip(trace, trace[1:]):
            ga, gb = by_name[a], by_name[b]
            outs = {ga.output, ga.output_n}
            assert outs & {p.net for p in gb.inputs}

    def test_trace_arrival_monotone(self, or_element_sg):
        nl = synthesize(or_element_sg).netlist
        times = [t for _, t in nl.critical_path_trace()]
        assert times == sorted(times)

    def test_four_level_story(self):
        """AND → OR → ack → MHS: the 4.8 ns of Table 2, by name."""
        nl = Netlist("four")
        for n in "abc":
            nl.add_input(n)
        nl.add_output("q")
        nl.add(Gate("and_p1", GateType.AND, [Pin("a"), Pin("b")], "p1"))
        nl.add(Gate("and_p2", GateType.AND, [Pin("a"), Pin("c")], "p2"))
        nl.add(Gate("or_set", GateType.OR, [Pin("p1"), Pin("p2")], "s"))
        nl.add(Gate("ack_set", GateType.AND, [Pin("s"), Pin("qn")], "sg_"))
        nl.add(Gate("ack_rst", GateType.AND, [Pin("a", True), Pin("q")], "rg"))
        nl.add(Gate("mhs", GateType.MHSFF, [Pin("sg_"), Pin("rg")], "q", output_n="qn"))
        trace = nl.critical_path_trace()
        names = [n for n, _ in trace]
        assert names == ["and_p1", "or_set", "ack_set", "mhs"] or names == [
            "and_p2",
            "or_set",
            "ack_set",
            "mhs",
        ]
        assert trace[-1][1] == pytest.approx(4.8)

    def test_empty_netlist(self):
        assert Netlist("empty").critical_path_trace() == []

    def test_cut_terminates_trace(self):
        nl = Netlist("cut")
        nl.add_input("a")
        nl.add_output("y")
        nl.add(Gate("g1", GateType.AND, [Pin("a")], "x"))
        pad = Gate("pad", GateType.DELAY, [Pin("x")], "y", delay=2.4,
                   attrs={"cut": True})
        nl.add(pad)
        trace = nl.critical_path_trace()
        assert [n for n, _ in trace] == ["g1", "pad"]
        assert trace[-1][1] == pytest.approx(1.2 + 2.4)
