"""Tests for gates, library, netlist metrics and writers."""

import pytest

from repro.netlist import (
    DEFAULT_LIBRARY,
    Gate,
    GateType,
    Netlist,
    NetlistError,
    Pin,
    write_verilog,
)
from repro.netlist.trees import build_gate_tree


def simple_sop() -> Netlist:
    """f = a b' + c into an MHS flip-flop."""
    nl = Netlist("sop")
    for n in "abc":
        nl.add_input(n)
    nl.add_output("q")
    nl.add(Gate("p0", GateType.AND, [Pin("a"), Pin("b", inverted=True)], "n0"))
    nl.add(Gate("o0", GateType.OR, [Pin("n0"), Pin("c")], "n1"))
    nl.add(Gate("p1", GateType.AND, [Pin("a", inverted=True), Pin("b")], "n2"))
    nl.add(
        Gate("ff", GateType.MHSFF, [Pin("n1"), Pin("n2")], "q", output_n="q_n")
    )
    return nl


class TestLibrary:
    def test_and_area_scales_with_fanin(self):
        a2 = DEFAULT_LIBRARY.gate_area(Gate("g", GateType.AND, [Pin("a"), Pin("b")], "o"))
        a3 = DEFAULT_LIBRARY.gate_area(
            Gate("g", GateType.AND, [Pin("a"), Pin("b"), Pin("c")], "o")
        )
        assert a3 > a2

    def test_mhs_comparable_to_celement(self):
        mhs = DEFAULT_LIBRARY.gate_area(Gate("m", GateType.MHSFF, [], "q"))
        cel = DEFAULT_LIBRARY.gate_area(Gate("c", GateType.CEL, [], "q"))
        assert 0.5 <= mhs / cel <= 1.5  # "comparable in physical size"

    def test_delay_line_area_scales(self):
        d1 = DEFAULT_LIBRARY.gate_area(
            Gate("d", GateType.DELAY, [Pin("a")], "o", delay=1.2)
        )
        d3 = DEFAULT_LIBRARY.gate_area(
            Gate("d", GateType.DELAY, [Pin("a")], "o", delay=3.6)
        )
        assert d3 == 3 * d1

    def test_latch_two_levels(self):
        rs = DEFAULT_LIBRARY.gate_delay(Gate("r", GateType.RSLATCH, [], "q"))
        mhs = DEFAULT_LIBRARY.gate_delay(Gate("m", GateType.MHSFF, [], "q"))
        assert rs == 2 * mhs

    def test_unit_level_delay(self):
        g = Gate("g", GateType.AND, [Pin("a")], "o")
        assert DEFAULT_LIBRARY.gate_delay(g) == 1.2


class TestNetlistStructure:
    def test_single_driver_enforced(self):
        nl = Netlist()
        nl.add(Gate("g1", GateType.AND, [Pin("a")], "n"))
        with pytest.raises(NetlistError):
            nl.add(Gate("g2", GateType.AND, [Pin("b")], "n"))

    def test_cannot_drive_primary_input(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError):
            nl.add(Gate("g", GateType.AND, [Pin("b")], "a"))

    def test_validate_finds_undriven(self):
        nl = Netlist()
        nl.add_output("q")
        nl.add(Gate("g", GateType.AND, [Pin("ghost")], "x"))
        problems = nl.validate()
        assert any("ghost" in p for p in problems)
        assert any("'q'" in p for p in problems)

    def test_validate_clean(self):
        assert simple_sop().validate() == []

    def test_fanout_and_driver(self):
        nl = simple_sop()
        assert nl.driver("n0").name == "p0"
        assert {g.name for g in nl.fanout("a")} == {"p0", "p1"}

    def test_nets(self):
        nl = simple_sop()
        assert {"a", "b", "c", "q", "q_n", "n0", "n1", "n2"} <= nl.nets()

    def test_fresh_net_unique(self):
        nl = Netlist()
        assert nl.fresh_net() != nl.fresh_net()


class TestMetrics:
    def test_critical_path_through_mhs(self):
        nl = simple_sop()
        # a -> AND -> OR -> MHSFF = 3 levels = 3.6
        assert nl.critical_path() == pytest.approx(3.6)

    def test_stats_row(self):
        s = simple_sop().stats()
        assert s.num_gates == 4
        assert s.num_sequential == 1
        assert "/" in s.row()

    def test_num_literals(self):
        assert simple_sop().num_literals() == 6

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        nl.add_output("q")
        nl.add(Gate("g1", GateType.AND, [Pin("q")], "x"))
        nl.add(Gate("g2", GateType.OR, [Pin("x")], "q"))
        with pytest.raises(NetlistError):
            nl.critical_path()

    def test_cut_attribute_breaks_cycle(self):
        nl = Netlist()
        nl.add_output("q")
        nl.add(Gate("g1", GateType.AND, [Pin("q")], "x"))
        g2 = Gate("g2", GateType.OR, [Pin("x")], "q")
        g2.attrs["cut"] = True
        nl.add(g2)
        assert nl.critical_path() == pytest.approx(2.4)

    def test_sequential_sources_new_path(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_output("y")
        nl.add(Gate("ff", GateType.MHSFF, [Pin("a"), Pin("a")], "q", output_n="qn"))
        nl.add(Gate("g", GateType.AND, [Pin("q")], "y"))
        # a->ff (1.2) ends a path; q->AND->y (1.2) is separate
        assert nl.critical_path() == pytest.approx(1.2)


class TestGateTree:
    def test_small_single_gate(self):
        nl = Netlist()
        pins = [Pin(f"i{k}") for k in range(4)]
        depth = build_gate_tree(nl, GateType.OR, pins, "out", "t")
        assert depth == 1
        assert len(nl.gates) == 1

    def test_wide_two_levels(self):
        nl = Netlist()
        pins = [Pin(f"i{k}") for k in range(20)]
        depth = build_gate_tree(nl, GateType.OR, pins, "out", "t")
        assert depth == 2
        assert all(len(g.inputs) <= 8 for g in nl.gates)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_gate_tree(Netlist(), GateType.AND, [], "o", "t")

    def test_rejects_non_andor(self):
        with pytest.raises(ValueError):
            build_gate_tree(Netlist(), GateType.INV, [Pin("a")], "o", "t")


class TestVerilog:
    def test_contains_primitives_and_module(self):
        text = write_verilog(simple_sop())
        assert "module MHSFF" in text
        assert "module sop(" in text
        assert "assign" in text
        assert "MHSFF ff(" in text

    def test_inversion_bubbles(self):
        text = write_verilog(simple_sop())
        assert "~b" in text

    def test_identifier_sanitization(self):
        nl = Netlist("weird-name")
        nl.add_input("in.0")
        nl.add_output("q")
        nl.add(Gate("g", GateType.AND, [Pin("in.0")], "q"))
        text = write_verilog(nl)
        assert "in_0" in text and "weird_name" in text
