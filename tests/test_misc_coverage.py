"""Cross-cutting tests for smaller surfaces: writers, reports, repr."""

import pytest

from repro.baselines import synthesize_beerel, synthesize_complex_gate
from repro.core import format_results_table, synthesize
from repro.netlist import (
    DEFAULT_LIBRARY,
    Gate,
    GateType,
    Netlist,
    Pin,
    write_verilog,
)
from repro.sg import SGBuilder
from repro.stg import parse_g, write_g
from tests.conftest import C_ELEMENT_G


class TestVerilogCells:
    def test_cel_and_rslatch_instantiation(self):
        nl = Netlist("cells")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_output("q1")
        nl.add_output("q2")
        nl.add(Gate("c1", GateType.CEL, [Pin("a"), Pin("b")], "q1"))
        nl.add(Gate("r1", GateType.RSLATCH, [Pin("a"), Pin("b")], "q2", output_n="q2n"))
        text = write_verilog(nl)
        assert "CEL c1(" in text
        assert "RSLATCH r1(" in text
        assert "module CEL" in text and "module RSLATCH" in text

    def test_delay_emits_hash_delay(self):
        nl = Netlist("d")
        nl.add_input("a")
        nl.add_output("y")
        nl.add(Gate("dl", GateType.DELAY, [Pin("a")], "y", delay=2.4))
        assert "#2.4" in write_verilog(nl)

    def test_const_driver(self):
        nl = Netlist("k")
        nl.add_output("y")
        nl.add(Gate("k0", GateType.CONST, [], "y", attrs={"value": 1}))
        assert "1'b1" in write_verilog(nl)

    def test_baseline_netlists_serialize(self, celem_sg):
        for res in (synthesize_beerel(celem_sg), synthesize_complex_gate(celem_sg)):
            text = write_verilog(res.netlist)
            assert "module" in text


class TestReportFormatting:
    def test_results_table(self):
        rows = [("chu133", 22, "488/6.0", "560/4.8", "464/3.6")]
        text = format_results_table(rows)
        assert "chu133" in text
        assert "ASSASSIN" in text

    def test_circuit_repr_smoke(self, celem_sg):
        circuit = synthesize(celem_sg)
        assert "N-SHOT" in circuit.describe()
        assert repr(circuit.netlist)
        assert repr(celem_sg)


class TestStgWriter:
    def test_write_g_with_initial_values(self):
        stg = parse_g(C_ELEMENT_G)
        stg.set_initial_value("a", 0)
        text = write_g(stg)
        assert ".initial a=0" in text
        again = parse_g(text)
        assert again.initial_values["a"] == 0

    def test_write_g_explicit_places(self):
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
        out = write_g(stg)
        assert "p0" in out
        assert parse_g(out).place_pre.keys() >= {"p0"}


class TestTraceSpecBuilder:
    def test_multi_signal_cycle(self):
        b = SGBuilder(["a", "b", "c"], ["a"])
        b.chain("000", "+a", "+b", "+c", "-a", "-b", "-c")
        b.initial("000")
        sg = b.build()
        assert sg.num_states == 6
        from repro.sg import validate_for_synthesis

        assert validate_for_synthesis(sg).ok

    def test_explicit_initial(self):
        b = SGBuilder(["a"], ["a"])
        b.arc("0", "+a")
        b.arc("1", "-a")
        b.initial("1")
        assert b.build().initial == "1"


class TestLibraryEdgeCases:
    def test_degenerate_single_input_gate(self):
        g = Gate("g", GateType.AND, [Pin("a")], "o")
        assert DEFAULT_LIBRARY.gate_area(g) == 16.0

    def test_unknown_type_rejected(self):
        class Fake:
            type = "nope"
            inputs = []

        with pytest.raises(Exception):
            DEFAULT_LIBRARY.gate_area(Fake())  # type: ignore[arg-type]

    def test_input_and_const_are_free(self):
        for t in (GateType.INPUT, GateType.CONST):
            g = Gate("g", t, [], "o")
            assert DEFAULT_LIBRARY.gate_area(g) == 0.0
            assert DEFAULT_LIBRARY.gate_delay(g) == 0.0


class TestBeerelCovers:
    def test_monotonous_cubes_stay_inside_on_dc(self, celem_sg):
        """SYN cubes never touch foreign regions: each is inside its
        ER ∪ QR ∪ unreachable."""
        from repro.sg import signal_regions

        res = synthesize_beerel(celem_sg)
        c = celem_sg.signal_index("c")
        sr = signal_regions(celem_sg, c)
        reachable = {celem_sg.code(s) for s in celem_sg.states()}
        for kind, direction in (("set", 1), ("reset", -1)):
            view = celem_sg.dense()
            allowed = view.codes_of(
                sr.union_bits("ER", direction) | sr.union_bits("QR", direction)
            )
            for cube in res.covers[(c, kind)].cubes:
                for m in cube.minterms():
                    if m in reachable:
                        assert m in allowed
