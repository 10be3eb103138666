"""End-to-end tests of the N-SHOT synthesis flow."""

import pytest

from repro.bench.circuits import figure1_sg, figure7a_sg, figure7b_sg
from repro.core import SynthesisError, analyze_initialization, synthesize
from repro.netlist import GateType
from repro.sg import SGBuilder
from tests.cover_reference import cube_from_string


class TestSynthesize:
    def test_celem_structure(self, celem_sg):
        circuit = synthesize(celem_sg, name="celem")
        nl = circuit.netlist
        assert nl.validate() == []
        mhs = [g for g in nl.gates if g.type == GateType.MHSFF]
        assert len(mhs) == 1
        # dual rail present
        assert mhs[0].output == "c" and mhs[0].output_n == "c_n"
        assert nl.primary_inputs == ["a", "b"]
        assert nl.primary_outputs == ["c"]

    def test_one_flipflop_per_non_input(self, xyz_sg, or_element_sg):
        for sg in (xyz_sg, or_element_sg):
            circuit = synthesize(sg)
            mhs = [g for g in circuit.netlist.gates if g.type == GateType.MHSFF]
            assert len(mhs) == len(sg.non_inputs)

    def test_cover_semantics_on_reachable_states(self, celem_sg, xyz_sg, or_element_sg):
        """The minimized cover realizes Table 1 on every reachable state:
        SET=1 exactly on ER(+a) (ON) and never on ER(-a)/QR(-a) (OFF)."""
        for sg in (celem_sg, xyz_sg, or_element_sg):
            circuit = synthesize(sg)
            spec = circuit.spec
            view = sg.dense()
            for a in sg.non_inputs:
                sr = spec.regions[a]
                for kind, direction in (("set", 1), ("reset", -1)):
                    o = spec.output_index(a, kind)
                    for m in view.codes_of(sr.union_bits("ER", direction)):
                        assert circuit.cover.contains_minterm(m, o)
                    for m in view.codes_of(sr.union_bits("ER", -direction)):
                        assert not circuit.cover.contains_minterm(m, o)
                    for m in view.codes_of(sr.union_bits("QR", -direction)):
                        assert not circuit.cover.contains_minterm(m, o)

    def test_rejects_invalid_sg(self):
        with pytest.raises(SynthesisError):
            synthesize(figure1_sg())  # CSC violation

    def test_validation_skip_surfaces_downstream_error(self):
        # figure1 violates CSC: its ON and OFF region sets overlap on
        # shared codes, which the minimizer rejects — skipping SG
        # validation just moves the failure downstream
        from repro.logic import MinimizationError

        with pytest.raises(MinimizationError):
            synthesize(figure1_sg(), validate=False)

    def test_single_traversal_flag(self, celem_sg):
        assert synthesize(celem_sg).single_traversal
        assert not synthesize(figure7b_sg()).single_traversal

    def test_exact_method(self, handshake_sg):
        circuit = synthesize(handshake_sg, method="exact")
        assert circuit.method == "exact"
        assert circuit.netlist.validate() == []

    def test_exact_no_worse_cube_count(self, celem_sg):
        h = synthesize(celem_sg, method="espresso")
        e = synthesize(celem_sg, method="exact")
        assert len(e.cover) <= len(h.cover)

    def test_describe_smoke(self, celem_sg):
        text = synthesize(celem_sg).describe()
        assert "single traversal" in text
        assert "delay req" in text

    def test_stats_delay_granularity(self, celem_sg, or_element_sg):
        """Delays are whole numbers of 1.2 ns levels, as in Table 2."""
        for sg in (celem_sg, or_element_sg):
            d = synthesize(sg).stats().delay
            assert abs(d / 1.2 - round(d / 1.2)) < 1e-9


class TestHandshake:
    def test_minimal_circuit(self, handshake_sg):
        """+r → +y → -r → -y: set_y = r (after gating), reset_y = r'."""
        circuit = synthesize(handshake_sg, name="hs")
        # folded planes: exactly 2 ack gates + 1 MHS
        kinds = sorted(g.type.value for g in circuit.netlist.gates)
        assert kinds == ["and", "and", "mhsff"]
        s = circuit.stats()
        assert s.delay == pytest.approx(2.4)


class TestInitialization:
    def test_celem_auto(self, celem_sg):
        circuit = synthesize(celem_sg)
        c = celem_sg.signal_index("c")
        decision = circuit.initialization[c]
        assert decision.initial_value == 0
        assert not decision.explicit_reset_required

    def test_initial_inside_er_auto(self):
        # start inside ER(+y): r already 1 at s0
        b = SGBuilder(["r", "y"], ["r"])
        b.arc("10", "+y", "11")
        b.arc("11", "-r", "01")
        b.arc("01", "-y", "00")
        b.arc("00", "+r", "10")
        b.initial("10")
        sg = b.build()
        circuit = synthesize(sg)
        d = circuit.initialization[sg.signal_index("y")]
        assert d.region == "ER(+a)"
        assert not d.explicit_reset_required

    def test_explicit_reset_needed_when_dc_resolved_low(self, celem_sg):
        """Force the don't care at s0 to 0: the flip-flop then needs an
        explicit initialization term (Section IV-F case 2)."""
        from repro.core import derive_sop_spec
        from repro.logic import Cover

        spec = derive_sop_spec(celem_sg)
        c = celem_sg.signal_index("c")
        ro = spec.output_index(c, "reset")
        so = spec.output_index(c, "set")
        n = celem_sg.num_signals
        # hand-built cover: set = a b c', reset = a' b' c (minterms only:
        # reset(s0 = 000) = 0)
        cover = Cover(n, spec.num_outputs, [
            cube_from_string("110", 1 << so),
            cube_from_string("001", 1 << ro),
        ])
        decisions = analyze_initialization(spec, cover)
        assert decisions[c].explicit_reset_required

    def test_mhs_init_attr_matches_initial_code(self, or_element_sg):
        circuit = synthesize(or_element_sg)
        for g in circuit.netlist.gates:
            if g.type == GateType.MHSFF:
                sig = or_element_sg.signal_index(g.output)
                want = or_element_sg.value(or_element_sg.initial, sig)
                assert g.attrs["init"] == want
