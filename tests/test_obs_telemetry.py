"""Hazard telemetry: pulse classification, ω-margin, delay slack.

The seeded-pulse tests are the Theorem 2 threshold measured from the
outside: a pulse injected on an MHS master input below ω must be
recorded as *filtered* with the right margin, one above ω as
*surviving* — and the model's own absorption counter must agree.
"""

import pytest

from repro.core import synthesize, verify_hazard_freeness
from repro.obs.telemetry import HazardTelemetry
from repro.sim import SimConfig, Simulator

OMEGA = SimConfig().mhs.omega  # 0.4


@pytest.fixture()
def celem_circuit(celem_sg):
    return synthesize(celem_sg, name="celem")


def _armed_sim(circuit, tele):
    sim = Simulator(circuit.netlist, SimConfig(seed=0))
    tele.attach(sim)
    sim.initialize({"a": 0, "b": 0})
    return sim


class TestSeededPulses:
    def test_narrow_pulse_filtered_with_margin(self, celem_circuit):
        tele = HazardTelemetry.for_circuit(celem_circuit)
        sim = _armed_sim(celem_circuit, tele)
        width = 0.2
        assert width < OMEGA
        sim.inject("set_c_g1", 1, at=5.0)
        sim.inject("set_c_g1", 0, at=5.0 + width)
        sim.run(until=20.0)
        st = tele.signals["c"]
        assert st.filtered_widths == [pytest.approx(width)]
        assert st.surviving_widths == []
        assert st.omega_margin["filtered"] == pytest.approx(OMEGA - width)
        assert st.min_omega_margin == pytest.approx(OMEGA - width)
        # the model's absorption counter agrees with the measurement
        assert tele.totals()["mhs_filtered"] == 1
        assert sim.value("c") == 0  # the runt never committed

    def test_wide_pulse_survives_with_margin(self, celem_circuit):
        tele = HazardTelemetry.for_circuit(celem_circuit)
        sim = _armed_sim(celem_circuit, tele)
        width = 0.6
        assert width > OMEGA
        sim.inject("set_c_g1", 1, at=5.0)
        sim.inject("set_c_g1", 0, at=5.0 + width)
        sim.run(until=30.0)
        st = tele.signals["c"]
        assert st.filtered_widths == []
        assert pytest.approx(width) == min(st.surviving_widths)
        assert st.omega_margin["surviving"] == pytest.approx(width - OMEGA)
        assert st.min_omega_margin == pytest.approx(width - OMEGA)
        assert tele.totals()["mhs_filtered"] == 0


class TestForCircuit:
    def test_structure(self, celem_circuit):
        tele = HazardTelemetry.for_circuit(celem_circuit)
        assert set(tele.signals) == {"c"}
        st = tele.signals["c"]
        assert st.mhs_gate == "mhs_c"
        # celem's Equation (1) bound is negative: no compensation
        assert st.static_bound == pytest.approx(-1.2)
        assert st.t_del == 0.0

    def test_totals_empty_before_runs(self, celem_circuit):
        t = HazardTelemetry.for_circuit(celem_circuit).totals()
        assert t["pulses"] == 0
        assert t["min_omega_margin"] is None
        assert t["min_delay_slack"] is None


class TestClosedLoop:
    def test_verify_attaches_and_summarizes(self, celem_circuit):
        tele = HazardTelemetry.for_circuit(celem_circuit)
        summary = verify_hazard_freeness(
            celem_circuit, runs=2, telemetry=tele, keep_traces=True
        )
        assert summary.ok
        assert "c" in tele.signals
        totals = tele.totals()
        # real traversals: wide set/reset pulses, all surviving
        assert totals["surviving"] > 0
        assert totals["min_omega_margin"] > 0
        # the enable rails never open onto an excited plane
        assert totals["min_delay_slack"] > 0
        assert totals["region_glitches"] == 0
        # captured traces include the internal SOP nets
        assert "set_c_g1" in summary.traces
        assert len(summary.traces["c"].changes[1:]) > 0

    def test_render_text(self, celem_circuit):
        tele = HazardTelemetry.for_circuit(celem_circuit)
        verify_hazard_freeness(celem_circuit, runs=1, telemetry=tele)
        text = tele.render_text()
        assert "ω-margin" in text
        assert "delay slack" in text
        assert "mhs_pulses_filtered" in text

    def test_no_collection_without_request(self, celem_circuit):
        summary = verify_hazard_freeness(celem_circuit, runs=1)
        assert summary.traces is None
