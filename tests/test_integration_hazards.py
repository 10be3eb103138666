"""Integration: closed-loop hazard-freeness (Theorem 2 in action).

These tests are the reproduction's heart: synthesized circuits run
against their specifications under randomized delays; internal SOP
nets may glitch, observable non-input signals must not.
"""

import importlib

import pytest

from repro.bench.circuits import (
    build_nondistributive,
    figure1_csc_sg,
    figure2_sg,
    figure7a_sg,
    figure7b_sg,
)
from repro.core import synthesize, verify_hazard_freeness
from repro.netlist import Gate, GateType, Netlist, Pin
from repro.sim import SGEnvironment, SimConfig, Simulator
from repro.stg import elaborate, parse_g
from tests.conftest import C_ELEMENT_G, XYZ_RING_G

VERIFY = importlib.import_module("repro.core.verify")


FAST = dict(runs=3, max_transitions=80)


class TestHazardFreeness:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: elaborate(parse_g(C_ELEMENT_G)),
            lambda: elaborate(parse_g(XYZ_RING_G)),
            figure1_csc_sg,
            figure2_sg,
            figure7a_sg,
            figure7b_sg,
        ],
        ids=["celem", "xyz", "orelem", "fig2", "fig7a", "fig7b"],
    )
    def test_externally_hazard_free(self, maker):
        sg = maker()
        circuit = synthesize(sg, delay_spread=0.45)
        summary = verify_hazard_freeness(circuit, **FAST)
        assert summary.ok, summary.runs[0].errors[:3]
        assert summary.total_observable_glitches == 0
        assert summary.total_transitions > 0

    def test_nondistributive_benchmark_closed_loop(self):
        sg = build_nondistributive("pmcm2")
        circuit = synthesize(sg, name="pmcm2", delay_spread=0.45)
        summary = verify_hazard_freeness(circuit, **FAST)
        assert summary.ok

    def test_internal_glitches_do_occur(self):
        """The point of the architecture: the planes DO glitch (the OR
        element's set plane is a+b with staggered input arrivals), yet
        nothing escapes."""
        circuit = synthesize(figure1_csc_sg(), delay_spread=0.45)  # jitter 0.45
        summary = verify_hazard_freeness(circuit, runs=6, max_transitions=120)
        assert summary.ok
        assert summary.total_internal_glitches > 0
        assert summary.total_observable_glitches == 0

    def test_extreme_environment_speed(self, monkeypatch):
        """The environment may react (almost) immediately — no
        fundamental-mode assumption."""
        monkeypatch.setattr(VERIFY, "INPUT_DELAY", (0.01, 0.4))
        circuit = synthesize(figure1_csc_sg(), delay_spread=0.45)
        summary = verify_hazard_freeness(circuit, runs=3, max_transitions=80)
        assert summary.ok

    def test_slow_environment(self, monkeypatch):
        monkeypatch.setattr(VERIFY, "INPUT_DELAY", (10.0, 30.0))
        monkeypatch.setattr(VERIFY, "MAX_TIME", 8000.0)
        circuit = synthesize(figure1_csc_sg(), delay_spread=0.45)
        summary = verify_hazard_freeness(circuit, runs=2, max_transitions=40)
        assert summary.ok


class TestAblationCElement:
    """Replace the MHS flip-flop with a plain RS latch: runt pulses from
    the hazardous planes can now fire the latch — the misbehaviour the
    MHS flip-flop exists to prevent (Section IV-B)."""

    def _with_rs_latch(self, circuit) -> Netlist:
        nl = Netlist(circuit.netlist.name + "_rs")
        for n in circuit.netlist.primary_inputs:
            nl.add_input(n)
        for n in circuit.netlist.primary_outputs:
            nl.add_output(n)
        for g in circuit.netlist.gates:
            if g.type == GateType.MHSFF:
                nl.add(
                    Gate(
                        g.name,
                        GateType.RSLATCH,
                        list(g.inputs),
                        g.output,
                        output_n=g.output_n,
                        attrs=dict(g.attrs),
                    )
                )
            else:
                nl.add(
                    Gate(g.name, g.type, list(g.inputs), g.output,
                         output_n=g.output_n, delay=g.delay, attrs=dict(g.attrs))
                )
        return nl

    def test_rs_latch_version_eventually_misbehaves(self):
        sg = figure1_csc_sg()
        circuit = synthesize(sg, delay_spread=0.45)
        failures = 0
        for seed in range(12):
            nl = self._with_rs_latch(circuit)
            sim = Simulator(nl, SimConfig(jitter=0.45, seed=seed))
            env = SGEnvironment(sg, sim, seed=seed ^ 0xAB, input_delay=(0.05, 2.0))
            report = env.run(max_time=1500.0, max_transitions=120)
            if not report.ok:
                failures += 1
        # the RS latch fires on glitch pulses the MHS would absorb; with
        # aggressive jitter at least one run must trip
        assert failures > 0

    def test_mhs_version_never_misbehaves_same_seeds(self):
        sg = figure1_csc_sg()
        circuit = synthesize(sg, delay_spread=0.45)
        for seed in range(12):
            sim = Simulator(circuit.netlist, SimConfig(jitter=0.45, seed=seed))
            env = SGEnvironment(sg, sim, seed=seed ^ 0xAB, input_delay=(0.05, 2.0))
            report = env.run(max_time=1500.0, max_transitions=120)
            assert report.ok, (seed, report.conformance_errors[:2])
