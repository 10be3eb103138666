"""Fault injection: the verification oracle is not vacuous.

Hazard-freeness verification passing on every synthesized circuit is
only meaningful if the checker *fails* on broken ones.  These tests
drive the fault models of :mod:`repro.faults` — stuck-at nets, swapped
set/reset, inverted literals, deleted acknowledgement gating, missing
Equation (1) compensation — through the closed-loop oracle and assert
it reports violations on at least one seed, while the golden circuit
stays clean under identical seeds.
"""

import pytest

from repro.core import run_oracle, synthesize
from tests.fault_models import (
    DelayViolationFault,
    FaultModel,
    InvertedLiteralFault,
    StuckAtFault,
    SwappedSetResetFault,
)
from repro.netlist import GateType
from repro.sim import SimConfig
from repro.stg import elaborate, parse_g
from tests.conftest import C_ELEMENT_G


def verdicts(fault: FaultModel, sg, netlist, *, seeds=range(8), jitter=0.3,
             max_time=1200.0):
    """Per-seed oracle verdicts for a fault applied to a golden netlist."""
    faulty = fault.apply_netlist(netlist)
    out = []
    for seed in seeds:
        config = fault.apply_config(SimConfig(jitter=jitter, seed=seed))
        out.append(
            run_oracle(
                faulty, sg, config, max_time=max_time,
                max_transitions=80, observe=lambda sim, _env: fault.arm(sim),
            )
        )
    return out


def runs_clean(fault: FaultModel, sg, netlist, **kw) -> bool:
    """True when every seed's closed-loop run is fully conformant."""
    return all(
        v.status == "clean" and v.transitions > 0
        for v in verdicts(fault, sg, netlist, **kw)
    )


@pytest.fixture()
def golden():
    sg = elaborate(parse_g(C_ELEMENT_G))
    circuit = synthesize(sg, name="celem", delay_spread=0.3)
    return sg, circuit


class TestOracleSensitivity:
    def test_golden_is_clean(self, golden):
        sg, circuit = golden
        assert runs_clean(FaultModel(), sg, circuit.netlist)

    def test_swapped_set_reset_detected(self, golden):
        sg, circuit = golden
        ff = next(
            g for g in circuit.netlist.gates if g.type == GateType.MHSFF
        )
        fault = SwappedSetResetFault(ff.name)
        assert not runs_clean(fault, sg, circuit.netlist)

    def test_inverted_literal_detected(self, golden):
        sg, circuit = golden
        gate = next(
            g
            for g in circuit.netlist.gates
            if g.type == GateType.AND and g.inputs
        )
        fault = InvertedLiteralFault(gate.name, 0)
        assert not runs_clean(fault, sg, circuit.netlist)

    def test_stuck_at_zero_set_plane_detected(self, golden):
        """Set plane tied to constant 0: the output can never rise — a
        progress failure."""
        sg, circuit = golden
        gate = next(
            g for g in circuit.netlist.gates if g.name.startswith("ack_set")
        )
        fault = StuckAtFault(gate.output, 0)
        assert not runs_clean(fault, sg, circuit.netlist)

    def test_stuck_at_one_reset_detected(self, golden):
        sg, circuit = golden
        gate = next(
            g for g in circuit.netlist.gates if g.name.startswith("ack_reset")
        )
        fault = StuckAtFault(gate.output, 1)
        assert not runs_clean(fault, sg, circuit.netlist)

    def test_missing_delay_compensation_detected(self):
        """The Section IV-C trespassing-pulse failure, reproduced.

        ``pmcm2`` has an asymmetric plane structure (2-level set vs
        1-level reset): under ±40% delay bounds Equation (1) requires a
        local delay line.  ``DelayViolationFault(None, 0.0)`` strips the
        compensation wholesale; operated under ±40% jitter a stale
        set-plane pulse crosses the acknowledgement window and misfires
        the output — which the oracle must catch.  The properly
        compensated circuit passes under identical seeds.
        """
        from repro.bench.circuits import build_nondistributive

        sg = build_nondistributive("pmcm2")
        compensated = synthesize(sg, name="pmcm2", delay_spread=0.4)
        assert compensated.compensation_required

        kw = dict(seeds=range(10), jitter=0.4, max_time=2500.0)
        fault = DelayViolationFault(None, 0.0)
        assert not runs_clean(fault, sg, compensated.netlist, **kw), (
            "operating a circuit with its Equation (1) compensation "
            "stripped must eventually misfire"
        )
        assert runs_clean(FaultModel(), sg, compensated.netlist, **kw)

    def test_fault_transforms_are_pure(self, golden):
        """Applying a fault never mutates the golden netlist."""
        sg, circuit = golden
        before = [
            (g.name, [(p.net, p.inverted) for p in g.inputs], g.delay)
            for g in circuit.netlist.gates
        ]
        ff = next(
            g for g in circuit.netlist.gates if g.type == GateType.MHSFF
        )
        SwappedSetResetFault(ff.name).apply_netlist(circuit.netlist)
        gate = next(
            g
            for g in circuit.netlist.gates
            if g.type == GateType.AND and g.inputs
        )
        InvertedLiteralFault(gate.name, 0).apply_netlist(circuit.netlist)
        StuckAtFault(gate.output, 0).apply_netlist(circuit.netlist)
        after = [
            (g.name, [(p.net, p.inverted) for p in g.inputs], g.delay)
            for g in circuit.netlist.gates
        ]
        assert before == after
