"""Fault models, and the oracle's fault coverage over the paper suite.

Covers the fault-model transforms and the headline oracle-sensitivity
claim: every fault :func:`enumerate_faults` lists for the paper-suite
circuits goes through the closed-loop oracle, and ≥90% of them are
detected while the golden circuits stay clean.
"""

import pickle

import pytest

from repro.core import run_oracle, synthesize
from tests.fault_models import (
    DelayViolationFault,
    FaultModel,
    InvertedLiteralFault,
    OmegaMarginFault,
    StuckAtFault,
    SwappedSetResetFault,
    TransientPulseFault,
    enumerate_faults,
    rebuild_netlist,
)
from repro.netlist import GateType, Pin
from repro.sim import SimConfig
from repro.stg import elaborate, parse_g
from tests.conftest import C_ELEMENT_G


@pytest.fixture(scope="module")
def golden():
    sg = elaborate(parse_g(C_ELEMENT_G))
    circuit = synthesize(sg, name="celem", delay_spread=0.3)
    return sg, circuit


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
class TestFaultModels:
    def test_enumerate_covers_catalogue(self, golden):
        _, circuit = golden
        faults = enumerate_faults(circuit.netlist)
        kinds = {f.kind for f in faults}
        assert {"stuck", "inverted-literal", "swapped-set-reset",
                "seu", "omega-margin"} <= kinds
        # dedupe: no fault listed twice
        assert len(faults) == len(set(faults))

    def test_models_pickle(self, golden):
        """Frozen dataclasses must survive the multiprocessing pipe."""
        _, circuit = golden
        for f in enumerate_faults(circuit.netlist):
            assert pickle.loads(pickle.dumps(f)) == f

    def test_stuck_at_replaces_both_rails(self, golden):
        _, circuit = golden
        ff = next(g for g in circuit.netlist.gates if g.type == GateType.MHSFF)
        faulty = StuckAtFault(ff.output, 1).apply_netlist(circuit.netlist)
        consts = {
            g.output: g.attrs["value"]
            for g in faulty.gates
            if g.type == GateType.CONST and g.output.startswith(ff.output)
        }
        assert consts[ff.output] == 1
        if ff.output_n:
            assert faulty.driver(ff.output_n).attrs["value"] == 0

    def test_stuck_at_rejects_primary_input(self, golden):
        _, circuit = golden
        pi = circuit.netlist.primary_inputs[0]
        with pytest.raises(ValueError, match="primary input"):
            StuckAtFault(pi, 0).apply_netlist(circuit.netlist)

    def test_unknown_gate_raises(self, golden):
        _, circuit = golden
        for fault in (
            InvertedLiteralFault("nope"),
            SwappedSetResetFault("nope"),
            DelayViolationFault("nope"),
        ):
            with pytest.raises(ValueError):
                fault.apply_netlist(circuit.netlist)

    def test_delay_fault_hits_every_delay_line(self):
        from repro.bench.circuits import build_nondistributive

        sg = build_nondistributive("pmcm2")
        circuit = synthesize(sg, name="pmcm2", delay_spread=0.4)
        lines = [g for g in circuit.netlist.gates if g.type == GateType.DELAY]
        assert lines, "pmcm2 at ±40% must require compensation"
        faulty = DelayViolationFault(None, 0.0).apply_netlist(circuit.netlist)
        for g in faulty.gates:
            if g.type == GateType.DELAY:
                assert g.delay == 0.0

    def test_omega_margin_shrinks_config(self):
        cfg = OmegaMarginFault(omega=0.05).apply_config(SimConfig())
        assert cfg.mhs.omega == 0.05
        # tau untouched
        assert cfg.mhs.tau == SimConfig().mhs.tau

    def test_rebuild_is_deep(self, golden):
        _, circuit = golden
        copy = rebuild_netlist(circuit.netlist, lambda g: g)
        g0 = copy.gates[0]
        g0.inputs.append(Pin("bogus"))
        assert len(circuit.netlist.gates[0].inputs) != len(g0.inputs) or not (
            circuit.netlist.gates[0].inputs is g0.inputs
        )

    def test_seu_described(self):
        f = TransientPulseFault("n1", at=17.0, width=3.0)
        assert f.describe() == "seu@n1@t17w3"
        assert TransientPulseFault("n1").describe() == "seu@n1@rnd2w3"


# ----------------------------------------------------------------------
# the headline robustness claim
# ----------------------------------------------------------------------
def _c_element():
    return elaborate(parse_g(C_ELEMENT_G))


def _xyz_ring():
    from repro.bench.circuits import ring

    return elaborate(ring(["x", "y", "z"], ["x"]))


def _handshake():
    from repro.sg import SGBuilder

    b = SGBuilder(["r", "y"], ["r"])
    b.arc("00", "+r", "10")
    b.arc("10", "+y", "11")
    b.arc("11", "-r", "01")
    b.arc("01", "-y", "00")
    b.initial("00")
    return b.build()


def _fork_join():
    from repro.bench.circuits import fork_join

    return elaborate(fork_join("m", ["p", "q"], name="forkjoin"))


def _chu150():
    from repro.bench.circuits import build_distributive

    return elaborate(build_distributive("chu150"))


def _pmcm2():
    from repro.bench.circuits import build_nondistributive

    return build_nondistributive("pmcm2")


#: the small paper-derived circuits whose closed-loop runs are fast
#: enough for a per-fault Monte-Carlo sweep
SUITE = {
    "c_element": _c_element,
    "xyz_ring": _xyz_ring,
    "handshake": _handshake,
    "fork_join": _fork_join,
    "chu150": _chu150,
    "pmcm2": _pmcm2,
}
JITTER = 0.3


def _oracle(netlist, sg, fault, seed, internal_nets=None):
    config = SimConfig(
        jitter=JITTER, seed=seed, max_events=100_000, max_sim_time=2400.0
    )
    return run_oracle(
        netlist,
        sg,
        fault.apply_config(config),
        max_time=1200.0,
        max_transitions=80,
        internal_nets=internal_nets,
        observe=lambda sim, _env: fault.arm(sim),
    )


def fault_coverage(names, seeds):
    """``(coverage, escapes)`` of every enumerated fault over ``names``.

    Circuits are synthesized for the jitter they run under.  Each
    golden circuit must run clean on seeds 0–2.  A fault is detected on
    its first seed whose run is not clean (a violation or a tripped
    watchdog) or shows no observable transition at all (a dead circuit
    does not conform); no run may end in a simulation ``error``.
    """
    detected = 0
    escapes = []
    for name in names:
        sg = SUITE[name]()
        circuit = synthesize(sg, name=name, delay_spread=JITTER)
        for seed in range(3):
            verdict = _oracle(
                circuit.netlist, sg, FaultModel(), seed,
                circuit.architecture.sop_nets,
            )
            assert verdict.ok, f"golden {name} flagged: {verdict.describe()}"
        for fault in enumerate_faults(circuit.netlist):
            faulty = fault.apply_netlist(circuit.netlist)
            for seed in range(seeds):
                verdict = _oracle(faulty, sg, fault, seed)
                assert verdict.status != "error", (
                    f"{name}/{fault.describe()}: {verdict.describe()}"
                )
                if not verdict.ok or verdict.transitions == 0:
                    detected += 1
                    break
            else:
                escapes.append(f"{name}/{fault.describe()}")
    return detected / (detected + len(escapes)), escapes


class TestBenchmarkCoverage:
    def test_paper_suite_coverage(self):
        """≥90% of injected faults are detected across the paper suite,
        the golden baselines stay clean, and no run crashes."""
        coverage, escapes = fault_coverage(
            ["c_element", "xyz_ring", "handshake", "fork_join", "chu150"],
            seeds=8,
        )
        assert coverage >= 0.90, (
            f"fault coverage {coverage:.1%} below the 90% bar; escapes: {escapes}"
        )

    @pytest.mark.slow
    def test_full_suite_coverage_deep(self):
        """The full six-circuit sweep at higher seed count (opt-in)."""
        coverage, _ = fault_coverage(list(SUITE), seeds=16)
        assert coverage >= 0.90
