"""Which judge convicts which broken build.

The hazard-freedom argument rests on Theorem 1 trigger cubes, the
Equation (1) delay lines, the MHS flip-flop's ω filter and the
acknowledgement AND of Figure 3.  Each test here breaks one of them in
the synthesizer (by monkeypatching one function) and asks all four
judges for a verdict:

* ``certify`` — the symbolic certifier (:func:`certify_circuit`);
* ``oracle`` — the Monte-Carlo oracle (:func:`run_oracle`), three seeds
  at ±40% delay jitter on circuits synthesized for that spread;
* ``fuzz`` — a small fixed-seed differential fuzz run;
* ``corpus`` — the replay of the committed reproducer corpus.

``JUDGMENTS`` pins every verdict.  docs/ANALYSIS.md ("Judging the
judges") explains the table, including the one row no judge convicts.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.synthesizer as synthesizer
import repro.core.trigger as trigger
from repro.analysis.certify import REFUTED, certify_circuit
from repro.bench.runner import sg_of
from repro.core import run_oracle, synthesize
from tests.fault_models import OmegaMarginFault, rebuild_netlist
from tests.test_fuzz_corpus import replay_entry
from repro.fuzz import FuzzConfig, load_corpus, run_fuzz
from repro.logic import Cover
from repro.netlist import GateType
from repro.sim import MhsParams, SimConfig

#: delay spread the circuits are synthesized for and simulated under
JITTER = 0.4
SEEDS = range(3)
#: pmcm2 needs Equation (1) compensation at ±40%; hybridf is not
#: single-traversal, so it has multi-state trigger regions
CIRCUITS = ("pmcm2", "hybridf")
LOWERED_OMEGA = 0.02

_enforce_trigger_cubes = trigger.enforce_trigger_cubes
_compute_delay_requirement = synthesizer.compute_delay_requirement
_build_nshot_netlist = synthesizer.build_nshot_netlist


# ----------------------------------------------------------------------
# the broken builds
# ----------------------------------------------------------------------
def _drop_trigger_cube(spec, cover):
    """Enforcement that leaves one multi-state trigger region without a
    trigger cube: its cube is split in two on a signal that toggles
    inside the region, so the cover still covers the ON-set but no
    single cube holds the region (the repair the real enforcement would
    make is dropped)."""
    cover, added = _enforce_trigger_cubes(spec, cover)
    sg = spec.sg
    for signal in sg.non_inputs:
        sr = spec.regions[signal]
        for er, trs in zip(sr.excitation, sr.triggers):
            bit = 1 << spec.output_index(signal, "set" if er.rising else "reset")
            for tr in trs:
                codes = [sg.code(s) for s in tr.states]
                for i, cube in enumerate(cover.cubes):
                    if not cube.outputs & bit or not all(
                        cube.contains_minterm(m) for m in codes
                    ):
                        continue
                    for var in cube.free_vars():
                        if len({(m >> var) & 1 for m in codes}) == 2:
                            halves = [
                                cube.with_literal(var, 0b01),
                                cube.with_literal(var, 0b10),
                            ]
                            cubes = cover.cubes[:i] + halves + cover.cubes[i + 1 :]
                            return (
                                Cover(cover.num_inputs, cover.num_outputs, cubes),
                                added,
                            )
    return cover, added


def _undersized_delay_requirement(*args, **kwargs):
    """Equation (1) evaluated to half the delay line it requires."""
    req = _compute_delay_requirement(*args, **kwargs)
    cut = req.t_del / 2
    return dataclasses.replace(
        req, t_set0_w=req.t_set0_w - cut, t_res0_w=req.t_res0_w - cut
    )


def _without_ack(*args, **kwargs):
    """The N-SHOT netlist with every acknowledgement AND's enable pin
    (wired last by the builder) left out."""
    arch = _build_nshot_netlist(*args, **kwargs)

    def drop_enable(g):
        if g.name.startswith("ack_"):
            g.inputs = g.inputs[:-1]
        return g

    netlist = rebuild_netlist(arch.netlist, drop_enable)
    netlist.name = arch.netlist.name
    arch.netlist = netlist
    return arch


def _break(mutant: str, monkeypatch) -> None:
    if mutant == "trigger-cube-dropped":
        monkeypatch.setattr(trigger, "enforce_trigger_cubes", _drop_trigger_cube)
    elif mutant == "delay-undersized":
        monkeypatch.setattr(
            synthesizer, "compute_delay_requirement", _undersized_delay_requirement
        )
    elif mutant == "omega-lowered":
        monkeypatch.setattr(
            MhsParams.__init__, "__defaults__", (LOWERED_OMEGA, MhsParams().tau)
        )
    elif mutant == "ack-removed":
        monkeypatch.setattr(synthesizer, "build_nshot_netlist", _without_ack)
    else:
        assert mutant == "golden"


def _circuits():
    """(sg, circuit) of every judged circuit, from the current build."""
    out = []
    for name in CIRCUITS:
        sg = sg_of(name)
        out.append((sg, synthesize(sg, name=name, delay_spread=JITTER)))
    return out


# ----------------------------------------------------------------------
# the judges: True = the build is convicted
# ----------------------------------------------------------------------
def certify_judge() -> bool:
    return any(
        certify_circuit(circuit).counts[REFUTED] > 0 for _, circuit in _circuits()
    )


def oracle_judge() -> bool:
    """Seeds 0–2 at jitter equal to the designed spread, under the
    budgets of the fault-coverage sweep (``test_faults_campaign.py``)."""
    for sg, circuit in _circuits():
        for seed in SEEDS:
            verdict = run_oracle(
                circuit.netlist,
                sg,
                SimConfig(
                    jitter=JITTER, seed=seed, max_events=100_000, max_sim_time=2400.0
                ),
                max_time=1200.0,
                max_transitions=80,
                internal_nets=circuit.architecture.sop_nets,
            )
            if verdict.status != "clean":
                return True
    return False


def fuzz_judge() -> bool:
    report = run_fuzz(FuzzConfig(seed=0, budget=8, signals=6, minimize=False))
    return not report.clean


def corpus_judge() -> bool:
    """The corpus replay's assertions: every flow answers with a
    structured verdict, and an archived crash stays fixed."""
    for entry in load_corpus():
        outcomes = replay_entry(entry)
        if any(o.status not in ("ok", "refused", "timeout") for o in outcomes):
            return True
    return False


JUDGES = {
    "certify": certify_judge,
    "oracle": oracle_judge,
    "fuzz": fuzz_judge,
    "corpus": corpus_judge,
}

#: mutant -> judge -> convicted
JUDGMENTS = {
    "golden": {"certify": False, "oracle": False, "fuzz": False, "corpus": False},
    "trigger-cube-dropped": {
        "certify": True, "oracle": False, "fuzz": False, "corpus": False,
    },
    "delay-undersized": {
        "certify": True, "oracle": True, "fuzz": False, "corpus": False,
    },
    "omega-lowered": {
        "certify": False, "oracle": False, "fuzz": False, "corpus": False,
    },
    "ack-removed": {
        "certify": False, "oracle": True, "fuzz": False, "corpus": False,
    },
}


@pytest.mark.parametrize("mutant", list(JUDGMENTS))
def test_judges_convict_as_pinned(mutant, monkeypatch):
    _break(mutant, monkeypatch)
    verdicts = {name: judge() for name, judge in JUDGES.items()}
    assert verdicts == JUDGMENTS[mutant]


# ----------------------------------------------------------------------
# every mutant really breaks the build, so a row without a conviction
# is a blind spot of the judges, not a dead mutant
# ----------------------------------------------------------------------
class TestMutantsAreLive:
    def test_trigger_cube_dropped(self, monkeypatch):
        _break("trigger-cube-dropped", monkeypatch)
        sg = sg_of("hybridf")
        circuit = synthesize(sg, name="hybridf", delay_spread=JITTER)
        audits = trigger.check_trigger_cubes(circuit.spec, circuit.cover)
        assert not all(a.ok for a in audits)

    def test_delay_undersized(self, monkeypatch):
        golden = {g.name: g.delay for _, c in _circuits() for g in c.netlist.gates
                  if g.type is GateType.DELAY}
        _break("delay-undersized", monkeypatch)
        broken = {g.name: g.delay for _, c in _circuits() for g in c.netlist.gates
                  if g.type is GateType.DELAY}
        assert golden and broken.keys() == golden.keys()
        assert all(broken[n] == pytest.approx(golden[n] / 2) for n in golden)

    def test_ack_removed(self, monkeypatch):
        def ack_pins():
            return {g.name: len(g.inputs) for _, c in _circuits()
                    for g in c.netlist.gates if g.name.startswith("ack_")}

        golden = ack_pins()
        _break("ack-removed", monkeypatch)
        assert golden and ack_pins() == {n: k - 1 for n, k in golden.items()}

    def test_omega_lowered_commits_injected_runts(self, monkeypatch):
        """No judge run produces a sub-ω pulse at a flip-flop, so the
        lowered ω shows only when runts are injected: the golden ω
        absorbs them, the lowered one commits them."""

        def flagged() -> bool:
            sg, circuit = _circuits()[0]
            ff = next(g for g in circuit.netlist.gates if g.type is GateType.MHSFF)
            runts = OmegaMarginFault(stress_net=ff.inputs[0].net)
            return any(
                run_oracle(
                    circuit.netlist,
                    sg,
                    SimConfig(jitter=JITTER, seed=seed, max_events=100_000),
                    max_time=1200.0,
                    max_transitions=80,
                    observe=lambda sim, _env: runts.arm(sim),
                ).status != "clean"
                for seed in SEEDS
            )

        assert not flagged()
        _break("omega-lowered", monkeypatch)
        assert SimConfig().mhs.omega == LOWERED_OMEGA
        assert flagged()
