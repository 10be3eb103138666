"""The spec analysis memoized on a state graph.

N-SHOT, Lavagno and Beerel read one :class:`~repro.sg.graph.SpecAnalysis`
per graph (:meth:`StateGraph.analysis`): the preflight verdict, the
non-distributive signals, the reachable codes and the unreachable-code
cover.  These tests pin its lifecycle: every mutator drops it, a pickle
never carries it, each whole-graph check runs once however many flows
read it, and a failing spec still gets each flow's full refusal.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import engine
from repro.baselines import (
    BaselineRefusal,
    NotDistributiveError,
    synthesize_beerel,
    synthesize_lavagno,
)
from repro.baselines.complex_gate import synthesize_complex_gate
from repro.baselines.hazard_free_sop import synthesize_hazard_free_sop
from repro.baselines.qflop import synthesize_qmodule
from repro.bench.circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    TABLE2_CIRCUITS,
    figure1_sg,
)
from repro.bench.runner import sg_of
from repro.core import synthesize
from repro.core.synthesizer import SynthesisError
from repro.sg.distributivity import detonant_states, non_distributive_signals
from repro.sg.encoding import reachable_codes, unreachable_cover
from repro.sg.graph import StateGraph, Transition, render_state
from repro.sg.regions import signal_regions
from repro.stg import elaborate

from tests.conftest import sabotage_code

A, B, C = 0, 1, 2


def or_fork() -> StateGraph:
    """Inputs ``a`` and ``b`` race from ``w``; output ``c`` rises after
    ``b``.  Adding the arc ``u --+c--> cu`` makes ``w`` detonant."""
    sg = StateGraph(["a", "b", "c"], ["a", "b"])
    for state, code in (("w", 0b000), ("u", 0b001), ("v", 0b010), ("cu", 0b101), ("cv", 0b110)):
        sg.add_state(state, code)
    sg.add_arc("w", Transition(A, 1), "u")
    sg.add_arc("w", Transition(B, 1), "v")
    sg.add_arc("v", Transition(C, 1), "cv")
    return sg


def test_add_state_drops_the_memo():
    sg = or_fork()
    assert reachable_codes(sg) == {0b000, 0b001, 0b010, 0b101, 0b110}
    assert unreachable_cover(sg).contains_minterm(0b111)
    sg.add_state("x", 0b111)
    assert reachable_codes(sg) == {0b000, 0b001, 0b010, 0b101, 0b110, 0b111}
    assert not unreachable_cover(sg).contains_minterm(0b111)


def test_add_arc_drops_the_memo():
    sg = or_fork()
    assert non_distributive_signals(sg) == []
    sg.add_arc("u", Transition(C, 1), "cu")
    assert non_distributive_signals(sg) == [C]


def test_set_initial_drops_the_memo():
    sg = or_fork()
    memo = sg.analysis()
    reachable_codes(sg)
    sg.set_initial("u")
    assert sg._spec is None
    assert sg.analysis() is not memo and sg.analysis().codes is None


def test_copies_start_empty():
    sg = or_fork()
    non_distributive_signals(sg)
    assert sg.restrict_to_reachable().analysis().non_distributive is None


@pytest.mark.parametrize("name", ["chu150", "pe-send-ifc", "pmcm1"])
def test_pickle_never_carries_the_memo(name):
    """An SG pickled after N-SHOT, Lavagno and Beerel ran is the same
    bytes as before they ran (its regions, which a pickle does carry,
    computed first)."""
    sg = sg_of(name)
    for a in sg.non_inputs:
        signal_regions(sg, a)
    before = pickle.dumps(sg)
    synthesize(sg, name=name)
    for flow in (synthesize_lavagno, synthesize_beerel):
        try:
            flow(sg, name=name)
        except BaselineRefusal:
            pass
    memo = sg.analysis()
    assert memo.preflight_ok and memo.non_distributive is not None
    assert memo.codes is not None and memo.unreachable is not None
    assert pickle.dumps(sg) == before
    assert pickle.loads(before)._spec is None


def test_three_flows_check_preconditions_once(monkeypatch):
    """Table 2's three flows run the preflight of a valid spec once."""
    preflights = []
    run_preflight = engine.run_preflight
    monkeypatch.setattr(
        engine, "run_preflight", lambda sg, name: preflights.append(name) or run_preflight(sg, name)
    )
    sg = sg_of("chu150")
    synthesize(sg, name="nshot")
    synthesize_lavagno(sg, name="sis")
    synthesize_beerel(sg, name="syn")
    assert preflights == ["nshot"]


def test_baselines_read_the_memoized_distributivity():
    """Lavagno and Beerel refuse on the memoized verdict: planted on a
    distributive spec, it names the planted signal."""
    sg = sg_of("chu150")
    assert non_distributive_signals(sg) == []
    sg.analysis().non_distributive = (sg.non_inputs[0],)
    for flow in (synthesize_lavagno, synthesize_beerel):
        with pytest.raises(NotDistributiveError) as info:
            flow(sg, name="planted")
        assert info.value.diagnostics[0].message == (
            f"detonant (OR-caused) signals: {sg.signals[sg.non_inputs[0]]}"
        )


@pytest.mark.parametrize("name", TABLE2_CIRCUITS)
def test_non_distributive_signals(name):
    """The one-walk search names the signals Definition 4 does."""
    sg = sg_of(name)
    want = [a for a in sg.non_inputs if detonant_states(sg, a)]
    assert non_distributive_signals(sg) == want
    assert (want != []) == (name in NONDISTRIBUTIVE_BENCHMARKS)


FIGURE1 = (
    "SG fails the Theorem 2 preconditions: [SG002] 4 finding(s), e.g. states "
    "'100/r' and '100/f' share code 001 but excite {c} vs {}",
    [
        f"error[SG002] state-pair '{s}/r' / '{s}/f': states '{s}/r' and '{s}/f' share "
        f"code {code} but excite {excited}\n    hint: insert an internal state signal "
        "separating the regions (repro.sg.insert_state_signal), the classic CSC repair"
        for s, code, excited in (
            ("100", "001", "{c} vs {}"),
            ("010", "010", "{c} vs {}"),
            ("101", "101", "{} vs {c}"),
            ("011", "110", "{} vs {c}"),
        )
    ],
)


def _chu150() -> StateGraph:
    return elaborate(DISTRIBUTIVE_BENCHMARKS["chu150"][0]())


def semimodularity_broken() -> StateGraph:
    """chu150 with a non-input ``t1`` disabled by a concurrent ``t2`` (SG004)."""
    sg = _chu150()
    s2, t1 = next(
        (sg.succ(s, t2), t1)
        for s in sorted(sg.states(), key=render_state)
        for t1 in sg.enabled(s)
        for t2 in sg.enabled(s)
        if t1 != t2 and not sg.is_input(t1.signal)
    )
    return sg.without_arc(s2, t1)


def inconsistent() -> StateGraph:
    """chu150 with one state's code flipped behind the builder (SG001)."""
    sg = _chu150()
    sabotage_code(sg, min(sg.states(), key=render_state), 1)
    return sg


FLOWS = {
    "lavagno": synthesize_lavagno,
    "beerel": synthesize_beerel,
    "complex_gate": synthesize_complex_gate,
    "qflop": synthesize_qmodule,
    "hazard_free_sop": synthesize_hazard_free_sop,
}


@pytest.mark.parametrize(
    "build, rules",
    [(figure1_sg, "[SG002] 4"), (semimodularity_broken, "[SG004] 2"), (inconsistent, "[SG001] 6")],
    ids=["csc", "semimodularity", "consistency"],
)
def test_invalid_spec_refusals(build, rules, monkeypatch):
    """Run one after another on one graph, every flow that gates on the
    preconditions re-runs the preflight under its own name and raises
    the full refusal: the message and diagnostics of a fresh preflight
    (and, for Figure 1, the literal text of the refusal)."""
    want = engine.run_preflight(build(), name="fresh")
    assert not want.ok
    names = []
    run_preflight = engine.run_preflight
    monkeypatch.setattr(
        engine, "run_preflight", lambda sg, name: names.append(name) or run_preflight(sg, name)
    )
    sg = build()
    for flow_name, flow in FLOWS.items():
        with pytest.raises(SynthesisError) as info:
            flow(sg, name=flow_name)
        assert type(info.value) is SynthesisError
        message = str(info.value)
        assert message.startswith(f"SG fails the Theorem 2 preconditions: {rules} finding(s)")
        rendered = [d.render() for d in info.value.diagnostics]
        assert rendered == [d.render() for d in want.diagnostics]
        if build is figure1_sg:
            assert (message, rendered) == FIGURE1
    assert names == list(FLOWS)
    assert sg.analysis().preflight_ok is False
