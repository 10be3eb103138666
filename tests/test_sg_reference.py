"""Differential test: the SG classifiers and region analysis against
the naive reference.

:mod:`tests.sg_reference` reads the consistent state assignment and
Definitions 1-7 and 9 independently of :mod:`repro.sg`; any
disagreement on consistency, CSC, semi-modularity with input choices,
detonant states, distributivity, the excitation, quiescent or trigger
regions, or single traversal fails.  Violations and regions are
compared as sets, so only membership matters, not the order the code
lists them in.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.bench.circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    figure1_csc_sg,
    figure1_sg,
    figure2_sg,
    figure7a_sg,
    figure7b_sg,
)
from repro.baselines.hazard_free_sop import (
    _static_one_arcs,
    function_hazard_states,
    next_state_function,
)
from repro.bench.circuits.handshakes import muller_pipeline
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.sg.distributivity import detonant_states, is_distributive
from repro.sg.graph import StateGraph, Transition, render_state
from repro.sg.properties import (
    check_consistency,
    consistency_witnesses,
    csc_violations,
    is_semimodular_with_input_choices,
    satisfies_csc,
    semimodularity_violations,
)
import repro.sg.regions as regions_mod
from repro.sg.codespace import CodeSpace
from repro.sg.regions import is_single_traversal, signal_regions
from repro.sg.sgformat import parse_sg
from repro.stg import elaborate

from tests import sg_reference as ref
from tests.conftest import sabotage_code

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "fuzz-corpus"


def analysis(sg) -> dict:
    """Per non-input: (ERs, ER→QR pairs, ER→trigger regions), as sets."""
    out = {}
    for a in sg.non_inputs:
        sr = signal_regions(sg, a)
        assert all(r.signal == a for r in sr.excitation + sr.quiescent)
        out[a] = (
            {(er.direction, er.states) for er in sr.excitation},
            {(er.states, qr.states) for er, qr in zip(sr.excitation, sr.quiescent)},
            {
                (er.states, frozenset(tr.states for tr in trs))
                for er, trs in zip(sr.excitation, sr.triggers)
            },
        )
        assert len(out[a][0]) == len(sr.excitation)  # no duplicate ERs
    return out


def reference(sg) -> dict:
    g = ref.Explicit.of(sg)
    out = {}
    for a in sg.non_inputs:
        ers = ref.excitation_regions(g, a)
        out[a] = (
            ers,
            {(er, ref.quiescent_region(g, a, d, er)) for d, er in ers},
            {(er, frozenset(ref.trigger_regions(g, a, er))) for _, er in ers},
        )
    return out


def assert_agrees(sg) -> None:
    want = reference(sg)
    assert analysis(sg) == want
    triggers = (tr for _, _, pairs in want.values() for _, trs in pairs for tr in trs)
    assert is_single_traversal(sg) == ref.single_traversal(triggers)


def verdicts(sg) -> dict[str, bool]:
    """The reference's verdict on each of Definitions 1-4 (plus consistency)."""
    g = ref.Explicit.of(sg)
    return {
        "consistent": not ref.consistency_violations(g),
        "csc": not ref.csc_violations(g),
        "semimodular": not ref.semimodularity_violations(g),
        "distributive": ref.distributive(g),
    }


def assert_properties_agree(sg) -> None:
    """Definitions 1-4 and consistency: verdicts and violation sets."""
    g = ref.Explicit.of(sg)
    want = ref.consistency_violations(g)
    got = {
        (w.state, w.transition.signal, w.transition.direction, w.dest)
        for w in consistency_witnesses(sg)
    }
    assert got == want
    assert (check_consistency(sg) == []) == (not want)

    want = ref.csc_violations(g)
    assert {frozenset(p) for p in csc_violations(sg)} == want
    assert satisfies_csc(sg) == (not want)

    want = ref.semimodularity_violations(g)
    got = {
        (v.state, (v.t1.signal, v.t1.direction), (v.t2.signal, v.t2.direction), v.kind)
        for v in semimodularity_violations(sg)
    }
    assert got == want
    assert is_semimodular_with_input_choices(sg) == (not want)

    for a in sg.non_inputs:
        got = {(d.state, frozenset((d.u, d.v))) for d in detonant_states(sg, a)}
        assert got == ref.detonant_states(g, a)
    assert is_distributive(sg) == ref.distributive(g)


def assert_baseline_predicates_agree(sg) -> None:
    """The next-state partition, static-1 pairs and function-hazard
    states of the baseline flows, against the reference, as sets."""
    g = ref.Explicit.of(sg)
    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        on, off = (set(sg.dense().labels(bits)) for bits in (spec.on_bits, spec.off_bits))
        want = {v: {s for s in g.states if ref.next_state(g, s, a) == v} for v in (0, 1)}
        assert on == want[1]
        if any(g.excited(s, a) for s in g.states):
            assert off == want[0]
        else:
            # ``a`` never fires, so it has no ER or QR and the spec
            # assigns no state (the one-state corpus reproducer)
            assert off == set()
        label = sg.dense().label
        pairs = [(label(s), label(d)) for s, _a, d in _static_one_arcs(sg, spec)]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == ref.static_one_pairs(g, a)
        exposed = function_hazard_states(sg, spec)
        assert len(exposed) == len(set(exposed))
        assert set(exposed) == ref.function_hazard_states(g, a)


def _drop_commuting_arc(sg, key=repr):
    """A copy where one non-input ``t1`` concurrent with some ``t2`` is
    disabled by it (Definition 2 broken), or None without concurrency.
    States are tried in ``key`` order."""
    for s in sorted(sg.states(), key=key):
        enabled = sg.enabled(s)
        for t1 in enabled:
            for t2 in enabled:
                s2 = sg.succ(s, t2)
                if t1 != t2 and not sg.is_input(t1.signal) and sg.succ(s2, t1) is not None:
                    return sg.without_arc(s2, t1)
    return None


def _split_diamond(sg, key=repr):
    """A copy where the two interleavings of one non-input ``t1`` and a
    concurrent ``t2`` end in different states of the same code
    (Definition 2's no-diamond case), or None without concurrency.
    States are tried in ``key`` order."""
    for s in sorted(sg.states(), key=key):
        enabled = sg.enabled(s)
        for t1 in enabled:
            for t2 in enabled:
                if t1 == t2 or sg.is_input(t1.signal):
                    continue
                s1 = sg.succ(s, t1)
                s3 = sg.succ(s1, t2)
                if s3 is not None and sg.succ(sg.succ(s, t2), t1) == s3:
                    bad = sg.without_arc(s1, t2)
                    bad.add_state(("twin", s3), sg.code(s3))
                    bad.add_arc(s1, t2, ("twin", s3))
                    return bad
    return None


def _recode(sg):
    """A copy with one state's code flipped, so the arcs touching it are
    inconsistent.  ``StateGraph`` refuses such arcs, so the copy's codes
    are rewritten after construction."""
    bad = sg.subgraph(sg.states())
    s = min(bad.states(), key=repr)
    sabotage_code(bad, s, 1)
    return bad


def hidden_from_codes(sg, v) -> bool:
    """The interleavings of the violation ``v`` pass through a state
    that shares its code with another state."""
    by_code: dict = {}
    for s in sg.states():
        by_code.setdefault(sg.code(s), []).append(s)
    s1, s2 = sg.succ(v.state, v.t1), sg.succ(v.state, v.t2)
    ends = (sg.succ(s1, v.t2), sg.succ(s2, v.t1))
    return any(len(by_code[sg.code(s)]) > 1 for s in (s1, s2, *ends) if s is not None)


def assert_vlad_agrees(sg) -> bool | None:
    """Vlad's semi-modularity of the code-level excitation function
    against Definition 2, on a consistent CSC graph (elsewhere Φ is not
    a function of the code: returns None).  Φ merges the states of one
    code, so it may miss a failure but never invents one, and every
    failure it misses runs through a state whose code another state
    shares (see docs/ANALYSIS.md).  Returns whether the verdicts
    agree."""
    g = ref.Explicit.of(sg)
    if ref.consistency_violations(g) or ref.csc_violations(g):
        return None
    violations = semimodularity_violations(sg)
    if bool(ref.vlad_violations(g)) == bool(violations):
        return True
    assert violations
    assert all(hidden_from_codes(sg, v) for v in violations)
    return False


def assert_all_agree(sg) -> None:
    """Regions and properties agree on ``sg``; on graphs of up to 1024
    states, they also agree on its broken copies (untrapped ERs, and
    codes that disagree with the arcs)."""
    assert_agrees(sg)
    assert_properties_agree(sg)
    assert assert_vlad_agrees(sg) is not False
    if sg.num_states <= 1024:
        for broken in _broken_copies(sg):
            assert_agrees(broken)
            assert_properties_agree(broken)
            assert_vlad_agrees(broken)


def _broken_copies(sg) -> list:
    copies = (_drop_commuting_arc(sg), _split_diamond(sg), _recode(sg))
    return [c for c in copies if c is not None]


SUITE = [(n, lambda b=b: elaborate(b())) for n, (b, *_r) in DISTRIBUTIVE_BENCHMARKS.items()]
SUITE += [(n, b) for n, (b, *_r) in NONDISTRIBUTIVE_BENCHMARKS.items()]
PAPER = [figure1_sg, figure1_csc_sg, figure2_sg, figure7a_sg, figure7b_sg]


@pytest.mark.parametrize("build", [b for _, b in SUITE], ids=[n for n, _ in SUITE])
def test_table2_suite(build):
    assert_all_agree(build())


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.g")), ids=lambda p: p.stem)
def test_fuzz_corpus(path):
    assert_all_agree(parse_sg(path.read_text()))


@pytest.mark.parametrize("build", PAPER, ids=lambda b: b.__name__)
def test_paper_examples(build):
    assert_all_agree(build())


def test_regions_on_edited_codes():
    """Codes edited after construction, so some arcs change other bits
    than their signal's or none: the regions still follow Definitions
    5-7 read on the codes (suite and paper graphs of up to 200 states)."""
    rng = random.Random(5)
    for sg in (build() for build in [b for _, b in SUITE] + PAPER):
        if sg.num_states > 200:
            continue
        for _ in range(6):
            bad = sg.subgraph(sg.states())
            for s in rng.sample(list(bad.states()), min(3, bad.num_states)):
                sabotage_code(bad, s, rng.randrange(1, 1 << sg.num_signals))
            assert_agrees(bad)


def test_regions_on_hand_edited_codes():
    """Two edits the random ones above may miss: an arc of ``b`` that
    also changes ``a`` leaves ER(+a) for a state where ``a`` is stable
    at 1, which is not in QR(+a); and an arc of ``a`` that keeps ``a``
    at 0 joins two states of ER(+a), each its own trigger region."""
    leak = StateGraph(["b", "a"], ["b"])
    for s, code in (("s0", 0b00), ("s1", 0b10), ("s2", 0b01)):
        leak.add_state(s, code)
    leak.add_arc("s0", Transition(1, 1), "s1")
    leak.add_arc("s0", Transition(0, 1), "s2")
    sabotage_code(leak, "s2", 0b10)
    joined = StateGraph(["a"], [])
    for s, code in (("p", 0), ("d", 1), ("e", 1)):
        joined.add_state(s, code)
    joined.add_arc("p", Transition(0, 1), "d")
    sabotage_code(joined, "d", 1)
    joined.add_arc("d", Transition(0, 1), "e")
    for sg in (leak, joined):
        assert_agrees(sg)
    assert signal_regions(leak, 1).quiescent[0].states == {"s1"}
    assert [tr.states for tr in signal_regions(joined, 0).triggers[0]] == [{"p"}, {"d"}]


@pytest.mark.parametrize("k", range(2, 9))
def test_muller_pipelines(k):
    assert_agrees(elaborate(muller_pipeline(k)))


BASELINE_INPUTS = SUITE + [(b.__name__, b) for b in PAPER]
BASELINE_INPUTS += [(p.stem, lambda p=p: parse_sg(p.read_text())) for p in sorted(CORPUS.glob("*.g"))]
BASELINE_INPUTS += [(f"muller{k}", lambda k=k: elaborate(muller_pipeline(k))) for k in range(3, 7)]


@pytest.mark.parametrize(
    "build", [b for _, b in BASELINE_INPUTS], ids=[n for n, _ in BASELINE_INPUTS]
)
def test_baseline_predicates(build):
    assert_baseline_predicates_agree(build())


def test_reference_sees_baseline_hazards():
    """Guard against a vacuous pass: the inputs above include static-1
    pairs and function hazards, and a signal without function hazards."""
    g = ref.Explicit.of(elaborate(muller_pipeline(3)))
    assert all(ref.static_one_pairs(g, a) for a in g.non_inputs)
    assert any(ref.function_hazard_states(g, a) for a in g.non_inputs)
    g = ref.Explicit.of(figure2_sg())
    assert not any(ref.function_hazard_states(g, a) for a in g.non_inputs)


@pytest.mark.parametrize("knobs", knob_combinations(signals=6), ids=lambda k: k.short())
def test_generated_specs(knobs):
    for i in range(40):
        spec = generate_spec(derive_seed(7, i), knobs)
        assert_all_agree(spec.sg)
        # the generator's labels agree with the independent reading
        want = verdicts(spec.sg)
        assert want["csc"] == knobs.csc
        assert want["distributive"] == knobs.distributive


def test_every_property_seen_both_ways():
    """Guard against a vacuous pass: across the inputs above, each
    property holds on some graph and fails on another."""
    knobs = {k.short(): k for k in knob_combinations(signals=6)}
    generated = [generate_spec(derive_seed(7, 0), knobs[k]).sg for k in ("cds", "nos")]
    chu150 = elaborate(DISTRIBUTIVE_BENCHMARKS["chu150"][0]())
    broken = _broken_copies(chu150)
    assert len(broken) == 3
    seen = [verdicts(sg) for sg in (*generated, figure1_sg(), *broken)]
    for prop in seen[0]:
        assert {v[prop] for v in seen} == {True, False}, prop
    kinds = {
        kind
        for sg in broken
        for *_w, kind in ref.semimodularity_violations(ref.Explicit.of(sg))
    }
    assert kinds == {"disabled", "no-diamond"}


def test_reference_sees_multi_state_trigger_regions():
    """Guard against a vacuous pass: the generated specs do include
    graphs with wide trigger regions."""
    spec = generate_spec(0, knob_combinations(signals=6, traversal="multi")[0])
    want = reference(spec.sg)
    assert any(len(tr) > 1 for _, _, pairs in want.values() for _, trs in pairs for tr in trs)
    assert not is_single_traversal(spec.sg)


def test_vlad_misses_only_code_twins():
    """Guard against a vacuous pass: on ebergen, Vlad's check and
    Definition 2 both pass the spec and both fail the copy with a
    disabled transition; the copy with a split diamond (its two
    interleavings end in two states of one code) fails Definition 2
    only."""
    ebergen = elaborate(DISTRIBUTIVE_BENCHMARKS["ebergen"][0]())
    dropped = _drop_commuting_arc(ebergen, key=render_state)
    split = _split_diamond(ebergen, key=render_state)
    for sg, vlad, def2 in ((ebergen, True, True), (dropped, False, False), (split, True, False)):
        g = ref.Explicit.of(sg)
        assert not ref.csc_violations(g)
        assert (not ref.vlad_violations(g), is_semimodular_with_input_choices(sg)) == (vlad, def2)
    assert assert_vlad_agrees(split) is False


def test_every_region_path_is_taken(monkeypatch):
    """Guard against a vacuous pass: over the suite, the corpus and the
    generated specs above, the regions come from each of the paths
    :func:`signal_regions` can take (the one-sink mask path, the ER
    component walk, the per-ER QR walk and Tarjan), and a generated
    spec takes Tarjan, so the agreement tests judge every path.  Each
    graph's bitsets come from one of two engines, counted per graph:
    the code-space floods ("code") or the per-state mask passes
    ("mask")."""
    taken = {"walked": 0, "qr-walk": 0, "tarjan": 0, "code": 0, "mask": 0}
    real = (regions_mod._components, regions_mod.quiescent_region_of, regions_mod.trigger_regions)
    for engine, owner, attr in (
        ("code", CodeSpace, "region_columns"), ("mask", regions_mod, "_mask_columns")
    ):
        columns = getattr(owner, attr)

        def counted(*args, engine=engine, columns=columns):
            taken[engine] += 1
            return columns(*args)

        monkeypatch.setattr(owner, attr, counted)

    def components(view, members):
        out = real[0](view, members)
        taken["walked"] += len(out)
        return out

    def qr_walk(sg, er):
        taken["qr-walk"] += 1
        return real[1](sg, er)

    def tarjan(sg, er):
        taken["tarjan"] += 1
        return real[2](sg, er)

    monkeypatch.setattr(regions_mod, "_components", components)
    monkeypatch.setattr(regions_mod, "quiescent_region_of", qr_walk)
    monkeypatch.setattr(regions_mod, "trigger_regions", tarjan)

    def count(graphs) -> dict[str, int]:
        before = dict(taken)
        ers = sum(len(signal_regions(sg, a).excitation) for sg in graphs for a in sg.non_inputs)
        out = {k: taken[k] - before[k] for k in taken}
        out["one-sink"] = ers - out["walked"]
        return out

    def paths(counts: dict[str, int]) -> dict[str, int]:
        return {k: v for k, v in counts.items() if k not in ("code", "mask")}

    suite = count(build() for _, build in SUITE)
    # Table 2 pinned: 34 ERs the sweep leaves uncovered, 48 ERs from
    # walked directions, of which 14 share their direction with another ER
    assert (suite["tarjan"], suite["walked"], suite["qr-walk"]) == (34, 48, 14)
    # all but sbuf-send-ctl, whose states share codes, take the code space
    assert (suite["code"], suite["mask"]) == (24, 1)
    corpus = count(parse_sg(p.read_text()) for p in sorted(CORPUS.glob("*.g")))
    generated = count(
        generate_spec(derive_seed(7, i), knobs).sg
        for knobs in knob_combinations(signals=6)
        for i in range(40)
    )
    for path in ("one-sink", "walked", "qr-walk", "tarjan", "code", "mask"):
        assert suite[path] + corpus[path] + generated[path] > 0, path
    assert generated["tarjan"] > 0
    assert (corpus["code"], corpus["mask"]) == (3, 0)
    assert (generated["code"], generated["mask"]) == (27, 293)
    # an output re-excited as soon as it fires (empty QRs): each
    # one-state ER is a sink, its own arc aside
    flip = StateGraph(["a"], [])
    flip.add_state("s0", 0)
    flip.add_state("s1", 1)
    flip.add_arc("s0", Transition(0, 1), "s1")
    flip.add_arc("s1", Transition(0, -1), "s0")
    assert paths(count([flip])) == {"walked": 0, "qr-walk": 0, "tarjan": 0, "one-sink": 2}
