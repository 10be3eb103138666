"""The code-space engine against the per-state paths it stands in for.

On every graph with a code space (:mod:`repro.sg.codespace`), the five
per-signal bitsets of the region analysis equal those of the per-state
mask passes, and the code-space semi-modularity verdict equals the
per-state listing of Definition 2 in
:func:`repro.sg.properties.semimodularity_violations`.  Vlad's check in
``tests/sg_reference.py`` reads the same code-level formulation as the
engine, so it is no independent judge of it and is not used here.
Graphs whose codes are shared, wider than
:data:`~repro.sg.codespace.MAX_CODE_SIGNALS` bits or edited after
construction have no code space and keep the mask passes.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import repro.sg.properties as properties
import repro.sg.regions as regions_mod
from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS, NONDISTRIBUTIVE_BENCHMARKS
from repro.bench.circuits.handshakes import muller_pipeline, ring
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.sg.codespace import MAX_CODE_SIGNALS, CodeSpace, arcs_agree, code_space, unique_codes
from repro.sg.graph import StateGraph, Transition
from repro.sg.properties import consistency_witnesses, semimodularity_violations
from repro.sg.regions import signal_regions
from repro.sg.sgformat import parse_sg
from repro.stg import elaborate

from tests.conftest import sabotage_code
from tests.test_sg_reference import PAPER, _drop_commuting_arc, _split_diamond

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "fuzz-corpus"

GROUPS = {
    "suite": lambda: [elaborate(b()) for b, *_r in DISTRIBUTIVE_BENCHMARKS.values()]
    + [b() for b, *_r in NONDISTRIBUTIVE_BENCHMARKS.values()],
    "paper": lambda: [build() for build in PAPER],
    "muller": lambda: [elaborate(muller_pipeline(k)) for k in range(2, 9)],
    "corpus": lambda: [parse_sg(p.read_text()) for p in sorted(CORPUS.glob("*.g"))],
    "generated6": lambda: [
        generate_spec(derive_seed(7, i), knobs).sg
        for knobs in knob_combinations(signals=6)
        for i in range(40)
    ],
    "generated8": lambda: [
        generate_spec(derive_seed(8, i), knobs).sg
        for knobs in knob_combinations(signals=8)
        for i in range(20)
    ],
}


def _oscillator() -> StateGraph:
    """An output re-excited as soon as it fires: every QR is empty."""
    flip = StateGraph(["a"], [])
    flip.add_state("s0", 0)
    flip.add_state("s1", 1)
    flip.add_arc("s0", Transition(0, 1), "s1")
    flip.add_arc("s1", Transition(0, -1), "s0")
    return flip


GROUPS["paper"] = lambda: [build() for build in PAPER] + [_oscillator()]


def _input_disabled(sg):
    """A copy where firing a non-input ``t1`` disables an input ``t2``
    concurrent with it (Definition 2's no-diamond case without code
    twins), or None.  States are tried in ``repr`` order."""
    for s in sorted(sg.states(), key=repr):
        enabled = sg.enabled(s)
        for t1 in enabled:
            for t2 in enabled:
                if sg.is_input(t1.signal) or not sg.is_input(t2.signal):
                    continue
                s1 = sg.succ(s, t1)
                if sg.succ(s1, t2) is not None:
                    return sg.without_arc(s1, t2)
    return None


def listed_violations(sg, monkeypatch) -> list:
    """Definition 2's per-state listing, without the code-space test."""
    with monkeypatch.context() as m:
        m.setattr(properties, "code_space", lambda sg: None)
        return semimodularity_violations(sg)


def assert_engines_agree(sg, monkeypatch) -> bool:
    """The code-space bitsets and verdict equal the per-state ones when
    ``sg`` has a code space; returns whether it has one."""
    cs = code_space(sg)
    if cs is None:
        return False
    view = sg.dense()
    signals = sg.non_inputs
    want = regions_mod._mask_columns(view, signals, True)
    assert cs.region_columns(view, signals) == want
    assert cs.semimodular(signals) == (not listed_violations(sg, monkeypatch))
    return True


#: per group: (graphs, graphs with a code space, their copies with a
#: disabled transition that the code-space test fails).  Every generated
#: 8-signal spec shares codes, so those keep the mask passes.
PINNED = {
    "suite": (25, 24, 39),
    "paper": (6, 4, 4),
    "muller": (7, 7, 14),
    "corpus": (3, 3, 0),
    "generated6": (320, 27, 54),
    "generated8": (160, 0, 0),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_code_space_matches_per_state_paths(group, monkeypatch):
    graphs = GROUPS[group]()
    served = failing = 0
    for sg in graphs:
        shared = not unique_codes(sg)
        assert (code_space(sg) is None) == (shared or sg.num_signals > MAX_CODE_SIGNALS)
        if not assert_engines_agree(sg, monkeypatch):
            continue
        served += 1
        # Definition 2 broken by a disabled transition; a split diamond
        # makes code twins, so that copy has no code space
        for broken in (_drop_commuting_arc(sg), _input_disabled(sg)):
            if broken is not None and assert_engines_agree(broken, monkeypatch):
                failing += not code_space(broken).semimodular(broken.non_inputs)
        split = _split_diamond(sg)
        assert split is None or code_space(split) is None
    assert (len(graphs), served, failing) == PINNED[group]


def test_edited_codes_fall_back_to_mask_passes(monkeypatch):
    """A copy whose codes were edited after construction disagrees with
    its arcs: it has no code space, and its regions come from the mask
    passes."""
    taken = {"mask": 0, "code": 0}
    for name, owner, attr in (
        ("mask", regions_mod, "_mask_columns"), ("code", CodeSpace, "region_columns")
    ):
        real = getattr(owner, attr)

        def counted(*args, name=name, real=real):
            taken[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, counted)
    rng = random.Random(11)
    for sg in GROUPS["suite"]():
        if code_space(sg) is None:
            continue
        bad = sg.subgraph(sg.states())
        sabotage_code(bad, rng.choice(list(bad.states())), 1 << rng.randrange(sg.num_signals))
        assert not arcs_agree(bad) and code_space(bad) is None
        assert consistency_witnesses(bad)
        for a in bad.non_inputs:
            signal_regions(bad, a)
    assert taken == {"mask": 24, "code": 0}


def test_wrong_direction_arcs_disagree():
    """Codes flipped in one signal's bit everywhere: each arc still
    changes its own bit alone, but that signal's arcs run the wrong way,
    so the arcs disagree with the codes and exactly those are reported."""
    for sg in GROUPS["suite"]():
        if code_space(sg) is None:
            continue
        a = sg.non_inputs[0]
        bad = sg.subgraph(sg.states())
        for s in bad.states():
            sabotage_code(bad, s, 1 << a)
        assert not arcs_agree(bad) and code_space(bad) is None
        got = {(w.state, w.transition.signal) for w in consistency_witnesses(bad)}
        assert got == {(s, a) for s in bad.states() for t in bad.enabled(s) if t.signal == a}


def test_wide_graphs_have_no_code_space():
    sg = elaborate(ring([f"s{i}" for i in range(MAX_CODE_SIGNALS + 1)], ["s0"]))
    assert unique_codes(sg) and arcs_agree(sg)
    assert code_space(sg) is None
    narrow = elaborate(ring([f"s{i}" for i in range(MAX_CODE_SIGNALS)], ["s0"]))
    assert code_space(narrow) is not None


def test_conflict_scan_reads_the_unique_code_flag():
    """``code_conflicts`` answers from the memoized unique-code flag: a
    planted flag hides a graph's code twins, which the scan finds."""
    twins = _split_diamond(elaborate(muller_pipeline(3)))
    assert properties.code_conflicts(twins)
    twins.analysis().unique_codes = True
    assert properties.code_conflicts(twins) == []


@pytest.mark.parametrize("group", ["suite", "muller", "corpus"])
def test_renumbering_round_trip(group):
    """State bitsets to code bitmaps and back, against a bit-by-bit
    reading, batches past eight included (one-state graphs too)."""
    rng = random.Random(group)
    for sg in GROUPS[group]():
        cs = code_space(sg)
        if cs is None:
            continue
        view = sg.dense()
        bitsets = [rng.getrandbits(len(view)) for _ in range(11)] + [0, (1 << len(view)) - 1]
        bitmaps = cs.to_codes(bitsets)
        assert bitmaps == [
            sum(1 << c for i, c in enumerate(view.codes) if bits >> i & 1) for bits in bitsets
        ]
        assert cs.to_states(bitmaps) == bitsets
