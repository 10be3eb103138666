"""Corpus round-trip tests plus the forever-regression replay.

The replay half is the point of the corpus: every ``.g`` file under
``examples/fuzz-corpus/`` is pushed through every synthesis flow on
every test run.  The guarantee is **containment** — each flow answers
with a structured verdict — and, for archived ``flow-crash`` findings,
that the crash stays fixed.
"""

from __future__ import annotations

import pytest

from repro.fuzz import (
    Disagreement,
    SpecKnobs,
    archive_reproducer,
    generate_spec,
    load_corpus,
)
from repro.fuzz.corpus import DEFAULT_CORPUS, CorpusEntry
from repro.fuzz.differential import FLOW_NAMES, FlowOutcome, run_flow
from repro.sg.sgformat import write_sg

REPO_CORPUS = load_corpus()

#: per-flow wall-clock bound of a corpus replay, in seconds
REPLAY_TIMEOUT_S = 30.0


def replay_entry(entry: CorpusEntry) -> list[FlowOutcome]:
    """One reproducer through every flow, crash-contained."""
    sg = entry.sg()
    return [
        run_flow(flow, sg, name=entry.path.stem, timeout=REPLAY_TIMEOUT_S)
        for flow in FLOW_NAMES
    ]


def _disagreement(seed=3) -> Disagreement:
    spec = generate_spec(seed, SpecKnobs(signals=6, csc=False))
    return Disagreement(
        kind="unexpected-refusal",
        flow="nshot",
        seed=seed,
        knobs=spec.knobs,
        detail="SynthesisError: preflight",
        spec_text=write_sg(spec.sg, spec.name),
        labels=spec.labels.to_json(),
        original_states=spec.labels.states,
    )


class TestArchive:
    def test_roundtrip(self, tmp_path):
        d = _disagreement()
        path = archive_reproducer(d, tmp_path)
        assert path is not None and path.suffix == ".g"
        entries = load_corpus(tmp_path)
        assert len(entries) == 1
        e = entries[0]
        assert e.signature == d.signature
        assert e.meta["kind"] == "unexpected-refusal"
        assert e.meta["flow"] == "nshot"
        assert e.meta["seed"] == d.seed
        assert e.meta["knobs"] == d.knobs.to_json()
        assert e.meta["labels"] == d.labels
        # the spec text parses despite the header comments
        assert e.sg().num_states == d.original_states

    def test_dedupe_by_signature(self, tmp_path):
        d = _disagreement(seed=3)
        assert archive_reproducer(d, tmp_path) is not None
        other = _disagreement(seed=9)  # same signature, different witness
        assert archive_reproducer(other, tmp_path) is None
        assert len(load_corpus(tmp_path)) == 1

    def test_prefers_minimized_text(self, tmp_path):
        d = _disagreement()
        d.minimized_text = write_sg(
            generate_spec(0, SpecKnobs(signals=4, csc=False)).sg, "mini"
        )
        d.minimized_states = 8
        path = archive_reproducer(d, tmp_path)
        entry = load_corpus(tmp_path)[0]
        assert entry.meta["states"] == 8

    def test_nothing_to_archive(self, tmp_path):
        d = _disagreement()
        d.spec_text = ""
        assert archive_reproducer(d, tmp_path) is None

    def test_missing_dir_loads_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestRepoCorpus:
    """The committed corpus under examples/fuzz-corpus/."""

    def test_corpus_is_seeded(self):
        # the fuzzing PR landed with its first real findings archived
        assert len(REPO_CORPUS) >= 3

    @pytest.mark.parametrize(
        "entry", REPO_CORPUS, ids=[e.path.stem for e in REPO_CORPUS]
    )
    def test_replays_green(self, entry):
        outcomes = replay_entry(entry)
        statuses = {o.flow: o for o in outcomes}
        # containment: every flow answers with a structured verdict
        for o in outcomes:
            assert o.status in ("ok", "refused", "timeout"), (
                f"{entry.path.name}: {o.flow} escaped containment: "
                f"{o.status} {o.detail}"
            )
        # a fixed crash stays fixed: the recorded flow must not crash
        if entry.meta.get("kind") == "flow-crash":
            flow = entry.meta["flow"]
            assert statuses[flow].status != "crashed", (
                f"{entry.path.name}: regression — {flow} crashes again: "
                f"{statuses[flow].detail}"
            )
