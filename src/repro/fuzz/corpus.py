"""Reproducer corpus: minimized fuzz findings as forever-regression tests.

Every unique disagreement a campaign finds is archived as a ``.g`` file
under ``examples/fuzz-corpus/`` — the minimized SG (when the shrinker
succeeded, the raw witness otherwise) preceded by ``#`` header comments
carrying the finding's metadata.  The files are plain SG dialect (the
parser strips comments), so ``repro lint`` / ``repro explain`` work on
them directly, and the default test run replays each entry through the
full differential harness to pin the containment behaviour down.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..sg.graph import StateGraph
from ..sg.sgformat import parse_sg

__all__ = ["CorpusEntry", "archive_reproducer", "load_corpus"]

#: default corpus location, relative to the repository root
DEFAULT_CORPUS = Path("examples") / "fuzz-corpus"


@dataclass
class CorpusEntry:
    """One archived reproducer: its SG plus the recorded finding."""

    path: Path
    meta: dict = field(default_factory=dict)
    text: str = ""

    @property
    def signature(self) -> str:
        return self.meta.get("signature", "")

    def sg(self) -> StateGraph:
        return parse_sg(self.text)


def _slug(signature: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", signature).strip("_").lower()


def _existing_signatures(corpus_dir: Path) -> set[str]:
    out = set()
    if not corpus_dir.is_dir():
        return out
    for p in sorted(corpus_dir.glob("*.g")):
        for line in p.read_text().splitlines():
            if line.startswith("# signature:"):
                out.add(line.split(":", 1)[1].strip())
                break
    return out


def archive_reproducer(d, corpus_dir: Path | str = DEFAULT_CORPUS) -> Path | None:
    """Write one disagreement's reproducer; returns the path.

    Dedupes by signature against the existing corpus (None = already
    archived or nothing to archive — e.g. a harness-level finding with
    no spec).  The minimized spec is preferred; the raw witness is the
    fallback so an unshrinkable finding is still pinned.
    """
    corpus_dir = Path(corpus_dir)
    spec_text = d.minimized_text or d.spec_text
    if not spec_text:
        return None
    if d.signature in _existing_signatures(corpus_dir):
        return None
    corpus_dir.mkdir(parents=True, exist_ok=True)
    name = f"{_slug(d.signature)}_s{d.seed}.g"
    path = corpus_dir / name
    detail = " ".join(d.detail.split())
    header = [
        "# repro-fuzz reproducer (minimized counterexample; do not edit)",
        f"# signature: {d.signature}",
        f"# kind: {d.kind}",
        f"# flow: {d.flow}",
        f"# seed: {d.seed}",
        f"# knobs: {json.dumps(d.knobs.to_json(), sort_keys=True)}",
        f"# labels: {json.dumps(d.labels, sort_keys=True)}",
        f"# detail: {detail}",
        f"# states: {d.minimized_states or d.original_states}",
        "",
    ]
    path.write_text("\n".join(header) + spec_text)
    return path


def load_corpus(corpus_dir: Path | str = DEFAULT_CORPUS) -> list[CorpusEntry]:
    """Every archived reproducer, metadata parsed from the header."""
    corpus_dir = Path(corpus_dir)
    entries: list[CorpusEntry] = []
    if not corpus_dir.is_dir():
        return entries
    for p in sorted(corpus_dir.glob("*.g")):
        raw = p.read_text()
        meta: dict = {}
        for line in raw.splitlines():
            if not line.startswith("# "):
                continue
            body = line[2:]
            if ":" not in body:
                continue
            key, _, value = body.partition(":")
            key = key.strip()
            value = value.strip()
            if key in ("knobs", "labels"):
                try:
                    meta[key] = json.loads(value)
                except json.JSONDecodeError:
                    meta[key] = value
            elif key in ("seed", "states"):
                try:
                    meta[key] = int(value)
                except ValueError:
                    meta[key] = value
            elif key in ("signature", "kind", "flow", "detail"):
                meta[key] = value
        entries.append(CorpusEntry(path=p, meta=meta, text=raw))
    return entries
