"""Certifier-vs-oracle differential harness (the soundness enforcer).

The certifier's contract is one-directional: ``unknown`` is always
allowed, ``proved`` is never wrong.  This module enforces the second
half empirically — every spec is pushed through the symbolic certifier
*and* the Monte-Carlo oracle, and a circuit whose certificate is
``fully_proved`` while the oracle observes a violation is a
**soundness failure**: a hard error, archived as a reproducer in the
fuzz corpus so it becomes a forever-regression test.

Replayed populations: the 25-circuit paper suite
(:func:`differential_suite`) and the committed fuzz reproducer corpus
(:func:`differential_corpus`).  Corpus entries that do not synthesize
(that is what many of them are *for*) are recorded as
``synthesis-error`` outcomes — nothing was proved, so nothing can be
unsound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ...obs.trace import trace_span
from .engine import certify_circuit
from .obligations import Certificate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.synthesizer import NShotCircuit

__all__ = [
    "DifferentialOutcome",
    "SoundnessError",
    "cross_check",
    "differential_suite",
    "differential_corpus",
    "archive_soundness_failure",
]


class SoundnessError(AssertionError):
    """A spec certified ``proved`` was violated by the oracle."""


@dataclass
class DifferentialOutcome:
    """One spec's paired verdicts."""

    name: str
    status: str  # "ok" | "unsound" | "synthesis-error"
    fully_proved: bool = False
    refuted: int = 0
    unknown: int = 0
    oracle_ok: bool | None = None  # None = oracle not run / not applicable
    detail: str = ""
    certificate: Certificate | None = field(default=None, repr=False)

    @property
    def sound(self) -> bool:
        """False only for the forbidden cell: proved yet violated."""
        return not (self.fully_proved and self.oracle_ok is False)

    def describe(self) -> str:
        cert = (
            "proved"
            if self.fully_proved
            else f"{self.refuted} refuted / {self.unknown} unknown"
        )
        oracle = (
            "skipped"
            if self.oracle_ok is None
            else ("clean" if self.oracle_ok else "VIOLATED")
        )
        return f"{self.name}: certifier {cert}, oracle {oracle} → {self.status}"


def cross_check(
    circuit: "NShotCircuit",
    *,
    name: str | None = None,
    runs: int = 3,
    max_transitions: int = 60,
) -> DifferentialOutcome:
    """Certify and simulate one circuit; flag the forbidden disagreement."""
    from ...core.verify import verify_hazard_freeness

    cname = name or circuit.netlist.name
    cert = certify_circuit(circuit, name=cname)
    summary = verify_hazard_freeness(
        circuit,
        runs=runs,
        max_transitions=max_transitions,
    )
    counts = cert.counts
    unsound = cert.fully_proved and not summary.ok
    return DifferentialOutcome(
        name=cname,
        status="unsound" if unsound else "ok",
        fully_proved=cert.fully_proved,
        refuted=counts["refuted"],
        unknown=counts["unknown"],
        oracle_ok=summary.ok,
        detail=(
            "; ".join(
                err for r in summary.runs if not r.ok for err in r.errors[:1]
            )
            if not summary.ok
            else ""
        ),
        certificate=cert,
    )


def differential_suite(names: list[str] | None = None) -> list[DifferentialOutcome]:
    """Cross-check the paper suite (all 25 circuits by default)."""
    from ...bench.circuits import TABLE2_CIRCUITS
    from ...bench.runner import sg_of
    from ...core.synthesizer import synthesize

    suite = names or TABLE2_CIRCUITS
    out: list[DifferentialOutcome] = []
    with trace_span("certify.differential", targets=len(suite)):
        for cname in suite:
            circuit = synthesize(sg_of(cname), name=cname)
            out.append(cross_check(circuit, name=cname))
    return out


def differential_corpus() -> list[DifferentialOutcome]:
    """Cross-check every committed fuzz reproducer, crash-contained."""
    from ...core.synthesizer import synthesize
    from ...fuzz.corpus import DEFAULT_CORPUS, load_corpus

    entries = load_corpus(DEFAULT_CORPUS)
    out: list[DifferentialOutcome] = []
    for entry in entries:
        cname = entry.path.stem
        try:
            circuit = synthesize(entry.sg(), name=cname)
        except Exception as exc:  # noqa: BLE001 - corpus specs exist to fail
            out.append(
                DifferentialOutcome(
                    name=cname,
                    status="synthesis-error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        out.append(cross_check(circuit, name=cname, runs=2, max_transitions=40))
    return out


def archive_soundness_failure(
    outcome: DifferentialOutcome,
    spec_text: str,
    corpus_dir: "Path | str | None" = None,
) -> Path | None:
    """Pin a proved-but-violated spec as a fuzz-corpus reproducer.

    Same on-disk format as :func:`repro.fuzz.corpus.archive_reproducer`
    (header comments + plain SG dialect) so ``load_corpus`` replays it
    forever after; dedupes by signature.
    """
    from ...fuzz.corpus import DEFAULT_CORPUS, _existing_signatures

    corpus = Path(corpus_dir if corpus_dir is not None else DEFAULT_CORPUS)
    signature = f"certify-unsound:{outcome.name}"
    if signature in _existing_signatures(corpus):
        return None
    corpus.mkdir(parents=True, exist_ok=True)
    path = corpus / f"certify_unsound_{outcome.name}.g"
    counts = (
        outcome.certificate.counts
        if outcome.certificate is not None
        else {}
    )
    header = [
        "# repro-fuzz reproducer (certifier soundness failure; do not edit)",
        f"# signature: {signature}",
        "# kind: certify-unsound",
        "# flow: certify",
        "# seed: 0",
        f"# labels: {json.dumps({'counts': counts}, sort_keys=True)}",
        f"# detail: {' '.join(outcome.detail.split()) or 'proved statically, violated by oracle'}",
        "",
    ]
    path.write_text("\n".join(header) + spec_text)
    return path
