"""Diagnostic exporters: terminal text, ``repro-lint/1`` JSON, SARIF.

All three render the same :class:`~repro.analysis.engine.AnalysisResult`
objects; a lint run over several targets produces one document with
one entry (text section / JSON target / SARIF result set) per target.

The SARIF export targets 2.1.0 with the fields CI code-scanning
uploads require: ``version``, ``$schema``, one run with a tool driver
carrying the full rule catalog (id, description, default level), and
per-result ``ruleId``/``ruleIndex``/``level``/``message`` plus a
physical location when the target came from a spec file (logical
location otherwise).
"""

from __future__ import annotations

import json

from .diagnostics import Diagnostic
from .engine import AnalysisResult
from .registry import default_registry

__all__ = [
    "LINT_SCHEMA",
    "SARIF_VERSION",
    "render_text",
    "render_json",
    "render_sarif",
]

LINT_SCHEMA = "repro-lint/1"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


# ----------------------------------------------------------------------
# text
# ----------------------------------------------------------------------
def render_text(results: list[AnalysisResult]) -> str:
    """Human-readable report: per-target findings plus a summary."""
    lines: list[str] = []
    for r in results:
        if r.diagnostics:
            lines.append(f"── {r.name} ──")
        for d in sorted(
            r.diagnostics, key=lambda d: (-d.severity.rank, d.rule_id)
        ):
            lines.append(d.render())
    lines.extend(r.summary() for r in results)
    total_err = sum(r.errors for r in results)
    total_warn = sum(r.warnings for r in results)
    total_int = sum(r.internal_errors for r in results)
    if len(results) > 1:
        lines.append(
            f"total: {total_err} error(s), {total_warn} warning(s) "
            f"over {len(results)} target(s)"
            + (f", {total_int} internal" if total_int else "")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# repro-lint/1 JSON
# ----------------------------------------------------------------------
def _diag_dict(d: Diagnostic) -> dict[str, object]:
    out: dict[str, object] = {
        "rule": d.rule_id,
        "severity": d.severity.value,
        "message": d.message,
        "location": {
            "kind": d.location.kind,
            "detail": d.location.detail,
            "path": d.location.path,
        },
    }
    if d.hint:
        out["hint"] = d.hint
    return out


def render_json(results: list[AnalysisResult]) -> str:
    """Machine-readable ``repro-lint/1`` document."""
    reg = default_registry()
    doc: dict[str, object] = {
        "schema": LINT_SCHEMA,
        "targets": [
            {
                "name": r.name,
                "summary": {
                    "errors": r.errors,
                    "warnings": r.warnings,
                    "infos": r.infos,
                    "internal_errors": r.internal_errors,
                    "suppressed": r.suppressed,
                },
                "scopes_run": r.scopes_run,
                "scopes_skipped": r.scopes_skipped,
                "diagnostics": [_diag_dict(d) for d in r.diagnostics],
            }
            for r in results
        ],
        "totals": {
            "targets": len(results),
            "errors": sum(r.errors for r in results),
            "warnings": sum(r.warnings for r in results),
            "infos": sum(r.infos for r in results),
            "internal_errors": sum(r.internal_errors for r in results),
        },
        "rules": [
            {
                "id": rule.meta.id,
                "title": rule.meta.title,
                "severity": rule.meta.severity.value,
                "scope": rule.meta.scope.value,
                "preflight": rule.meta.preflight,
                "paper": rule.meta.paper,
            }
            for rule in reg.all()
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


# ----------------------------------------------------------------------
# SARIF 2.1.0
# ----------------------------------------------------------------------
def _sarif_location(r: AnalysisResult, d: Diagnostic) -> dict[str, object]:
    logical: dict[str, object] = {
        "logicalLocations": [
            {
                "name": d.location.detail,
                "kind": d.location.kind,
                "fullyQualifiedName": f"{r.name}::{d.location.detail}",
            }
        ]
    }
    if d.location.path:
        logical["physicalLocation"] = {
            "artifactLocation": {"uri": d.location.path}
        }
    return logical


def render_sarif(results: list[AnalysisResult]) -> str:
    """SARIF 2.1.0 document over all targets (one run)."""
    rules = default_registry().all()
    rule_index = {rule.meta.id: i for i, rule in enumerate(rules)}
    sarif_results: list[dict[str, object]] = []
    for r in results:
        for d in r.diagnostics:
            entry: dict[str, object] = {
                "ruleId": d.rule_id,
                "level": d.severity.sarif_level,
                "message": {"text": f"{r.name}: {d.message}"},
                "locations": [_sarif_location(r, d)],
            }
            if d.rule_id in rule_index:
                entry["ruleIndex"] = rule_index[d.rule_id]
            sarif_results.append(entry)
    doc = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA_URI,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": "1.0.0",
                        "informationUri": (
                            "https://github.com/example/repro#static-analysis"
                        ),
                        "rules": [
                            {
                                "id": rule.meta.id,
                                "shortDescription": {"text": rule.meta.title},
                                "fullDescription": {
                                    "text": rule.meta.description
                                    or rule.meta.title
                                },
                                "help": {
                                    "text": rule.meta.paper
                                    or rule.meta.title
                                },
                                "defaultConfiguration": {
                                    "level": rule.meta.severity.sarif_level
                                },
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": sarif_results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
