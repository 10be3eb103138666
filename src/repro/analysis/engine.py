"""The analysis engine: phased rule execution over one context.

Rules run in scope order — ``SG`` first, then ``COVER`` (which pays
for SOP derivation and minimization), then ``NETLIST`` (which pays for
synthesis).  A scope only runs when every earlier scope finished
without error-severity findings: there is no point minimizing a graph
that is not even consistent, and no netlist exists for a spec whose
trigger requirement is unsatisfiable.  Skipped scopes are recorded on
the result so exporters can say the analysis was partial.

A rule body that raises does not abort the run: the exception becomes
an ``ENGINE`` internal-error diagnostic and maps to exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..netlist.netlist import Netlist
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span
from ..sg.graph import StateGraph
from .context import LintContext
from .diagnostics import Diagnostic, Location, Severity
from .registry import Rule, RuleRegistry, Scope, default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..pipeline.dag import PipelineRun

__all__ = ["AnalysisResult", "run_rules", "analyze", "run_preflight"]

#: scope execution order
_SCOPE_ORDER = (Scope.SG, Scope.COVER, Scope.NETLIST)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    scopes_run: list[str] = field(default_factory=list)
    scopes_skipped: list[str] = field(default_factory=list)
    rules_run: int = 0
    internal_errors: int = 0
    suppressed: int = 0

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def infos(self) -> int:
        return self.count(Severity.INFO)

    @property
    def ok(self) -> bool:
        """No error-severity findings and no internal failures."""
        return self.errors == 0 and self.internal_errors == 0

    def exit_code(self, strict: bool = False) -> int:
        """CLI contract: 0 clean, 1 findings, 2 internal error.

        ``strict`` promotes warnings to findings.
        """
        if self.internal_errors:
            return EXIT_INTERNAL
        if self.errors or (strict and self.warnings):
            return EXIT_FINDINGS
        return EXIT_CLEAN

    def by_rule(self) -> dict[str, list[Diagnostic]]:
        out: dict[str, list[Diagnostic]] = {}
        for d in self.diagnostics:
            out.setdefault(d.rule_id, []).append(d)
        return out

    def summary(self) -> str:
        if not self.diagnostics and not self.internal_errors and not self.suppressed:
            return f"{self.name}: clean ({self.rules_run} rules)"
        parts = []
        if self.errors:
            parts.append(f"{self.errors} error(s)")
        if self.warnings:
            parts.append(f"{self.warnings} warning(s)")
        if self.infos:
            parts.append(f"{self.infos} info(s)")
        if self.internal_errors:
            parts.append(f"{self.internal_errors} internal error(s)")
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed")
        skipped = (
            f" [scopes skipped: {', '.join(self.scopes_skipped)}]"
            if self.scopes_skipped
            else ""
        )
        return f"{self.name}: " + ", ".join(parts) + skipped

    def suppress(self, fingerprints: set[str]) -> "AnalysisResult":
        """A copy with baseline-suppressed diagnostics removed."""
        kept = [
            d for d in self.diagnostics if d.fingerprint_key() not in fingerprints
        ]
        out = AnalysisResult(
            name=self.name,
            diagnostics=kept,
            scopes_run=list(self.scopes_run),
            scopes_skipped=list(self.scopes_skipped),
            rules_run=self.rules_run,
            internal_errors=self.internal_errors,
            suppressed=self.suppressed + len(self.diagnostics) - len(kept),
        )
        return out


def _run_one(rule: Rule, ctx: LintContext, result: AnalysisResult) -> None:
    with trace_span("lint.rule", rule=rule.meta.id) as sp:
        try:
            found = list(rule.run(ctx))
        except Exception as exc:  # noqa: BLE001 - rule crashes become diagnostics
            result.internal_errors += 1
            result.diagnostics.append(
                Diagnostic(
                    rule_id="ENGINE",
                    severity=Severity.ERROR,
                    message=(
                        f"rule {rule.meta.id} crashed: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                    location=Location("graph", ctx.name, ctx.source),
                )
            )
            sp.set(crashed=True)
            return
        result.rules_run += 1
        result.diagnostics.extend(found)
        sp.set(findings=len(found))


def run_rules(
    ctx: LintContext,
    registry: RuleRegistry | None = None,
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    preflight_only: bool = False,
) -> AnalysisResult:
    """Run (a selection of) the registry's rules over one context.

    Scopes execute in order and a scope is skipped — recorded in
    ``scopes_skipped`` — once any earlier scope produced an error.
    Contexts without a state graph run only ``NETLIST``-scope rules;
    contexts with a graph and a pre-built netlist run every scope but
    the netlist rules see the provided netlist.
    """
    reg = registry if registry is not None else default_registry()
    rules = reg.select(select, ignore)
    if preflight_only:
        rules = [r for r in rules if r.meta.preflight]
    result = AnalysisResult(name=ctx.name)
    metrics = get_metrics()
    with trace_span("lint", circuit=ctx.name) as sp:
        abort = False
        for scope in _SCOPE_ORDER:
            in_scope = [r for r in rules if r.meta.scope is scope]
            if not in_scope:
                continue
            if scope is not Scope.NETLIST and ctx.sg is None:
                continue  # netlist-only context: nothing to run here
            if abort:
                result.scopes_skipped.append(scope.value)
                continue
            result.scopes_run.append(scope.value)
            for rule in in_scope:
                _run_one(rule, ctx, result)
            if result.errors or result.internal_errors:
                abort = True
        sp.set(
            rules=result.rules_run,
            findings=len(result.diagnostics),
            errors=result.errors,
        )
    metrics.counter("lint.runs").add(1)
    metrics.counter("lint.diagnostics").add(len(result.diagnostics))
    return result


def analyze(
    sg: StateGraph | None = None,
    netlist: Netlist | None = None,
    *,
    name: str = "spec",
    source: str | None = None,
    spread: float = 0.0,
    method: str = "espresso",
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    registry: RuleRegistry | None = None,
    fanout_limit: int = 32,
    pipeline: PipelineRun | None = None,
) -> AnalysisResult:
    """Convenience wrapper: build a context and run every rule."""
    ctx = LintContext(
        sg,
        netlist,
        name=name,
        source=source,
        spread=spread,
        method=method,
        fanout_limit=fanout_limit,
        pipeline=pipeline,
    )
    return run_rules(ctx, registry, select=select, ignore=ignore)


def run_preflight(sg: StateGraph, name: str = "spec") -> AnalysisResult:
    """The synthesizer's pre-flight pass: only the Theorem-2
    precondition rules (``preflight=True``), all SG-scope, so nothing
    is minimized or mapped."""
    ctx = LintContext(sg, name=name)
    return run_rules(ctx, preflight_only=True)
