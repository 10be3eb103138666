"""Hazard-certification rules — the HZ family (symbolic certifier).

Each rule surfaces one obligation family of the static hazard
certifier (:mod:`repro.analysis.certify`) through the lint engine, so
refuted obligations flow into the same text/JSON/SARIF exporters,
baselines and CI gates as every other rule.  All five run in the
``NETLIST`` scope: they certify the *synthesized* circuit (final
cover, lowered architecture, inserted delay lines), not the raw
minimized cover TR003 audits.

Verdict mapping: ``refuted`` obligations are ERROR diagnostics,
``unknown`` obligations are WARNING diagnostics (statically
undecidable — fall back to simulation), ``proved`` obligations are
silent.  When a test injects a hand-built cover into the context, the
cover-level rules (HZ001–HZ003) certify that cover against the derived
spec instead — the seam the seeded-violation tests use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .context import LintContext
from .diagnostics import Diagnostic, Severity
from .registry import RuleMeta, Scope, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .certify.obligations import Obligation

__all__: list[str] = []


def _cover_family(ctx: LintContext, rule_id: str) -> list[Obligation]:
    """Obligations of one cover-level family (HZ001–HZ003).

    Injected covers (test seam) are certified directly; otherwise the
    synthesized circuit's certificate is shared across all HZ rules.
    """
    if ctx.has_own_cover and ctx.sg is not None:
        from .certify.engine import (
            coverage_obligations,
            disjointness_obligations,
            trigger_obligations,
        )

        spec = ctx.require_spec()
        cover = ctx.require_cover()
        fn = {
            "HZ001": trigger_obligations,
            "HZ002": coverage_obligations,
            "HZ003": disjointness_obligations,
        }[rule_id]
        return fn(spec, cover)
    return _certified_family(ctx, rule_id)


def _certified_family(ctx: LintContext, rule_id: str) -> list[Obligation]:
    cert = ctx.require_certificate()
    return [ob for ob in cert.obligations if ob.rule == rule_id]


def _emit(
    ctx: LintContext, meta: RuleMeta, obligations: list[Obligation]
) -> Iterator[Diagnostic]:
    """Refuted → ERROR (rule default), unknown → WARNING, proved → silent."""
    for ob in obligations:
        if ob.proved:
            continue
        where = f"{ob.kind}({ob.signal})" if ob.kind else ob.signal
        yield meta.diagnostic(
            f"{ob.subject} — {ob.verdict}"
            + (f": {ob.detail}" if ob.detail else ""),
            ctx.location("obligation", f"{meta.id} {where}"),
            hint=(
                None
                if ob.refuted
                else "statically undecidable; verify by simulation"
            ),
            severity=None if ob.refuted else Severity.WARNING,
            witness=ob.witness,
        )


@rule(
    "HZ001",
    title="Trigger region not held by a single cube",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Theorem 1 / Requirement 1",
)
def check_trigger_containment(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A trigger region of the final cover is not covered by any single
    product, so the trigger pulse can fragment below the MHS commit
    width — the Theorem 1 containment obligation is refuted."""
    yield from _emit(ctx, meta, _cover_family(ctx, "HZ001"))


@rule(
    "HZ002",
    title="ON-set transition cube not covered (static-1)",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Section IV-A (static-1 hazard condition)",
)
def check_required_cubes(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """An excited ON-set cube escapes every product of its cover
    column: the plane output can drop mid-transition (static-1
    hazard)."""
    yield from _emit(ctx, meta, _cover_family(ctx, "HZ002"))


@rule(
    "HZ003",
    title="Cover product intersects the OFF-set (static-0)",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Section IV-A (static-0 hazard condition)",
)
def check_off_disjointness(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A product of a cover column intersects that function's OFF-set:
    the plane can excite in the opposite operation phase (static-0
    hazard)."""
    yield from _emit(ctx, meta, _cover_family(ctx, "HZ003"))


@rule(
    "HZ004",
    title="Equation (1) delay obligation unmet",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Equation (1) / Section IV-C",
)
def check_delay_inequalities(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """The per-signal trespass inequality, re-derived from the
    architecture's plane timings, is positive but the implementation
    carries no (or too short a) enable-rail delay line."""
    yield from _emit(ctx, meta, _certified_family(ctx, "HZ004"))


@rule(
    "HZ005",
    title="Theorem 2 ω-margin not established",
    severity=Severity.ERROR,
    scope=Scope.NETLIST,
    paper="Theorem 2 (ω < τ pulse-width condition)",
)
def check_omega_margin(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """The closed-form pulse-width bound ω < τ·(1−spread) fails —
    refuted when ω ≥ τ (the filter cannot work at all), unknown when
    only the derating margin is exhausted."""
    yield from _emit(ctx, meta, _certified_family(ctx, "HZ005"))
