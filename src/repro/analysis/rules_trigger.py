"""Trigger-requirement rules — Theorem 1 and Corollary 1, statically.

These rules run in the ``COVER`` scope: they need the derived SOP
specification and (for TR003) a minimized cover, but no netlist.

* **TR001** is the hard Theorem-1 infeasibility: a trigger region
  whose state-set supercube intersects the function's OFF-set, so *no*
  cover can satisfy the single-cube trigger requirement — the SG must
  be transformed before any hazard-free N-SHOT implementation exists.
  This is the same condition :func:`repro.core.trigger.enforce_trigger_cubes`
  raises :class:`~repro.core.trigger.TriggerRequirementError` for,
  surfaced as a diagnostic before synthesis is attempted.
* **TR002** classifies signals by Definition 9: non-single-traversal
  signals are legal but lose the Corollary-1 free pass, so trigger
  cubes may be inserted during synthesis (area cost).
* **TR003** audits a concrete minimized cover: an uncovered trigger
  region is repairable (the enforcement step adds a prime supercube),
  reported so the cost is visible up front.
"""

from __future__ import annotations

from typing import Iterator

from ..core.trigger import check_trigger_cubes, trigger_infeasibilities
from ..logic.cover import Cover
from ..sg.graph import render_state
from ..sg.regions import Region, signal_regions
from .context import LintContext
from .diagnostics import Diagnostic, Severity
from .registry import RuleMeta, Scope, rule

__all__: list[str] = []


def _region_states(region: Region) -> str:
    shown = sorted(map(render_state, region.states))
    return "{" + ", ".join(shown[:4]) + (", …}" if len(shown) > 4 else "}")


@rule(
    "TR001",
    title="Trigger requirement unsatisfiable",
    severity=Severity.ERROR,
    scope=Scope.COVER,
    paper="Theorem 1 / Requirement 1",
)
def check_trigger_feasibility(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A trigger region's supercube intersects the OFF-set: no single
    cube can cover the region, so no hazard-free N-SHOT implementation
    exists for this SG without state-signal insertion."""
    spec = ctx.require_spec()
    sg = spec.sg
    for signal, kind, tr in trigger_infeasibilities(spec):
        yield meta.diagnostic(
            f"trigger region of {kind}({sg.signals[signal]}) spans "
            f"OFF-set points; no trigger cube exists "
            f"(states {_region_states(tr)})",
            ctx.location("region", f"TR of {kind}({sg.signals[signal]})"),
            hint=(
                "transform the SG (e.g. insert a state signal serializing "
                "the region) so the trigger region fits one cube"
            ),
            region=tr,
        )


@rule(
    "TR002",
    title="Not single-traversal",
    severity=Severity.INFO,
    scope=Scope.COVER,
    paper="Definition 9 / Corollary 1",
)
def check_single_traversal(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A signal has a multi-state trigger region: Corollary 1's free
    pass does not apply and synthesis may add trigger cubes."""
    sg = ctx.require_sg()
    for a in sg.non_inputs:
        sr = signal_regions(sg, a)
        if sr.single_traversal:
            continue
        widest = max(len(tr) for trs in sr.triggers for tr in trs)
        yield meta.diagnostic(
            f"signal {sg.signals[a]} is not single-traversal (widest "
            f"trigger region has {widest} states); trigger-cube "
            f"enforcement may add cubes",
            ctx.location("signal", sg.signals[a]),
            signal=a,
        )


@rule(
    "TR003",
    title="Minimized cover misses a trigger cube",
    severity=Severity.WARNING,
    scope=Scope.COVER,
    paper="Theorem 1 (repairable case)",
)
def check_cover_trigger_cubes(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """The unconstrained minimized cover leaves a trigger region
    without a covering cube; enforcement will repair it by inserting
    the region's prime supercube (area cost)."""
    spec = ctx.require_spec()
    cover: Cover = ctx.require_cover()
    sg = spec.sg
    for chk in check_trigger_cubes(spec, cover):
        for tr in chk.uncovered:
            yield meta.diagnostic(
                f"no cube of {chk.kind}({sg.signals[chk.signal]}) covers "
                f"trigger region {_region_states(tr)}",
                ctx.location(
                    "region", f"TR of {chk.kind}({sg.signals[chk.signal]})"
                ),
                hint=(
                    "enforce_trigger_cubes adds the region's supercube "
                    "expanded to a prime (done automatically by synthesize)"
                ),
                region=tr,
            )
