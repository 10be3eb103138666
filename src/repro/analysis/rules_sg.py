"""State-graph rules: the Theorem-2 preconditions and SG hygiene.

These port the checks that used to live as ad-hoc string lists in
``sg/properties.py`` into registry rules with locations, severities
and fix-it hints.  The ``preflight=True`` subset (SG001/SG002/SG004)
is exactly what Theorem 2 requires before synthesis; the rest are
advisory diagnostics (``repro lint`` only).

The rule bodies call the same primitive check functions the rest of
the library uses (``consistency_witnesses``, ``code_conflicts``,
``semimodularity_violations``, region checkers) — the engine is an
aggregation layer, not a reimplementation.
"""

from __future__ import annotations

from typing import Iterator

from ..sg.graph import render_state
from ..sg.properties import (
    code_conflicts,
    consistency_witnesses,
    semimodularity_violations,
)
from ..sg.regions import check_output_trapping, signal_regions
from .context import LintContext
from .diagnostics import Diagnostic, Severity
from .registry import RuleMeta, Scope, rule

__all__: list[str] = []


def _signal_names(ctx: LintContext, indices: frozenset[int]) -> str:
    sg = ctx.require_sg()
    return "{" + ", ".join(sg.signals[i] for i in sorted(indices)) + "}"


@rule(
    "SG001",
    title="Inconsistent state assignment",
    severity=Severity.ERROR,
    scope=Scope.SG,
    preflight=True,
    paper="Section III-A (consistent state assignment)",
)
def check_consistency_rule(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """An arc violates the coding rules (``+x`` must flip exactly bit
    ``x`` from 0 to 1, ``-x`` from 1 to 0)."""
    sg = ctx.require_sg()
    for w in consistency_witnesses(sg):
        yield meta.diagnostic(
            w.message,
            ctx.location("state", render_state(w.state)),
            hint=(
                "the state codes disagree with the arc label; graphs built "
                "through StateGraph.add_arc cannot reach this — re-derive "
                "the codes or fix the deserialized input"
            ),
            witness_message=w.message,
            witness=w,
        )


@rule(
    "SG002",
    title="Complete State Coding conflict",
    severity=Severity.ERROR,
    scope=Scope.SG,
    preflight=True,
    paper="Definition 1 (CSC)",
)
def check_csc_rule(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """Two states share a binary code but excite different non-input
    signals, so no combinational function can tell them apart."""
    sg = ctx.require_sg()
    for c in code_conflicts(sg):
        if not c.csc:
            continue
        yield meta.diagnostic(
            f"states {render_state(c.state_a)} and {render_state(c.state_b)} share code "
            f"{c.code:0{sg.num_signals}b} but excite "
            f"{_signal_names(ctx, c.excited_a)} vs "
            f"{_signal_names(ctx, c.excited_b)}",
            ctx.location(
                "state-pair", f"{render_state(c.state_a)} / {render_state(c.state_b)}"
            ),
            hint=(
                "insert an internal state signal separating the regions "
                "(repro.sg.insert_state_signal), the classic CSC repair"
            ),
            pair=(c.state_a, c.state_b),
            conflict=c,
        )


@rule(
    "SG003",
    title="Unique State Coding violation",
    severity=Severity.INFO,
    scope=Scope.SG,
    paper="Definition 1 (USC is strictly stronger than CSC)",
)
def check_usc_rule(ctx: LintContext, meta: RuleMeta) -> Iterator[Diagnostic]:
    """Two states share a binary code with identical excitation — USC
    fails while CSC still holds (synthesizable, reported for
    awareness).  Pairs that also break CSC are reported by SG002 only.
    """
    sg = ctx.require_sg()
    for c in code_conflicts(sg):
        if c.csc:
            continue  # already an SG002 error
        yield meta.diagnostic(
            f"states {render_state(c.state_a)} and {render_state(c.state_b)} share code "
            f"{c.code:0{sg.num_signals}b} (identical excitation — CSC holds)",
            ctx.location(
                "state-pair", f"{render_state(c.state_a)} / {render_state(c.state_b)}"
            ),
            pair=(c.state_a, c.state_b),
        )


@rule(
    "SG004",
    title="Semi-modularity violation",
    severity=Severity.ERROR,
    scope=Scope.SG,
    preflight=True,
    paper="Definition 2 (semi-modular with input choices)",
)
def check_semimodularity_rule(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """An enabled non-input transition can be disabled by another
    transition (or the two interleavings do not close a diamond)."""
    sg = ctx.require_sg()
    for v in semimodularity_violations(sg):
        what = (
            "is disabled by"
            if v.kind == "disabled"
            else "does not commute (no diamond) with"
        )
        yield meta.diagnostic(
            f"at state {render_state(v.state)}, non-input transition "
            f"{v.t1.label(sg.signals)} {what} {v.t2.label(sg.signals)}",
            ctx.location("state", render_state(v.state)),
            hint=(
                "only input transitions may disable each other (input "
                "choice); restructure the specification so the output "
                "transition stays enabled"
            ),
            violation=v,
        )


@rule(
    "SG005",
    title="Unreachable states",
    severity=Severity.WARNING,
    scope=Scope.SG,
    paper="Section III-A (SG semantics)",
)
def check_reachability_rule(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """States unreachable from the initial state: dead specification
    weight that silently widens the don't-care set."""
    sg = ctx.require_sg()
    reachable = sg.reachable()
    dead = [s for s in sg.states() if s not in reachable]
    if dead:
        shown = ", ".join(sorted(render_state(s) for s in dead)[:4])
        if len(dead) > 4:
            shown += ", …"
        yield meta.diagnostic(
            f"{len(dead)} of {sg.num_states} states unreachable from "
            f"initial {render_state(sg.initial)}: {shown}",
            ctx.graph_location(),
            hint="drop them with StateGraph.restrict_to_reachable()",
            states=tuple(dead),
        )


@rule(
    "SG006",
    title="Excitation region not output-trapping",
    severity=Severity.WARNING,
    scope=Scope.SG,
    paper="Property 1 (output trapping)",
)
def check_output_trapping_rule(
    ctx: LintContext, meta: RuleMeta
) -> Iterator[Diagnostic]:
    """A transition of another signal escapes an excitation region —
    Property 1 fails (always accompanied by a semi-modularity error,
    but localized to the region here)."""
    sg = ctx.require_sg()
    for a in sg.non_inputs:
        for er in signal_regions(sg, a).excitation:
            for state, escaped_to in check_output_trapping(sg, er):
                yield meta.diagnostic(
                    f"{er.label(sg)} can be left from state {render_state(state)} to "
                    f"{render_state(escaped_to)} without firing "
                    f"{'+' if er.rising else '-'}{sg.signals[a]}",
                    ctx.location("region", er.label(sg)),
                    escape=(state, escaped_to),
                )
