"""SG property checks — Definitions 1–2 of the paper.

* :func:`check_consistency` — the consistent state assignment of
  Section III-A (also enforced structurally at arc insertion, but this
  checker validates whole graphs built elsewhere, e.g. from STG
  reachability).
* :func:`csc_violations` / :func:`satisfies_csc` — Complete State
  Coding (Definition 1): any two states either have different binary
  codes or identical sets of excited *non-input* signals.
* :func:`semimodularity_violations` / :func:`is_semimodular_with_input_choices`
  — Definition 2: an enabled non-input transition can never be
  disabled; formally for every state ``s``, non-input ``t1`` and any
  ``t2`` enabled in ``s``, both interleavings exist and commute to the
  same state.
* :func:`usc_violations` — the stronger Unique State Coding, reported
  for diagnostics.
* :func:`preconditions_hold` — all three of Theorem 2's preconditions,
  the verdict a synthesis flow gates on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codespace import arcs_agree, code_space, unique_codes
from .graph import StateGraph, StateId, Transition, render_state

__all__ = [
    "ConsistencyWitness",
    "consistency_witnesses",
    "check_consistency",
    "CodeConflict",
    "code_conflicts",
    "csc_violations",
    "satisfies_csc",
    "usc_violations",
    "semimodularity_violations",
    "is_semimodular_with_input_choices",
    "SemimodularityViolation",
    "preconditions_hold",
    "validate_for_synthesis",
    "SGValidationReport",
]


@dataclass(frozen=True)
class ConsistencyWitness:
    """One arc violating the consistent state assignment rules."""

    state: StateId
    transition: Transition
    dest: StateId
    message: str


def consistency_witnesses(sg: StateGraph) -> list[ConsistencyWitness]:
    """Structured consistency violations (empty when consistent).

    Checks every arc obeys the state assignment rules: a ``+x`` arc
    flips exactly bit ``x`` from 0 to 1, a ``-x`` arc from 1 to 0.
    (StateGraph.add_arc enforces this; the checker exists for graphs
    deserialized or constructed by other front-ends and as the oracle
    for property-based tests.)  A graph whose arcs pass the vectorized
    test of :func:`~repro.sg.codespace.arcs_agree` has none.
    """
    if arcs_agree(sg):
        return []
    view = sg.dense()
    codes = view.codes
    problems = []
    for i, arcs in enumerate(view.succ):
        cs = codes[i]
        for a, direction, j in arcs:
            cd = codes[j]
            if cs ^ cd == 1 << a and (cs >> a & 1) == (direction == -1):
                continue  # flips exactly its own bit, the right way
            s, t, d = view.label(i), Transition(a, direction), view.label(j)
            sv, dv = (cs >> a) & 1, (cd >> a) & 1
            expect = (0, 1) if t.rising else (1, 0)
            if (sv, dv) != expect:
                problems.append(
                    ConsistencyWitness(
                        s,
                        t,
                        d,
                        f"arc {t.label(sg.signals)} at {render_state(s)} has values {sv}->{dv}",
                    )
                )
            if (cs ^ cd) != (1 << a):
                problems.append(
                    ConsistencyWitness(
                        s,
                        t,
                        d,
                        f"arc {t.label(sg.signals)} at {render_state(s)} changes other signals",
                    )
                )
    return problems


def check_consistency(sg: StateGraph) -> list[str]:
    """Consistency violations as human-readable strings (legacy view)."""
    return [w.message for w in consistency_witnesses(sg)]


@dataclass(frozen=True)
class CodeConflict:
    """Two distinct states sharing a binary code.

    ``csc`` is True when the pair also violates Complete State Coding
    (different excited non-input sets); pairs with ``csc=False`` are
    USC-only conflicts.  This single scan backs ``csc_violations``,
    ``usc_violations`` and :func:`repro.sg.csc.csc_report`.
    """

    state_a: StateId
    state_b: StateId
    code: int
    excited_a: frozenset[int]
    excited_b: frozenset[int]

    @property
    def csc(self) -> bool:
        return self.excited_a != self.excited_b


def code_conflicts(sg: StateGraph) -> list[CodeConflict]:
    """All pairs of distinct states sharing a code — one traversal.

    The deduplicated core of the USC/CSC diagnostics: group states by
    code once, compute each state's excited non-input set once, and
    emit every pair with its excitation sets attached.  A graph whose
    codes are unique (:func:`~repro.sg.codespace.unique_codes`) has none.
    """
    if unique_codes(sg):
        return []
    by_code: dict[int, list[int]] = {}
    view = sg.dense()
    for i, code in enumerate(view.codes):
        by_code.setdefault(code, []).append(i)
    non_inputs = sg.non_inputs
    out: list[CodeConflict] = []
    for code, states in by_code.items():
        if len(states) < 2:
            continue
        labels = [view.label(i) for i in states]
        excited = [
            frozenset(a for a in non_inputs if (view.up[i] | view.down[i]) >> a & 1)
            for i in states
        ]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                out.append(CodeConflict(labels[i], labels[j], code, excited[i], excited[j]))
    return out


def csc_violations(sg: StateGraph) -> list[tuple[StateId, StateId]]:
    """Pairs of states violating Complete State Coding (Definition 1).

    Two states conflict when they share a binary code but differ in
    their sets of excited non-input signals.
    """
    return [(c.state_a, c.state_b) for c in code_conflicts(sg) if c.csc]


def satisfies_csc(sg: StateGraph) -> bool:
    """True when the SG satisfies the CSC property."""
    return not csc_violations(sg)


def usc_violations(sg: StateGraph) -> list[tuple[StateId, StateId]]:
    """Pairs of distinct states sharing a binary code (Unique State Coding)."""
    return [(c.state_a, c.state_b) for c in code_conflicts(sg)]


@dataclass(frozen=True)
class SemimodularityViolation:
    """One witness of a semi-modularity failure.

    ``t1`` (non-input) was enabled at ``state`` together with ``t2``,
    but either firing ``t2`` disabled ``t1`` (``kind='disabled'``) or
    the two interleavings do not close a diamond
    (``kind='no-diamond'``).
    """

    state: StateId
    t1: Transition
    t2: Transition
    kind: str


def semimodularity_violations(sg: StateGraph) -> list[SemimodularityViolation]:
    """Check Definition 2 (semi-modularity with input choices).

    For every reachable state ``s``, every enabled *non-input*
    transition ``t1`` and every other enabled transition ``t2``:
    after firing ``t2``, ``t1`` must still be enabled and
    ``s -t1 t2-> s'`` and ``s -t2 t1-> s'`` must meet at the same
    state.  Input transitions may disable each other (input choice).

    A graph with a code space first tests in code space that no
    violation exists (:meth:`~repro.sg.codespace.CodeSpace.semimodular`);
    the listing below runs only where one does.  It runs on the dense
    view: excitation is a per-state mask and the successor of ``s`` by
    signal ``a`` is ``nxt[s * n + a]``.
    """
    cs = code_space(sg)
    if cs is not None and cs.semimodular(sg.non_inputs):
        return []
    view = sg.dense()
    n = view.num_signals
    nxt = view.nxt
    excited = {1: view.up, -1: view.down}
    non_inputs = sum(1 << a for a in sg.non_inputs)
    out: list[SemimodularityViolation] = []
    for s, arcs in enumerate(view.succ):
        if len(arcs) < 2 or not (view.up[s] | view.down[s]) & non_inputs:
            continue
        for a, da, s1 in arcs:
            if not non_inputs >> a & 1:
                continue
            still = excited[da]
            for b, db, s2 in arcs:
                if b == a:
                    continue
                if not still[s2] >> a & 1:
                    kind = "disabled"
                elif excited[db][s1] >> b & 1 and nxt[s1 * n + b] == nxt[s2 * n + a]:
                    continue
                else:
                    kind = "no-diamond"
                out.append(
                    SemimodularityViolation(
                        view.label(s), Transition(a, da), Transition(b, db), kind
                    )
                )
    return out


def is_semimodular_with_input_choices(sg: StateGraph) -> bool:
    """True when the SG is semi-modular with input choices (Definition 2)."""
    return not semimodularity_violations(sg)


def preconditions_hold(sg: StateGraph) -> bool:
    """True when Theorem 2's preconditions hold: no consistency
    witness, no CSC conflict and no semi-modularity violation.

    These are the checks the preflight rules (SG001, SG002, SG004)
    wrap, so a graph passes here exactly when
    :func:`~repro.analysis.engine.run_preflight` finds nothing.  A pass
    is memoized on ``sg`` as ``preflight_ok``; a graph that fails, or
    whose check raises, returns False and leaves the refusal to the
    rule engine, which renders it and memoizes the failing verdict.
    """
    memo = sg.analysis()
    if memo.preflight_ok is not None:
        return memo.preflight_ok
    try:
        ok = not (
            consistency_witnesses(sg)
            or any(c.csc for c in code_conflicts(sg))
            or semimodularity_violations(sg)
        )
    except Exception:
        return False
    if ok:
        memo.preflight_ok = True
    return ok


@dataclass
class SGValidationReport:
    """Aggregate of all pre-synthesis checks for one SG."""

    consistency: list[str]
    csc: list[tuple[StateId, StateId]]
    semimodularity: list[SemimodularityViolation]

    @property
    def ok(self) -> bool:
        return not (self.consistency or self.csc or self.semimodularity)

    def summary(self) -> str:
        if self.ok:
            return "SG valid: consistent, CSC, semi-modular with input choices"
        parts = []
        if self.consistency:
            parts.append(f"{len(self.consistency)} consistency violations")
        if self.csc:
            parts.append(f"{len(self.csc)} CSC conflicts")
        if self.semimodularity:
            parts.append(f"{len(self.semimodularity)} semi-modularity violations")
        return "SG invalid: " + ", ".join(parts)


def validate_for_synthesis(sg: StateGraph) -> SGValidationReport:
    """Run every check Theorem 2 requires before synthesis.

    Backed by the static-analysis rule engine: the pre-flight rules
    (``SG001`` consistency, ``SG002`` CSC, ``SG004`` semi-modularity)
    run over the graph and this report is rebuilt from their
    diagnostics, so there is exactly one validation path whether a
    caller goes through ``repro lint``, the synthesizer, or this
    legacy aggregate.  (Imported lazily: the analysis package imports
    this module for its check primitives.)
    """
    from ..analysis.engine import run_preflight

    result = run_preflight(sg)
    consistency: list[str] = []
    csc: list[tuple[StateId, StateId]] = []
    semimodularity: list[SemimodularityViolation] = []
    for d in result.diagnostics:
        if d.rule_id == "SG001":
            consistency.append(str(d.data["witness_message"]))
        elif d.rule_id == "SG002":
            pair = d.data["pair"]
            assert isinstance(pair, tuple)
            csc.append((pair[0], pair[1]))
        elif d.rule_id == "SG004":
            violation = d.data["violation"]
            assert isinstance(violation, SemimodularityViolation)
            semimodularity.append(violation)
    return SGValidationReport(
        consistency=consistency,
        csc=csc,
        semimodularity=semimodularity,
    )
