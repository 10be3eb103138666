"""Structural and behavioural STG checks.

Pre-synthesis sanity the SIS-era tools performed on specifications
before attempting logic derivation:

* :func:`is_live` — every transition can always fire again (the
  elaborated SG is one strongly connected component and every
  transition labels some arc); dead or dying specifications make the
  cyclic region structure of Section IV meaningless;
* :func:`is_safe` — token flow never double-marks a place (checked
  during elaboration; this wrapper reports instead of raising);
* :func:`free_choice_conflicts` — places feeding several transitions
  must be *free choice* (the transitions share all their input
  places) and, per the paper's input-choice restriction, only input
  transitions may be in conflict;
* :func:`classify` — one structured report for an STG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sg.graph import StateGraph
from .petrinet import Stg, StgTransition
from .reachability import ElaborationError, elaborate

__all__ = ["StgReport", "is_live", "is_safe", "free_choice_conflicts", "classify"]


def _strongly_connected(sg: StateGraph) -> bool:
    states = list(sg.states())
    if not states:
        return False
    # forward reachability
    fwd = sg.reachable()
    if len(fwd) != len(states):
        return False
    # backward reachability from the initial state
    preds: dict = {s: [p for p, _ in sg.predecessors(s)] for s in states}
    seen = {sg.initial}
    stack = [sg.initial]
    while stack:
        s = stack.pop()
        for p in preds[s]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return len(seen) == len(states)


def is_live(stg: Stg) -> bool:
    """Every transition stays fireable forever (cyclic behaviour).

    Checked on the elaborated SG: it must be one strongly connected
    component and every net transition must label at least one arc.
    """
    sg = elaborate(stg)
    if not _strongly_connected(sg):
        return False
    fired: set[tuple[str, int]] = set()
    for s in sg.states():
        for t, _ in sg.successors(s):
            fired.add((sg.signals[t.signal], t.direction))
    for t in stg.transitions:
        if (t.signal, t.direction) not in fired:
            return False
    return True


def is_safe(stg: Stg) -> bool:
    """1-safety of the net under token flow from the initial marking."""
    try:
        elaborate(stg)
        return True
    except ElaborationError:
        return False
    except Exception:
        return False


def free_choice_conflicts(stg: Stg) -> list[str]:
    """Violations of the free-choice / input-choice discipline.

    Returns human-readable problems: conflict places whose competing
    transitions have differing presets (not free choice), or conflicts
    involving non-input transitions (the SG would not be semi-modular
    with *input* choices).
    """
    problems: list[str] = []
    for place in stg.places():
        consumers: list[StgTransition] = sorted(stg.place_post[place], key=str)
        if len(consumers) <= 1:
            continue
        presets = [frozenset(map(str, stg.pre[t])) for t in consumers]
        if len(set(presets)) != 1:
            problems.append(
                f"place {place!r}: conflict between {', '.join(map(str, consumers))} "
                "is not free choice (differing presets)"
            )
        non_inputs = [t for t in consumers if not stg.is_input(t.signal)]
        if non_inputs:
            problems.append(
                f"place {place!r}: non-input transition(s) "
                f"{', '.join(map(str, non_inputs))} in conflict — the SG "
                "cannot be semi-modular with input choices"
            )
    return problems


@dataclass
class StgReport:
    """Aggregate pre-synthesis report for an STG."""

    safe: bool
    live: bool
    choice_problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.safe and self.live and not self.choice_problems

    def summary(self) -> str:
        if self.ok:
            return "STG well-formed: safe, live, free input choices only"
        bits = []
        if not self.safe:
            bits.append("unsafe/inconsistent token flow")
        if not self.live:
            bits.append("not live")
        bits.extend(self.choice_problems)
        return "STG problems: " + "; ".join(bits)


def classify(stg: Stg) -> StgReport:
    """Run all structural checks on one STG."""
    safe = is_safe(stg)
    live = is_live(stg) if safe else False
    return StgReport(
        safe=safe,
        live=live,
        choice_problems=free_choice_conflicts(stg),
    )
