"""CSC diagnostics and a simple state-signal insertion transformer.

The paper *requires* CSC (Definition 1) and assumes the benchmarks
already satisfy it; reference [6] (Lin/Ykman-Couvreur/Vanbekbergen,
EuroDAC-94) is cited for transformations that establish it.  This
module provides:

* :func:`csc_report` — structured diagnostics of conflicting state
  pairs (which signals would disambiguate them);
* :func:`insert_state_signal` — a simple, correct (not optimal)
  transformer that appends one internal signal toggling between two
  state sets, the classic way to separate CSC-conflicting regions.

The transformer covers the situations Table 2 marks as "(2) must add
state signals" for the SYN baseline, and lets the library demonstrate
the full pipeline on specifications that start without CSC.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import SGError, StateGraph, StateId, Transition, render_state
from .properties import code_conflicts

__all__ = ["CscConflict", "csc_report", "insert_state_signal"]


@dataclass(frozen=True)
class CscConflict:
    """One CSC conflict: equal codes, different non-input excitation."""

    state_a: StateId
    state_b: StateId
    code: int
    excited_a: frozenset[int]
    excited_b: frozenset[int]

    def describe(self, sg: StateGraph) -> str:
        names_a = ", ".join(sg.signals[i] for i in sorted(self.excited_a)) or "∅"
        names_b = ", ".join(sg.signals[i] for i in sorted(self.excited_b)) or "∅"
        return (
            f"states {render_state(self.state_a)} and {render_state(self.state_b)} share code "
            f"{self.code:0{sg.num_signals}b} but excite {{{names_a}}} vs {{{names_b}}}"
        )


def csc_report(sg: StateGraph) -> list[CscConflict]:
    """Structured CSC conflict report (empty when CSC holds).

    Shares one code-grouping traversal with
    :func:`repro.sg.properties.csc_violations` (via
    :func:`~repro.sg.properties.code_conflicts`): the conflict pairs,
    their codes, and both excitation sets all come from that single
    scan instead of being recomputed here.
    """
    return [
        CscConflict(c.state_a, c.state_b, c.code, c.excited_a, c.excited_b)
        for c in code_conflicts(sg)
        if c.csc
    ]


def insert_state_signal(
    sg: StateGraph,
    high_states: set[StateId],
    name: str | None = None,
) -> StateGraph:
    """Append one internal signal that is 1 exactly on ``high_states``.

    The new signal's transitions are inserted on every arc crossing the
    boundary of ``high_states``: an arc entering the set is split
    through an intermediate state where ``+z`` fires first; an arc
    leaving it is split so ``-z`` fires first.  The construction keeps
    the coding consistent and deterministic; it changes the concurrency
    (the new transitions are serialized on the crossing arcs), which is
    the standard simple insertion.

    Parameters
    ----------
    sg:
        The original state graph.
    high_states:
        States in which the new signal must read 1.  Must be closed in
        the sense that the initial state's membership defines the
        signal's initial value.
    name:
        Signal name; defaults to ``csc0``, ``csc1``, … as available.

    Returns
    -------
    StateGraph
        A new SG over ``signals + [name]`` whose projection onto the
        old signals is the original behaviour.
    """
    if name is None:
        k = 0
        while f"csc{k}" in sg.signals:
            k += 1
        name = f"csc{k}"
    if name in sg.signals:
        raise SGError(f"signal {name!r} already exists")
    new_idx = sg.num_signals
    out = StateGraph(list(sg.signals) + [name], sg.input_names)

    def new_code(s: StateId) -> int:
        z = 1 if s in high_states else 0
        return sg.code(s) | (z << new_idx)

    for s in sg.states():
        out.add_state(("s", s), new_code(s))
    for s in sg.states():
        s_in = s in high_states
        for t, d in sg.successors(s):
            d_in = d in high_states
            if s_in == d_in:
                out.add_arc(("s", s), t, ("s", d))
            elif not s_in and d_in:
                # boundary crossed upward: the crossing transition lands
                # in a mid state (z still 0) from which +z completes the
                # crossing.  The mid state is *shared per destination* so
                # concurrent crossing paths still close their diamonds.
                mid = ("mid", d)
                out.add_state(mid, sg.code(d))  # z = 0 in mid
                out.add_arc(("s", s), t, mid)
                out.add_arc(mid, Transition(new_idx, 1), ("s", d))
            else:
                mid = ("mid", d)
                out.add_state(mid, sg.code(d) | (1 << new_idx))  # z = 1 in mid
                out.add_arc(("s", s), t, mid)
                out.add_arc(mid, Transition(new_idx, -1), ("s", d))
    if sg.initial is not None:
        out.set_initial(("s", sg.initial))
    return out.restrict_to_reachable()
