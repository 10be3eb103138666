"""Detonant states and distributivity — Definitions 3–4 of the paper.

A state ``w`` is *detonant* with respect to a non-input signal ``a``
when ``a`` is stable in ``w`` but excited in two distinct direct
successors of ``w``: the excitation of ``a`` is then caused by an OR of
two concurrent causes (OR-causality).  A semi-modular SG with input
choices is *distributive* w.r.t. ``a`` iff it has no detonant state
w.r.t. ``a``.

Distributivity is the dividing line in the paper's experimental
section: the SIS/Lavagno and SYN/Beerel baselines handle only
distributive specifications, whereas the N-SHOT architecture also
covers the non-distributive industrial designs of Table 2's second
half.

The walk reads the graph's dense view: states in insertion order and
the up/down excited-signal masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import StateGraph, StateId

__all__ = [
    "DetonantState",
    "detonant_states",
    "is_distributive",
    "non_distributive_signals",
]


@dataclass(frozen=True)
class DetonantState:
    """A witness of non-distributivity.

    ``state`` is detonant w.r.t. non-input ``signal``: the signal is
    stable there but excited in both successor states ``u`` and ``v``.
    """

    state: StateId
    signal: int
    u: StateId
    v: StateId


def detonant_states(sg: StateGraph, signal: int) -> list[DetonantState]:
    """All detonant states w.r.t. one non-input signal (Definition 3):
    in state order and, per state, by pairs of successors in arc order."""
    view = sg.dense()
    label, bit = view.label, 1 << signal
    hot = [(up | down) & bit for up, down in zip(view.up, view.down)]
    out = []
    for w, arcs in enumerate(view.succ):
        if hot[w]:
            continue  # the signal must be stable in w
        excited = [d for _a, _d, d in arcs if hot[d]]
        out += (
            DetonantState(label(w), signal, label(u), label(v))
            for i, u in enumerate(excited)
            for v in excited[i + 1 :]
        )
    return out


def non_distributive_signals(sg: StateGraph) -> list[int]:
    """Non-input signals with at least one detonant state, memoized on
    ``sg``.  One walk serves every signal: per state, the signals excited
    in two of its successors, less those excited in the state."""
    memo = sg.analysis()
    if memo.non_distributive is None:
        view = sg.dense()
        hot = [up | down for up, down in zip(view.up, view.down)]
        detonant = 0
        for w, arcs in enumerate(view.succ):
            once = twice = 0
            for _a, _d, d in arcs:
                twice |= once & hot[d]
                once |= hot[d]
            detonant |= twice & ~hot[w]
        memo.non_distributive = tuple(a for a in sg.non_inputs if detonant >> a & 1)
    return list(memo.non_distributive)


def is_distributive(sg: StateGraph) -> bool:
    """True when the SG is distributive w.r.t. every non-input signal."""
    return not non_distributive_signals(sg)
