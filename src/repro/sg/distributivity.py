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
from typing import Iterator

from .graph import StateGraph, StateId

__all__ = [
    "DetonantState",
    "detonant_states",
    "is_distributive_for",
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


def _detonant(sg: StateGraph, signal: int) -> Iterator[tuple[int, int, int]]:
    """Detonant states w.r.t. ``signal`` as ``(w, u, v)`` dense state
    numbers, in state order and, per state, in arc order."""
    view = sg.dense()
    bit = 1 << signal
    hot = [(up | down) & bit for up, down in zip(view.up, view.down)]
    for w, arcs in enumerate(view.succ):
        if hot[w]:
            continue  # a must be stable in w
        excited = [d for _a, _d, d in arcs if hot[d]]
        # all pairs of distinct successors in which `signal` is excited
        for i in range(len(excited)):
            for j in range(i + 1, len(excited)):
                yield w, excited[i], excited[j]


def detonant_states(sg: StateGraph, signal: int) -> list[DetonantState]:
    """All detonant states w.r.t. one non-input signal (Definition 3)."""
    ids = sg.dense().ids
    return [
        DetonantState(ids[w], signal, ids[u], ids[v])
        for w, u, v in _detonant(sg, signal)
    ]


def is_distributive_for(sg: StateGraph, signal: int) -> bool:
    """Distributivity w.r.t. one non-input signal (Definition 4)."""
    return next(_detonant(sg, signal), None) is None


def non_distributive_signals(sg: StateGraph) -> list[int]:
    """Non-input signals with at least one detonant state."""
    return [a for a in sg.non_inputs if not is_distributive_for(sg, a)]


def is_distributive(sg: StateGraph) -> bool:
    """True when the SG is distributive w.r.t. every non-input signal."""
    return not non_distributive_signals(sg)
