"""A deliberately naive reference for the paper's regions (Definitions 5-7, 9).

Written straight from the definitions as brute-force set comprehensions
over explicit state and arc lists, sharing no code with
:mod:`repro.sg.regions`, so the differential tests in
``test_sg_reference.py`` check the real analysis against an independent
reading of the paper rather than against itself.

Every function takes an :class:`Explicit` snapshot of a state graph:
its state list, its codes and, per state, its outgoing arcs
``(signal, direction, dst)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Explicit:
    """A state graph flattened to explicit lists."""

    states: tuple
    code: dict
    succ: dict  # state -> tuple of (signal, direction, dst)
    non_inputs: tuple

    @classmethod
    def of(cls, sg) -> "Explicit":
        states = tuple(sg.states())
        return cls(
            states=states,
            code={s: sg.code(s) for s in states},
            succ={
                s: tuple((t.signal, t.direction, d) for t, d in sg.successors(s))
                for s in states
            },
            non_inputs=tuple(sg.non_inputs),
        )

    def value(self, s, a: int) -> int:
        return (self.code[s] >> a) & 1

    def excited(self, s, a: int, direction: int | None = None) -> bool:
        return any(sig == a and direction in (None, d) for sig, d, _ in self.succ[s])


def _closure(seeds: set, step) -> frozenset:
    """Least fixpoint of ``seeds ∪ step(x)``."""
    out, frontier = set(seeds), set(seeds)
    while frontier:
        frontier = {y for x in frontier for y in step(x)} - out
        out |= frontier
    return frozenset(out)


def excitation_regions(g: Explicit, a: int) -> set[tuple[int, frozenset]]:
    """Definition 5: ``(direction, states)`` of every ER of ``a`` — the
    weakly connected components of the states where ``a`` has one value
    and is excited in the matching direction."""
    out = set()
    for direction, value in ((1, 0), (-1, 1)):
        members = {
            s for s in g.states if g.value(s, a) == value and g.excited(s, a, direction)
        }
        edges = {(s, d) for s in members for _, _, d in g.succ[s] if d in members}
        linked = {s: set() for s in members}
        for s, d in edges:
            linked[s].add(d)
            linked[d].add(s)
        comps: set[frozenset] = set()
        for s in members:
            if not any(s in c for c in comps):
                comps.add(_closure({s}, linked.__getitem__))
        out |= {(direction, c) for c in comps}
    return out


def quiescent_region(g: Explicit, a: int, direction: int, er: frozenset) -> frozenset:
    """Definition 6: the states entered by firing the ER's transition,
    closed forward while ``a`` stays stable at its new value."""
    post = 1 if direction == 1 else 0

    def quiet(s) -> bool:
        return g.value(s, a) == post and not g.excited(s, a)

    seeds = {d for s in er for sig, dr, d in g.succ[s] if sig == a and dr == direction}
    return _closure(
        {s for s in seeds if quiet(s)},
        lambda x: {d for _, _, d in g.succ[x] if quiet(d)},
    )


def trigger_regions(g: Explicit, a: int, er: frozenset) -> set[frozenset]:
    """Definition 7: a state is in a trigger region when it is mutually
    reachable with every state it reaches inside the ER over arcs of
    other signals; the region is that reachable set."""
    reach = {
        s: _closure(
            {s}, lambda x: {d for sig, _, d in g.succ[x] if sig != a and d in er}
        )
        for s in er
    }
    return {reach[s] for s in er if all(s in reach[t] for t in reach[s])}


def single_traversal(trigger_regions) -> bool:
    """Definition 9: every trigger region (of every non-input) is one state."""
    return all(len(tr) == 1 for tr in trigger_regions)
