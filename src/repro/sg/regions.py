"""Excitation, quiescent and trigger regions — Definitions 5–7.

These region objects are the bridge between the SG specification and
the set/reset SOP logic of the N-SHOT architecture:

* the union of up-excitation regions of ``a`` is the ON-set of the set
  function (Section IV-A step 2),
* the union of up-quiescent regions is its don't-care set (step 3),
* trigger regions (Definition 7) are the bottom strongly-connected
  components of an excitation region under the sub-relation that
  excludes the region's own signal transitions; Theorem 1 requires a
  single cube of the SOP to cover each of them.

:func:`signal_regions` is the one place these are computed for a
graph: it memoizes each signal's :class:`SignalRegions` on the
:class:`~repro.sg.graph.StateGraph`, and synthesis, lint, the certifier
and the baselines all read that memo.  Properties 1 (output trapping)
and 2 (trigger-region reachability) get explicit checkers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import get_metrics, trace_span
from .graph import StateGraph, StateId, Transition

__all__ = [
    "Region",
    "SignalRegions",
    "excitation_regions",
    "quiescent_region_of",
    "signal_regions",
    "trigger_regions",
    "check_output_trapping",
    "trigger_region_reachable_from_all",
    "is_single_traversal",
]


@dataclass(frozen=True)
class Region:
    """A connected set of states associated with one signal transition.

    ``kind`` is ``"ER"`` or ``"QR"``; ``direction`` is ``+1`` for a
    region of a rising transition (``ER(+a)`` / ``QR(+a)``) and ``-1``
    for a falling one.  For an ER the signal's value inside is
    ``0`` if rising; for a QR it is the post-transition value
    (``1`` if rising).
    """

    signal: int
    direction: int
    kind: str
    states: frozenset[StateId]

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: StateId) -> bool:
        return state in self.states

    @property
    def rising(self) -> bool:
        return self.direction == 1

    def label(self, sg: StateGraph) -> str:
        sign = "+" if self.rising else "-"
        return f"{self.kind}({sign}{sg.signals[self.signal]})"


def _weakly_connected_components(
    sg: StateGraph, members: set[StateId]
) -> list[set[StateId]]:
    """Weakly connected components of the subgraph induced by ``members``."""
    adj: dict[StateId, set[StateId]] = {s: set() for s in members}
    for s in members:
        for _, d in sg.successors(s):
            if d in members:
                adj[s].add(d)
                adj[d].add(s)
        for p, _ in sg.predecessors(s):
            if p in members:
                adj[s].add(p)
                adj[p].add(s)
    comps: list[set[StateId]] = []
    seen: set[StateId] = set()
    for s in members:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def excitation_regions(sg: StateGraph, signal: int) -> list[Region]:
    """All excitation regions of a signal (Definition 5).

    Maximal weakly-connected sets of states in which the signal has the
    same value and is excited.  Rising regions (value 0, ``+a``
    enabled) and falling regions are computed separately.
    """
    regions: list[Region] = []
    for direction in (1, -1):
        value = 0 if direction == 1 else 1
        members = {
            s
            for s in sg.states()
            if sg.value(s, signal) == value
            and any(t.signal == signal and t.direction == direction for t in sg.enabled(s))
        }
        for comp in _weakly_connected_components(sg, members):
            regions.append(Region(signal, direction, "ER", frozenset(comp)))
    return regions


def quiescent_region_of(sg: StateGraph, er: Region) -> Region:
    """The quiescent region following an excitation region (Definition 6).

    States reached by firing the region's transition from its ER, plus
    everything reachable from them while the signal stays stable at the
    post-transition value.  May be empty when the signal is immediately
    re-excited.
    """
    signal = er.signal
    t = Transition(signal, er.direction)
    post_value = 1 if er.rising else 0
    seeds = []
    for s in er.states:
        d = sg.succ(s, t)
        if d is not None:
            seeds.append(d)

    def quiescent(s: StateId) -> bool:
        return sg.value(s, signal) == post_value and not sg.is_excited(s, signal)

    members: set[StateId] = set()
    stack = [s for s in seeds if quiescent(s)]
    members.update(stack)
    while stack:
        s = stack.pop()
        for _, d in sg.successors(s):
            if d not in members and quiescent(d):
                members.add(d)
                stack.append(d)
    return Region(signal, er.direction, "QR", frozenset(members))


def trigger_regions(sg: StateGraph, er: Region) -> list[Region]:
    """Trigger regions of an excitation region (Definition 7).

    Minimal connected sets of states of the ER that, once entered, can
    only be left by firing the region's own transition.  These are the
    bottom strongly-connected components of the ER's subgraph under
    arcs labelled by *other* signals' transitions.
    """
    signal = er.signal
    states = er.states
    # successor relation inside the ER, excluding the region's own firing
    succ: dict[StateId, list[StateId]] = {}
    for s in states:
        succ[s] = [
            d for t, d in sg.successors(s) if t.signal != signal and d in states
        ]

    # Tarjan SCC (iterative)
    index: dict[StateId, int] = {}
    low: dict[StateId, int] = {}
    on_stack: set[StateId] = set()
    stack: list[StateId] = []
    sccs: list[set[StateId]] = []
    counter = [0]

    for root in states:
        if root in index:
            continue
        work: list[tuple[StateId, int]] = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = succ[node]
            while pi < len(children):
                child = children[pi]
                pi += 1
                if child not in index:
                    work[-1] = (node, pi)
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if recurse:
                continue
            work[-1] = (node, pi)
            if pi >= len(children):
                if low[node] == index[node]:
                    comp: set[StateId] = set()
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        comp.add(x)
                        if x == node:
                            break
                    sccs.append(comp)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

    # bottom SCCs: no edge to a state outside the SCC
    out: list[Region] = []
    for comp in sccs:
        if all(d in comp for s in comp for d in succ[s]):
            out.append(Region(signal, er.direction, "ER", frozenset(comp)))
    return out


def check_output_trapping(sg: StateGraph, er: Region) -> list[tuple[StateId, StateId]]:
    """Violations of Property 1 for one ER (empty list when trapped).

    Returns (state, escaped-to) pairs where a transition of another
    signal leaves the excitation region.  Semi-modular SGs with input
    choices never have any.
    """
    bad = []
    for s in er.states:
        for t, d in sg.successors(s):
            if t.signal != er.signal and d not in er.states:
                bad.append((s, d))
    return bad


def trigger_region_reachable_from_all(sg: StateGraph, er: Region) -> bool:
    """Property 2: from every ER state some trigger region is reachable."""
    trs = trigger_regions(sg, er)
    tr_states = set().union(*(t.states for t in trs)) if trs else set()
    if not tr_states:
        return False
    # reverse reachability inside the ER via non-signal arcs
    reach = set(tr_states)
    changed = True
    while changed:
        changed = False
        for s in er.states:
            if s in reach:
                continue
            for t, d in sg.successors(s):
                if t.signal != er.signal and d in reach:
                    reach.add(s)
                    changed = True
                    break
    return er.states <= reach


@dataclass
class SignalRegions:
    """The region analysis of one non-input signal: ER→QR pairs and the
    trigger regions of every ER, computed once per state graph."""

    signal: int
    excitation: list[Region] = field(default_factory=list)
    quiescent: list[Region] = field(default_factory=list)  # parallel to excitation
    triggers: list[list[Region]] = field(default_factory=list)  # parallel to excitation

    @property
    def up_excitation(self) -> list[Region]:
        return [r for r in self.excitation if r.rising]

    @property
    def down_excitation(self) -> list[Region]:
        return [r for r in self.excitation if not r.rising]

    @property
    def single_traversal(self) -> bool:
        """Definition 9 for this signal: every trigger region is one state."""
        return all(len(tr) == 1 for trs in self.triggers for tr in trs)

    def quiescent_after(self, er: Region) -> Region:
        return self.quiescent[self.excitation.index(er)]

    def union_states(self, kind: str, direction: int) -> set[StateId]:
        """Union of all region states of one kind and direction."""
        regions = self.excitation if kind == "ER" else self.quiescent
        out: set[StateId] = set()
        for r in regions:
            if r.direction == direction:
                out |= r.states
        return out


def signal_regions(sg: StateGraph, signal: int) -> SignalRegions:
    """The region analysis of a non-input signal, memoized on ``sg``.

    Computed on first request and shared by every later consumer until
    the graph is mutated (see :class:`~repro.sg.graph.StateGraph`).
    """
    if sg._regions is None:
        sg._regions = {}
    sr = sg._regions.get(signal)
    if sr is not None:
        return sr
    with trace_span("regions", signal=sg.signals[signal]) as sp:
        sr = SignalRegions(signal)
        for er in excitation_regions(sg, signal):
            sr.excitation.append(er)
            sr.quiescent.append(quiescent_region_of(sg, er))
            sr.triggers.append(trigger_regions(sg, er))
        sp.set(excitation=len(sr.excitation))
    get_metrics().counter("regions.computed").add(len(sr.excitation))
    sg._regions[signal] = sr
    return sr


def is_single_traversal(sg: StateGraph) -> bool:
    """Definition 9: every trigger region of every non-input is a singleton."""
    return all(signal_regions(sg, a).single_traversal for a in sg.non_inputs)
