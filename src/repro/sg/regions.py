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

Every walk runs on the graph's storage
(:class:`~repro.sg.graph.DenseGraph`, see :meth:`StateGraph.dense`):
states are the integers ``0..N-1``.  A :class:`Region` holds its state
set as external ids and keeps the bitset over those integers for the
storage that built it; read against any other (another graph, or the
same graph rebuilt with a different numbering) the bitset is
recomputed from the ids.  Regions are listed in order of their lowest
state number, so the order does not depend on the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..obs import get_metrics, trace_span
from .graph import DenseGraph, StateGraph, StateId

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
    (``1`` if rising).  ``states`` holds the external state ids;
    :meth:`bits` gives the same set over a graph's state numbers.
    """

    signal: int
    direction: int
    kind: str
    states: frozenset[StateId]

    #: ``(view, bitset)`` of the last :meth:`bits` call; never pickled
    _bits_in = None

    def bits(self, view: DenseGraph) -> int:
        """The states as a bitset over ``view``'s state numbers (bit
        ``i`` = state ``i``).

        Kept for the graph storage it was last computed on (still
        valid as that graph grows: its mutators only append, so state
        numbers never change) and recomputed from :attr:`states` for
        any other, so a region read against another graph, or against
        a graph rebuilt with a different numbering, still names the
        right states.
        """
        cached = self._bits_in
        if cached is None or cached[0] is not view:
            cached = (view, view.bitset_of(self.states))
            object.__setattr__(self, "_bits_in", cached)
        return cached[1]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_bits_in", None)
        return state

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


def _region(
    view: DenseGraph, signal: int, direction: int, kind: str, members: Iterable[int]
) -> Region:
    bits = view.bitset(members)
    region = Region(signal, direction, kind, view.states_of(bits))
    object.__setattr__(region, "_bits_in", (view, bits))
    return region


def excitation_regions(sg: StateGraph, signal: int) -> list[Region]:
    """All excitation regions of a signal (Definition 5).

    Maximal weakly-connected sets of states in which the signal has the
    same value and is excited.  Rising regions (value 0, ``+a``
    enabled) come first, then falling ones; each group is ordered by
    its lowest state number.
    """
    view = sg.dense()
    bit = 1 << signal
    codes, succ, pred = view.codes, view.succ, view.pred
    regions: list[Region] = []
    for direction, excited in ((1, view.up), (-1, view.down)):
        value = 0 if direction == 1 else bit
        # 1 = member not yet placed in a component, 2 = placed
        mark = bytearray(len(view))
        members = [
            s for s, m in enumerate(excited) if m & bit and codes[s] & bit == value
        ]
        for s in members:
            mark[s] = 1
        for s in members:
            if mark[s] == 2:
                continue
            mark[s] = 2
            comp, stack = [s], [s]
            while stack:
                x = stack.pop()
                for _a, _d, y in succ[x]:
                    if mark[y] == 1:
                        mark[y] = 2
                        comp.append(y)
                        stack.append(y)
                for y in pred[x]:
                    if mark[y] == 1:
                        mark[y] = 2
                        comp.append(y)
                        stack.append(y)
            regions.append(_region(view, signal, direction, "ER", comp))
    return regions


def quiescent_region_of(sg: StateGraph, er: Region) -> Region:
    """The quiescent region following an excitation region (Definition 6).

    States reached by firing the region's transition from its ER, plus
    everything reachable from them while the signal stays stable at the
    post-transition value.  May be empty when the signal is immediately
    re-excited.
    """
    view = sg.dense()
    signal, direction = er.signal, er.direction
    bit = 1 << signal
    post = bit if direction == 1 else 0
    n = view.num_signals
    codes, up, down, succ = view.codes, view.up, view.down, view.succ
    excited = up if direction == 1 else down
    # ``seen`` marks every state whose quiescence was tested
    seen = bytearray(len(view))
    members: list[int] = []
    stack: list[int] = []
    for s in view.numbers(er.bits(view)):
        if excited[s] & bit:
            d = view.nxt[s * n + signal]
            if not seen[d]:
                seen[d] = 1
                if codes[d] & bit == post and not (up[d] | down[d]) & bit:
                    members.append(d)
                    stack.append(d)
    while stack:
        for _a, _d, d in succ[stack.pop()]:
            if not seen[d]:
                seen[d] = 1
                if codes[d] & bit == post and not (up[d] | down[d]) & bit:
                    members.append(d)
                    stack.append(d)
    return _region(view, signal, direction, "QR", members)


def trigger_regions(sg: StateGraph, er: Region) -> list[Region]:
    """Trigger regions of an excitation region (Definition 7).

    Minimal connected sets of states of the ER that, once entered, can
    only be left by firing the region's own transition.  These are the
    bottom strongly-connected components of the ER's subgraph under
    arcs labelled by *other* signals' transitions, ordered by their
    lowest state number.
    """
    view = sg.dense()
    signal = er.signal
    states = view.numbers(er.bits(view))
    succ = view.succ
    inside = bytearray(view.flags(er.bits(view)))

    # iterative Tarjan over the ER's arcs of other signals
    index = [-1] * len(view)
    low = [0] * len(view)
    on_stack = bytearray(len(view))
    stack: list[int] = []
    bottoms: list[list[int]] = []
    counter = 0
    for root in states:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            node, arcs = work[-1]
            for a, _d, child in arcs:
                if a == signal or not inside[child]:
                    continue
                if index[child] < 0:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = 1
                    work.append((child, iter(succ[child])))
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp: list[int] = []
                    while True:
                        x = stack.pop()
                        on_stack[x] = 0
                        comp.append(x)
                        if x == node:
                            break
                    # inside: 0 = outside the ER, 1 = member, 2 = in an
                    # earlier component, 3 = in this one.  It is bottom
                    # when no arc of another signal reaches an earlier one.
                    for x in comp:
                        inside[x] = 3
                    if all(
                        a == signal or inside[d] != 2
                        for x in comp
                        for a, _d, d in succ[x]
                    ):
                        bottoms.append(comp)
                    for x in comp:
                        inside[x] = 2
    bottoms.sort(key=min)
    return [_region(view, signal, er.direction, "ER", comp) for comp in bottoms]


def check_output_trapping(sg: StateGraph, er: Region) -> list[tuple[StateId, StateId]]:
    """Violations of Property 1 for one ER (empty list when trapped).

    Returns (state, escaped-to) pairs where a transition of another
    signal leaves the excitation region.  Semi-modular SGs with input
    choices never have any.
    """
    view = sg.dense()
    inside = view.flags(er.bits(view))
    return [
        (view.ids[s], view.ids[d])
        for s in view.numbers(er.bits(view))
        for a, _d, d in view.succ[s]
        if a != er.signal and not inside[d]
    ]


def trigger_region_reachable_from_all(sg: StateGraph, er: Region) -> bool:
    """Property 2: from every ER state some trigger region is reachable."""
    view = sg.dense()
    reach = 0
    for tr in trigger_regions(sg, er):
        reach |= tr.bits(view)
    if not reach:
        return False
    # reverse reachability inside the ER via non-signal arcs
    reached = bytearray(view.flags(reach))
    states = view.numbers(er.bits(view))
    changed = True
    while changed:
        changed = False
        for s in states:
            if not reached[s] and any(
                a != er.signal and reached[d] for a, _d, d in view.succ[s]
            ):
                reached[s] = 1
                changed = True
    return all(reached[s] for s in states)


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
    def single_traversal(self) -> bool:
        """Definition 9 for this signal: every trigger region is one state."""
        return all(len(tr) == 1 for trs in self.triggers for tr in trs)

    def quiescent_after(self, er: Region) -> Region:
        return self.quiescent[self.excitation.index(er)]

    def _select(self, kind: str, direction: int) -> list[Region]:
        regions = self.excitation if kind == "ER" else self.quiescent
        return [r for r in regions if r.direction == direction]

    def union_bits(self, view: DenseGraph, kind: str, direction: int) -> int:
        """Union of all regions of one kind and direction, as a bitset
        over ``view``'s state numbers."""
        out = 0
        for r in self._select(kind, direction):
            out |= r.bits(view)
        return out

    def union_states(self, kind: str, direction: int) -> set[StateId]:
        """Union of all region states of one kind and direction."""
        return set().union(*(r.states for r in self._select(kind, direction)))


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
