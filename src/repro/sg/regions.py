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
graph: on first request it analyses every non-input signal at once and
memoizes each signal's :class:`SignalRegions` on the
:class:`~repro.sg.graph.StateGraph`; synthesis, lint, the certifier and
the baselines all read that memo.  Properties 1 (output trapping) and
2 (trigger-region reachability) get explicit checkers here.

The analysis computes five bitsets per signal (its ones, ER
membership, sinks, the backward sweep and the QR union, each over the
state numbers ``0..N-1`` of the graph's
:class:`~repro.sg.graph.DenseGraph`) by one of two engines:

* on a graph with a code space (one state per code, at most
  :data:`~repro.sg.codespace.MAX_CODE_SIGNALS` signals and codes that
  agree with the arcs, see :mod:`repro.sg.codespace`), as code bitmaps:
  the sinks of ``a`` are ``E_a & ~∪_{b≠a} pre_b(E_a)``, and the
  backward sweep and the QR union are bitmap floods; the results are
  renumbered to states once
  (:meth:`~repro.sg.codespace.CodeSpace.region_columns`);
* on any other graph (shared codes, more signals, or codes edited after
  construction), by per-state passes that keep one mask of signals per
  state, for all signals together (:func:`_mask_passes`).

Both read the definitions the same way:

* **ER membership** (Definition 5): ``a`` is rising-excited at value 0
  (``up`` and not ``codes``) or falling-excited at value 1.
* **Sinks** (Definition 7, one-state case): an ER state of ``a`` with
  no arc of another signal to a state where ``a`` is still excited at
  the same value.  Such a state is a bottom SCC of its ER on its own, a
  one-state trigger region, whether or not the ER is output-trapped
  (Property 1).
* **Backward sweep**: a fixed point over the predecessors marks the ER
  states that reach a sink of their signal inside the ER.  In an ER
  the sweep covers, every bottom SCC holds a sink, so the trigger
  regions are exactly its sinks (Property 2 holds there too).
* **QR union** (Definition 6): a forward fixed point from the ER exits
  over the states where the signal is stable at its new value.

The mask passes read each signal's bitsets off their masks a byte
column at a time.  The per-region walks remain only where the bitsets
cannot decide:

* the ER component walk (:func:`excitation_regions`), for a direction
  with more than one sink or with states the sweep does not cover, as
  one sink in a covered direction makes the direction one ER;
* the per-ER QR walk (:func:`quiescent_region_of`), for a direction
  with more than one ER, whose QRs the union cannot tell apart;
* Tarjan (:func:`trigger_regions`), for an ER the sweep leaves
  uncovered: there some bottom SCC has more than one state.

A graph whose codes disagree with its arcs (possible only by editing
codes after :class:`~repro.sg.graph.StateGraph` checked the arcs) has
no code space and gets no sinks from the mask passes, so all of its
ERs take the walks.

A :class:`Region` holds its states as a bitset over the numbers of the
storage that built it, and builds the external ids only when they are
read (:attr:`Region.states`) or pickled; read against any other
storage (another graph, or the same graph rebuilt with a different
numbering) the bitset is recomputed from the ids.  Regions are listed
in order of their lowest state number, so the order does not depend on
the hash seed.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress

from ..obs import get_metrics, trace_span
from .graph import DenseGraph, StateGraph, StateId, bit_flags

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


class Region:
    """A connected set of states associated with one signal transition.

    ``kind`` is ``"ER"`` or ``"QR"``; ``direction`` is ``+1`` for a
    region of a rising transition (``ER(+a)`` / ``QR(+a)``) and ``-1``
    for a falling one.  For an ER the signal's value inside is
    ``0`` if rising; for a QR it is the post-transition value
    (``1`` if rising).  :meth:`bits` gives the states as a bitset over
    a graph's state numbers; :attr:`ids` and :attr:`states` give their
    external ids, built on first read.  A pickle carries the ids in
    state-number order, so it does not depend on the hash seed.
    """

    def __init__(self, signal: int, direction: int, kind: str, view: DenseGraph, bits: int):
        self.signal = signal
        self.direction = direction
        self.kind = kind
        #: ``(view, bitset)`` of the storage last read; never pickled
        self._bits_in = (view, bits)

    @property
    def ids(self) -> tuple[StateId, ...]:
        """The external state ids, in state-number order."""
        ids = self.__dict__.get("_ids")
        if ids is None:
            ids = self._ids = self._bits_in[0].labels(self._bits_in[1])
        return ids

    @property
    def states(self) -> frozenset[StateId]:
        """The external state ids, as a set."""
        states = self.__dict__.get("_states")
        if states is None:
            states = self._states = frozenset(self.ids)
        return states

    def bits(self, view: DenseGraph) -> int:
        """The states as a bitset over ``view``'s state numbers (bit
        ``i`` = state ``i``).

        Kept for the graph storage it was last computed on (still
        valid as that graph grows: its mutators only append, so state
        numbers never change) and recomputed from :attr:`ids` for any
        other, so a region read against another graph, or against a
        graph rebuilt with a different numbering, still names the
        right states.
        """
        cached = self.__dict__.get("_bits_in")
        if cached is None or cached[0] is not view:
            ids = self.ids  # read off the old storage before replacing it
            cached = self._bits_in = (view, view.bitset_of(ids))
        return cached[1]

    def codes(self, view: DenseGraph) -> set[int]:
        """The binary codes of the states, read off ``view``."""
        return view.codes_of(self.bits(view))

    def __getstate__(self) -> dict:
        cached = self.__dict__.get("_bits_in")
        if cached is not None:
            # the ids of the graph's memoized list, so a state id shared
            # by several regions pickles once
            view, bits = cached
            self._ids = tuple(compress(view.ids, bit_flags(bits)))
        return {
            "signal": self.signal,
            "direction": self.direction,
            "kind": self.kind,
            "_ids": self.ids,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        if (self.signal, self.direction, self.kind) != (other.signal, other.direction, other.kind):
            return False
        mine, theirs = self.__dict__.get("_bits_in"), other.__dict__.get("_bits_in")
        if mine is not None and theirs is not None and mine[0] is theirs[0]:
            return mine[1] == theirs[1]
        return self.states == other.states

    def __hash__(self) -> int:
        return hash((self.signal, self.direction, self.kind, self.states))

    def __len__(self) -> int:
        cached = self.__dict__.get("_bits_in")
        return len(self.ids) if cached is None else cached[1].bit_count()

    def __contains__(self, state: StateId) -> bool:
        return state in self.states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sign = "+" if self.rising else "-"
        return f"Region({self.kind}({sign}x{self.signal}), {len(self)} states)"

    @property
    def rising(self) -> bool:
        return self.direction == 1

    def label(self, sg: StateGraph) -> str:
        sign = "+" if self.rising else "-"
        return f"{self.kind}({sign}{sg.signals[self.signal]})"


def _components(view: DenseGraph, members: list[int]) -> list[int]:
    """The weakly connected components of the states ``members``
    (ascending) under all arcs, as bitsets ordered by lowest state."""
    succ, pred = view.succ, view.pred
    # 1 = member not yet placed in a component, 2 = placed
    mark = bytearray(len(view))
    for s in members:
        mark[s] = 1
    out = []
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
        out.append(view.bitset(comp))
    return out


def excitation_regions(sg: StateGraph, signal: int) -> list[Region]:
    """All excitation regions of a signal (Definition 5).

    Maximal weakly-connected sets of states in which the signal has the
    same value and is excited.  Rising regions (value 0, ``+a``
    enabled) come first, then falling ones; each group is ordered by
    its lowest state number.
    """
    view = sg.dense()
    bit = 1 << signal
    codes = view.codes
    regions: list[Region] = []
    for direction, excited in ((1, view.up), (-1, view.down)):
        value = 0 if direction == 1 else bit
        members = [
            s for s, m in enumerate(excited) if m & bit and codes[s] & bit == value
        ]
        regions += [
            Region(signal, direction, "ER", view, bits) for bits in _components(view, members)
        ]
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
    return Region(signal, direction, "QR", view, view.bitset(members))


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
    return [
        Region(signal, er.direction, "ER", view, view.bitset(comp)) for comp in bottoms
    ]


def check_output_trapping(sg: StateGraph, er: Region) -> list[tuple[StateId, StateId]]:
    """Violations of Property 1 for one ER (empty list when trapped).

    Returns (state, escaped-to) pairs where a transition of another
    signal leaves the excitation region.  Semi-modular SGs with input
    choices never have any.
    """
    view = sg.dense()
    inside = view.flags(er.bits(view))
    return [
        (view.label(s), view.label(d))
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


def signal_regions(sg: StateGraph, signal: int) -> SignalRegions:
    """The region analysis of a signal, memoized on ``sg``.

    The first request analyses every non-input signal (and ``signal``)
    together and memoizes the result; every later consumer reads that
    memo until the graph is mutated (see
    :class:`~repro.sg.graph.StateGraph`).
    """
    if sg._regions is None:
        sg._regions = {}
    sr = sg._regions.get(signal)
    if sr is None:
        wanted = [a for a in sg.non_inputs if a not in sg._regions]
        if signal not in wanted:
            wanted.append(signal)
        sg._regions.update(_analyse(sg, sorted(wanted)))
        sr = sg._regions[signal]
    return sr


#: ``_DIGITS[j][v]`` is ``"1"`` when bit ``j`` of the byte ``v`` is set, else ``"0"``
_DIGITS = [bytes(48 + (v >> j & 1) for v in range(256)) for j in range(8)]


def _columns(masks: list[int], width: int, signals: list[int]) -> list[int]:
    """For each signal ``a``, bit ``a`` of every mask (``width`` bits
    wide) as a bitset over the list positions."""
    if not masks:
        return [0] * len(signals)
    if width <= 64:
        words = array("Q", masks)
        if sys.byteorder == "big":
            words.byteswap()
        raw, step = words.tobytes(), 8
    else:
        step = (width + 7) // 8
        raw = b"".join(m.to_bytes(step, "little") for m in masks)
    return [int(raw[a >> 3 :: step].translate(_DIGITS[a & 7])[::-1], 2) for a in signals]


def _mask_passes(view: DenseGraph, mask: int, agree: bool) -> tuple[list[int], ...]:
    """Per state, the masks of the signals in ``mask`` for which it is
    an ER state, an ER sink, an ER state that reaches a sink of its ER
    (sinks included), and a QR state.  ``agree`` tells whether the codes
    agree with the arcs (:func:`~repro.sg.codespace.arcs_agree`)."""
    codes, succ, pred = view.codes, view.succ, view.pred
    states = range(len(view))
    excited = [(u & ~c | d & c) & mask for u, d, c in zip(view.up, view.down, codes)]
    quiet = [mask & ~(u | d) for u, d in zip(view.up, view.down)]
    bits = [1 << b for b in range(view.num_signals)]
    sink = [0] * len(view)
    qr = [0] * len(view)
    for s in compress(states, excited):
        e, c = excited[s], codes[s]
        held = 0  # signals still excited at the same value after another signal's arc
        for b, _d, d in succ[s]:
            x = c ^ codes[d]
            held |= excited[d] & ~x
            # the ER exit of b enters QR(b) when b is stable there
            qr[d] |= e & bits[b] & x & quiet[d]
        sink[s] = e & ~held
    if not agree:
        # the sweep reads an arc's signal off the codes of its ends, and
        # an edited code misleads it: leave every ER to the walks
        sink = [0] * len(view)
    reach = sink[:]
    stack = list(compress(states, sink))
    while stack:
        d = stack.pop()
        r, c = reach[d], codes[d]
        for p in pred[d]:
            add = r & excited[p] & ~(c ^ codes[p]) & ~reach[p]
            if add:
                reach[p] |= add
                stack.append(p)
    stack = list(compress(states, qr))
    while stack:
        s = stack.pop()
        q, c = qr[s], codes[s]
        for _b, _d, d in succ[s]:
            add = q & quiet[d] & ~(c ^ codes[d]) & ~qr[d]
            if add:
                qr[d] |= add
                stack.append(d)
    return excited, sink, reach, qr


def _mask_columns(
    view: DenseGraph, signals: list[int], agree: bool
) -> dict[int, tuple[int, ...]]:
    """Per signal, its bitsets of the codes and of the masks of
    :func:`_mask_passes`; the mask lists die here."""
    masks = (view.codes, *_mask_passes(view, sum(1 << a for a in signals), agree))
    columns = [_columns(m, view.num_signals, signals) for m in masks]
    return dict(zip(signals, zip(*columns)))


def _analyse(sg: StateGraph, signals: list[int]) -> dict[int, SignalRegions]:
    """The :class:`SignalRegions` of each of ``signals`` (ascending),
    from one set of code-space floods where the graph has a code space
    and one set of mask passes where not; each signal gets its own
    ``regions`` span, the first one also holding the shared work."""
    # imported here, not above: decoding a stored circuit unpickles
    # regions and computes none, so it need not load the code space
    from .codespace import arcs_agree, code_space

    view = sg.dense()
    columns = None
    out: dict[int, SignalRegions] = {}
    ers = 0
    for a in signals:
        with trace_span("regions", signal=sg.signals[a]) as sp:
            if columns is None:
                cs = code_space(sg)
                if cs is None:
                    columns = _mask_columns(view, signals, arcs_agree(sg))
                else:
                    columns = cs.region_columns(view, signals)
            out[a] = sr = _signal(sg, view, a, *columns[a])
            sp.set(excitation=len(sr.excitation))
        ers += len(sr.excitation)
    get_metrics().counter("regions.computed").add(ers)
    return out


def _signal(
    sg: StateGraph, view: DenseGraph, a: int,
    code: int, excited: int, sink: int, reach: int, qr: int,
) -> SignalRegions:
    """One signal's regions from its mask columns, with the walks where
    the masks cannot decide (see the module docstring)."""
    sr = SignalRegions(a)
    for direction, members, quiescent in (
        (1, excited & ~code, qr & code),
        (-1, excited & code, qr & ~code),
    ):
        if not members:
            continue
        sinks = sink & members
        if members & ~reach or sinks & (sinks - 1):
            ers = _components(view, view.numbers(members))
        else:
            ers = [members]
        for bits in ers:
            er = Region(a, direction, "ER", view, bits)
            sr.excitation.append(er)
            if len(ers) == 1:
                sr.quiescent.append(Region(a, direction, "QR", view, quiescent))
            else:
                sr.quiescent.append(quiescent_region_of(sg, er))
            if bits & ~reach:
                sr.triggers.append(trigger_regions(sg, er))
            else:
                sr.triggers.append(
                    [Region(a, direction, "ER", view, 1 << s) for s in view.numbers(sinks & bits)]
                )
    return sr


def is_single_traversal(sg: StateGraph) -> bool:
    """Definition 9: every trigger region of every non-input is a singleton."""
    return all(signal_regions(sg, a).single_traversal for a in sg.non_inputs)
