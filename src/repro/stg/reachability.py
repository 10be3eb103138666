"""Token-flow reachability: elaborate an STG into its state graph.

Each reachable (marking, signal-vector) pair becomes one SG state; the
SG arcs are the enabled net transitions.  Two markings with equal
signal vectors stay distinct SG states — exactly the situation the CSC
property (Definition 1) talks about.

Initial signal values are taken from explicit declarations when given,
otherwise inferred from the net: a signal whose first transition along
every firing path is ``x+`` starts at 0, one whose first is ``x-``
starts at 1.  Contradictory evidence (some path sees ``x+`` first,
another ``x-``) is reported as an inconsistency.

:func:`elaborate` explores the net once, over (marking, parity) pairs,
where the parity is the code XOR the initial values, so the states
and arcs do not depend on values not yet known.  The first polarities
come from a forward mask fixed point over that graph, and the codes are
built once the values are known.  The exploration records each arc
once, as its source and its signal (the graph's flat arc table), and
fills the per-state ``up``/``down``/``nxt`` tables inline; it builds no
per-state list and no per-arc tuple.  The graph keeps each marking as
a place bitmask; a state's ``(Marking, code)`` id is built only when
one is read (see :class:`~repro.sg.graph.DenseGraph`).  Any error met
on the way (an unsafe net, the :data:`MAX_STATES` bound, a nondeterministic or
inconsistent transition) is reported by the two passes the
exploration stands for: the initial-value inference (:func:`_infer`)
over the whole net, then an exploration with the codes, so every
broken net gets the error of the first pass that meets one.
"""

from __future__ import annotations

from itertools import compress

from ..obs import get_metrics, trace_span
from ..sg.graph import (
    DenseGraph, Marking, SGError, StateGraph, Transition, bit_flags, render_state
)
from .petrinet import Stg, StgError, StgTransition

__all__ = ["elaborate", "ElaborationError"]

#: default (marking, fired-signals) budget of initial-value inference
_MAX_MARKINGS = 200000

#: state budget of :func:`elaborate`
MAX_STATES = 200000


class ElaborationError(StgError):
    """Raised when the STG has no consistent state-graph semantics."""


class _Net:
    """An STG compiled once per call: places become bit positions (in
    :meth:`Stg.places` order) and each transition a pair of pre/post
    masks, so enabling is ``pre & ~m == 0``, firing ``m & ~pre | post``
    and a double-marked place (an unsafe net) ``post & (m & ~pre)``.
    """

    def __init__(self, stg: Stg) -> None:
        self.places = list(stg.places())
        self.signals = list(stg.signals)
        place_bit = {p: 1 << i for i, p in enumerate(self.places)}
        self.initial = sum(place_bit[p] for p in stg.initial_marking)
        sig_index = {s: i for i, s in enumerate(stg.signals)}
        #: per transition, in ``stg.transitions`` order: (pre mask, post
        #: mask, signal bit, the signal bit if rising else 0, the STG
        #: transition, signal index, direction)
        self.transitions = [
            (
                sum(place_bit[p] for p in stg.pre[t]),
                sum(place_bit[p] for p in stg.post[t]),
                1 << sig_index[t.signal],
                1 << sig_index[t.signal] if t.rising else 0,
                t,
                sig_index[t.signal],
                t.direction,
            )
            for t in stg.transitions
        ]

    def unsafe(self, t: StgTransition, twice: int) -> StgError:
        """The error :meth:`Stg.fire` raises when ``t`` double-marks places."""
        names = sorted(p for i, p in enumerate(self.places) if twice >> i & 1)
        return StgError(f"net not safe: firing {t} double-marks {names}")

    def marking(self, m: int) -> Marking:
        return Marking(compress(self.places, bit_flags(m)))


def _infer(stg: Stg, net: _Net) -> dict[str, int]:
    """Infer each signal's initial value from first-transition polarity.

    Explores markings (ignoring signal values) recording, per signal,
    which polarity can occur first.  Mixed first polarities mean the
    STG has no consistent coding from any initial vector.
    """
    # signals whose first transition along some path is rising / falling
    first_up = first_down = 0
    # state: (mask of signals already transitioned) << places | marking
    shift = len(net.places)
    places = (1 << shift) - 1
    seen = {net.initial}
    stack = [net.initial]
    while stack:
        state = stack.pop()
        if len(seen) > _MAX_MARKINGS:
            raise ElaborationError("initial-value inference exceeded marking budget")
        marking = state & places
        done = state >> shift
        for pre, post, bit, rising, t, _a, _d in net.transitions:
            if marking & pre != pre:
                continue
            if not done & bit:
                if rising:
                    first_up |= bit
                else:
                    first_down |= bit
            after = marking & ~pre
            if post & after:
                raise net.unsafe(t, post & after)
            nxt = (done | bit) << shift | after | post
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _values(stg, first_up, first_down)


class _Retry(Exception):
    """The parity exploration met an error; its report needs the
    initial values, so it is made by the two-pass elaboration."""


class _Parts:
    """The states and arcs of one exploration from (initial marking,
    ``start``), by state number: the markings, the codes (the parity
    XOR ``start``), the arc table and the index tables.  ``arcs`` counts
    every enabled firing, two instances of one signal's transition
    that lead to the same state included.  With ``check``, ``start``
    is the initial code and every error is raised as
    :func:`elaborate` reports it; without, the first error raises
    :class:`_Retry`."""

    def __init__(self, net: _Net, nsig: int, start: int, check: bool):
        self.start, self.nsig = start, nsig
        markings, codes = self.markings, self.codes = [net.initial], [start]
        # the arc table, as lists while it grows (an array append costs
        # about three list appends)
        arc_src, arc_signal = self.arc_src, self.arc_signal = [], []
        add_src, add_signal = arc_src.append, arc_signal.append
        up, down = self.up, self.down = [0], [0]
        blank = [-1] * nsig
        nxt = self.nxt = blank[:]
        # marking << signals | code  ->  state number
        visited = {net.initial << nsig | start: 0}
        stack = [(net.initial, start, 0)]
        arcs = 0
        while stack:
            marking, code, i = stack.pop()
            row = i * nsig
            # this state's masks of enabled rising / falling signals
            rises = falls = 0
            for pre, post, bit, rising, t, a, direction in net.transitions:
                if marking & pre != pre:
                    continue
                # with ``check``, ``code`` is the code: the signal must be
                # at its pre-transition value; otherwise it is the parity
                if check and code & bit == rising:
                    raise ElaborationError(
                        f"inconsistent STG: {t} enabled while {t.signal}={1 if rising else 0}"
                    )
                after = marking & ~pre
                if post & after:
                    if check:
                        raise net.unsafe(t, post & after)
                    raise _Retry
                new_marking, new_code = after | post, code ^ bit
                key = new_marking << nsig | new_code
                j = visited.get(key)
                if j is None:
                    if len(visited) >= MAX_STATES:
                        if check:
                            raise ElaborationError("state graph exceeded max_states")
                        raise _Retry
                    j = visited[key] = len(markings)
                    markings.append(new_marking)
                    codes.append(new_code)
                    up.append(0)
                    down.append(0)
                    nxt.extend(blank)
                    stack.append((new_marking, new_code, j))
                # StateGraph.add_arc's code checks hold by construction once
                # the codes are consistent: ``new_code`` differs from ``code``
                # in the signal's bit alone, so a taken slot of ``nxt`` is an
                # arc of this signal, as in add_arc's determinism check.
                existing = nxt[row + a]
                if existing < 0:
                    add_src(i)
                    add_signal(a)
                    if direction == 1:
                        rises |= bit
                    else:
                        falls |= bit
                    nxt[row + a] = j
                elif existing != j or not (rises if direction == 1 else falls) & bit:
                    if check:
                        raise SGError(
                            f"transition {Transition(a, direction).label(net.signals)} "
                            f"not deterministic at "
                            f"{render_state((net.marking(marking), code))}"
                        )
                    # both directions of one signal, or two successors
                    raise _Retry
                arcs += 1
            up[i], down[i] = rises, falls
        self.arcs = arcs

    def first_polarities(self) -> tuple[int, int]:
        """The signals whose first transition along some firing path is
        rising, and those where it is falling: a forward fixed point of
        the signals not yet fired on some path to each state, over
        ``nxt`` (the fixed point does not depend on the visiting order)."""
        nsig, nxt, up, down = self.nsig, self.nxt, self.up, self.down
        signal_of = {1 << a: a for a in range(nsig)}
        fresh = [0] * len(self.codes)
        fresh[0] = (1 << nsig) - 1
        stack = [0]
        while stack:
            s = stack.pop()
            f = fresh[s]
            row = s * nsig
            enabled = up[s] | down[s]
            while enabled:
                bit = enabled & -enabled
                enabled ^= bit
                d = nxt[row + signal_of[bit]]
                add = f & ~bit & ~fresh[d]
                if add:
                    fresh[d] |= add
                    stack.append(d)
        first_up = first_down = 0
        for f, u, d in zip(fresh, self.up, self.down):
            first_up |= f & u
            first_down |= f & d
        return first_up, first_down

    def consistent(self, shift: int) -> bool:
        """Every arc leaves its signal's pre-transition value when the
        codes are XORed with ``shift``."""
        return not any(
            u & (c ^ shift) or d & ~(c ^ shift)
            for c, u, d in zip(self.codes, self.up, self.down)
        )


def _values(stg: Stg, first_up: int, first_down: int) -> dict[str, int]:
    """Each signal's initial value: declared, else from its first
    polarities (``x-`` first means 1; never fired means 0)."""
    values = dict(stg.initial_values)
    for i, s in enumerate(stg.signals):
        if s in values:
            continue
        up, down = first_up >> i & 1, first_down >> i & 1
        if up and down:
            raise ElaborationError(
                f"signal {s!r} has mixed first-transition polarity; "
                "declare its initial value explicitly"
            )
        # never transitions: constant 0
        values[s] = 1 if down else 0
    return values


def elaborate(stg: Stg) -> StateGraph:
    """Build the state graph of an STG by token flow.

    Raises :class:`ElaborationError` on unsafe nets, inconsistent
    codings (``x+`` enabled while ``x = 1``) or state explosion beyond
    :data:`MAX_STATES`.
    """
    with trace_span("reachability", stg=getattr(stg, "name", "?")) as sp:
        sg = _elaborate_traced(stg, sp)
    return sg


def _elaborate_traced(stg: Stg, sp) -> StateGraph:
    net = _Net(stg)
    signals = stg.signals
    nsig = len(signals)
    try:
        parts = _Parts(net, nsig, 0, check=False)
        with trace_span("initial-values"):
            values = _values(stg, *parts.first_polarities())
        code0 = sum(values[s] << i for i, s in enumerate(signals))
        if not parts.consistent(code0):
            raise _Retry
    except _Retry:
        with trace_span("initial-values"):
            values = _infer(stg, net)
        code0 = sum(values[s] << i for i, s in enumerate(signals))
        parts = _Parts(net, nsig, code0, check=True)
    shift = code0 ^ parts.start
    codes = [c ^ shift for c in parts.codes]
    g = DenseGraph.of_tables(
        nsig,
        net.places,
        parts.markings,
        codes,
        parts.up,
        parts.down,
        parts.nxt,
        parts.arc_src,
        parts.arc_signal,
    )
    sp.set(states=len(g), arcs=parts.arcs)
    get_metrics().gauge("reachability.states").set(len(g))
    get_metrics().counter("reachability.arcs").add(parts.arcs)
    return StateGraph.of_storage(signals, stg.input_signals, g)
