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
"""

from __future__ import annotations

from itertools import compress

from ..obs import get_metrics, trace_span
from ..sg.graph import SGError, StateGraph, Transition, bit_flags, render_state
from .petrinet import Stg, StgError, StgTransition

__all__ = ["infer_initial_values", "elaborate", "ElaborationError"]

#: default (marking, fired-signals) budget of initial-value inference
_MAX_MARKINGS = 200000


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

    def marking(self, m: int) -> frozenset[str]:
        return frozenset(compress(self.places, bit_flags(m)))


def infer_initial_values(stg: Stg, max_markings: int = _MAX_MARKINGS) -> dict[str, int]:
    """Infer each signal's initial value from first-transition polarity.

    Explores markings (ignoring signal values) recording, per signal,
    which polarity can occur first.  Mixed first polarities mean the
    STG has no consistent coding from any initial vector.
    """
    return _infer(stg, _Net(stg), max_markings)


def _infer(stg: Stg, net: _Net, max_markings: int) -> dict[str, int]:
    values = dict(stg.initial_values)
    # signals whose first transition along some path is rising / falling
    first_up = first_down = 0
    # state: (mask of signals already transitioned) << places | marking
    shift = len(net.places)
    places = (1 << shift) - 1
    seen = {net.initial}
    stack = [net.initial]
    while stack:
        state = stack.pop()
        if len(seen) > max_markings:
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


def elaborate(stg: Stg, max_states: int = 200000) -> StateGraph:
    """Build the state graph of an STG by token flow.

    Raises :class:`ElaborationError` on unsafe nets, inconsistent
    codings (``x+`` enabled while ``x = 1``) or state explosion beyond
    ``max_states``.
    """
    with trace_span("reachability", stg=getattr(stg, "name", "?")) as sp:
        sg = _elaborate_traced(stg, max_states, sp)
    return sg


def _elaborate_traced(stg: Stg, max_states: int, sp) -> StateGraph:
    net = _Net(stg)
    with trace_span("initial-values"):
        values = _infer(stg, net, _MAX_MARKINGS)
    signals = stg.signals
    sg = StateGraph(signals, stg.input_signals)

    init_code = 0
    for i, s in enumerate(signals):
        init_code |= values[s] << i
    sg.add_state((frozenset(stg.initial_marking), init_code), init_code)
    # states and arcs go straight into the graph's storage, by number
    g = sg.dense()
    nxt = g.nxt
    # marking << signals | code  ->  state number
    shift = len(signals)
    visited = {net.initial << shift | init_code: 0}
    stack = [(net.initial, init_code, 0)]
    arcs = 0
    while stack:
        marking, code, i = stack.pop()
        row = i * shift
        for pre, post, bit, rising, t, a, direction in net.transitions:
            if marking & pre != pre:
                continue
            if code & bit == rising:
                raise ElaborationError(
                    f"inconsistent STG: {t} enabled while {t.signal}={1 if rising else 0}"
                )
            after = marking & ~pre
            if post & after:
                raise net.unsafe(t, post & after)
            new_marking, new_code = after | post, code ^ bit
            key = new_marking << shift | new_code
            j = visited.get(key)
            if j is None:
                if len(visited) >= max_states:
                    raise ElaborationError("state graph exceeded max_states")
                j = visited[key] = g.add_state((net.marking(new_marking), new_code), new_code)
                stack.append((new_marking, new_code, j))
            # StateGraph.add_arc's code checks hold by construction: the
            # check above puts the signal at its pre-transition value in
            # ``code``, and ``new_code`` differs from it in that bit alone.
            # A taken slot of ``nxt`` is therefore an arc of this signal
            # and direction, as in add_arc's determinism check.
            existing = nxt[row + a]
            if existing < 0:
                g.add_arc(i, a, direction, j)
            elif existing != j:
                raise SGError(
                    f"transition {Transition(a, direction).label(signals)} "
                    f"not deterministic at {render_state(g.ids[i])}"
                )
            arcs += 1
    sp.set(states=len(visited), arcs=arcs)
    get_metrics().gauge("reachability.states").set(len(visited))
    get_metrics().counter("reachability.arcs").add(arcs)
    return sg
