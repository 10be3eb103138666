"""State graph (SG) model — Section III-A of the paper.

An SG is a finite automaton ``G = <X, S, T, δ, s0>`` where every state
carries a binary code over the signals ``X = X_I ∪ X_O`` and every arc
is the transition of exactly one signal (interleaved concurrency).

States are identified by arbitrary hashable ids; the binary code is a
separate labelling, because states with *identical* codes may coexist
(that is exactly what the CSC property of Definition 1 is about).

Transitions are :class:`Transition` values ``(signal index, direction)``
with direction ``+1`` for a ``+x`` (0→1) and ``-1`` for a ``-x`` (1→0)
transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .regions import SignalRegions

__all__ = ["Transition", "StateGraph", "SGError", "DenseGraph", "render_state"]

StateId = Hashable


class SGError(ValueError):
    """Raised on malformed state graphs (inconsistent coding, etc.)."""


@dataclass(frozen=True, slots=True, order=True)
class Transition:
    """A signal transition ``+x`` or ``-x``.

    Attributes
    ----------
    signal:
        Index of the signal in the state graph's signal list.
    direction:
        ``+1`` for a rising (``+x``) and ``-1`` for a falling (``-x``)
        transition.
    """

    signal: int
    direction: int

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise SGError(f"direction must be +1/-1, got {self.direction}")

    @property
    def rising(self) -> bool:
        return self.direction == 1

    def opposite(self) -> "Transition":
        """The transition of the same signal in the other direction."""
        return Transition(self.signal, -self.direction)

    def label(self, signals: Sequence[str]) -> str:
        return ("+" if self.rising else "-") + signals[self.signal]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return ("+" if self.rising else "-") + f"x{self.signal}"


def render_state(state: StateId) -> str:
    """A state id as :func:`repr` prints it, but with the members of
    every set in sorted order.

    Elaborated state ids hold frozensets of STG place names, whose
    iteration order depends on the hash seed and on how the set was
    built (an SG unpickled from the store may iterate differently), so
    every witness and diagnostic renders states through this helper.
    """
    if isinstance(state, frozenset):
        if not state:
            return "frozenset()"
        return "frozenset({" + ", ".join(sorted(map(render_state, state))) + "})"
    if isinstance(state, tuple):
        parts = [render_state(x) for x in state]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return repr(state)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(bits: int) -> bytes:
    """One 0/1 byte per bit of ``bits``, lowest bit first (a selector
    for :func:`itertools.compress`)."""
    return bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)


class DenseGraph:
    """The state graph renumbered to ``0..N-1`` for the hot passes.

    State ``i`` is the ``i``-th state in insertion order, so the
    numbering survives a pickle round trip of the graph.  Built in one
    pass over the graph by :meth:`StateGraph.dense` and dropped by the
    same mutators as the region memo.

    Attributes
    ----------
    ids, codes:
        External state id and binary code of each state number.
    number:
        The state number of each external id.
    succ:
        Per state, its arcs ``(signal, direction, dst)`` in insertion
        order.
    pred:
        Per state, the numbers of its predecessors, one per arc.
    up, down:
        Per state, the mask of signals with an enabled rising / falling
        transition.
    nxt:
        ``nxt[s * num_signals + a]`` is the successor of ``s`` by its
        transition of signal ``a``, or ``-1`` (a consistent graph
        enables at most one direction of a signal in a state).
    """

    __slots__ = (
        "ids", "codes", "number", "succ", "pred", "up", "down", "nxt", "num_signals"
    )

    def __init__(self, sg: "StateGraph") -> None:
        ns = sg.num_signals
        self.num_signals = ns
        self.ids: list[StateId] = list(sg._code)
        self.codes: list[int] = list(sg._code.values())
        self.number: dict[StateId, int] = {s: i for i, s in enumerate(self.ids)}
        number = self.number
        self.succ: list[tuple[tuple[int, int, int], ...]] = []
        self.pred: list[list[int]] = [[] for _ in self.ids]
        self.up: list[int] = []
        self.down: list[int] = []
        self.nxt: list[int] = [-1] * (len(self.ids) * ns)
        nxt = self.nxt
        for i, s in enumerate(self.ids):
            arcs = tuple(
                (t.signal, t.direction, number[d]) for t, d in sg._succ[s].items()
            )
            up = down = 0
            for a, direction, d in arcs:
                if direction == 1:
                    up |= 1 << a
                else:
                    down |= 1 << a
                nxt[i * ns + a] = d
                self.pred[d].append(i)
            self.succ.append(arcs)
            self.up.append(up)
            self.down.append(down)

    def __len__(self) -> int:
        return len(self.ids)

    def bitset(self, numbers: Iterable[int]) -> int:
        """The bitset (bit ``i`` = state ``i``) of some state numbers."""
        digits = bytearray(b"0") * (len(self.ids) + 1)
        top = len(self.ids)
        for i in numbers:
            digits[top - i] = 49  # "1"
        return int(digits, 2)

    def bitset_of(self, states: Iterable[StateId]) -> int:
        """The bitset of some external state ids."""
        return self.bitset(map(self.number.__getitem__, states))

    def flags(self, bits: int) -> bytes:
        """A bitset as one 0/1 byte per state number."""
        return bit_flags(bits).ljust(len(self.ids), b"\0")

    def numbers(self, bits: int) -> list[int]:
        """The state numbers in a bitset, ascending."""
        return list(compress(range(len(self.ids)), bit_flags(bits)))

    def codes_of(self, bits: int) -> set[int]:
        """The binary codes of the states in a bitset."""
        return set(compress(self.codes, bit_flags(bits)))

    def states_of(self, bits: int) -> frozenset[StateId]:
        """The external ids of the states in a bitset."""
        return frozenset(compress(self.ids, bit_flags(bits)))


class StateGraph:
    """A state graph with consistent binary state coding.

    Parameters
    ----------
    signals:
        Signal names; the position in this list is the signal index
        used everywhere (bit ``i`` of a state code is signal ``i``).
    inputs:
        Names (or indices) of the input signals; all others are
        non-input (output or internal state) signals.

    Notes
    -----
    States are added with :meth:`add_state` and arcs with
    :meth:`add_arc`; the class enforces the consistent state assignment
    rules of Section III-A at insertion time (a ``+x`` arc must go from
    a state with ``x = 0`` to an identically-coded state with ``x = 1``,
    and so on).  Those two and :meth:`set_initial` are the only
    mutators; each drops the region analysis memoized on the graph by
    :func:`repro.sg.regions.signal_regions` and the :class:`DenseGraph`
    memoized by :meth:`dense`.
    """

    #: per-signal region analyses (see :func:`repro.sg.regions.signal_regions`)
    _regions: "dict[int, SignalRegions] | None" = None
    #: the dense view (see :meth:`dense`); never pickled
    _dense: DenseGraph | None = None

    def __init__(self, signals: Sequence[str], inputs: Iterable[str | int]) -> None:
        if len(set(signals)) != len(signals):
            raise SGError("duplicate signal names")
        self.signals: list[str] = list(signals)
        self._index: dict[str, int] = {s: i for i, s in enumerate(self.signals)}
        self.inputs: frozenset[int] = frozenset(
            self._index[s] if isinstance(s, str) else int(s) for s in inputs
        )
        for i in self.inputs:
            if not 0 <= i < len(self.signals):
                raise SGError(f"input index {i} out of range")
        self._code: dict[StateId, int] = {}
        self._succ: dict[StateId, dict[Transition, StateId]] = {}
        self._pred: dict[StateId, list[tuple[StateId, Transition]]] = {}
        self.initial: StateId | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def signal_index(self, name: str) -> int:
        """Index of a signal by name."""
        return self._index[name]

    def transition(self, name: str, direction: int | str) -> Transition:
        """Build a transition from a signal name and ``+1``/``-1``/``'+'``/``'-'``."""
        if isinstance(direction, str):
            direction = 1 if direction == "+" else -1
        return Transition(self._index[name], direction)

    def add_state(self, state: StateId, code: int | Sequence[int]) -> StateId:
        """Add a state with the given binary code.

        ``code`` is either a bitmask (bit ``i`` = value of signal ``i``)
        or a sequence of 0/1 values indexed by signal.
        """
        if not isinstance(code, int):
            mask = 0
            for i, v in enumerate(code):
                if v not in (0, 1):
                    raise SGError(f"state code values must be 0/1, got {v}")
                mask |= v << i
            code = mask
        if code >> len(self.signals):
            raise SGError("state code wider than the signal set")
        if state in self._code:
            if self._code[state] != code:
                raise SGError(f"state {render_state(state)} re-added with a different code")
            return state
        self._regions = self._dense = None
        self._code[state] = code
        self._succ[state] = {}
        self._pred[state] = []
        if self.initial is None:
            self.initial = state
        return state

    def set_initial(self, state: StateId) -> None:
        """Designate the initial state ``s0``."""
        if state not in self._code:
            raise SGError(f"unknown state {render_state(state)}")
        self._regions = self._dense = None
        self.initial = state

    def add_arc(self, src: StateId, t: Transition, dst: StateId) -> None:
        """Add the arc ``src --t--> dst``, enforcing coding consistency."""
        sc = self._code.get(src)
        dc = self._code.get(dst)
        if sc is None or dc is None:
            raise SGError("arc endpoints must be added first")
        sv = (sc >> t.signal) & 1
        dv = (dc >> t.signal) & 1
        if t.direction == 1 and not (sv == 0 and dv == 1):
            raise SGError(
                f"+{self.signals[t.signal]} arc must go 0→1 "
                f"(state {render_state(src)} → {render_state(dst)})"
            )
        if t.direction == -1 and not (sv == 1 and dv == 0):
            raise SGError(
                f"-{self.signals[t.signal]} arc must go 1→0 "
                f"(state {render_state(src)} → {render_state(dst)})"
            )
        if (sc ^ dc) != 1 << t.signal:
            raise SGError(
                f"arc {t.label(self.signals)} changes more than its own signal "
                f"({render_state(src)} → {render_state(dst)})"
            )
        arcs = self._succ[src]
        existing = arcs.get(t)
        if existing is None:
            self._regions = self._dense = None
            arcs[t] = dst
            self._pred[dst].append((src, t))
        elif existing != dst:
            raise SGError(
                f"transition {t.label(self.signals)} not deterministic at "
                f"{render_state(src)}"
            )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_dense", None)
        return state

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def dense(self) -> DenseGraph:
        """The :class:`DenseGraph` of this graph, built on first use."""
        if self._dense is None:
            self._dense = DenseGraph(self)
        return self._dense

    @property
    def num_signals(self) -> int:
        return len(self.signals)

    @property
    def non_inputs(self) -> list[int]:
        """Indices of non-input (output and internal state) signals."""
        return [i for i in range(len(self.signals)) if i not in self.inputs]

    @property
    def input_names(self) -> list[str]:
        return [self.signals[i] for i in sorted(self.inputs)]

    @property
    def non_input_names(self) -> list[str]:
        return [self.signals[i] for i in self.non_inputs]

    def is_input(self, signal: int) -> bool:
        return signal in self.inputs

    def states(self) -> Iterator[StateId]:
        return iter(self._code)

    @property
    def num_states(self) -> int:
        return len(self._code)

    def code(self, state: StateId) -> int:
        """Binary code (bitmask) of a state."""
        return self._code[state]

    def code_vector(self, state: StateId) -> tuple[int, ...]:
        """Binary code as a tuple indexed by signal."""
        c = self._code[state]
        return tuple((c >> i) & 1 for i in range(len(self.signals)))

    def value(self, state: StateId, signal: int) -> int:
        """Value of one signal in a state."""
        return (self._code[state] >> signal) & 1

    def enabled(self, state: StateId) -> list[Transition]:
        """Transitions enabled in a state."""
        return list(self._succ[state])

    def succ(self, state: StateId, t: Transition) -> StateId | None:
        """Successor by one transition, or ``None`` if not enabled."""
        return self._succ[state].get(t)

    def successors(self, state: StateId) -> list[tuple[Transition, StateId]]:
        """All (transition, successor) pairs of a state."""
        return list(self._succ[state].items())

    def predecessors(self, state: StateId) -> list[tuple[StateId, Transition]]:
        """All (predecessor, transition) pairs leading to a state."""
        return list(self._pred[state])

    def is_excited(self, state: StateId, signal: int) -> bool:
        """True when some transition of ``signal`` is enabled in ``state``."""
        return any(t.signal == signal for t in self._succ[state])

    def excitation(self, state: StateId, signal: int) -> Transition | None:
        """The enabled transition of ``signal`` in ``state``, if any."""
        for t in self._succ[state]:
            if t.signal == signal:
                return t
        return None

    def excited_non_inputs(self, state: StateId) -> frozenset[int]:
        """Set of excited non-input signals (used by the CSC check)."""
        return frozenset(
            t.signal for t in self._succ[state] if t.signal not in self.inputs
        )

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def reachable(self, start: StateId | None = None) -> set[StateId]:
        """States reachable from ``start`` (default: the initial state)."""
        if start is None:
            start = self.initial
        if start is None:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            for dst in self._succ[s].values():
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def restrict_to_reachable(self) -> "StateGraph":
        """A copy containing only states reachable from the initial state."""
        keep = self.reachable()
        out = StateGraph(self.signals, [self.signals[i] for i in sorted(self.inputs)])
        for s in self._code:
            if s in keep:
                out.add_state(s, self._code[s])
        for s in keep:
            for t, d in self._succ[s].items():
                if d in keep:
                    out.add_arc(s, t, d)
        if self.initial is not None:
            out.set_initial(self.initial)
        return out

    def subgraph(self, keep: Iterable[StateId]) -> "StateGraph":
        """A copy containing only ``keep`` states and the arcs between
        them; the initial state carries over when kept.  The result may
        be unreachable or inconsistent — shrinkers deliberately produce
        such candidates and let the classifiers reject them."""
        keep = set(keep)
        out = StateGraph(self.signals, [self.signals[i] for i in sorted(self.inputs)])
        for s in self._code:
            if s in keep:
                out.add_state(s, self._code[s])
        for s in keep:
            for t, d in self._succ[s].items():
                if d in keep:
                    out.add_arc(s, t, d)
        if self.initial is not None and self.initial in keep:
            out.set_initial(self.initial)
        return out

    def without_arc(self, src: StateId, t: Transition) -> "StateGraph":
        """A copy with one arc removed (states untouched)."""
        out = StateGraph(self.signals, [self.signals[i] for i in sorted(self.inputs)])
        for s, c in self._code.items():
            out.add_state(s, c)
        for s in self._code:
            for tt, d in self._succ[s].items():
                if s == src and tt == t:
                    continue
                out.add_arc(s, tt, d)
        if self.initial is not None:
            out.set_initial(self.initial)
        return out

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def state_label(self, state: StateId) -> str:
        """Binary-code label with ``*`` marks on excited signals.

        Renders like the paper's Figure 1: e.g. ``0*0*0`` for a state
        coded 000 where the first two signals are excited.
        """
        parts = []
        for i in range(len(self.signals)):
            parts.append(str(self.value(state, i)))
            if self.is_excited(state, i):
                parts.append("*")
        return "".join(parts)

    def describe(self) -> str:
        """Multi-line human-readable dump of the state graph."""
        lines = [
            f"signals: {', '.join(self.signals)}",
            f"inputs:  {', '.join(self.input_names)}",
            f"states:  {self.num_states} (initial {render_state(self.initial)})",
        ]
        for s in self._code:
            arcs = ", ".join(
                f"{t.label(self.signals)}→{render_state(d)}"
                for t, d in self._succ[s].items()
            )
            lines.append(f"  {render_state(s)} [{self.state_label(s)}]  {arcs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateGraph({len(self.signals)} signals, {self.num_states} states, "
            f"initial={render_state(self.initial)})"
        )
