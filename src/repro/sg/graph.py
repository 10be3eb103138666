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

from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..logic import Cover
    from .codespace import CodeSpace
    from .regions import SignalRegions

__all__ = ["Transition", "StateGraph", "SGError", "DenseGraph", "Marking", "render_state"]

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


class Marking(frozenset):
    """A frozenset of STG place names, the marking half of an elaborated
    state id.

    It equals, and hashes like, the plain frozenset of its places, but
    pickles them in sorted order, so a pickled graph or region does not
    depend on the hash seed (a plain frozenset pickles in the order of
    its hash table).
    """

    __slots__ = ()

    def __reduce__(self):
        return (Marking, (tuple(sorted(self)),))

    def __repr__(self) -> str:
        return repr(frozenset(self))


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(bits: int) -> bytes:
    """One 0/1 byte per bit of ``bits``, lowest bit first (a selector
    for :func:`itertools.compress`)."""
    return bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)


def _typecode(bound: int) -> str:
    """The smallest array typecode that holds ``0..bound-1``."""
    return "B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "i"


class DenseGraph:
    """The storage of a :class:`StateGraph`: its states numbered
    ``0..N-1`` and its arcs in one flat table.

    State ``i`` is the ``i``-th state added and arc ``k`` the ``k``-th
    arc.  The mutators only append, so a number never changes, and a
    pickle keeps both orders.  The arc table is the primary data: each
    arc once, as its source and its signal (``arc_src``,
    ``arc_signal``), in insertion order.  ``up``, ``down`` and ``nxt``
    index it and are kept up to date by :meth:`add_state` and
    :meth:`add_arc`; an arc's direction is its source's bit in ``up`` or
    ``down`` and its destination is in ``nxt``.  ``succ`` and ``pred``,
    the per-state arc lists the id-keyed API, the baselines and the
    per-state region walks read, are each derived from the table in one
    pass on first read and dropped by the mutators; the code-space paths
    read only the codes, ``up``, ``down`` and ``nxt``, so they never
    build them.

    A graph elaborated from an STG keeps each state's marking as a
    bitmask over one table of place names; :meth:`label` builds a
    state's id from it, and :attr:`ids` and :attr:`number` are built on
    first read and then memoized, so the layers that read only codes
    and arcs never build an id.  Any other graph keeps its id list.

    Attributes
    ----------
    codes:
        Binary code of each state number.
    places, markings:
        For an elaborated graph, the place names and each state's
        marking as a bitmask over them (bit ``k`` = ``places[k]``);
        otherwise ``None``.
    arc_src, arc_signal:
        Per arc, in insertion order, its source state and its signal.
    up, down:
        Per state, the mask of signals with an enabled rising / falling
        transition.
    nxt:
        ``nxt[s * num_signals + a]`` is the successor of ``s`` by its
        transition of signal ``a``, or ``-1`` (a consistent graph
        enables at most one direction of a signal in a state).
    succ:
        Per state, its arcs ``(signal, direction, dst)`` in insertion
        order (derived).
    pred:
        Per state, the numbers of its predecessors, one per arc, in arc
        insertion order (derived).
    """

    __slots__ = (
        "_ids", "_number", "places", "markings", "codes", "arc_src", "arc_signal",
        "up", "down", "nxt", "num_signals", "_succ", "_pred",
    )

    def __init__(
        self, num_signals: int, states: list, codes: list[int], places: list[str] | None = None
    ) -> None:
        """The states ``states``/``codes`` without arcs.  ``states`` are
        the state ids, or with ``places`` the markings as bitmasks over
        them."""
        self.num_signals = num_signals
        self._store_states(states, places)
        self.codes = codes
        n = len(codes)
        self.up, self.down, self.nxt = [0] * n, [0] * n, [-1] * (n * num_signals)
        self.arc_src, self.arc_signal = array("i"), array(_typecode(num_signals))
        self._succ = self._pred = None

    @classmethod
    def of_tables(
        cls,
        num_signals: int,
        places: list[str],
        markings: list[int],
        codes: list[int],
        up: list[int],
        down: list[int],
        nxt: list[int],
        arc_src: list[int],
        arc_signal: list[int],
    ) -> "DenseGraph":
        """An elaborated graph's storage from ready-made tables, without
        checks: ``up``, ``down`` and ``nxt`` must index the arc table
        ``arc_src``/``arc_signal`` as :meth:`add_arc` would."""
        g = cls.__new__(cls)
        g._store_states(markings, places)
        g.num_signals, g.codes, g.up, g.down, g.nxt = num_signals, codes, up, down, nxt
        g.arc_src, g.arc_signal = array("i", arc_src), array(_typecode(num_signals), arc_signal)
        g._succ = g._pred = None
        return g

    def _store_states(self, states: list, places: list[str] | None) -> None:
        self.places, self._number = places, None
        if places is None:
            self._ids, self.markings = states, None
        else:
            self._ids, self.markings = None, states

    def label(self, i: int) -> StateId:
        """The external id of state ``i``; for an elaborated graph the
        pair ``(Marking, code)``."""
        if self._ids is not None:
            return self._ids[i]
        return (Marking(compress(self.places, bit_flags(self.markings[i]))), self.codes[i])

    @property
    def ids(self) -> list[StateId]:
        """The external id of each state number (built on first read)."""
        if self._ids is None:
            self._ids = list(map(self.label, range(len(self.codes))))
        return self._ids

    @property
    def number(self) -> dict[StateId, int]:
        """The state number of each external id (built on first read)."""
        if self._number is None:
            self._number = {s: i for i, s in enumerate(self.ids)}
        return self._number

    def add_state(self, state: StateId, code: int) -> int:
        """Append a state without checks; returns its number."""
        i = len(self.codes)
        self.number[state] = i
        self.ids.append(state)
        # the ids list now holds every label
        self.places = self.markings = None
        self.codes.append(code)
        self.up.append(0)
        self.down.append(0)
        self.nxt.extend([-1] * self.num_signals)
        self._succ = self._pred = None
        return i

    def add_arc(self, src: int, signal: int, direction: int, dst: int) -> None:
        """Append the arc ``src --(signal, direction)--> dst`` without
        checks."""
        self._extend(((src, signal, direction, dst),))

    def _extend(self, arcs: Iterable[tuple[int, int, int, int]]) -> None:
        """Append the arcs ``(src, signal, direction, dst)``, in order."""
        ns, up, down, nxt = self.num_signals, self.up, self.down, self.nxt
        srcs, signals = self.arc_src, self.arc_signal
        for src, signal, direction, dst in arcs:
            srcs.append(src)
            signals.append(signal)
            if direction == 1:
                up[src] |= 1 << signal
            else:
                down[src] |= 1 << signal
            nxt[src * ns + signal] = dst
        self._succ = self._pred = None

    @property
    def succ(self) -> list[list[tuple[int, int, int]]]:
        """Per state, its arcs ``(signal, direction, dst)`` in insertion
        order (derived from the arc table on first read)."""
        if self._succ is None:
            ns, up, nxt = self.num_signals, self.up, self.nxt
            succ = self._succ = [[] for _ in self.codes]
            for s, a in zip(self.arc_src, self.arc_signal):
                succ[s].append((a, 1 if up[s] >> a & 1 else -1, nxt[s * ns + a]))
        return self._succ

    @property
    def pred(self) -> list[list[int]]:
        """Per state, its predecessors, one per arc, in arc insertion
        order (derived from the arc table on first read)."""
        if self._pred is None:
            ns, nxt = self.num_signals, self.nxt
            pred = self._pred = [[] for _ in self.codes]
            for s, a in zip(self.arc_src, self.arc_signal):
                pred[nxt[s * ns + a]].append(s)
        return self._pred

    def __getstate__(self) -> tuple:
        # per arc, its source, its signal with the direction in bit 0
        # and its destination, each array as narrow as its values allow
        ns, down, nxt = self.num_signals, self.down, self.nxt
        srcs, signals = self.arc_src, self.arc_signal
        number = _typecode(len(self.codes))
        return (
            ns,
            self.ids if self.places is None else self.markings,
            self.codes,
            array(number, srcs),
            array(_typecode(2 * ns), [a << 1 | down[s] >> a & 1 for s, a in zip(srcs, signals)]),
            array(number, [nxt[s * ns + a] for s, a in zip(srcs, signals)]),
            self.places,
        )

    def __setstate__(self, state: tuple) -> None:
        ns, states, codes, srcs, signals, dsts, places = state
        self.__init__(ns, states, codes, places)
        self._extend(
            (s, x >> 1, -1 if x & 1 else 1, d) for s, x, d in zip(srcs, signals, dsts)
        )

    def __len__(self) -> int:
        return len(self.codes)

    def bitset(self, numbers: Iterable[int]) -> int:
        """The bitset (bit ``i`` = state ``i``) of some state numbers."""
        digits = bytearray(b"0") * (len(self.codes) + 1)
        top = len(self.codes)
        for i in numbers:
            digits[top - i] = 49  # "1"
        return int(digits, 2)

    def flags(self, bits: int) -> bytes:
        """A bitset as one 0/1 byte per state number."""
        return bit_flags(bits).ljust(len(self.codes), b"\0")

    @staticmethod
    def _window(bits: int) -> tuple[int, int, bytes]:
        """``(lo, hi, flags)``: the states of a bitset lie in
        ``lo..hi-1`` and ``flags`` has one 0/1 byte per state number
        there, so reading a small region of a large graph costs no byte
        per state of the graph."""
        lo = max((bits & -bits).bit_length() - 1, 0)
        flags = bit_flags(bits >> lo)
        return lo, lo + len(flags), flags

    def numbers(self, bits: int) -> list[int]:
        """The state numbers in a bitset, ascending."""
        lo, hi, flags = self._window(bits)
        return list(compress(range(lo, hi), flags))

    def codes_of(self, bits: int) -> set[int]:
        """The binary codes of the states in a bitset."""
        lo, hi, flags = self._window(bits)
        return set(compress(self.codes[lo:hi], flags))

    def labels(self, bits: int) -> tuple[StateId, ...]:
        """The external ids of the states in a bitset, in state-number
        order (read off :attr:`ids` once that is built)."""
        lo, hi, flags = self._window(bits)
        if self._ids is not None:
            return tuple(compress(self._ids[lo:hi], flags))
        return tuple(map(self.label, compress(range(lo, hi), flags)))


@dataclass
class SpecAnalysis:
    """The whole-graph results the synthesis flows share, memoized on a
    :class:`StateGraph` by :meth:`StateGraph.analysis`; each is filled
    by the function named beside it, on first request."""

    preflight_ok: bool | None = None  # repro.analysis.engine.run_preflight
    non_distributive: tuple[int, ...] | None = None  # .distributivity
    codes: frozenset[int] | None = None  # .encoding.reachable_codes
    unreachable: "Cover | None" = None  # .encoding.unreachable_cover
    covers: dict[int, list[int]] = field(default_factory=dict)  # .encoding.bits_to_covers
    unique_codes: bool | None = None  # .codespace.unique_codes
    arcs_agree: bool | None = None  # .codespace.arcs_agree
    #: .codespace.code_space; False when the graph does not qualify
    code_space: "CodeSpace | bool | None" = None


#: attributes a pickle leaves out: derived from the signals, or the memoized
#: analyses (regions and spec analysis), so that a stored graph does not depend
#: on what its caller asked of it before
_DERIVED = ("_index", "_transitions", "_regions", "_spec")


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
    The graph is stored as a :class:`DenseGraph` (see :meth:`dense`);
    the id-keyed methods below translate ids to state numbers and back.
    States are added with :meth:`add_state` and arcs with
    :meth:`add_arc`; the class enforces the consistent state assignment
    rules of Section III-A at insertion time (a ``+x`` arc must go from
    a state with ``x = 0`` to an identically-coded state with ``x = 1``,
    and so on).  Those two and :meth:`set_initial` are the only
    mutators; they extend the storage in place and drop the analyses
    memoized on the graph: the regions of
    :func:`repro.sg.regions.signal_regions` and the :meth:`analysis`.

    The initial state is kept as a state number.  A pickle carries the
    storage (see :meth:`DenseGraph.__getstate__`: the ids, or for an
    elaborated graph the markings and place names, the codes and the
    arc table) and none of the memoized analyses, so what a caller
    asked of a graph before pickling it does not change the pickle.
    """

    #: per-signal region analyses (see :func:`repro.sg.regions.signal_regions`)
    _regions: "dict[int, SignalRegions] | None" = None
    _spec: SpecAnalysis | None = None  # see analysis(); never pickled

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
        #: one :class:`Transition` per (signal, direction)
        self._transitions: dict[tuple[int, int], Transition] = {
            (a, d): Transition(a, d) for a in range(len(self.signals)) for d in (1, -1)
        }
        self._dense = DenseGraph(len(self.signals), [], [])
        #: the state number of ``s0``
        self._initial: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def of_storage(
        cls, signals: Sequence[str], inputs: Iterable[str | int], storage: DenseGraph
    ) -> "StateGraph":
        """A graph stored in ``storage`` as it is, with state 0 initial.
        The coding rules :meth:`add_arc` enforces are not checked."""
        sg = cls(signals, inputs)
        sg._dense = storage
        sg._initial = 0 if len(storage) else None
        return sg

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
        g = self.dense()
        i = g.number.get(state)
        if i is not None:
            if g.codes[i] != code:
                raise SGError(f"state {render_state(state)} re-added with a different code")
            return state
        self._regions = self._spec = None
        i = g.add_state(state, code)
        if self._initial is None:
            self._initial = i
        return state

    def set_initial(self, state: StateId) -> None:
        """Designate the initial state ``s0``."""
        i = self.dense().number.get(state)
        if i is None:
            raise SGError(f"unknown state {render_state(state)}")
        self._regions = self._spec = None
        self._initial = i

    def add_arc(self, src: StateId, t: Transition, dst: StateId) -> None:
        """Add the arc ``src --t--> dst``, enforcing coding consistency."""
        g = self.dense()
        i = g.number.get(src)
        j = g.number.get(dst)
        if i is None or j is None:
            raise SGError("arc endpoints must be added first")
        sc, dc = g.codes[i], g.codes[j]
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
        # the code checks fix the direction of t at src, so a taken slot
        # holds an arc of t itself
        existing = g.nxt[i * g.num_signals + t.signal]
        if existing < 0:
            self._regions = self._spec = None
            g.add_arc(i, t.signal, t.direction, j)
        elif existing != j:
            raise SGError(
                f"transition {t.label(self.signals)} not deterministic at "
                f"{render_state(src)}"
            )

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        if not isinstance(state.get("_dense"), DenseGraph):
            raise SGError("state graph pickled in an older layout")
        self.__init__(state["signals"], state["inputs"])
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def dense(self) -> DenseGraph:
        """The :class:`DenseGraph` this graph is stored in."""
        return self._dense

    def analysis(self) -> SpecAnalysis:
        """The :class:`SpecAnalysis` memoized on this graph."""
        if self._spec is None:
            self._spec = SpecAnalysis()
        return self._spec

    def _at(self, state: StateId) -> tuple[DenseGraph, int]:
        g = self.dense()
        return g, g.number[state]

    @property
    def initial(self) -> StateId | None:
        """The initial state ``s0``."""
        return None if self._initial is None else self.dense().label(self._initial)

    @property
    def initial_number(self) -> int | None:
        """The state number of the initial state ``s0``."""
        return self._initial

    @property
    def initial_code(self) -> int:
        """The binary code of the initial state ``s0``."""
        return self.dense().codes[self._initial]

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
        return iter(self.dense().ids)

    @property
    def num_states(self) -> int:
        return len(self._dense.codes)

    def code(self, state: StateId) -> int:
        """Binary code (bitmask) of a state."""
        g, i = self._at(state)
        return g.codes[i]

    def value(self, state: StateId, signal: int) -> int:
        """Value of one signal in a state."""
        return (self.code(state) >> signal) & 1

    def enabled(self, state: StateId) -> list[Transition]:
        """Transitions enabled in a state."""
        g, i = self._at(state)
        return [self._transitions[a, d] for a, d, _j in g.succ[i]]

    def succ(self, state: StateId, t: Transition) -> StateId | None:
        """Successor by one transition, or ``None`` if not enabled."""
        g, i = self._at(state)
        if not (g.up[i] if t.direction == 1 else g.down[i]) >> t.signal & 1:
            return None
        return g.ids[g.nxt[i * g.num_signals + t.signal]]

    def successors(self, state: StateId) -> list[tuple[Transition, StateId]]:
        """All (transition, successor) pairs of a state."""
        g, i = self._at(state)
        return [(self._transitions[a, d], g.ids[j]) for a, d, j in g.succ[i]]

    def predecessors(self, state: StateId) -> list[tuple[StateId, Transition]]:
        """All (predecessor, transition) pairs leading to a state, in arc
        insertion order."""
        g, j = self._at(state)
        # the code checks let at most one arc join two states
        return [
            (g.ids[p], next(self._transitions[a, d] for a, d, k in g.succ[p] if k == j))
            for p in g.pred[j]
        ]

    def excitation(self, state: StateId, signal: int) -> Transition | None:
        """The enabled transition of ``signal`` in ``state``, if any."""
        g, i = self._at(state)
        if g.up[i] >> signal & 1:
            return self._transitions[signal, 1]
        if g.down[i] >> signal & 1:
            return self._transitions[signal, -1]
        return None

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def _reach(self, start: int | None) -> bytearray:
        """One 0/1 byte per state number: reachable from state number
        ``start``."""
        g = self.dense()
        seen = bytearray(len(g))
        if start is None:
            return seen
        stack = [start]
        seen[start] = 1
        while stack:
            for _a, _d, d in g.succ[stack.pop()]:
                if not seen[d]:
                    seen[d] = 1
                    stack.append(d)
        return seen

    def reachable(self) -> set[StateId]:
        """States reachable from the initial state."""
        return set(compress(self.dense().ids, self._reach(self._initial)))

    def restrict_to_reachable(self) -> "StateGraph":
        """A copy containing only states reachable from the initial state."""
        return self._copy(self._reach(self._initial))

    def subgraph(self, keep: Iterable[StateId]) -> "StateGraph":
        """A copy containing only ``keep`` states and the arcs between
        them; the initial state carries over when kept.  The result may
        be unreachable or inconsistent — shrinkers deliberately produce
        such candidates and let the classifiers reject them."""
        keep = set(keep)
        return self._copy(bytes(s in keep for s in self.dense().ids))

    def without_arc(self, src: StateId, t: Transition) -> "StateGraph":
        """A copy with one arc removed (states untouched)."""
        number = self.dense().number
        dst = self.succ(src, t) if src in number else None
        return self._copy(cut=None if dst is None else (number[src], number[dst]))

    def _copy(
        self, keep: bytes | None = None, cut: tuple[int, int] | None = None
    ) -> "StateGraph":
        """A copy of the states flagged in ``keep`` (default: all) and
        the arcs among them, less the arc between the state numbers
        ``cut``.  States, each state's arcs and each state's
        predecessors keep their order, so the copy does not depend on
        the hash seed."""
        g = self.dense()
        kept = range(len(g)) if keep is None else list(compress(range(len(g)), keep))
        new = [-1] * len(g)
        for k, i in enumerate(kept):
            new[i] = k
        out = StateGraph(self.signals, self.inputs)
        states = g.ids if g.places is None else g.markings
        h = out._dense = DenseGraph(
            self.num_signals, [states[i] for i in kept], [g.codes[i] for i in kept], g.places
        )
        ns, up, nxt = g.num_signals, g.up, g.nxt
        h._extend(
            (new[s], a, 1 if up[s] >> a & 1 else -1, new[d])
            for s, a in zip(g.arc_src, g.arc_signal)
            for d in (nxt[s * ns + a],)
            if new[s] >= 0 <= new[d] and (s, d) != cut
        )
        if self._initial is not None and new[self._initial] >= 0:
            out._initial = new[self._initial]
        elif kept:
            out._initial = 0
        return out

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def state_label(self, state: StateId) -> str:
        """Binary-code label with ``*`` marks on excited signals.

        Renders like the paper's Figure 1: e.g. ``0*0*0`` for a state
        coded 000 where the first two signals are excited.
        """
        g, i = self._at(state)
        code, hot = g.codes[i], g.up[i] | g.down[i]
        return "".join(
            str(code >> a & 1) + ("*" if hot >> a & 1 else "")
            for a in range(len(self.signals))
        )

    def describe(self) -> str:
        """Multi-line human-readable dump of the state graph."""
        lines = [
            f"signals: {', '.join(self.signals)}",
            f"inputs:  {', '.join(self.input_names)}",
            f"states:  {self.num_states} (initial {render_state(self.initial)})",
        ]
        g = self.dense()
        for i, s in enumerate(g.ids):
            arcs = ", ".join(
                f"{self._transitions[a, d].label(self.signals)}→{render_state(g.ids[j])}"
                for a, d, j in g.succ[i]
            )
            lines.append(f"  {render_state(s)} [{self.state_label(s)}]  {arcs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateGraph({len(self.signals)} signals, {self.num_states} states, "
            f"initial={render_state(self.initial)})"
        )
