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
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .regions import SignalRegions

__all__ = ["Transition", "StateGraph", "SGError"]

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
    :func:`repro.sg.regions.signal_regions`.
    """

    #: per-signal region analyses (see :func:`repro.sg.regions.signal_regions`)
    _regions: "dict[int, SignalRegions] | None" = None

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
                raise SGError(f"state {state!r} re-added with a different code")
            return state
        self._regions = None
        self._code[state] = code
        self._succ[state] = {}
        self._pred[state] = []
        if self.initial is None:
            self.initial = state
        return state

    def set_initial(self, state: StateId) -> None:
        """Designate the initial state ``s0``."""
        if state not in self._code:
            raise SGError(f"unknown state {state!r}")
        self._regions = None
        self.initial = state

    def add_arc(self, src: StateId, t: Transition, dst: StateId) -> None:
        """Add the arc ``src --t--> dst``, enforcing coding consistency."""
        if src not in self._code or dst not in self._code:
            raise SGError("arc endpoints must be added first")
        bit = 1 << t.signal
        sv = (self._code[src] >> t.signal) & 1
        dv = (self._code[dst] >> t.signal) & 1
        if t.rising and not (sv == 0 and dv == 1):
            raise SGError(
                f"+{self.signals[t.signal]} arc must go 0→1 "
                f"(state {src!r} → {dst!r})"
            )
        if not t.rising and not (sv == 1 and dv == 0):
            raise SGError(
                f"-{self.signals[t.signal]} arc must go 1→0 "
                f"(state {src!r} → {dst!r})"
            )
        if (self._code[src] ^ self._code[dst]) != bit:
            raise SGError(
                f"arc {t.label(self.signals)} changes more than its own signal "
                f"({src!r} → {dst!r})"
            )
        existing = self._succ[src].get(t)
        if existing is not None and existing != dst:
            raise SGError(f"transition {t.label(self.signals)} not deterministic at {src!r}")
        if existing is None:
            self._regions = None
            self._succ[src][t] = dst
            self._pred[dst].append((src, t))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
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
            f"states:  {self.num_states} (initial {self.initial!r})",
        ]
        for s in self._code:
            arcs = ", ".join(
                f"{t.label(self.signals)}→{d!r}" for t, d in self._succ[s].items()
            )
            lines.append(f"  {s!r} [{self.state_label(s)}]  {arcs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateGraph({len(self.signals)} signals, {self.num_states} states, "
            f"initial={self.initial!r})"
        )
