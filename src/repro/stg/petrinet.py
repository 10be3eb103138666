"""Signal Transition Graphs as labelled Petri nets.

An STG [Chu 87] is a Petri net whose transitions are labelled with
signal transitions ``x+`` / ``x-``.  It is the "widely used" high-level
formalism the paper's framework accepts (Section I): the semantics is
the state graph obtained by token-flow reachability
(:mod:`repro.stg.reachability`).

We support the structure found in the classic asynchronous benchmark
suite: safe (1-bounded) nets, free choice between input transitions,
multiple instances of the same signal transition (``a+/1``, ``a+/2``),
and implicit places (an arc drawn directly between two transitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["StgTransition", "Stg", "StgError"]


class StgError(ValueError):
    """Raised on malformed STGs (unsafe markings, bad labels, …)."""


@dataclass(frozen=True, slots=True, order=True)
class StgTransition:
    """A labelled Petri-net transition such as ``a+`` or ``b-/2``.

    ``instance`` distinguishes multiple occurrences of the same signal
    transition in the net (the ``/k`` suffix of the astg format).
    """

    signal: str
    direction: int  # +1 or -1
    instance: int = 0

    @property
    def rising(self) -> bool:
        return self.direction == 1

    @staticmethod
    def parse(text: str) -> "StgTransition":
        """Parse ``a+``, ``b-``, ``c+/2`` style labels."""
        body, _, inst = text.partition("/")
        instance = int(inst) if inst else 0
        body = body.strip()
        if body.endswith("+"):
            return StgTransition(body[:-1], 1, instance)
        if body.endswith("-"):
            return StgTransition(body[:-1], -1, instance)
        raise StgError(f"bad transition label {text!r} (need trailing + or -)")

    def __str__(self) -> str:
        base = f"{self.signal}{'+' if self.rising else '-'}"
        return f"{base}/{self.instance}" if self.instance else base


class Stg:
    """A safe Petri net with signal-transition labels.

    Places are referred to by name; the implicit place between
    transitions ``t`` and ``u`` is auto-named ``<t,u>``.  The marking
    is a frozenset of marked place names (safety is enforced during
    token flow).
    """

    def __init__(
        self,
        inputs: Sequence[str],
        outputs: Sequence[str],
        internal: Sequence[str] = (),
        name: str = "stg",
    ) -> None:
        dup = set(inputs) & set(outputs) | set(inputs) & set(internal) | set(outputs) & set(internal)
        if dup:
            raise StgError(f"signals declared in several classes: {sorted(dup)}")
        self.name = name
        self.input_signals: list[str] = list(inputs)
        self.output_signals: list[str] = list(outputs)
        self.internal_signals: list[str] = list(internal)
        self.transitions: list[StgTransition] = []
        self._tset: set[StgTransition] = set()
        self.pre: dict[StgTransition, set[str]] = {}
        self.post: dict[StgTransition, set[str]] = {}
        self.place_pre: dict[str, set[StgTransition]] = {}
        self.place_post: dict[str, set[StgTransition]] = {}
        self.initial_marking: set[str] = set()
        self.initial_values: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def signals(self) -> list[str]:
        """All signals, inputs first (the SG signal order)."""
        return self.input_signals + self.output_signals + self.internal_signals

    def is_input(self, signal: str) -> bool:
        return signal in self.input_signals

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_transition(self, t: StgTransition | str) -> StgTransition:
        """Register a transition (idempotent); returns the instance."""
        if isinstance(t, str):
            t = StgTransition.parse(t)
        if t.signal not in self.signals:
            raise StgError(f"transition {t} names undeclared signal {t.signal!r}")
        if t not in self._tset:
            self._tset.add(t)
            self.transitions.append(t)
            self.pre[t] = set()
            self.post[t] = set()
        return t

    def add_place(self, name: str) -> str:
        """Register an explicit place (idempotent)."""
        self.place_pre.setdefault(name, set())
        self.place_post.setdefault(name, set())
        return name

    def connect(self, src: StgTransition | str, dst: StgTransition | str) -> str:
        """Arc between two transitions through an implicit place.

        Returns the implicit place's name.
        """
        s = self.add_transition(src)
        d = self.add_transition(dst)
        place = f"<{s},{d}>"
        self.add_place(place)
        self.post[s].add(place)
        self.place_pre[place].add(s)
        self.pre[d].add(place)
        self.place_post[place].add(d)
        return place

    def arc_tp(self, t: StgTransition | str, place: str) -> None:
        """Arc transition → explicit place."""
        tt = self.add_transition(t)
        self.add_place(place)
        self.post[tt].add(place)
        self.place_pre[place].add(tt)

    def arc_pt(self, place: str, t: StgTransition | str) -> None:
        """Arc explicit place → transition."""
        tt = self.add_transition(t)
        self.add_place(place)
        self.pre[tt].add(place)
        self.place_post[place].add(tt)

    def mark(self, *places: str) -> None:
        """Add tokens to the initial marking."""
        for p in places:
            if p not in self.place_pre:
                raise StgError(f"marking names unknown place {p!r}")
            self.initial_marking.add(p)

    def mark_between(self, src: StgTransition | str, dst: StgTransition | str) -> None:
        """Mark the implicit place between two transitions (``<t,u>``)."""
        s = StgTransition.parse(src) if isinstance(src, str) else src
        d = StgTransition.parse(dst) if isinstance(dst, str) else dst
        place = f"<{s},{d}>"
        self.mark(place)

    def set_initial_value(self, signal: str, value: int) -> None:
        """Pin a signal's initial value (otherwise inferred)."""
        if signal not in self.signals:
            raise StgError(f"unknown signal {signal!r}")
        self.initial_values[signal] = value

    # ------------------------------------------------------------------
    # token flow
    # ------------------------------------------------------------------
    def enabled(self, marking: frozenset[str]) -> list[StgTransition]:
        """Transitions whose presets are fully marked."""
        return [t for t in self.transitions if self.pre[t] <= marking]

    def fire(self, marking: frozenset[str], t: StgTransition) -> frozenset[str]:
        """Fire one transition; enforces 1-safety."""
        if not self.pre[t] <= marking:
            raise StgError(f"{t} not enabled")
        after = set(marking) - self.pre[t]
        gain = self.post[t]
        if gain & after:
            raise StgError(f"net not safe: firing {t} double-marks {sorted(gain & after)}")
        return frozenset(after | gain)

    def places(self) -> Iterator[str]:
        return iter(self.place_pre)

    def describe(self) -> str:
        """Human-readable dump (for examples and debugging)."""
        lines = [
            f"STG {self.name}: {len(self.transitions)} transitions, "
            f"{len(self.place_pre)} places",
            f"  inputs:  {', '.join(self.input_signals)}",
            f"  outputs: {', '.join(self.output_signals)}",
        ]
        if self.internal_signals:
            lines.append(f"  internal: {', '.join(self.internal_signals)}")
        for t in self.transitions:
            posts = sorted(
                str(u) for p in self.post[t] for u in self.place_post[p]
            )
            lines.append(f"  {t} -> {', '.join(posts)}")
        lines.append(f"  marking: {sorted(self.initial_marking)}")
        return "\n".join(lines)
