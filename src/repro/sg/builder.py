"""Convenience builder for state graphs.

:class:`SGBuilder` — incremental construction where states are named
by their binary code strings (the common case for small hand-written
examples such as the paper's Figure 1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import SGError, StateGraph

__all__ = ["SGBuilder"]


class SGBuilder:
    """Incremental SG construction with code-string state names.

    State names are binary strings over the declared signals in order,
    e.g. ``"010"`` for ``a=0, b=1, c=0``.  Arcs are added by naming the
    source state and the transition; the destination code is computed
    and the destination state is created on demand, so cyclic
    behaviours are easy to enter.

    Distinct states with equal codes (CSC conflicts) can be expressed
    by suffixing the name with ``/k``, e.g. ``"010/1"``.
    """

    def __init__(self, signals: Sequence[str], inputs: Iterable[str]) -> None:
        self.sg = StateGraph(signals, inputs)

    @staticmethod
    def _parse_name(name: str) -> tuple[str, str]:
        if "/" in name:
            code, tag = name.split("/", 1)
            return code, tag
        return name, ""

    def _code_of(self, name: str) -> int:
        code, _ = self._parse_name(name)
        if len(code) != len(self.sg.signals):
            raise SGError(
                f"state name {name!r} must have {len(self.sg.signals)} code bits"
            )
        mask = 0
        for i, ch in enumerate(code):
            if ch not in "01":
                raise SGError(f"bad state code character {ch!r} in {name!r}")
            mask |= (ch == "1") << i
        return mask

    def state(self, name: str) -> str:
        """Ensure a state exists; returns its name."""
        self.sg.add_state(name, self._code_of(name))
        return name

    def arc(self, src: str, transition: str, dst: str | None = None) -> str:
        """Add ``src --transition--> dst``; ``dst`` inferred when omitted.

        ``transition`` is ``"+sig"`` or ``"-sig"``.
        """
        sign, signame = transition[0], transition[1:]
        if sign not in "+-":
            raise SGError(f"transition must start with + or -: {transition!r}")
        t = self.sg.transition(signame, sign)
        self.state(src)
        if dst is None:
            code, tag = self._parse_name(src)
            bits = list(code)
            idx = t.signal
            bits[idx] = "1" if t.rising else "0"
            dst = "".join(bits) + (f"/{tag}" if tag else "")
        self.state(dst)
        self.sg.add_arc(src, t, dst)
        return dst

    def chain(self, start: str, *transitions: str) -> str:
        """Fire a sequence of transitions from ``start``; returns the last state."""
        cur = start
        for tr in transitions:
            cur = self.arc(cur, tr)
        return cur

    def initial(self, name: str) -> None:
        """Set the initial state."""
        self.sg.set_initial(self.state(name))

    def build(self) -> StateGraph:
        """Return the constructed state graph (reachable part only)."""
        return self.sg.restrict_to_reachable()
