"""Waveform capture and pulse analysis.

A :class:`Waveform` is the full change history of one net.  The hazard
analyses of :mod:`repro.sim.hazards` and the Figure 4/6 benches are
built on the pulse view: a *pulse* is a pair of consecutive opposite
transitions; its width is what the MHS flip-flop's ω threshold is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Waveform", "Pulse", "TraceSet"]


@dataclass(frozen=True)
class Pulse:
    """A pulse on a net: value ``level`` held from ``start`` to ``end``."""

    start: float
    end: float
    level: int

    @property
    def width(self) -> float:
        return self.end - self.start


@dataclass
class Waveform:
    """Change history of one net: (time, new value) pairs.

    The initial value is recorded as a change at time 0.
    """

    net: str
    changes: list[tuple[float, int]] = field(default_factory=list)

    def record(self, time: float, value: int) -> None:
        """Append a change (ignored when the value does not change)."""
        if self.changes and self.changes[-1][1] == value:
            return
        if self.changes and time < self.changes[-1][0] - 1e-12:
            raise ValueError(
                f"non-monotonic waveform on {self.net}: {time} after {self.changes[-1][0]}"
            )
        self.changes.append((time, value))

    def value_at(self, time: float) -> int:
        """Value of the net at a given time (last change ≤ time)."""
        v = 0
        for t, val in self.changes:
            if t > time:
                break
            v = val
        return v

    @property
    def initial(self) -> int:
        return self.changes[0][1] if self.changes else 0

    @property
    def final(self) -> int:
        return self.changes[-1][1] if self.changes else 0

    def num_transitions(self) -> int:
        """Number of value changes after the initial assignment."""
        return max(0, len(self.changes) - 1)

    def transitions(self) -> list[tuple[float, int]]:
        """Changes excluding the initial value record."""
        return self.changes[1:]

    def pulses(self, end_time: float | None = None) -> list[Pulse]:
        """Decompose the history into held-level intervals."""
        out: list[Pulse] = []
        for i in range(len(self.changes)):
            t, v = self.changes[i]
            end = self.changes[i + 1][0] if i + 1 < len(self.changes) else end_time
            if end is None:
                continue
            out.append(Pulse(t, end, v))
        return out

    def glitch_pulses(self, max_width: float) -> list[Pulse]:
        """Non-initial, non-final level intervals narrower than ``max_width``.

        These are the "streams of pulses" the SOP planes may produce
        (Figure 3); at an externally observable signal any of them is a
        hazard.
        """
        ps = self.pulses()
        return [p for p in ps[1:] if p.width < max_width]

    def render(self, width: int = 72) -> str:
        """Tiny ASCII rendering (for example scripts)."""
        if not self.changes:
            return f"{self.net:>12}: (no data)"
        t_end = self.changes[-1][0] + 1.0
        chars = []
        for col in range(width):
            t = col * t_end / width
            chars.append("▔" if self.value_at(t) else "▁")
        return f"{self.net:>12}: " + "".join(chars)


class TraceSet:
    """All waveforms of one simulation run, keyed by net."""

    def __init__(self) -> None:
        self._waves: dict[str, Waveform] = {}

    def record(self, net: str, time: float, value: int) -> None:
        self._waves.setdefault(net, Waveform(net)).record(time, value)

    def __getitem__(self, net: str) -> Waveform:
        return self._waves[net]

    def __contains__(self, net: str) -> bool:
        return net in self._waves

    def get(self, net: str) -> Waveform | None:
        return self._waves.get(net)

    def nets(self) -> Iterator[str]:
        return iter(self._waves)

    def total_transitions(self, nets: Iterable[str] | None = None) -> int:
        if nets is None:
            nets = list(self._waves)
        return sum(self._waves[n].num_transitions() for n in nets if n in self._waves)
