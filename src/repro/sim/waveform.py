"""Waveform capture and pulse analysis.

A :class:`Waveform` is the full change history of one net.  The hazard
analyses of :mod:`repro.sim.hazards` and the Figure 4/6 benches are
built on the pulse view: a *pulse* is a pair of consecutive opposite
transitions; its width is what the MHS flip-flop's ω threshold is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

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

    def pulses(self) -> list[Pulse]:
        """Decompose the history into held-level intervals (the final
        level, still held when the run ends, is not one)."""
        return [
            Pulse(t, end, v)
            for (t, v), (end, _) in zip(self.changes, self.changes[1:])
        ]

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
