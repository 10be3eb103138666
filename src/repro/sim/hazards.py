"""Hazard classification on simulation traces.

The paper's central claim separates two worlds:

* **internal nets** (the SOP planes' AND/OR outputs) may glitch freely
  — "the SOP networks may produce hazards that are manifested as
  streams of pulses" (Section IV-A);
* **externally observable non-input signals** (the MHS flip-flop
  outputs) must be hazard-free: every transition is a specified SG
  transition, exactly once per excitation region traversal.

:func:`analyze_hazards` quantifies both sides on a finished
simulation: it counts glitch pulses per net and partitions them into
tolerated-internal vs violating-observable, giving tests and benches a
single structured view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .waveform import TraceSet

__all__ = ["HazardReport", "analyze_hazards", "omega_margins"]

#: widest level counted as a glitch pulse: one gate delay, what the MHS
#: flip-flop must be robust against
GLITCH_WIDTH = 1.0


def omega_margins(
    filtered_widths: Sequence[float],
    surviving_widths: Sequence[float],
    omega: float,
) -> dict[str, float | None]:
    """The two distances from a pulse stream to the Theorem 2 threshold.

    ``surviving`` — smallest surviving pulse width minus ω: how close a
    *specified* transition came to being absorbed (a small value means
    the circuit nearly lost a real commit to the filter).
    ``filtered`` — ω minus the largest filtered width: how close a
    hazard pulse came to committing the flip-flop (a small value means
    a glitch nearly fired a spurious transition).
    ``min`` — the tighter of the two, i.e. the run's overall ω-margin.
    Entries are ``None`` when the corresponding population is empty.
    """
    surviving = min(surviving_widths) - omega if surviving_widths else None
    filtered = omega - max(filtered_widths) if filtered_widths else None
    present = [m for m in (surviving, filtered) if m is not None]
    return {
        "surviving": surviving,
        "filtered": filtered,
        "min": min(present) if present else None,
    }


@dataclass
class HazardReport:
    """Glitch census of one simulation run.

    ``internal_glitches`` maps internal net → number of glitch pulses
    (these are *expected* and tolerated by the architecture);
    ``observable_glitches`` maps observable net → glitch count (any
    nonzero entry is a hazard-freeness violation).
    """

    internal_glitches: dict[str, int] = field(default_factory=dict)
    observable_glitches: dict[str, int] = field(default_factory=dict)
    glitch_width: float = 0.0

    @property
    def internal_total(self) -> int:
        return sum(self.internal_glitches.values())

    @property
    def observable_total(self) -> int:
        return sum(self.observable_glitches.values())

    @property
    def externally_hazard_free(self) -> bool:
        return self.observable_total == 0

    def summary(self) -> str:
        return (
            f"internal glitch pulses: {self.internal_total} "
            f"(on {len([k for k, v in self.internal_glitches.items() if v])} nets), "
            f"observable glitch pulses: {self.observable_total}"
        )


def analyze_hazards(
    traces: TraceSet,
    observable_nets: Sequence[str],
    internal_nets: Iterable[str] | None = None,
) -> HazardReport:
    """Count glitch pulses, split into internal vs observable nets.

    A *glitch pulse* is a level held for less than
    :data:`GLITCH_WIDTH` (excluding the initial and final levels of the
    run) — the pulse streams of Figure 3.
    """
    report = HazardReport(glitch_width=GLITCH_WIDTH)
    observable = set(observable_nets)
    nets = set(internal_nets) if internal_nets is not None else set(traces.nets())
    nets |= observable
    for net in sorted(nets):
        wave = traces.get(net)
        if wave is None:
            continue
        count = len(wave.glitch_pulses(GLITCH_WIDTH))
        if net in observable:
            report.observable_glitches[net] = count
        else:
            report.internal_glitches[net] = count
    return report
