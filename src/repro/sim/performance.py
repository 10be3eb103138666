"""Measured performance: cycle times from closed-loop simulation.

Table 2's "delay" column is a static estimate (worst path through the
planes into the storage element).  This module measures the *dynamic*
counterpart: how fast the synthesized circuit actually cycles against
a maximally eager environment.  Two metrics:

* **response time** — mean delay from the SG state enabling a
  non-input transition (all causes in place) to the circuit firing it;
  this is the dynamic analogue of the static critical path;
* **cycle time** — mean period of a chosen signal's rising
  transitions, the throughput figure a designer would measure on the
  bench.

Used by the performance bench to check the static model's *ordering*
against simulation: circuits the library calls faster must actually
respond faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from ..sg.graph import StateGraph, Transition
from .environment import SGEnvironment
from .simulator import SimConfig, Simulator

__all__ = ["PerformanceReport", "measure_performance"]


@dataclass
class PerformanceReport:
    """Dynamic timing measured from one closed-loop run."""

    response_times: dict[str, list[float]] = field(default_factory=dict)
    cycle_times: dict[str, list[float]] = field(default_factory=dict)
    transitions: int = 0
    conformant: bool = True

    def mean_response(self, signal: str | None = None) -> float:
        if signal is not None:
            times = self.response_times.get(signal, [])
        else:
            times = [t for ts in self.response_times.values() for t in ts]
        return mean(times) if times else float("nan")

    def mean_cycle(self, signal: str) -> float:
        times = self.cycle_times.get(signal, [])
        return mean(times) if times else float("nan")

    def summary(self) -> str:
        per_sig = ", ".join(
            f"{s}: {self.mean_response(s):.2f}" for s in sorted(self.response_times)
        )
        return (
            f"mean response {self.mean_response():.2f} ns ({per_sig}); "
            f"{self.transitions} transitions"
        )


class _ResponseTracker(SGEnvironment):
    """Environment that timestamps when each non-input became enabled."""

    def __init__(self, *args, report: PerformanceReport, **kwargs):
        super().__init__(*args, **kwargs)
        self._report = report
        self._enabled_since: dict[Transition, float] = {}
        self._last_rise: dict[int, float] = {}
        self._now = 0.0

    def _note_enabled(self, time: float) -> None:
        current = {
            t
            for t in self.sg.enabled(self.state)
            if not self.sg.is_input(t.signal)
        }
        for t in current:
            self._enabled_since.setdefault(t, time)
        for t in list(self._enabled_since):
            if t not in current:
                del self._enabled_since[t]

    def _make_output_watcher(self, signal: int):
        base = super()._make_output_watcher(signal)

        def on_change(time: float, value: int) -> None:
            t = Transition(signal, 1 if value == 1 else -1)
            started = self._enabled_since.pop(t, None)
            name = self.sg.signals[signal]
            if started is not None:
                self._report.response_times.setdefault(name, []).append(
                    time - started
                )
            if value == 1:
                prev = self._last_rise.get(signal)
                if prev is not None:
                    self._report.cycle_times.setdefault(name, []).append(
                        time - prev
                    )
                self._last_rise[signal] = time
            base(time, value)
            self._note_enabled(time)

        return on_change

    def _fire_due_inputs(self, now: float) -> None:
        super()._fire_due_inputs(now)
        self._note_enabled(now)


def measure_performance(
    netlist,
    sg: StateGraph,
    runs: int = 3,
    max_transitions: int = 150,
    max_time: float = 6000.0,
    input_delay: tuple[float, float] = (0.05, 0.2),
) -> PerformanceReport:
    """Measure dynamic response/cycle times of a synthesized netlist.

    The environment is eager (near-zero input delays) so the measured
    response is dominated by the circuit, not the driver; gate delays
    are nominal (no jitter) and run ``k`` uses seed ``k``.
    """
    report = PerformanceReport()
    for k in range(runs):
        sim = Simulator(netlist, SimConfig(seed=k))
        env = _ResponseTracker(
            sg,
            sim,
            seed=k,
            input_delay=input_delay,
            report=report,
        )
        run_report = env.run(max_time=max_time, max_transitions=max_transitions)
        report.transitions += run_report.transitions_observed
        report.conformant = report.conformant and run_report.ok
    return report
