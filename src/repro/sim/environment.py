"""SG-driven environment for closed-loop simulation.

Implements the paper's environment assumption (Section IV-A): "the
environment can react immediately, or when it likes, as long as it is
enabled to do so in accordance with the SG specification" — no
fundamental-mode timing constraint.  The environment:

* tracks the current SG state, advancing it on every observed
  transition (its own input firings and the circuit's non-input
  firings);
* fires enabled *input* transitions after random delays (including
  near-zero ones, to exercise immediate reaction);
* flags a **conformance violation** whenever the circuit produces a
  non-input transition that the SG does not enable in the current
  state — which is precisely what an externally visible hazard is;
* flags a **progress violation** when the circuit quiesces while the
  SG still requires a non-input transition (the deadlock scenario of
  Theorem 1's necessity proof).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..sg.graph import StateGraph, StateId, Transition
from .simulator import Simulator

__all__ = ["SGEnvironment", "ConformanceReport"]

#: quiescence window (ns) a stalled circuit gets before a deadlock is
#: declared
SETTLE_NS = 60.0


@dataclass
class ConformanceReport:
    """Outcome of one closed-loop run."""

    conformance_errors: list[str] = field(default_factory=list)
    progress_errors: list[str] = field(default_factory=list)
    mhs_errors: list[str] = field(default_factory=list)
    transitions_observed: int = 0
    inputs_fired: int = 0
    final_time: float = 0.0
    #: structured (net, time, value) of each conformance violation —
    #: what the flight recorder needs to look the offending event up
    conformance_events: list[tuple[str, float, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.conformance_errors or self.progress_errors or self.mhs_errors)

    def summary(self) -> str:
        if self.ok:
            return (
                f"conformant: {self.transitions_observed} non-input transitions, "
                f"{self.inputs_fired} input firings, t_end={self.final_time:.1f}"
            )
        return (
            f"VIOLATIONS: {len(self.conformance_errors)} conformance, "
            f"{len(self.progress_errors)} progress, {len(self.mhs_errors)} mhs"
        )


class SGEnvironment:
    """Drives a simulator's primary inputs according to an SG.

    Parameters
    ----------
    sg:
        The specification state graph.
    sim:
        The simulator executing the synthesized netlist.  Primary
        input nets must be named after the SG's input signals and the
        observable non-input signals must appear as nets named after
        the non-input signals.
    seed:
        Randomness for input timing and choice resolution.
    input_delay:
        (min, max) uniform delay between an input becoming enabled and
        the environment firing it.
    """

    def __init__(
        self,
        sg: StateGraph,
        sim: Simulator,
        seed: int | None = None,
        input_delay: tuple[float, float] = (0.1, 6.0),
    ) -> None:
        self.sg = sg
        self.sim = sim
        self.rng = random.Random(seed)
        self.input_delay = input_delay
        self.state: StateId = sg.initial
        self.report = ConformanceReport()
        self._pending_inputs: dict[Transition, float] = {}
        #: state-advance observers: fn(pre_state, transition, post_state,
        #: time) called on every SG step the environment tracks (its own
        #: input firings and the circuit's conformant output firings) —
        #: the hook the coverage maps collect through
        self._observers: list = []
        for idx in sg.non_inputs:
            net = sg.signals[idx]
            sim.watch(net, self._make_output_watcher(idx))

    def add_observer(self, fn) -> None:
        """Register ``fn(pre, transition, post, time)`` for SG advances."""
        self._observers.append(fn)

    def _notify(self, pre: StateId, t: Transition, post: StateId, time: float) -> None:
        for fn in self._observers:
            fn(pre, t, post, time)

    # ------------------------------------------------------------------
    def _make_output_watcher(self, signal: int):
        def on_change(time: float, value: int) -> None:
            t = Transition(signal, 1 if value == 1 else -1)
            nxt = self.sg.succ(self.state, t)
            if nxt is None:
                self.report.conformance_errors.append(
                    f"t={time:.3f}: circuit fired {t.label(self.sg.signals)} "
                    f"not enabled in state {self.state!r} "
                    f"[{self.sg.state_label(self.state)}]"
                )
                self.report.conformance_events.append(
                    (self.sg.signals[signal], time, value)
                )
                return
            pre = self.state
            self.state = nxt
            self.report.transitions_observed += 1
            self._notify(pre, t, nxt, time)
            self._schedule_enabled_inputs(time)

        return on_change

    def _schedule_enabled_inputs(self, now: float) -> None:
        """Schedule firings for enabled inputs not already pending."""
        for t in self.sg.enabled(self.state):
            if not self.sg.is_input(t.signal):
                continue
            if t in self._pending_inputs:
                continue
            delay = self.rng.uniform(*self.input_delay)
            self._pending_inputs[t] = now + delay

    def _fire_due_inputs(self, now: float) -> None:
        due = [t for t, at in self._pending_inputs.items() if at <= now + 1e-12]
        for t in due:
            del self._pending_inputs[t]
            if self.sg.succ(self.state, t) is None:
                # disabled meanwhile by an input choice — drop silently,
                # the environment changed its mind
                continue
            net = self.sg.signals[t.signal]
            value = 1 if t.rising else 0
            self.sim.drive(net, value, now)
            pre = self.state
            self.state = self.sg.succ(self.state, t)
            self.report.inputs_fired += 1
            self._notify(pre, t, self.state, now)
        if due:
            # newly enabled transitions (by the fired inputs)
            self._schedule_enabled_inputs(now)

    # ------------------------------------------------------------------
    def run(
        self,
        max_time: float = 2000.0,
        max_transitions: int = 400,
    ) -> ConformanceReport:
        """Closed-loop execution until a budget is exhausted.

        :data:`SETTLE_NS` is the quiescence window used for progress
        checking: when neither the circuit nor the environment has anything
        scheduled and the SG still enables a non-input transition, the
        run counts as deadlocked.
        """
        self.sim.initialize(
            {
                self.sg.signals[i]: self.sg.value(self.sg.initial, i)
                for i in sorted(self.sg.inputs)
            }
        )
        self.report = ConformanceReport()
        self._pending_inputs.clear()
        self._schedule_enabled_inputs(0.0)

        now = 0.0
        while now < max_time and self.report.transitions_observed < max_transitions:
            if self.report.conformance_errors:
                break
            next_input = min(self._pending_inputs.values(), default=None)
            next_event = self.sim.next_time()
            candidates = [t for t in (next_input, next_event) if t is not None]
            if not candidates:
                # quiescent: is the circuit required to move?
                expected = [
                    t
                    for t in self.sg.enabled(self.state)
                    if not self.sg.is_input(t.signal)
                ]
                if expected:
                    # give it one settle window in case of in-flight events
                    self.sim.run(now + SETTLE_NS)
                    if self.sim.next_time() is None:
                        labels = ", ".join(
                            t.label(self.sg.signals) for t in expected
                        )
                        self.report.progress_errors.append(
                            f"t={now:.3f}: deadlock, SG expects {labels} in state "
                            f"{self.state!r}"
                        )
                        break
                    now = self.sim.now
                    continue
                break  # environment-quiescent too: run complete
            step_to = min(candidates)
            self._fire_due_inputs(step_to)
            self.sim.run(step_to)
            now = max(step_to, self.sim.now)
        self.report.mhs_errors = self.sim.mhs_violations()
        self.report.final_time = now
        return self.report
