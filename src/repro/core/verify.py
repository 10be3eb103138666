"""Closed-loop hazard-freeness verification (Monte-Carlo).

Stands in for the authors' VERILOG/SPICE validation: the synthesized
netlist runs against an SG-driven environment under randomized gate
delays.  Per Theorem 2, a correct N-SHOT circuit must

* conform — every observable non-input transition is one the SG
  enables at that point (no spurious firings, no glitches at the
  flip-flop outputs);
* progress — the circuit never deadlocks while the SG expects a
  non-input transition (the trigger requirement's teeth);
* keep set/reset exclusivity at every MHS flip-flop.

Internal SOP nets are *expected* to glitch; the verification reports
how much they did, demonstrating the paper's core claim: internal
hazards, externally hazard-free.

:func:`run_oracle` is the single-run core used by the Monte-Carlo
sweep, the fuzz harness and the fault-injection tests: it never raises
— a crashing or livelocking simulation becomes a structured
:class:`OracleVerdict` (``timeout`` / ``error``) instead of an
exception, so a sweep over many (circuit × fault × seed) points
degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..netlist.netlist import Netlist
from ..obs import get_metrics, trace_span
from ..sg.graph import StateGraph
from ..sim import (
    SGEnvironment,
    SimConfig,
    SimulationError,
    SimulationLimitError,
    Simulator,
    analyze_hazards,
)
from ..sim.hazards import HazardReport
from ..sim.waveform import TraceSet
from .synthesizer import NShotCircuit

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..obs.causality import FlightRecorder
    from ..obs.coverage import CoverageMap
    from ..obs.telemetry import HazardTelemetry

__all__ = [
    "OracleVerdict",
    "VerificationRun",
    "VerificationSummary",
    "run_oracle",
    "verify_hazard_freeness",
]

#: per run of :func:`verify_hazard_freeness`: the simulated time (ns),
#: the event watchdog, and the window (ns) the environment answers in
MAX_TIME, MAX_EVENTS, INPUT_DELAY = 4000.0, 500_000, (0.1, 6.0)


@dataclass
class OracleVerdict:
    """Structured outcome of one closed-loop oracle run.

    ``status`` is one of:

    * ``"clean"`` — the run completed and conformed to the SG with no
      observable hazards;
    * ``"violation"`` — the run completed but the oracle found
      conformance/progress/MHS errors or observable glitch pulses;
    * ``"timeout"`` — a watchdog budget tripped
      (:class:`~repro.sim.SimulationLimitError`): the circuit
      livelocked or ran away;
    * ``"error"`` — the simulation itself failed
      (:class:`~repro.sim.SimulationError` or an unexpected exception).
    """

    status: str
    seed: int
    errors: list[str] = field(default_factory=list)
    transitions: int = 0
    internal_glitches: int = 0
    observable_glitches: int = 0
    final_time: float = 0.0
    events: int = 0
    #: ``repro-causality/1`` chain documents for the run's violations,
    #: populated when a flight recorder was attached (``observe`` hook)
    causes: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "clean"

    def describe(self) -> str:
        head = f"seed {self.seed}: {self.status}"
        if self.errors:
            head += f" ({self.errors[0]}"
            if len(self.errors) > 1:
                head += f" +{len(self.errors) - 1} more"
            head += ")"
        return head


def run_oracle(
    netlist: Netlist,
    sg: StateGraph,
    config: SimConfig,
    *,
    max_time: float = 2000.0,
    max_transitions: int = 200,
    input_delay: tuple[float, float] = (0.1, 6.0),
    internal_nets: list[str] | None = None,
    observe=None,
) -> OracleVerdict:
    """One closed-loop conformance run, returned as a structured verdict.

    Never raises for in-simulation failures: watchdog trips map to
    ``timeout`` and simulation errors to ``error`` verdicts, each with
    the structured diagnostics attached.  ``observe`` is an optional
    callback invoked with the freshly built :class:`Simulator` and its
    environment before the run starts: collectors attach through it
    (telemetry and flight recorders to the simulator, coverage maps as
    an SG-advance observer), and transient-fault models schedule their
    mid-traversal injections from it.
    When a flight recorder is attached, any violation verdict carries
    causal chains (``repro-causality/1`` documents) for its offending
    events in :attr:`OracleVerdict.causes`.
    """
    seed = config.seed if config.seed is not None else 0
    with trace_span("oracle", circuit=netlist.name, seed=seed) as sp:
        verdict, filtered = _run_oracle_inner(
            netlist,
            sg,
            config,
            seed,
            max_time=max_time,
            max_transitions=max_transitions,
            input_delay=input_delay,
            internal_nets=internal_nets,
            observe=observe,
        )
        sp.set(
            status=verdict.status,
            events=verdict.events,
            transitions=verdict.transitions,
            mhs_filtered=filtered,
        )
    metrics = get_metrics()
    metrics.counter("sim.runs").add(1)
    metrics.counter("sim.events").add(verdict.events)
    metrics.counter("sim.transitions").add(verdict.transitions)
    metrics.counter("mhs.pulses_filtered").add(filtered)
    return verdict


def _run_oracle_inner(
    netlist: Netlist,
    sg: StateGraph,
    config: SimConfig,
    seed: int,
    *,
    max_time: float,
    max_transitions: int,
    input_delay: tuple[float, float],
    internal_nets: list[str] | None,
    observe,
) -> tuple[OracleVerdict, int]:
    """The oracle body; returns (verdict, MHS pulses filtered)."""
    sim = Simulator(netlist, config)
    env = SGEnvironment(
        sg,
        sim,
        seed=seed ^ 0x5EED,
        input_delay=input_delay,
    )
    if observe is not None:
        observe(sim, env)
    observable = [sg.signals[a] for a in sg.non_inputs]
    try:
        report = env.run(max_time=max_time, max_transitions=max_transitions)
    except SimulationLimitError as e:
        return OracleVerdict(
            status="timeout",
            seed=seed,
            errors=[e.describe()],
            transitions=env.report.transitions_observed,
            final_time=sim.now,
            events=sim.events_processed,
        ), sim.mhs_pulses_filtered
    except SimulationError as e:
        return OracleVerdict(
            status="error",
            seed=seed,
            errors=[e.describe()],
            transitions=env.report.transitions_observed,
            final_time=sim.now,
            events=sim.events_processed,
        ), sim.mhs_pulses_filtered
    except Exception as e:  # graceful degradation: record, don't abort
        return OracleVerdict(
            status="error",
            seed=seed,
            errors=[f"{type(e).__name__}: {e}"],
            transitions=env.report.transitions_observed,
            final_time=sim.now,
            events=sim.events_processed,
        ), sim.mhs_pulses_filtered
    hazards: HazardReport = analyze_hazards(
        sim.traces,
        observable_nets=observable,
        internal_nets=internal_nets,
    )
    errors = report.conformance_errors + report.progress_errors + report.mhs_errors
    clean = report.ok and hazards.externally_hazard_free
    return OracleVerdict(
        status="clean" if clean else "violation",
        seed=seed,
        errors=errors
        + (
            []
            if hazards.externally_hazard_free
            else [f"{hazards.observable_total} observable glitch pulses"]
        ),
        transitions=report.transitions_observed,
        internal_glitches=hazards.internal_total,
        observable_glitches=hazards.observable_total,
        final_time=report.final_time,
        events=sim.events_processed,
        causes=[] if clean else _violation_causes(sim, report, hazards),
    ), sim.mhs_pulses_filtered


def _violation_causes(sim, report, hazards: HazardReport) -> list[dict]:
    """Causal-chain documents for a violation verdict's offending events.

    Only meaningful when a flight recorder was attached (``observe``
    hook); returns ``[]`` otherwise.  Conformance violations are looked
    up by (net, time, value); observable glitch nets by their most
    recent recorded change.
    """
    recorder = getattr(sim, "_recorder", None)
    if recorder is None:
        return []
    causes: list[dict] = []
    for net, time, value in report.conformance_events:
        ev = recorder.find_net_event(net, at=time, value=value)
        if ev is not None:
            causes.append(recorder.explain(ev).to_json_doc())
    for net in sorted(hazards.observable_glitches):
        ev = recorder.find_net_event(net)
        if ev is not None:
            causes.append(recorder.explain(ev).to_json_doc())
    return causes


@dataclass
class VerificationRun:
    """One Monte-Carlo run's outcome."""

    seed: int
    ok: bool
    transitions: int
    internal_glitches: int
    observable_glitches: int
    errors: list[str] = field(default_factory=list)
    #: causal chains of this run's violations (flight recorder attached)
    causes: list[dict] = field(default_factory=list)


@dataclass
class VerificationSummary:
    """Aggregate over all runs.

    ``traces`` is the last run's :class:`~repro.sim.waveform.TraceSet`
    when trace capture was requested (the ``--vcd`` export path).
    """

    runs: list[VerificationRun] = field(default_factory=list)
    traces: "TraceSet | None" = None
    #: the ``repro-certificate/1`` document when the static certifier
    #: ran first (``--static-first``); present whether or not the
    #: Monte-Carlo phase was subsequently skipped
    certificate: dict | None = None
    #: True when the certificate was fully proved and the Monte-Carlo
    #: sweep was skipped entirely (``runs`` is then empty)
    static_skip: bool = False

    @property
    def ok(self) -> bool:
        if self.static_skip:
            return True
        return all(r.ok for r in self.runs)

    @property
    def total_transitions(self) -> int:
        return sum(r.transitions for r in self.runs)

    @property
    def total_internal_glitches(self) -> int:
        return sum(r.internal_glitches for r in self.runs)

    @property
    def total_observable_glitches(self) -> int:
        return sum(r.observable_glitches for r in self.runs)

    def summary(self) -> str:
        if self.static_skip:
            n = len((self.certificate or {}).get("obligations", []))
            return (
                f"HAZARD-FREE (statically certified): {n} obligations "
                f"proved, Monte-Carlo skipped"
            )
        status = "HAZARD-FREE" if self.ok else "VIOLATIONS"
        return (
            f"{status}: {len(self.runs)} runs, {self.total_transitions} observable "
            f"transitions, {self.total_internal_glitches} internal glitch pulses "
            f"(tolerated), {self.total_observable_glitches} observable glitches"
        )


def verify_hazard_freeness(
    circuit: NShotCircuit,
    runs: int = 5,
    max_transitions: int = 200,
    telemetry: "HazardTelemetry | None" = None,
    keep_traces: bool = False,
    coverage: "CoverageMap | None" = None,
    recorder: "FlightRecorder | None" = None,
) -> VerificationSummary:
    """Monte-Carlo closed-loop verification of a synthesized circuit.

    Run ``k`` (seed ``k``) draws fresh per-gate delays (± the jitter)
    and fresh environment timing (:data:`INPUT_DELAY`), then simulates
    until ``max_transitions`` observable transitions or
    :data:`MAX_TIME` ns.  A run that trips the :data:`MAX_EVENTS`
    watchdog or crashes is recorded as a failing run with the
    structured diagnostic — the sweep itself never aborts.

    The jitter is the delay uncertainty the circuit was *designed for*
    (``circuit.designed_spread``): Theorem 2 guarantees
    hazard-freeness only under the delay bounds Equation (1) was
    evaluated with — verifying under wider variation than designed is
    testing a different (unsupported) operating condition.

    An optional ``telemetry`` collector is attached to every run's
    simulator through the ``observe`` hook (samples accumulate across the
    sweep in the collector), and
    ``keep_traces`` retains the last run's :class:`TraceSet` for VCD
    export — both strictly observational.

    A ``coverage`` map accumulates SG state/region/trigger-cube
    coverage across the sweep (its document is ``coverage.summary()``); a
    ``recorder`` flight recorder makes every violating run carry causal
    chains for its offending events (``VerificationRun.causes``).
    """
    jitter = circuit.designed_spread
    summary = VerificationSummary()
    sg = circuit.sg
    sims: list = []
    observe = None
    if keep_traces or any(p is not None for p in (telemetry, coverage, recorder)):

        def observe(sim, env) -> None:
            if telemetry is not None:
                telemetry.attach(sim)
            if keep_traces:
                sims[:] = [sim]
            if coverage is not None:
                coverage.attach(env)
            if recorder is not None:
                recorder.attach(sim)

    with trace_span(
        "verify", circuit=circuit.netlist.name, runs=runs, jitter=jitter
    ) as sp:
        for seed in range(runs):
            verdict = run_oracle(
                circuit.netlist,
                sg,
                SimConfig(jitter=jitter, seed=seed, max_events=MAX_EVENTS),
                max_time=MAX_TIME,
                max_transitions=max_transitions,
                input_delay=INPUT_DELAY,
                internal_nets=circuit.architecture.sop_nets,
                observe=observe,
            )
            summary.runs.append(
                VerificationRun(
                    seed=seed,
                    ok=verdict.ok,
                    transitions=verdict.transitions,
                    internal_glitches=verdict.internal_glitches,
                    observable_glitches=verdict.observable_glitches,
                    errors=verdict.errors,
                    causes=verdict.causes,
                )
            )
        sp.set(ok=summary.ok, transitions=summary.total_transitions)
    if sims:
        summary.traces = sims[-1].traces
    return summary
