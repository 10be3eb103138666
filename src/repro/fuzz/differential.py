"""Crash-contained differential harness over every synthesis flow.

Each generated spec (:mod:`repro.fuzz.generator`) is pushed through
the N-SHOT synthesizer *and* every baseline flow.  Whatever a flow
does — succeed, refuse with a structured
:class:`~repro.core.synthesizer.SynthesisError`, raise something else,
or hang — becomes a :class:`FlowOutcome`; a fuzz campaign never dies to
a flow bug, because finding flow bugs is the point.

Three judges turn outcomes into :class:`Disagreement` records:

* the **capability matrix** — the paper's Table 2 applicability rules
  as an executable oracle: every flow must refuse a spec that fails
  the Theorem 2 preconditions; ``lavagno``/``beerel`` must refuse
  non-distributive specs (failure code ``(1)``) and must *not* refuse
  distributive ones except through their documented data-dependent
  codes (``(2)`` state signals, ``(fh)`` function hazards); the
  universal flows (``nshot``, ``complex_gate``, ``qflop``) must accept
  every valid spec;
* the **Monte-Carlo oracle** — N-SHOT netlists are closed-loop
  simulated against their own spec (:func:`repro.core.verify.run_oracle`);
  any conformance violation or hazard on a generator-certified spec is
  a finding;
* the **lint catalog** — ``run_preflight`` must agree with the
  generator's ground-truth labels, and the full rule catalog must not
  crash on any generated spec.

Disagreements carry a stable ``signature`` so the shrinker
(:mod:`repro.fuzz.shrink`) and corpus (:mod:`repro.fuzz.corpus`) can
deduplicate and archive minimal reproducers.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field

from ..obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
    trace_span,
)
from ..sg.graph import StateGraph
from ..sg.sgformat import write_sg
from .executor import ExecutorPolicy, WallClockTimeout, run_tasks, wall_clock_guard
from .generator import (
    GenerationError,
    SpecKnobs,
    SpecLabels,
    classify,
    derive_seed,
    generate_spec,
    knob_combinations,
)

__all__ = [
    "FLOW_NAMES",
    "DISAGREEMENT_KINDS",
    "FlowOutcome",
    "Disagreement",
    "SpecResult",
    "FuzzConfig",
    "run_flow",
    "judge",
    "run_fuzz_unit",
    "run_fuzz",
]

#: every synthesis flow the harness cross-checks
FLOW_NAMES = (
    "nshot",
    "lavagno",
    "beerel",
    "complex_gate",
    "qflop",
    "hazard_free_sop",
)

#: vocabulary of :attr:`Disagreement.kind`
DISAGREEMENT_KINDS = (
    "flow-crash",          # a flow raised something other than SynthesisError
    "flow-timeout",        # a flow exceeded its wall-clock budget
    "unexpected-refusal",  # a flow refused a spec it must accept
    "unexpected-success",  # a flow accepted a spec it must refuse
    "oracle-violation",    # the simulated N-SHOT circuit broke conformance
    "lint-mismatch",       # preflight verdict contradicts ground-truth labels
    "lint-crash",          # a lint rule raised an internal error
    "generator-error",     # the generator failed its own label contract
)

#: flows that must synthesize every spec meeting the Theorem 2
#: preconditions (no distributivity or hazard restriction)
UNIVERSAL_FLOWS = frozenset({"nshot", "complex_gate", "qflop"})

#: flows restricted to distributive SGs (Table 2 failure code (1))
DISTRIBUTIVE_ONLY_FLOWS = frozenset({"lavagno", "beerel"})

#: refusal types that are legitimate on *some* valid specs — data
#: dependent, so never a disagreement by themselves
DATA_DEPENDENT_REFUSALS = frozenset(
    {"StateSignalsRequiredError", "UnmaskableHazardError"}
)

#: flows whose netlists the Monte-Carlo oracle simulates (the baseline
#: architectures model cost structure, not simulatable timing)
ORACLE_FLOWS = frozenset({"nshot"})


@dataclass
class FlowOutcome:
    """What one flow did with one spec.  ``status`` is ``ok`` /
    ``refused`` (a structured :class:`SynthesisError`) / ``crashed``
    (anything else) / ``timeout``."""

    flow: str
    status: str
    detail: str = ""
    error_type: str = ""
    area: float = 0.0
    delay: float = 0.0
    gates: int = 0
    runtime: float = 0.0
    oracle: dict | None = None

    def to_json(self) -> dict:
        out = {
            "flow": self.flow,
            "status": self.status,
            "runtime": round(self.runtime, 4),
        }
        if self.detail:
            out["detail"] = self.detail
        if self.error_type:
            out["error_type"] = self.error_type
        if self.status == "ok":
            out.update(area=self.area, delay=self.delay, gates=self.gates)
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out


@dataclass
class Disagreement:
    """One finding: a spec on which reality contradicted the rules."""

    kind: str
    flow: str
    seed: int
    knobs: SpecKnobs
    detail: str
    spec_text: str
    labels: dict = field(default_factory=dict)
    #: filled by the shrinker: minimized spec + size bookkeeping
    minimized_text: str | None = None
    original_states: int = 0
    minimized_states: int = 0
    shrink_evals: int = 0

    @property
    def signature(self) -> str:
        """Stable dedupe key: same kind on the same flow via the same
        error type is one bug, whatever seed found it."""
        etype = ""
        if ":" in self.detail and self.kind in ("flow-crash", "unexpected-refusal"):
            etype = self.detail.split(":", 1)[0].strip()
        return f"{self.kind}:{self.flow}:{etype}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "flow": self.flow,
            "seed": self.seed,
            "knobs": self.knobs.to_json(),
            "detail": self.detail,
            "signature": self.signature,
            "labels": self.labels,
            "spec": self.spec_text,
            "minimized": self.minimized_text,
            "original_states": self.original_states,
            "minimized_states": self.minimized_states,
            "shrink_evals": self.shrink_evals,
        }


@dataclass
class SpecResult:
    """Everything one fuzz sample produced (picklable for the pool)."""

    seed: int
    knobs: SpecKnobs
    name: str = ""
    labels: dict = field(default_factory=dict)
    outcomes: list[FlowOutcome] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)
    runtime: float = 0.0

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "knobs": self.knobs.to_json(),
            "labels": self.labels,
            "outcomes": [o.to_json() for o in self.outcomes],
            "disagreements": [d.signature for d in self.disagreements],
            "runtime": round(self.runtime, 4),
        }


# ----------------------------------------------------------------------
# one flow, crash-contained
# ----------------------------------------------------------------------
def _dispatch(flow: str, sg: StateGraph, name: str):
    """Invoke one flow; returns an object with ``.netlist``."""
    if flow == "nshot":
        from ..core.synthesizer import synthesize

        return synthesize(sg, name=name)
    if flow == "lavagno":
        from ..baselines import synthesize_lavagno

        return synthesize_lavagno(sg, name=name)
    if flow == "beerel":
        from ..baselines import synthesize_beerel

        return synthesize_beerel(sg, name=name)
    if flow == "complex_gate":
        from ..baselines import synthesize_complex_gate

        return synthesize_complex_gate(sg, name=name)
    if flow == "qflop":
        from ..baselines import synthesize_qmodule

        return synthesize_qmodule(sg, name=name)
    if flow == "hazard_free_sop":
        from ..baselines import synthesize_hazard_free_sop

        return synthesize_hazard_free_sop(sg, name=name)
    raise ValueError(f"unknown flow {flow!r}")


def run_flow(
    flow: str, sg: StateGraph, *, name: str = "fuzz", timeout: float | None = None
) -> FlowOutcome:
    """Run one flow on one spec; every exception becomes a verdict.

    ``refused`` is reserved for structured
    :class:`~repro.core.synthesizer.SynthesisError` — the contract the
    baselines satellite establishes; any other exception type is a
    ``crashed`` finding by definition.  No flow here has an artifact
    store, so a crashed outcome is never cached.
    """
    from ..core.synthesizer import SynthesisError

    t0 = _time.perf_counter()
    try:
        with wall_clock_guard(timeout):
            result = _dispatch(flow, sg, name)
        stats = result.netlist.stats()
        return FlowOutcome(
            flow=flow,
            status="ok",
            area=stats.area,
            delay=stats.delay,
            gates=stats.num_gates,
            runtime=_time.perf_counter() - t0,
        )
    except WallClockTimeout:
        return FlowOutcome(
            flow=flow,
            status="timeout",
            detail=f"exceeded {timeout}s",
            runtime=_time.perf_counter() - t0,
        )
    except SynthesisError as e:
        return FlowOutcome(
            flow=flow,
            status="refused",
            detail=f"{type(e).__name__}: {e}",
            error_type=type(e).__name__,
            runtime=_time.perf_counter() - t0,
        )
    except Exception as e:
        return FlowOutcome(
            flow=flow,
            status="crashed",
            detail=f"{type(e).__name__}: {e}",
            error_type=type(e).__name__,
            runtime=_time.perf_counter() - t0,
        )


# ----------------------------------------------------------------------
# judges
# ----------------------------------------------------------------------
def judge(labels: SpecLabels, outcomes: list[FlowOutcome]) -> list[tuple[str, str, str]]:
    """Apply the capability matrix; returns ``(kind, flow, detail)``.

    The matrix is the executable form of the paper's Table 2
    applicability rules plus the structured-error contract — see the
    module docstring for the full statement.
    """
    findings: list[tuple[str, str, str]] = []
    valid = labels.consistent and labels.csc and labels.semimodular
    for o in outcomes:
        if o.status == "crashed":
            findings.append(("flow-crash", o.flow, o.detail))
            continue
        if o.status == "timeout":
            findings.append(("flow-timeout", o.flow, o.detail))
            continue
        if not valid:
            if o.status == "ok":
                findings.append(
                    (
                        "unexpected-success",
                        o.flow,
                        "accepted a spec failing the Theorem 2 preconditions "
                        f"(consistent={labels.consistent} csc={labels.csc} "
                        f"semimodular={labels.semimodular})",
                    )
                )
            continue
        # valid spec from here on
        if o.flow in DISTRIBUTIVE_ONLY_FLOWS and not labels.distributive:
            if o.status == "ok":
                findings.append(
                    (
                        "unexpected-success",
                        o.flow,
                        "accepted a non-distributive spec "
                        f"({labels.detonant_count} detonant state(s))",
                    )
                )
            continue  # refusal with code (1) is the expected outcome
        if o.status == "refused" and o.error_type not in DATA_DEPENDENT_REFUSALS:
            findings.append(("unexpected-refusal", o.flow, o.detail))
    return findings


def _oracle_outcome(
    circuit, sg: StateGraph, *, runs: int, base_seed: int, timeout: float | None
) -> tuple[dict, list[tuple[str, str, str]]]:
    """Simulate the N-SHOT circuit against its own spec a few times."""
    from ..core.verify import run_oracle
    from ..sim.simulator import SimConfig

    findings: list[tuple[str, str, str]] = []
    summary = {"runs": 0, "clean": 0, "violations": 0, "timeouts": 0, "errors": 0}
    for k in range(runs):
        env_seed = derive_seed(base_seed, 7919 + k)
        try:
            with wall_clock_guard(timeout):
                verdict = run_oracle(
                    circuit.netlist,
                    sg,
                    SimConfig(seed=env_seed, max_events=50_000, max_sim_time=2400.0),
                    max_time=1200.0,
                    max_transitions=60,
                    internal_nets=circuit.architecture.sop_nets,
                )
        except WallClockTimeout:
            summary["runs"] += 1
            summary["timeouts"] += 1
            continue
        summary["runs"] += 1
        if verdict.status == "clean":
            summary["clean"] += 1
        elif verdict.status == "violation":
            summary["violations"] += 1
            head = verdict.errors[0] if verdict.errors else "conformance violation"
            findings.append(
                (
                    "oracle-violation",
                    "nshot",
                    f"env_seed={env_seed}: {head}",
                )
            )
        elif verdict.status == "timeout":
            summary["timeouts"] += 1
        else:
            summary["errors"] += 1
            head = verdict.errors[0] if verdict.errors else "simulation error"
            findings.append(
                ("oracle-violation", "nshot", f"env_seed={env_seed}: [error] {head}")
            )
    return summary, findings


def _lint_findings(
    sg: StateGraph, labels: SpecLabels, name: str
) -> list[tuple[str, str, str]]:
    """Cross-check the lint catalog against the generator's labels."""
    from ..analysis.engine import analyze, run_preflight

    findings: list[tuple[str, str, str]] = []
    expected_ok = labels.consistent and labels.csc and labels.semimodular
    try:
        preflight = run_preflight(sg, name=name)
    except Exception as e:
        return [("lint-crash", "preflight", f"{type(e).__name__}: {e}")]
    if preflight.ok != expected_ok:
        rules = sorted({d.rule_id for d in preflight.diagnostics})
        findings.append(
            (
                "lint-mismatch",
                "preflight",
                f"preflight ok={preflight.ok} but labels say "
                f"consistent={labels.consistent} csc={labels.csc} "
                f"semimodular={labels.semimodular} (fired: {rules})",
            )
        )
    try:
        full = analyze(sg, name=name)
        if full.internal_errors:
            findings.append(
                (
                    "lint-crash",
                    "catalog",
                    "; ".join(str(e) for e in full.internal_errors[:3]),
                )
            )
    except Exception as e:
        findings.append(("lint-crash", "catalog", f"{type(e).__name__}: {e}"))
    return findings


# ----------------------------------------------------------------------
# one sample end to end (the pool task function)
# ----------------------------------------------------------------------
def run_fuzz_unit(payload) -> tuple[SpecResult, dict | None, dict | None]:
    """Generate + cross-synthesize + judge one sample; never raises.

    ``payload`` is ``(seed, knobs, flow_timeout, oracle_runs, trace)``.
    Returns ``(result, trace_export, metrics_export)``: the exports are
    None when the unit ran in the parent process (its spans and
    counters already landed there) and picklable snapshots when it ran
    in a pool worker, so the parent can merge them into one trace.
    """
    seed, knobs, flow_timeout, oracle_runs, trace = payload
    tracer = get_tracer()
    foreign = trace and (tracer.pid != os.getpid() or not tracer.enabled)
    prev_tracer = prev_metrics = None
    if foreign:
        prev_tracer, prev_metrics = get_tracer(), get_metrics()
        set_tracer(Tracer())
        set_metrics(MetricsRegistry())
    try:
        result = _run_fuzz_unit_inner(seed, knobs, flow_timeout, oracle_runs)
    finally:
        if foreign:
            trace_export = get_tracer().export()
            metrics_export = get_metrics().export()
            set_tracer(prev_tracer)
            set_metrics(prev_metrics)
    if foreign:
        return result, trace_export, metrics_export
    return result, None, None


def _run_fuzz_unit_inner(
    seed: int, knobs: SpecKnobs, flow_timeout: float | None, oracle_runs: int
) -> SpecResult:
    t0 = _time.perf_counter()
    result = SpecResult(seed=seed, knobs=knobs)
    with trace_span("fuzz-unit", seed=seed, knobs=knobs.short()) as sp:
        try:
            spec = generate_spec(seed, knobs)
        except GenerationError as e:
            result.disagreements.append(
                Disagreement(
                    kind="generator-error",
                    flow="generator",
                    seed=seed,
                    knobs=knobs,
                    detail=str(e),
                    spec_text="",
                )
            )
            result.runtime = _time.perf_counter() - t0
            sp.set(outcome="generator-error")
            return result
        result.name = spec.name
        result.labels = spec.labels.to_json()
        spec_text = write_sg(spec.sg, spec.name)

        nshot_circuit = None
        for flow in FLOW_NAMES:
            if flow == "nshot":
                # keep the circuit for the oracle judge without paying
                # for a second synthesis
                from ..core.synthesizer import SynthesisError

                t1 = _time.perf_counter()
                try:
                    with wall_clock_guard(flow_timeout):
                        nshot_circuit = _dispatch("nshot", spec.sg, spec.name)
                    stats = nshot_circuit.netlist.stats()
                    outcome = FlowOutcome(
                        flow="nshot",
                        status="ok",
                        area=stats.area,
                        delay=stats.delay,
                        gates=stats.num_gates,
                        runtime=_time.perf_counter() - t1,
                    )
                except WallClockTimeout:
                    outcome = FlowOutcome(
                        flow="nshot",
                        status="timeout",
                        detail=f"exceeded {flow_timeout}s",
                        runtime=_time.perf_counter() - t1,
                    )
                except SynthesisError as e:
                    outcome = FlowOutcome(
                        flow="nshot",
                        status="refused",
                        detail=f"{type(e).__name__}: {e}",
                        error_type=type(e).__name__,
                        runtime=_time.perf_counter() - t1,
                    )
                except Exception as e:
                    outcome = FlowOutcome(
                        flow="nshot",
                        status="crashed",
                        detail=f"{type(e).__name__}: {e}",
                        error_type=type(e).__name__,
                        runtime=_time.perf_counter() - t1,
                    )
            else:
                outcome = run_flow(
                    flow, spec.sg, name=spec.name, timeout=flow_timeout
                )
            result.outcomes.append(outcome)

        findings = judge(spec.labels, result.outcomes)
        findings.extend(_lint_findings(spec.sg, spec.labels, spec.name))

        valid = (
            spec.labels.consistent and spec.labels.csc and spec.labels.semimodular
        )
        if valid and oracle_runs > 0 and nshot_circuit is not None:
            nshot = next(o for o in result.outcomes if o.flow == "nshot")
            if nshot.status == "ok":
                summary, oracle_findings = _oracle_outcome(
                    nshot_circuit,
                    spec.sg,
                    runs=oracle_runs,
                    base_seed=seed,
                    timeout=flow_timeout,
                )
                nshot.oracle = summary
                findings.extend(oracle_findings)

        for kind, flow, detail in findings:
            result.disagreements.append(
                Disagreement(
                    kind=kind,
                    flow=flow,
                    seed=seed,
                    knobs=knobs,
                    detail=detail,
                    spec_text=spec_text,
                    labels=spec.labels.to_json(),
                    original_states=spec.labels.states,
                )
            )
        result.runtime = _time.perf_counter() - t0
        sp.set(
            outcomes={o.flow: o.status for o in result.outcomes},
            disagreements=len(result.disagreements),
        )
    return result


# ----------------------------------------------------------------------
# campaign orchestration
# ----------------------------------------------------------------------
@dataclass
class FuzzConfig:
    """Knobs of one differential fuzz campaign.

    ``budget`` samples are drawn round-robin over the knob combinations
    selected by ``csc`` / ``distributive`` / ``traversal`` (each
    ``both`` or one side); per-sample seeds derive deterministically
    from ``seed``, so a campaign is reproducible bit-for-bit.
    """

    seed: int = 0
    budget: int = 100
    signals: int = 8
    csc: str = "both"
    distributive: str = "both"
    traversal: str = "both"
    jobs: int = 1
    flow_timeout: float | None = 20.0
    oracle_runs: int = 2
    minimize: bool = True
    shrink_evals: int = 200

    def combinations(self) -> list[SpecKnobs]:
        return knob_combinations(
            self.signals,
            csc=self.csc,
            distributive=self.distributive,
            traversal=self.traversal,
        )


def run_fuzz(config: FuzzConfig) -> "FuzzReport":
    """Execute a campaign; returns the structured report.

    Executor-level failures (a worker OOM-killed mid-sample, a sample
    exceeding the outer deadline) are recorded as synthetic
    ``flow-crash`` / ``flow-timeout`` disagreements against the
    harness itself — by the campaign's own rule, nothing is allowed to
    be an uncontained crash.
    """
    from .report import FuzzReport
    from .shrink import shrink_disagreement

    tracer = get_tracer()
    combos = config.combinations()
    payloads = []
    for i in range(config.budget):
        knobs = combos[i % len(combos)]
        payloads.append(
            (
                derive_seed(config.seed, i),
                knobs,
                config.flow_timeout,
                config.oracle_runs,
                tracer.enabled,
            )
        )

    # outer deadline: the whole sample (every flow + oracle runs) —
    # generous so the per-flow SIGALRM guard inside the worker fires
    # first and the kill-based pool deadline is the backstop
    outer = None
    if config.flow_timeout:
        outer = config.flow_timeout * (len(FLOW_NAMES) + max(config.oracle_runs, 1) + 2)
    policy = ExecutorPolicy(
        jobs=config.jobs,
        task_timeout=outer if config.jobs > 1 else None,
    )

    report = FuzzReport(config=config)
    t0 = _time.perf_counter()
    with trace_span(
        "fuzz-campaign", seed=config.seed, budget=config.budget, jobs=config.jobs
    ) as sp:
        batch = run_tasks(run_fuzz_unit, payloads, policy)
        report.truncated = batch.truncated
        for tr in batch.results:
            if tr.ok:
                result, trace_export, metrics_export = tr.value
                tracer.adopt(trace_export, parent_id=sp.id)
                get_metrics().merge(metrics_export)
                report.samples.append(result)
                continue
            if tr.status == "cancelled":
                continue
            seed, knobs = payloads[tr.index][0], payloads[tr.index][1]
            kind = "flow-timeout" if tr.status == "timeout" else "flow-crash"
            synthetic = SpecResult(seed=seed, knobs=knobs)
            synthetic.disagreements.append(
                Disagreement(
                    kind=kind,
                    flow="harness",
                    seed=seed,
                    knobs=knobs,
                    detail=f"executor: {tr.status}: {tr.detail}",
                    spec_text="",
                )
            )
            report.samples.append(synthetic)

        for sample in report.samples:
            for d in sample.disagreements:
                report.add_disagreement(d)

        if config.minimize:
            for d in report.unique_disagreements():
                if d.kind == "flow-timeout" or not d.spec_text:
                    continue
                shrink_disagreement(d, max_evals=config.shrink_evals)
        sp.set(
            samples=len(report.samples),
            disagreements=len(report.disagreements),
            unique=len(report.unique_disagreements()),
        )
    report.runtime = _time.perf_counter() - t0
    metrics = get_metrics()
    metrics.counter("fuzz.samples").add(len(report.samples))
    metrics.counter("fuzz.disagreements").add(len(report.disagreements))
    return report
