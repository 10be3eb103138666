"""Machine-readable benchmark harness — the ``repro bench`` engine.

Runs the paper benchmark suite end-to-end per circuit — STG
elaboration (reachability), region extraction, minimization, netlist
build, delay evaluation, and closed-loop Monte-Carlo verification —
under a fresh tracer + metrics registry per measured run, then writes
``BENCH_<UTC-date>.json`` with per-phase wall-time medians/p90s and
the pipeline work metrics (simulator events processed, MHS pulses
filtered, ESPRESSO iterations, cover cube/literal counts, reachability
states explored) plus an environment fingerprint.

The emitted document validates against the ``repro-bench/1`` schema
(see :func:`validate_bench` and docs/OBSERVABILITY.md); it is the perf
trajectory every optimisation PR diffs against.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
import time

from .metrics import MetricsRegistry, get_metrics, percentile, set_metrics
from .trace import Tracer, trace_span, tracing

__all__ = [
    "BENCH_SCHEMA",
    "WORK_METRICS",
    "bench_circuit",
    "default_bench_path",
    "environment_fingerprint",
    "quick_circuits",
    "run_bench",
    "run_circuit",
    "validate_bench",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/1"

#: registry instrument name → bench-document metric key
WORK_METRICS = {
    "sim.events": "sim_events",
    "sim.transitions": "sim_transitions",
    "sim.runs": "sim_runs",
    "mhs.pulses_filtered": "mhs_pulses_filtered",
    "espresso.iterations": "espresso_iterations",
    "cover.cube_ops": "cube_ops",
    "minimize.cubes": "cover_cubes",
    "minimize.literals": "cover_literals",
    "reachability.states": "reachability_states",
    "regions.computed": "regions_computed",
    "delays.evaluated": "delays_evaluated",
}

#: observable transitions per Monte-Carlo run of a bench pass
_VERIFY_TRANSITIONS = 40

#: small, fast circuits for ``--quick`` (CI smoke)
_QUICK = ("chu150", "chu172", "converta", "pmcm2")


def quick_circuits() -> list[str]:
    return list(_QUICK)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except Exception:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_fingerprint() -> dict:
    """Where this benchmark ran: enough to explain a perf delta."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(),
        "argv": sys.argv[:4],
    }


def _utc_now() -> datetime.datetime:
    return datetime.datetime.now(datetime.timezone.utc)


def default_bench_path() -> str:
    """``BENCH_<UTC-date>.json`` in the working directory."""
    stamp = _utc_now().strftime("%Y-%m-%d")
    return os.path.join(".", f"BENCH_{stamp}.json")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def run_circuit(
    name: str,
    run: int = 0,
    verify_runs: int = 3,
    store=None,
    static_first: bool = False,
):
    """One synthesize+verify pass of a suite circuit under the current
    tracer, inside a ``bench-run`` span.

    This is the one suite runner: the bench times it and the profiler
    samples it (its frame is where folded stacks start).  Returns the
    :class:`~repro.pipeline.PipelineRun` and its verification summary.
    """
    from ..bench.runner import sg_of
    from ..pipeline import PipelineRun

    with trace_span("bench-run", circuit=name, run=run):
        prun = PipelineRun.from_sg(sg_of(name), name=name, store=store)
        prun.synthesize()
        summary = prun.verify(
            runs=verify_runs,
            max_transitions=_VERIFY_TRANSITIONS,
            static_first=static_first,
        )
    return prun, summary


def warm_up(name: str, static_first: bool = False) -> None:
    """One untimed, storeless :func:`run_circuit` pass of ``name``.

    The engines load on first use (docs/ARCHITECTURE.md, "Package
    surface"), so measuring without this would time their imports in
    the first circuit's first run.  Spans and metrics of the pass go
    to throwaway sinks.
    """
    prev_metrics = get_metrics()
    set_metrics(MetricsRegistry())
    try:
        with tracing(Tracer()):
            run_circuit(name, verify_runs=1, static_first=static_first)
    finally:
        set_metrics(prev_metrics)


def bench_circuit(
    name: str,
    runs: int = 3,
    verify_runs: int = 3,
    telemetry: bool = False,
    store=None,
    static_first: bool = False,
) -> dict:
    """Measure one circuit ``runs`` times end to end.

    Each measured run gets a fresh enabled tracer and a fresh metrics
    registry, so per-run numbers never bleed into each other.  Returns
    the per-circuit bench entry.

    With ``telemetry`` the entry also carries ``telemetry`` and
    ``coverage`` blocks — ω-margins, Equation (1) delay slack,
    per-region glitch counts, plus the SG state/region/trigger-cube
    coverage the verification sweep achieved — collected on one extra
    *untimed* verification sweep so the probes' watcher overhead never
    contaminates the wall-clock numbers.

    The synthesize+verify chain is pulled through the pipeline DAG.
    With ``store`` (a :class:`~repro.pipeline.store.ArtifactStore`) its
    artifacts are content-addressed and the entry gains a ``cache``
    block with its hit/miss counts, so warm and cold documents are
    distinguishable.

    With ``static_first`` the verification phase runs the symbolic
    hazard certifier first and skips the Monte-Carlo sweep on a
    fully-proved certificate; the entry gains a ``static`` block
    recording whether the skip happened (the ``oracle`` phase then
    disappears from ``phases`` — the measurable win).
    """
    phase_runs: dict[str, list[float]] = {}
    phase_calls: dict[str, int] = {}
    totals: list[float] = []
    metrics_doc: dict[str, int] = {}
    cache_hits = 0
    cache_misses = 0
    states = 0
    prev_metrics = get_metrics()
    for k in range(runs):
        tracer = Tracer()
        registry = set_metrics(MetricsRegistry())
        t0 = time.perf_counter()
        try:
            with tracing(tracer):
                prun, summary = run_circuit(
                    name,
                    run=k,
                    verify_runs=verify_runs,
                    store=store,
                    static_first=static_first,
                )
        finally:
            set_metrics(prev_metrics)
        totals.append(time.perf_counter() - t0)
        if store is not None:
            rep = prun.report()
            cache_hits += rep["hits"]
            cache_misses += rep["misses"]
        states = prun.sg().num_states
        for phase, agg in tracer.phase_totals().items():
            phase_runs.setdefault(phase, []).append(agg["total_s"])
            phase_calls[phase] = agg["calls"]
        snap = registry.snapshot()
        flat = dict(snap["counters"])
        flat.update(snap["gauges"])
        for inst, key in WORK_METRICS.items():
            metrics_doc[key] = int(flat.get(inst, metrics_doc.get(key, 0)))
    phases = {
        phase: {
            "median_s": round(percentile(samples, 0.5), 6),
            "p90_s": round(percentile(samples, 0.9), 6),
            "calls": phase_calls[phase],
        }
        for phase, samples in sorted(phase_runs.items())
    }
    entry = {
        "name": name,
        "states": states,
        "runs": runs,
        "phases": phases,
        "metrics": metrics_doc,
        "total": {
            "median_s": round(percentile(totals, 0.5), 6),
            "p90_s": round(percentile(totals, 0.9), 6),
        },
    }
    if store is not None:
        entry["cache"] = {"hits": cache_hits, "misses": cache_misses}
    if static_first:
        cert = summary.certificate or {}
        entry["static"] = {
            "mc_skipped": bool(summary.static_skip),
            "fully_proved": bool(cert.get("fully_proved", summary.static_skip)),
            "counts": dict(cert.get("counts", {})),
        }
    if telemetry:
        from ..core import verify_hazard_freeness as _verify
        from .coverage import CoverageMap
        from .telemetry import HazardTelemetry

        circuit = prun.synthesize()  # memoized by the last run
        tele = HazardTelemetry.for_circuit(circuit)
        cov = CoverageMap.for_circuit(circuit)
        # keep probe runs out of caller metrics
        set_metrics(MetricsRegistry())
        try:
            _verify(
                circuit,
                runs=verify_runs,
                max_transitions=_VERIFY_TRANSITIONS,
                telemetry=tele,
                coverage=cov,
            )
        finally:
            set_metrics(prev_metrics)
        entry["telemetry"] = tele.totals()
        entry["coverage"] = cov.totals()
    return entry


def run_bench(
    circuits: list[str] | None = None,
    quick: bool = False,
    runs: int | None = None,
    verify_runs: int | None = None,
    telemetry: bool = True,
    progress=None,
    store=None,
    static_first: bool = False,
) -> dict:
    """Run the harness over ``circuits`` and return the bench document.

    ``circuits`` defaults to the whole paper suite (Table 2 names), or
    the small quick subset when ``quick`` is set.  ``progress`` is an
    optional ``fn(name, entry)`` callback invoked after each circuit.
    ``telemetry`` (default on) adds a hazard-telemetry block per
    circuit, measured on an extra untimed verification sweep.
    ``store`` routes each circuit through the content-addressed
    pipeline cache and adds per-entry + document-level ``cache``
    hit/miss summaries.  ``static_first`` verifies through the
    symbolic certifier, skipping Monte-Carlo on fully-proved
    certificates, and adds ``static`` blocks recording the skips.
    """
    from ..bench.circuits import TABLE2_CIRCUITS

    if circuits is None:
        circuits = quick_circuits() if quick else list(TABLE2_CIRCUITS)
    if runs is None:
        runs = 1 if quick else 3
    if verify_runs is None:
        verify_runs = 1 if quick else 3
    if circuits:
        warm_up(circuits[0], static_first=static_first)
    t0 = time.perf_counter()
    entries = []
    for name in circuits:
        entry = bench_circuit(
            name,
            runs=runs,
            verify_runs=verify_runs,
            telemetry=telemetry,
            store=store,
            static_first=static_first,
        )
        entries.append(entry)
        if progress is not None:
            progress(name, entry)
    doc = {
        "schema": BENCH_SCHEMA,
        "created_utc": _utc_now().strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": bool(quick),
        "runs_per_circuit": runs,
        "verify_runs": verify_runs,
        "env": environment_fingerprint(),
        "circuits": entries,
        "totals": {
            "wall_s": round(time.perf_counter() - t0, 6),
            "circuits": len(entries),
        },
    }
    if static_first:
        skipped = sum(
            1 for e in entries if e.get("static", {}).get("mc_skipped")
        )
        doc["static_first"] = {
            "circuits": len(entries),
            "mc_skipped": skipped,
        }
    if store is not None:
        hits = sum(e["cache"]["hits"] for e in entries)
        misses = sum(e["cache"]["misses"] for e in entries)
        doc["cache"] = {
            "dir": store.root,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses
            else 0.0,
        }
    return doc


def write_bench(doc: dict, path: str | None = None) -> str:
    """Write the bench document (default ``BENCH_<UTC-date>.json``).

    An *explicit* ``path`` keeps plain overwrite semantics — the caller
    named the file, the caller owns it.  When the path is derived (no
    ``path`` given), the write is
    **collision-aware**: a same-day document is never silently
    overwritten; the writer steps to a deterministic ``-2``, ``-3``, …
    suffix instead, so two benches on one UTC day both survive.
    """
    if path is not None:
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        return path
    base = default_bench_path()
    stem, ext = os.path.splitext(base)
    for n in range(1, 1000):
        candidate = base if n == 1 else f"{stem}-{n}{ext}"
        try:
            f = open(candidate, "x")
        except FileExistsError:
            continue
        with f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        return candidate
    raise RuntimeError(  # pragma: no cover - 1000 same-day documents
        f"cannot reserve a bench filename near {base}"
    )


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def _check_timing(problems: list[str], where: str, timing) -> None:
    if not isinstance(timing, dict):
        problems.append(f"{where}: not an object")
        return
    for key in ("median_s", "p90_s"):
        v = timing.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            problems.append(f"{where}.{key}: missing or negative")


def validate_bench(doc) -> list[str]:
    """Validate a ``repro-bench/1`` document; returns problems ([] = ok)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema: expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    env = doc.get("env")
    if not isinstance(env, dict):
        problems.append("env: missing or not an object")
    else:
        for key in ("python", "platform", "cpu_count"):
            if key not in env:
                problems.append(f"env.{key}: missing")
    circuits = doc.get("circuits")
    if not isinstance(circuits, list) or not circuits:
        problems.append("circuits: missing or empty")
        return problems
    for i, entry in enumerate(circuits):
        where = f"circuits[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if not entry.get("name"):
            problems.append(f"{where}.name: missing")
        phases = entry.get("phases")
        if not isinstance(phases, dict) or not phases:
            problems.append(f"{where}.phases: missing or empty")
        else:
            for phase, timing in phases.items():
                _check_timing(problems, f"{where}.phases[{phase}]", timing)
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{where}.metrics: missing or not an object")
        else:
            for key, v in metrics.items():
                if not isinstance(v, int) or v < 0:
                    problems.append(f"{where}.metrics.{key}: not a non-negative int")
        _check_timing(problems, f"{where}.total", entry.get("total"))
        # telemetry is optional (older documents predate it) but must be
        # an object with sane counters when present
        tele = entry.get("telemetry")
        if tele is not None:
            if not isinstance(tele, dict):
                problems.append(f"{where}.telemetry: not an object")
            else:
                for key in ("pulses", "filtered", "mhs_filtered"):
                    v = tele.get(key)
                    if not isinstance(v, int) or v < 0:
                        problems.append(
                            f"{where}.telemetry.{key}: not a non-negative int"
                        )
        # coverage is optional (older documents predate it) but its
        # percentages must be sane when present
        cov = entry.get("coverage")
        if cov is not None:
            if not isinstance(cov, dict):
                problems.append(f"{where}.coverage: not an object")
            else:
                for key in ("states_pct", "regions_pct", "cubes_pct"):
                    v = cov.get(key)
                    if not isinstance(v, (int, float)) or not 0 <= v <= 100:
                        problems.append(
                            f"{where}.coverage.{key}: not a percentage"
                        )
        # cache is optional (only cached runs carry it) but its
        # counters must be sane when present, so `repro regress` can
        # tell warm documents from cold ones
        cache = entry.get("cache")
        if cache is not None:
            if not isinstance(cache, dict):
                problems.append(f"{where}.cache: not an object")
            else:
                for key in ("hits", "misses"):
                    v = cache.get(key)
                    if not isinstance(v, int) or v < 0:
                        problems.append(
                            f"{where}.cache.{key}: not a non-negative int"
                        )
        # static is optional (only --static-first runs carry it) but it
        # must say whether the Monte-Carlo sweep was actually skipped
        static = entry.get("static")
        if static is not None:
            if not isinstance(static, dict):
                problems.append(f"{where}.static: not an object")
            elif not isinstance(static.get("mc_skipped"), bool):
                problems.append(f"{where}.static.mc_skipped: not a bool")
    return problems
