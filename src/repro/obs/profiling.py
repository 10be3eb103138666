"""Stage-scoped hotspot profiler — the ``repro profile`` engine.

Answers the question the bench harness cannot: not *which phase* got
slow, but *which function inside it*.  The profiler runs inside the
span tracer's contexts, so every sample folds to
``pipeline-stage → function → callee`` and a flamegraph of the suite
reads in the pipeline's own vocabulary (``espresso``, ``oracle``,
``reachability`` …), not as one undifferentiated Python blob.

One stdlib-only engine, the sampler: a daemon thread snapshots the
workload thread's Python stack via ``sys._current_frames()`` on a fixed
interval and asks the tracer (:meth:`Tracer.stack_of`) which span is
open at that instant.  Weights are the measured inter-sample delta, so
the profile is wall-time-faithful and the overhead stays in the low
single digits (the <10% contract ``tests/test_obs_profiling.py``
enforces).  The workload is the bench's own per-circuit pass,
:func:`repro.obs.harness.run_circuit`, so hotspots attribute exactly
the pipeline the bench numbers measure.

Everything exports through one stable document, ``repro-profile/1``
(see docs/OBSERVABILITY.md): per-stage wall/self/sampled seconds and
top functions, a global function table, folded stacks (collapsed-stack
and speedscope renderings for flamegraphs), the metrics-registry work
counters normalized to rates (cube-ops/sec, sim-events/sec …), and the
environment fingerprint.  :func:`diff_profiles` compares two documents
(per-function self-time deltas, new and vanished frames, per-stage
deltas) so a regression arrives with attribution.

Self-time subtraction uses the *union* of child-span intervals, not
their sum — ``adopt_spans``-merged spans from the fuzz executor pool overlap each other and their waiting parent, and a sum
would double-count worker wall time in the folded totals
(:func:`stage_totals_from_spans`).
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import threading
import time

from .metrics import MetricsRegistry, get_metrics, set_metrics
from .readout import snapshot
from .trace import Span, Tracer, tracing

__all__ = [
    "PROFILE_SCHEMA",
    "UNATTRIBUTED",
    "RATE_METRICS",
    "ProfileSession",
    "StackSampler",
    "diff_profiles",
    "hotspot_summary",
    "profile_suite",
    "render_diff_text",
    "render_profile_text",
    "stage_totals_from_spans",
    "to_collapsed",
    "to_speedscope",
    "validate_profile",
]

PROFILE_SCHEMA = "repro-profile/1"

#: stage label for samples taken outside any open span
UNATTRIBUTED = "<unattributed>"

#: default sampling interval (seconds): 500 Hz keeps the quick suite
#: well inside the <10% overhead contract while resolving ~ms phases
DEFAULT_INTERVAL = 0.002

#: deepest Python stack a sample records
_MAX_STACK_DEPTH = 80

#: metrics-registry counter → work-normalized rate key in the document
RATE_METRICS = {
    "cover.cube_ops": "cube_ops_per_s",
    "sim.events": "sim_events_per_s",
    "sim.transitions": "sim_transitions_per_s",
    "espresso.iterations": "espresso_iterations_per_s",
    "delays.evaluated": "delays_evaluated_per_s",
    "reachability.states": "reachability_states_per_s",
}

#: folded stacks are trimmed to start at the bench's per-circuit runner
_BOUNDARY_FUNC = "run_circuit"


def _stage_label(span: Span) -> str:
    """Fold label of a span: the pipeline stage name when it is a
    ``pipeline.stage`` span, else the span's own name."""
    if span.name == "pipeline.stage":
        return str(span.attrs.get("stage", span.name))
    return span.name


def _frame_label(code) -> str:
    """``file.py:function`` label of a code object."""
    base = os.path.basename(code.co_filename)
    if base == "__init__.py":
        parent = os.path.basename(os.path.dirname(code.co_filename))
        base = f"{parent}/__init__.py"
    return f"{base}:{code.co_name}"


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    lo, hi = intervals[0]
    for a, b in intervals[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    return total + (hi - lo)


def stage_totals_from_spans(spans: list[Span]) -> dict[str, dict]:
    """Aggregate completed spans into ``{stage: wall/self/calls}``.

    A ``pipeline.stage`` span folds onto its stage name unless a direct
    child already carries that name, so each label counts its work once.

    ``self_s`` is the span's duration minus the *union* of its direct
    children's intervals clipped to the span — not their sum.  Adopted
    cross-process spans (fuzz pool workers) run concurrently
    with each other and with the waiting parent, so a sum would count
    worker wall time against both the worker span and the parent,
    driving the parent's self-time negative and inflating folded
    totals.  With the union, concurrent children can never subtract
    more than the parent's own elapsed time.
    """
    done = [s for s in spans if s.end is not None]
    by_id = {s.span_id: s for s in done}
    children: dict[int, list[Span]] = {}
    for s in done:
        if s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
    out: dict[str, dict] = {}
    for s in done:
        label = _stage_label(s)
        if label != s.name and any(
            c.name == label for c in children.get(s.span_id, ())
        ):
            # the stage's own code opened spans of that name
            # (sop-derivation, verify, certify): they are the work, the
            # wrapper is pipeline bookkeeping around it
            label = s.name
        agg = out.setdefault(
            label, {"wall_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        agg["calls"] += 1
        agg["wall_s"] += s.duration
        covered = _union_length(
            [
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.span_id, ())
                if c.end > s.start and c.start < s.end
            ]
        )
        agg["self_s"] += max(0.0, s.duration - covered)
    return out


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class StackSampler:
    """Wall-clock sampling profiler for one workload thread.

    A daemon thread wakes every ``interval`` seconds, reads the target
    thread's Python stack from ``sys._current_frames()``, asks the
    tracer which span is open on that thread, and accumulates the
    measured inter-sample delta under ``(stage, frames)``.
    Weighting by the *measured* delta (not the nominal interval) keeps
    the profile wall-time-faithful even when the sampler oversleeps.
    """

    def __init__(
        self,
        tracer: Tracer,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.tracer = tracer
        self.interval = max(1e-4, float(interval))
        #: the sampled thread: the one that calls :meth:`start`
        self.target_tid: int | None = None
        #: ``{(stage, frames-tuple): seconds}``
        self.weights: dict[tuple, float] = {}
        self.sampled_s = 0.0
        self.count = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self.target_tid = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profile-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            if self._stop.is_set():
                # stop raced the timeout: the workload thread is already
                # past the measured region (blocked in join), so one
                # more sample would charge scaffolding to the profile
                break
            now = time.perf_counter()
            dt = now - last
            last = now
            frame = sys._current_frames().get(self.target_tid)
            if frame is None:
                continue
            frames: list[str] = []
            depth = 0
            while frame is not None and depth < _MAX_STACK_DEPTH:
                frames.append(_frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            frames.reverse()
            # trim runner/pytest scaffolding above the workload boundary
            for i in range(len(frames) - 1, -1, -1):
                if frames[i].endswith(f":{_BOUNDARY_FUNC}"):
                    frames = frames[i:]
                    break
            stack = self.tracer.stack_of(self.target_tid)
            stage = _stage_label(stack[-1]) if stack else UNATTRIBUTED
            key = (stage, tuple(frames))
            self.weights[key] = self.weights.get(key, 0.0) + dt
            self.sampled_s += dt
            self.count += 1


# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
class ProfileSession:
    """Profile one block of pipeline work with stage attribution.

    Installs a fresh tracer + metrics registry globally (restored on
    exit), arms the sampler, and afterwards renders everything into one
    ``repro-profile/1`` document::

        with ProfileSession() as sess:
            run_circuit("chu150")
        doc = sess.document(circuits=["chu150"])
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.interval = interval
        self.tracer = Tracer()
        self.wall_s: float | None = None
        self.metrics_snapshot: dict = {"counters": {}, "gauges": {}}

    def __enter__(self) -> "ProfileSession":
        self._prev_metrics = get_metrics()
        self.metrics = set_metrics(MetricsRegistry())
        self._ctx = tracing(self.tracer)
        self._ctx.__enter__()
        # a CPU-bound workload thread only yields the GIL every switch
        # interval (5ms default), which would starve the sampler below
        # its nominal rate; halve it under the requested interval for
        # the session
        self._prev_switch = sys.getswitchinterval()
        sys.setswitchinterval(min(self._prev_switch, self.interval / 2))
        self._sampler = StackSampler(self.tracer, interval=self.interval)
        self._sampler.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        sys.setswitchinterval(self._prev_switch)
        self._sampler.stop()
        self.metrics_snapshot = snapshot(self.metrics)
        set_metrics(self._prev_metrics)
        self._ctx.__exit__(None, None, None)
        return False

    # ------------------------------------------------------------------
    def document(
        self,
        circuits: list[str] | None = None,
        quick: bool = False,
        runs: int = 1,
        top: int = 25,
    ) -> dict:
        """Render the finished session as a ``repro-profile/1`` doc."""
        if self.wall_s is None:
            raise RuntimeError("ProfileSession still open: exit it first")
        from .harness import environment_fingerprint

        weights = self._sampler.weights
        span_totals = stage_totals_from_spans(self.tracer.spans())
        stage_sampled: dict[str, float] = {}
        stage_funcs: dict[tuple[str, str], float] = {}
        func_total: dict[str, float] = {}
        func_stage: dict[str, dict[str, float]] = {}
        folded: dict[str, float] = {}
        total_w = 0.0
        attributed_w = 0.0
        for (stage, frames), w in weights.items():
            total_w += w
            if stage != UNATTRIBUTED:
                attributed_w += w
            stage_sampled[stage] = stage_sampled.get(stage, 0.0) + w
            leaf = frames[-1] if frames else "<unknown>"
            stage_funcs[(stage, leaf)] = stage_funcs.get((stage, leaf), 0.0) + w
            func_total[leaf] = func_total.get(leaf, 0.0) + w
            fs = func_stage.setdefault(leaf, {})
            fs[stage] = fs.get(stage, 0.0) + w
            fold_key = ";".join((stage,) + frames) if frames else stage
            folded[fold_key] = folded.get(fold_key, 0.0) + w

        def _func_rows(stage: str, limit: int) -> list[dict]:
            rows = sorted(
                (
                    (f, w)
                    for (s, f), w in stage_funcs.items()
                    if s == stage
                ),
                key=lambda kv: (-kv[1], kv[0]),
            )
            denom = stage_sampled.get(stage, 0.0) or 1e-12
            return [
                {
                    "func": f,
                    "self_s": round(w, 6),
                    "pct": round(100.0 * w / denom, 2),
                }
                for f, w in rows[:limit]
            ]

        stages_doc = {}
        order = sorted(
            set(span_totals) | set(stage_sampled),
            key=lambda s: (-stage_sampled.get(s, 0.0), s),
        )
        for stage in order:
            st = span_totals.get(stage, {"wall_s": 0.0, "self_s": 0.0, "calls": 0})
            stages_doc[stage] = {
                "wall_s": round(st["wall_s"], 6),
                "self_s": round(st["self_s"], 6),
                "calls": st["calls"],
                "sampled_s": round(stage_sampled.get(stage, 0.0), 6),
                "functions": _func_rows(stage, top),
            }
        global_funcs = [
            {
                "func": f,
                "self_s": round(w, 6),
                "pct": round(100.0 * w / (total_w or 1e-12), 2),
                "stage": max(func_stage[f].items(), key=lambda kv: kv[1])[0],
            }
            for f, w in sorted(
                func_total.items(), key=lambda kv: (-kv[1], kv[0])
            )[:top]
        ]
        flat = dict(self.metrics_snapshot.get("counters", {}))
        flat.update(self.metrics_snapshot.get("gauges", {}))
        rates = {
            key: round(flat[inst] / self.wall_s, 1)
            for inst, key in RATE_METRICS.items()
            if inst in flat and self.wall_s > 0
        }
        return {
            "schema": PROFILE_SCHEMA,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            ),
            "engine": "sampler",
            "interval_s": self.interval,
            "wall_s": round(self.wall_s, 6),
            "sampled_s": round(total_w, 6),
            "samples": self._sampler.count,
            "attributed_s": round(attributed_w, 6),
            "attributed_pct": round(100.0 * attributed_w / total_w, 2)
            if total_w
            else 0.0,
            "quick": bool(quick),
            "runs": runs,
            "circuits": list(circuits or []),
            "env": environment_fingerprint(),
            "stages": stages_doc,
            "functions": global_funcs,
            "folded": {
                k: round(w, 6)
                for k, w in sorted(folded.items())
                if round(w, 6) > 0
            },
            "metrics": {k: flat[k] for k in sorted(flat)},
            "rates": rates,
        }


# ----------------------------------------------------------------------
# suite drivers
# ----------------------------------------------------------------------
def profile_suite(
    circuits: list[str] | None = None,
    quick: bool = False,
    runs: int = 1,
    verify_runs: int | None = None,
    interval: float = DEFAULT_INTERVAL,
    top: int = 25,
    progress=None,
) -> dict:
    """Profile the benchmark suite and return the profile document.

    ``circuits`` defaults to the whole paper suite, or the quick subset
    with ``quick``.  Each pass is the bench's own
    :func:`~repro.obs.harness.run_circuit` (synthesize + Monte-Carlo
    verify through the pipeline), so hotspots attribute the same
    pipeline the bench numbers measure.
    """
    from ..bench.circuits import TABLE2_CIRCUITS
    from .harness import quick_circuits, run_circuit, warm_up

    if circuits is None:
        circuits = quick_circuits() if quick else list(TABLE2_CIRCUITS)
    if verify_runs is None:
        verify_runs = 1 if quick else 3
    # outside the session: first-use module import would otherwise
    # land as unattributed sample weight
    if circuits:
        warm_up(circuits[0])
    with ProfileSession(interval=interval) as sess:
        for name in circuits:
            for k in range(max(1, runs)):
                run_circuit(name, run=k, verify_runs=verify_runs)
            if progress is not None:
                progress(name)
    return sess.document(circuits=list(circuits), quick=quick, runs=runs, top=top)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def _func_selfs(doc: dict) -> dict[str, float]:
    """Full-resolution per-function self seconds from the folded stacks."""
    out: dict[str, float] = {}
    for stack, w in doc.get("folded", {}).items():
        leaf = stack.rsplit(";", 1)[-1]
        out[leaf] = out.get(leaf, 0.0) + w
    return {f: round(w, 6) for f, w in out.items()}


#: seconds below which a profile difference counts as no movement
_DIFF_EPS = 1e-6


def diff_profiles(a: dict, b: dict, top: int = 40) -> dict:
    """Differential profile ``b − a``.

    Per-function self-time deltas (from the untruncated folded stacks),
    functions new in ``b`` / vanished since ``a``, and per-stage wall
    deltas.  ``empty`` is True when nothing moved beyond
    :data:`_DIFF_EPS` —
    diffing a document against itself is exactly empty, which the
    round-trip test relies on.
    """
    fa, fb = _func_selfs(a), _func_selfs(b)
    rows = []
    for func in sorted(set(fa) | set(fb)):
        a_s, b_s = fa.get(func, 0.0), fb.get(func, 0.0)
        delta = round(b_s - a_s, 6)
        if abs(delta) <= _DIFF_EPS and func in fa and func in fb:
            continue
        rows.append(
            {
                "func": func,
                "a_s": a_s,
                "b_s": b_s,
                "delta_s": delta,
                "ratio": round(b_s / a_s, 3) if a_s > _DIFF_EPS else None,
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_s"]), r["func"]))
    new = sorted(f for f in fb if f not in fa and fb[f] > _DIFF_EPS)
    vanished = sorted(f for f in fa if f not in fb and fa[f] > _DIFF_EPS)
    stage_rows = []
    sa = {s: blk.get("sampled_s", 0.0) for s, blk in a.get("stages", {}).items()}
    sb = {s: blk.get("sampled_s", 0.0) for s, blk in b.get("stages", {}).items()}
    for stage in sorted(set(sa) | set(sb)):
        delta = round(sb.get(stage, 0.0) - sa.get(stage, 0.0), 6)
        if abs(delta) > _DIFF_EPS:
            stage_rows.append(
                {
                    "stage": stage,
                    "a_s": sa.get(stage, 0.0),
                    "b_s": sb.get(stage, 0.0),
                    "delta_s": delta,
                }
            )
    stage_rows.sort(key=lambda r: (-abs(r["delta_s"]), r["stage"]))

    def _head(doc: dict) -> dict:
        return {
            "created_utc": doc.get("created_utc"),
            "git_sha": (doc.get("env") or {}).get("git_sha"),
            "engine": doc.get("engine"),
            "wall_s": doc.get("wall_s"),
        }

    moved = [r for r in rows if abs(r["delta_s"]) > _DIFF_EPS]
    return {
        "a": _head(a),
        "b": _head(b),
        "wall_delta_s": round(
            float(b.get("wall_s") or 0.0) - float(a.get("wall_s") or 0.0), 6
        ),
        "functions": moved[:top],
        "new": new,
        "vanished": vanished,
        "stages": stage_rows,
        "empty": not moved and not new and not vanished and not stage_rows,
    }


def hotspot_summary(
    doc: dict, stages: set[str] | list[str] | None = None, top: int = 3
) -> dict[str, list[dict]]:
    """Top-``top`` functions per stage of a profile document.

    ``stages`` restricts to those stage names (None = all).  Used by
    the regress gate (convicted phases only).
    """
    out: dict[str, list[dict]] = {}
    for stage, block in doc.get("stages", {}).items():
        if stages is not None and stage not in stages:
            continue
        funcs = (block.get("functions") or [])[:top]
        if funcs:
            out[stage] = [dict(f) for f in funcs]
    return out


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def to_collapsed(doc: dict) -> str:
    """Collapsed-stack text (Brendan Gregg folded format, µs weights):
    one ``stage;frame;frame… <weight>`` line per unique stack — feed
    straight into ``flamegraph.pl`` or speedscope."""
    lines = [
        f"{stack} {max(1, int(round(w * 1e6)))}"
        for stack, w in sorted(doc.get("folded", {}).items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(doc: dict) -> dict:
    """Speedscope ``sampled`` profile of the folded stacks (open at
    https://www.speedscope.app or with a local copy)."""
    frame_index: dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[float] = []
    for stack, w in sorted(doc.get("folded", {}).items()):
        idx = []
        for part in stack.split(";"):
            if part not in frame_index:
                frame_index[part] = len(frames)
                frames.append({"name": part})
            idx.append(frame_index[part])
        samples.append(idx)
        weights.append(w)
    total = round(sum(weights), 6)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": f"repro profile ({doc.get('engine', '?')})",
        "exporter": PROFILE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": "repro pipeline",
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def render_profile_text(doc: dict, top: int = 15) -> str:
    """Human summary: stage table + global top functions + rates."""
    head = (
        f"engine={doc.get('engine')} wall={doc.get('wall_s', 0):.3f}s "
        f"sampled={doc.get('sampled_s', 0):.3f}s "
        f"attributed={doc.get('attributed_pct', 0):.1f}% "
        f"({doc.get('samples', 0)} samples)"
    )
    lines = [head, ""]
    stages = doc.get("stages", {})
    if stages:
        lines.append(
            f"{'stage':<22} {'wall_ms':>9} {'self_ms':>9} "
            f"{'sampled_ms':>11} {'calls':>6}"
        )
        for stage, blk in stages.items():
            lines.append(
                f"{stage:<22} {blk.get('wall_s', 0) * 1e3:9.1f} "
                f"{blk.get('self_s', 0) * 1e3:9.1f} "
                f"{blk.get('sampled_s', 0) * 1e3:11.1f} "
                f"{blk.get('calls', 0):6d}"
            )
        lines.append("")
    funcs = doc.get("functions", [])[:top]
    if funcs:
        lines.append(f"top {len(funcs)} functions by self time:")
        lines.append(f"  {'self_ms':>9} {'%':>6}  {'stage':<18} function")
        for f in funcs:
            lines.append(
                f"  {f['self_s'] * 1e3:9.1f} {f['pct']:6.2f}  "
                f"{f.get('stage', ''):<18} {f['func']}"
            )
        lines.append("")
    rates = doc.get("rates", {})
    if rates:
        lines.append(
            "rates: " + "  ".join(f"{k}={v:,.0f}" for k, v in sorted(rates.items()))
        )
    return "\n".join(lines).rstrip() + "\n"


def render_diff_text(diff: dict, top: int = 15) -> str:
    """Human summary of a differential profile."""
    a, b = diff.get("a", {}), diff.get("b", {})
    lines = [
        "profile diff: {} @ {}  ->  {} @ {}".format(
            a.get("created_utc", "?"),
            (a.get("git_sha") or "nosha")[:7],
            b.get("created_utc", "?"),
            (b.get("git_sha") or "nosha")[:7],
        ),
        f"wall delta: {diff.get('wall_delta_s', 0):+.3f}s",
    ]
    if diff.get("empty"):
        lines.append("no per-function movement (profiles identical)")
        return "\n".join(lines) + "\n"
    rows = diff.get("functions", [])[:top]
    if rows:
        lines += ["", f"  {'delta_ms':>9} {'a_ms':>9} {'b_ms':>9}  function"]
        for r in rows:
            lines.append(
                f"  {r['delta_s'] * 1e3:+9.1f} {r['a_s'] * 1e3:9.1f} "
                f"{r['b_s'] * 1e3:9.1f}  {r['func']}"
            )
    if diff.get("new"):
        lines.append("new frames: " + ", ".join(diff["new"][:10]))
    if diff.get("vanished"):
        lines.append("vanished frames: " + ", ".join(diff["vanished"][:10]))
    stages = diff.get("stages", [])[:top]
    if stages:
        lines += ["", "per-stage sampled deltas:"]
        for r in stages:
            lines.append(
                f"  {r['stage']:<22} {r['delta_s'] * 1e3:+9.1f} ms "
                f"({r['a_s'] * 1e3:.1f} -> {r['b_s'] * 1e3:.1f})"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_profile(doc) -> list[str]:
    """Validate a ``repro-profile/1`` document; returns problems ([] = ok)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema: expected {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    for key in ("wall_s", "sampled_s", "attributed_s"):
        v = doc.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            problems.append(f"{key}: missing or negative")
    pct = doc.get("attributed_pct")
    if not isinstance(pct, (int, float)) or not 0 <= pct <= 100:
        problems.append("attributed_pct: not a percentage")
    stages = doc.get("stages")
    if not isinstance(stages, dict):
        problems.append("stages: missing or not an object")
    else:
        for stage, blk in stages.items():
            if not isinstance(blk, dict):
                problems.append(f"stages[{stage}]: not an object")
                continue
            for key in ("wall_s", "self_s", "sampled_s"):
                v = blk.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(f"stages[{stage}].{key}: missing or negative")
            if not isinstance(blk.get("functions"), list):
                problems.append(f"stages[{stage}].functions: not a list")
    if not isinstance(doc.get("folded"), dict):
        problems.append("folded: missing or not an object")
    if not isinstance(doc.get("env"), dict):
        problems.append("env: missing or not an object")
    return problems


def load_profile_document(path_or_name: str, history_dir: str | None = None) -> dict:
    """Load a profile document from a file path or a history entry.

    Accepts a plain ``repro-profile/1`` JSON file, a
    ``repro-run-history/1`` envelope file, or (with ``history_dir``)
    the bare filename of an entry in the run-history index.
    """
    candidates = [path_or_name]
    if history_dir:
        candidates.append(os.path.join(history_dir, path_or_name))
    for path in candidates:
        if not os.path.exists(path):
            continue
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") == "repro-run-history/1":
            doc = doc.get("doc", {})
        problems = validate_profile(doc)
        if problems:
            raise ValueError(f"{path}: not a valid profile: {problems[0]}")
        return doc
    raise FileNotFoundError(path_or_name)
