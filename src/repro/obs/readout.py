"""Reports over a tracer and a metrics registry.

The tracer (:mod:`repro.obs.trace`) and the registry
(:mod:`repro.obs.metrics`) only record; what reads a finished run lives
here, off the synthesis path, and uses only their public methods: the
span tree and ``repro-trace/1`` document of ``--profile``/
``--profile-out``, the bench harness's per-phase totals and registry
snapshots, and the exports a fuzz pool worker ships home.
"""

from __future__ import annotations

import math

from .metrics import Histogram, MetricsRegistry
from .trace import TRACE_SCHEMA, Span, Tracer

__all__ = [
    "adopt_spans",
    "export_metrics",
    "export_spans",
    "histogram_summary",
    "mad",
    "median",
    "merge_metrics",
    "percentile",
    "phase_totals",
    "render_tree",
    "snapshot",
    "trace_document",
]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest-rank.

    Nearest-rank keeps the result an actually-observed sample, which
    is what a benchmark trajectory wants (no interpolation artefacts).
    """
    if not values:
        raise ValueError("percentile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Plain median: the mean of the two middle samples on an even
    count (unlike the nearest-rank :func:`percentile` at 0.5)."""
    if not values:
        raise ValueError("median of an empty series")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: list[float]) -> float:
    """Median absolute deviation — the noise floor's spread statistic.

    Robust where stddev is not: a single GC pause or scheduler stall
    in the series barely moves the MAD, so thresholds ratcheted from
    it do not inherit one bad run's jitter.
    """
    m = median(values)
    return median([abs(v - m) for v in values])


def histogram_summary(hist: Histogram) -> dict:
    """count/min/max/mean and nearest-rank p50/p90/p99 of a histogram."""
    vals = hist.values()
    if not vals:
        return {"count": 0}
    return {
        "count": len(vals),
        "min": min(vals),
        "max": max(vals),
        "mean": sum(vals) / len(vals),
        "p50": percentile(vals, 0.50),
        "p90": percentile(vals, 0.90),
        "p99": percentile(vals, 0.99),
    }


def snapshot(registry: MetricsRegistry) -> dict:
    """Plain-dict view of a registry: counters/gauges as values,
    histograms as percentile summaries."""
    counters, gauges, histograms = registry.instruments()
    return {
        "counters": {k: c.value for k, c in sorted(counters.items())},
        "gauges": {k: g.value for k, g in sorted(gauges.items())},
        "histograms": {
            k: histogram_summary(h) for k, h in sorted(histograms.items())
        },
    }


def phase_totals(tracer: Tracer) -> dict[str, dict]:
    """Aggregate a tracer's completed spans by name.

    Returns ``{name: {"calls": n, "total_s": seconds}}``.  Nested
    spans each contribute to their own name — a parent's total
    *includes* its children's time (it is wall time of that phase,
    not self time).
    """
    out: dict[str, dict] = {}
    for sp in tracer.spans():
        agg = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += sp.duration
    return out


def trace_document(tracer: Tracer) -> dict:
    """The stable ``repro-trace/1`` document of a tracer's completed
    spans (documented in docs/OBSERVABILITY.md).  Span times are
    seconds relative to the trace origin (the earliest span start)."""
    spans = [s for s in tracer.spans() if s.end is not None]
    origin = min((s.start for s in spans), default=0.0)
    return {
        "schema": TRACE_SCHEMA,
        "origin_unix": round(origin, 6),
        "spans": [
            {
                "name": s.name,
                "id": s.span_id,
                "parent": s.parent_id,
                "t0": round(s.start - origin, 9),
                "dur": round(s.duration, 9),
                "pid": s.pid,
                "tid": s.tid,
                "attrs": s.attrs,
            }
            for s in spans
        ],
    }


def render_tree(tracer: Tracer) -> str:
    """Indented span tree with durations and attributes."""
    spans = [s for s in tracer.spans() if s.end is not None]
    if not spans:
        return "(no spans recorded)"
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)

    def depth(span: Span) -> int:
        d = 0
        while span.parent_id in by_id:
            span = by_id[span.parent_id]
            d += 1
        return d

    def fmt(v) -> str:
        return f"{v:.4g}" if isinstance(v, float) else str(v)

    name_w = max(len(s.name) + 2 * depth(s) for s in spans)
    lines = [f"{'span':<{name_w}}  {'ms':>9}  attributes"]

    def emit(span: Span, level: int) -> None:
        attrs = " ".join(f"{k}={fmt(v)}" for k, v in span.attrs.items())
        label = "  " * level + span.name
        lines.append(f"{label:<{name_w}}  {span.duration * 1e3:9.3f}  {attrs}")
        for child in children.get(span.span_id, []):
            emit(child, level + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# a pool worker's spans and counters, shipped home
# ----------------------------------------------------------------------
def export_spans(tracer: Tracer) -> dict:
    """Picklable snapshot of a worker tracer's completed spans."""
    return {
        "pid": tracer.pid,
        "spans": [
            {
                "name": s.name,
                "id": s.span_id,
                "parent": s.parent_id,
                "t0": s.start,
                "t1": s.end,
                "pid": s.pid,
                "tid": s.tid,
                "attrs": s.attrs,
            }
            for s in tracer.spans()
            if s.end is not None
        ],
    }


def adopt_spans(
    tracer: Tracer, exported: dict | None, parent_id: int | None = None
) -> int:
    """Merge a worker's :func:`export_spans` into ``tracer``.

    Worker span ids are remapped to fresh local ids (no collisions,
    no drops); spans that were roots in the worker are re-parented
    under ``parent_id`` (default: this thread's current open span).
    Returns the number of spans adopted.
    """
    if not tracer.enabled or not exported:
        return 0
    if parent_id is None:
        parent_id = tracer.current_span_id()
    rows = exported.get("spans", [])
    first = tracer.reserve_ids(len(rows))
    mapping = {d["id"]: first + i for i, d in enumerate(rows)}
    tracer.record(
        [
            Span(
                name=d["name"],
                span_id=mapping[d["id"]],
                parent_id=mapping.get(d["parent"], parent_id),
                start=d["t0"],
                end=d["t1"],
                pid=d["pid"],
                tid=d["tid"],
                attrs=dict(d["attrs"]),
            )
            for d in rows
        ]
    )
    return len(rows)


def export_metrics(registry: MetricsRegistry) -> dict:
    """Picklable raw snapshot of a worker registry (histogram
    *samples*, not summaries), for :func:`merge_metrics`."""
    counters, gauges, histograms = registry.instruments()
    return {
        "counters": {k: c.value for k, c in counters.items()},
        "gauges": {k: g.value for k, g in gauges.items()},
        "histograms": {k: h.values() for k, h in histograms.items()},
    }


def merge_metrics(registry: MetricsRegistry, exported: dict | None) -> None:
    """Fold a worker's :func:`export_metrics` into ``registry``:
    counters add, gauges last-write-wins, histogram samples
    concatenate."""
    if not exported:
        return
    for k, v in exported.get("counters", {}).items():
        registry.counter(k).add(v)
    for k, v in exported.get("gauges", {}).items():
        registry.gauge(k).set(v)
    for k, samples in exported.get("histograms", {}).items():
        hist = registry.histogram(k)
        for v in samples:
            hist.observe(v)
