"""Observability: structured tracing, metrics, and the bench harness.

The package root re-exports only the hooks every pipeline layer
imports — the span tracer (:mod:`repro.obs.trace`) and the metrics
registry (:mod:`repro.obs.metrics`), both stdlib-only.  Every other
module (harness, profiling, regress, analytics, …) is imported by name
where it is used; docs/OBSERVABILITY.md describes them all.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "Counter Gauge Histogram MetricsRegistry get_metrics "
            "set_metrics percentile"
        ),
        ".trace": (
            "TRACE_SCHEMA Span Tracer get_tracer set_tracer trace_span tracing"
        ),
    },
)
