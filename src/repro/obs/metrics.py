"""Counters, gauges and histograms for pipeline work accounting.

The tracer (:mod:`repro.obs.trace`) answers *where did the time go*;
this registry answers *how much work was done* — simulator events
processed, MHS pulses filtered, ESPRESSO iterations, reachability
states explored.  Like the tracer it is dependency-free and cheap:
an increment is a lock acquire plus an add.

Three instrument kinds:

* :class:`Counter` — monotonically accumulating total (``add``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — sample collection with percentile summaries
  (``observe`` → ``summary()`` with count/min/max/mean/p50/p90/p99).

Registries snapshot to plain dicts (:meth:`MetricsRegistry.snapshot`)
for reports, and :meth:`export`/:meth:`merge` round-trip raw samples
across a ``multiprocessing`` pipe so fuzz pool workers can account work
into the parent's registry.

The sample statistics every report shares live here too: the
nearest-rank :func:`percentile` of bench documents and histograms, and
the averaging :func:`median` and :func:`mad` of the analytics noise
floors.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "percentile",
    "median",
    "mad",
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
    count (unlike ``percentile(values, 0.5)``, which is nearest-rank)."""
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


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def add(self, n: float = 1) -> None:
        with self._lock:
            self.value += n

    inc = add


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = v


class Histogram:
    """A collection of samples with percentile summaries."""

    __slots__ = ("_lock", "samples")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples: list[float] = []

    def observe(self, v: float) -> None:
        with self._lock:
            self.samples.append(v)

    def summary(self) -> dict:
        with self._lock:
            vals = list(self.samples)
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


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter()
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge()
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram()
            return inst

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view: counters/gauges as values, histograms as
        percentile summaries."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def export(self) -> dict:
        """Picklable raw snapshot (histogram *samples*, not summaries)
        suitable for :meth:`merge` in another process."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {
                k: list(h.samples) for k, h in self._histograms.items()
            },
        }

    def merge(self, exported: dict | None) -> None:
        """Fold a worker's :meth:`export` into this registry: counters
        add, gauges last-write-wins, histogram samples concatenate."""
        if not exported:
            return
        for k, v in exported.get("counters", {}).items():
            self.counter(k).add(v)
        for k, v in exported.get("gauges", {}).items():
            self.gauge(k).set(v)
        for k, samples in exported.get("histograms", {}).items():
            hist = self.histogram(k)
            with hist._lock:
                hist.samples.extend(samples)


# ----------------------------------------------------------------------
# process-global registry
# ----------------------------------------------------------------------
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The current process-global metrics registry."""
    return _METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally (the bench harness gives every
    measured run a fresh one); returns it."""
    global _METRICS
    _METRICS = registry
    return registry
