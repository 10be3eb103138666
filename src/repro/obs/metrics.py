"""Counters, gauges and histograms for pipeline work accounting.

The tracer (:mod:`repro.obs.trace`) answers *where did the time go*;
this registry answers *how much work was done* — simulator events
processed, MHS pulses filtered, ESPRESSO iterations, reachability
states explored.  Like the tracer it is dependency-free and cheap:
an increment is a lock acquire plus an add.

Three instrument kinds:

* :class:`Counter` — monotonically accumulating total (``add``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — sample collection (``observe``).

The registry only records; reports over it live in
:mod:`repro.obs.readout`: a plain-dict snapshot with nearest-rank
histogram summaries, the raw export a fuzz pool worker ships home to be
merged into the parent's registry, and the sample statistics
(``percentile``, ``median``, ``mad``) every report shares.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
]


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

    def values(self) -> list[float]:
        """A copy of the samples."""
        with self._lock:
            return list(self.samples)


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

    def instruments(
        self,
    ) -> tuple[dict[str, Counter], dict[str, Gauge], dict[str, Histogram]]:
        """Copies of the counter, gauge and histogram tables."""
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._histograms)


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
