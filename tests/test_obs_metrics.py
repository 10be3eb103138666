"""Counters, gauges, histograms, and the registry merge semantics."""

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    percentile,
    set_metrics,
)
from repro.obs.readout import export_metrics, histogram_summary, merge_metrics, snapshot


class TestPercentile:
    def test_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(vals, 0.5) == 5.0
        assert percentile(vals, 0.9) == 9.0
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 1.0) == 10.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_result_is_an_observed_sample(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0]
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert percentile(vals, q) in vals

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="outside"):
            percentile([1.0], 1.5)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.add()
        c.add(4)
        c.inc()
        assert c.value == 6

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(7)
        assert g.value == 7

    def test_histogram_summary(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = histogram_summary(h)
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50.0
        assert s["p90"] == 90.0
        assert s["p99"] == 99.0

    def test_empty_histogram_summary(self):
        assert histogram_summary(Histogram()) == {"count": 0}

    def test_counter_thread_safety(self):
        c = Counter()
        n_threads, n_incs = 8, 1000

        def work():
            for _ in range(n_incs):
                c.add()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs


class TestRegistry:
    def test_instruments_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.counter("a") is not reg.counter("b")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("sim.events").add(10)
        reg.gauge("states").set(20)
        reg.histogram("lat").observe(1.0)
        snap = snapshot(reg)
        assert snap["counters"] == {"sim.events": 10}
        assert snap["gauges"] == {"states": 20}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_merge_semantics(self):
        """Counters add, gauges last-write-wins, histograms concatenate —
        the contract the campaign's worker merge relies on."""
        a = MetricsRegistry()
        a.counter("events").add(10)
        a.gauge("states").set(5)
        a.histogram("lat").observe(1.0)

        b = MetricsRegistry()
        b.counter("events").add(3)
        b.counter("only_b").add(1)
        b.gauge("states").set(9)
        b.histogram("lat").observe(2.0)

        merge_metrics(a, export_metrics(b))
        snap = snapshot(a)
        assert snap["counters"] == {"events": 13, "only_b": 1}
        assert snap["gauges"] == {"states": 9}
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["max"] == 2.0

    def test_merge_none_is_noop(self):
        reg = MetricsRegistry()
        reg.counter("c").add(1)
        merge_metrics(reg, None)
        assert snapshot(reg)["counters"] == {"c": 1}

    def test_export_is_picklable_raw_samples(self):
        import pickle

        reg = MetricsRegistry()
        reg.histogram("lat").observe(1.5)
        exported = export_metrics(reg)
        assert exported["histograms"] == {"lat": [1.5]}
        assert pickle.loads(pickle.dumps(exported)) == exported

    def test_global_registry_swap_and_restore(self):
        prev = get_metrics()
        fresh = MetricsRegistry()
        try:
            assert set_metrics(fresh) is fresh
            assert get_metrics() is fresh
        finally:
            set_metrics(prev)
        assert get_metrics() is prev
