"""The span tracer: nesting, thread/process safety, exports, no-op cost.

The critical properties: a *disabled* tracer must cost essentially
nothing on the synthesis hot path, and spans recorded in pool workers
must merge into the parent's trace with correct nesting — no duplicate
ids, no lost spans — regardless of ``jobs``.
"""

import json
import threading
import time

import pytest

from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    get_tracer,
    set_tracer,
    trace_span,
    tracing,
)
from repro.obs.trace import _NULL_SPAN


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
class TestSpanBasics:
    def test_disabled_tracer_hands_out_shared_null_span(self):
        tr = Tracer(enabled=False)
        sp = tr.span("anything", k=1)
        assert sp is _NULL_SPAN
        with sp as inner:
            inner.set(x=1)
        assert inner.id is None
        assert tr.spans() == []

    def test_global_default_is_disabled(self):
        assert get_tracer().enabled is False
        with trace_span("ignored") as sp:
            assert sp is _NULL_SPAN

    def test_nesting_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", circuit="c") as outer:
            with tr.span("inner") as inner:
                inner.set(states=20, arcs=8)
        spans = {s.name: s for s in tr.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs == {"circuit": "c"}
        assert spans["inner"].attrs == {"states": 20, "arcs": 8}
        assert spans["inner"].duration >= 0.0
        assert spans["outer"].end >= spans["inner"].end

    def test_sibling_spans_share_parent(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                pass
        by_name = {s.name: s for s in tr.spans()}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id
        ids = [s.span_id for s in tr.spans()]
        assert len(ids) == len(set(ids))

    def test_tracing_restores_previous_tracer(self):
        before = get_tracer()
        inner = Tracer()
        with tracing(inner) as t:
            assert t is inner
            assert get_tracer() is inner
        assert get_tracer() is before

    def test_current_span_id_tracks_stack(self):
        tr = Tracer()
        assert tr.current_span_id() is None
        with tr.span("a") as a:
            assert tr.current_span_id() == a.id
            with tr.span("b") as b:
                assert tr.current_span_id() == b.id
            assert tr.current_span_id() == a.id
        assert tr.current_span_id() is None

    def test_phase_totals_aggregates_by_name(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("phase"):
                time.sleep(0.001)
        totals = tr.phase_totals()
        assert totals["phase"]["calls"] == 3
        assert totals["phase"]["total_s"] >= 0.003


# ----------------------------------------------------------------------
# thread safety
# ----------------------------------------------------------------------
class TestThreads:
    def test_concurrent_threads_keep_independent_stacks(self):
        tr = Tracer()
        n_threads, n_spans = 4, 50
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for k in range(n_spans):
                with tr.span("outer", thread=tid):
                    with tr.span("inner", k=k):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tr.spans()
        assert len(spans) == n_threads * n_spans * 2
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name == "inner":
                parent = by_id[s.parent_id]
                assert parent.name == "outer"
                assert parent.tid == s.tid  # nesting never crosses threads


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
class TestExports:
    def _tracer_with_tree(self) -> Tracer:
        tr = Tracer()
        with tr.span("root", circuit="c"):
            with tr.span("child", states=7):
                pass
        return tr

    def test_json_schema(self):
        doc = self._tracer_with_tree().to_json()
        assert doc["schema"] == TRACE_SCHEMA == "repro-trace/1"
        assert len(doc["spans"]) == 2
        json.dumps(doc)  # serializable
        by_name = {d["name"]: d for d in doc["spans"]}
        assert by_name["child"]["parent"] == by_name["root"]["id"]
        # times are origin-relative seconds
        assert by_name["root"]["t0"] == 0.0
        assert by_name["child"]["t0"] >= 0.0
        assert by_name["child"]["dur"] <= by_name["root"]["dur"]
        assert by_name["child"]["attrs"] == {"states": 7}

    def test_render_tree_indents_children(self):
        text = self._tracer_with_tree().render_tree()
        lines = text.splitlines()
        assert any(line.startswith("root") for line in lines)
        assert any(line.startswith("  child") for line in lines)
        assert "circuit=c" in text

    def test_render_tree_empty(self):
        assert "no spans" in Tracer().render_tree()


# ----------------------------------------------------------------------
# multiprocessing-style adopt/merge
# ----------------------------------------------------------------------
class TestAdopt:
    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with worker.span("unit"):
            with worker.span("oracle"):
                pass
        exported = worker.export()

        parent = Tracer()
        with parent.span("campaign") as camp:
            adopted = parent.adopt(exported, parent_id=camp.id)
        assert adopted == 2
        spans = parent.spans()
        assert len(spans) == 3
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "id collision after merge"
        by_name = {s.name: s for s in spans}
        assert by_name["unit"].parent_id == by_name["campaign"].span_id
        assert by_name["oracle"].parent_id == by_name["unit"].span_id

    def test_adopt_defaults_to_current_open_span(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        with parent.span("p") as p:
            parent.adopt(worker.export())
            expected_parent = p.id
        by_name = {s.name: s for s in parent.spans()}
        assert by_name["w"].parent_id == expected_parent

    def test_adopt_none_and_disabled_are_noops(self):
        tr = Tracer()
        assert tr.adopt(None) == 0
        disabled = Tracer(enabled=False)
        assert disabled.adopt({"spans": [{"id": 1}]}) == 0

    def test_export_survives_pickle(self):
        import pickle

        tr = Tracer()
        with tr.span("x", k=1):
            pass
        assert pickle.loads(pickle.dumps(tr.export())) == tr.export()


# ----------------------------------------------------------------------
# the fuzz campaign merges worker spans into one coherent trace
# ----------------------------------------------------------------------
def _fuzz(jobs):
    from repro.fuzz import FuzzConfig, run_fuzz

    return run_fuzz(
        FuzzConfig(seed=0, budget=4, signals=6, jobs=jobs, minimize=False)
    )


class TestCampaignTraceMerge:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_spans_form_one_tree(self, jobs):
        """Worker spans ship home over the pool pipe and re-parent under
        the campaign root: every parent chain terminates at the single
        ``fuzz-campaign`` span, ids stay unique, and each oracle run's
        span survives (none lost, none duplicated)."""
        from repro.obs import MetricsRegistry, get_metrics, set_metrics

        prev_metrics = get_metrics()
        set_metrics(MetricsRegistry())
        try:
            with tracing(Tracer()) as tr:
                report = _fuzz(jobs)
            registry = get_metrics()
        finally:
            set_metrics(prev_metrics)

        spans = tr.spans()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "duplicate span ids after merge"

        (root,) = [s for s in spans if s.name == "fuzz-campaign"]
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            cur = s
            hops = 0
            while cur.parent_id is not None:
                assert cur.parent_id in by_id, f"orphaned span {s.name}"
                cur = by_id[cur.parent_id]
                hops += 1
                assert hops < 100
            assert cur is root, f"{s.name} not rooted in fuzz-campaign"

        # one fuzz-unit per generated sample
        units = [s for s in spans if s.name == "fuzz-unit"]
        assert len(units) == len(report.samples) == 4
        assert all(u.parent_id == root.span_id for u in units)

        # one oracle span per oracle run, nested inside its unit
        unit_ids = {u.span_id for u in units}
        oracles = [s for s in spans if s.name == "oracle"]
        runs = sum(
            o.oracle["runs"]
            for sample in report.samples
            for o in sample.outcomes
            if o.oracle
        )
        assert runs > 0
        assert len(oracles) == runs
        assert all(o.parent_id in unit_ids for o in oracles)

        # worker metrics merged too: one sim.runs tick per oracle run
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == runs
        assert counters["sim.events"] > 0

    def test_serial_and_parallel_traces_agree(self):
        """jobs=1 and jobs=2 record the same span population (the merge
        neither drops nor fabricates work)."""
        from collections import Counter as C

        def names(jobs):
            with tracing(Tracer()) as tr:
                _fuzz(jobs)
            return C(s.name for s in tr.spans())

        assert names(1) == names(2)


# ----------------------------------------------------------------------
# no-op overhead
# ----------------------------------------------------------------------
class TestNoopOverhead:
    # a real-timing contract: runs under `-m slow`, not in tier-1
    @pytest.mark.slow
    def test_disabled_tracer_overhead_below_5_percent(self):
        """The untraced hot path must stay within noise.

        Deterministic accounting instead of a flaky A/B timing race:
        count the instrumentation points one traced synth run hits,
        time the null-span machinery at 1000× that count, and require
        the per-run share to stay under 5% of the measured synth time.
        """
        from repro.bench import sg_of
        from repro.core import synthesize

        assert get_tracer().enabled is False
        sg = sg_of("chu172")
        synthesize(sg, name="chu172")  # warm per-process caches
        synth_s = min(
            _timed(lambda: synthesize(sg, name="chu172")) for _ in range(5)
        )

        with tracing(Tracer()) as tr:
            synthesize(sg, name="chu172")
        points = len(tr.spans())
        assert points >= 5, "synthesis should hit several span points"

        reps = 1000
        t0 = time.perf_counter()
        for _ in range(points * reps):
            with trace_span("phase", circuit="chu172") as sp:
                sp.set(states=1)
        null_s = (time.perf_counter() - t0) / reps
        assert null_s < 0.05 * synth_s, (
            f"disabled tracer costs {null_s * 1e6:.1f}µs per synth "
            f"({points} points) vs {synth_s * 1e3:.2f}ms synth time"
        )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
