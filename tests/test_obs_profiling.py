"""The stage-scoped hotspot profiler.

The acceptance properties this file enforces:

* **attribution** — profiling the quick suite attributes >= 80% of the
  sampled wall time to named pipeline stages (nothing hides in an
  ``<unattributed>`` blob);
* **overhead** — the sampling engine costs < 10% wall time on the
  workload it measures;
* **stability** — a ``repro-profile/1`` document survives a JSON
  round-trip byte-for-byte, and diffing a document against itself is
  exactly empty;
* **no double-counting** — ``adopt``-merged concurrent worker spans
  subtract as a *union* from their parent's self time, never a sum;
* **conviction carries attribution** — a slowdown seeded into the
  minimizer surfaces as that function in the regress hotspot table.
"""

import copy
import importlib
import json
import time

import pytest

from repro.obs.readout import adopt_spans
from repro.obs.profiling import (
    PROFILE_SCHEMA,
    UNATTRIBUTED,
    ProfileSession,
    diff_profiles,
    hotspot_summary,
    load_profile_document,
    profile_suite,
    stage_totals_from_spans,
    to_collapsed,
    to_speedscope,
    validate_profile,
)
from repro.obs.trace import Span, Tracer, trace_span, tracing

# repro.logic re-exports the minimize *function*, shadowing the
# submodule attribute; resolve the module itself for monkeypatching
minimize_mod = importlib.import_module("repro.logic.minimize")


def _busy(seconds: float) -> int:
    """Hold the GIL in a pure-Python loop for ``seconds``."""
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return x


def _span(name, sid, parent, t0, t1, **attrs) -> Span:
    return Span(
        name=name, span_id=sid, parent_id=parent, start=t0, end=t1, attrs=attrs
    )


# ----------------------------------------------------------------------
# self-time accounting (the adopt/mp double-count fix)
# ----------------------------------------------------------------------
class TestStageTotals:
    def test_sequential_children_subtract_fully(self):
        spans = [
            _span("parent", 1, None, 0.0, 1.0),
            _span("child", 2, 1, 0.1, 0.3),
            _span("child", 3, 1, 0.5, 0.9),
        ]
        totals = stage_totals_from_spans(spans)
        assert totals["parent"]["wall_s"] == pytest.approx(1.0)
        assert totals["parent"]["self_s"] == pytest.approx(0.4)
        assert totals["child"]["wall_s"] == pytest.approx(0.6)
        assert totals["child"]["calls"] == 2

    def test_overlapping_children_subtract_as_union(self):
        """Concurrent (adopted) children overlap; a naive sum would
        subtract 1.1s from a 1.0s parent and clamp to zero — the union
        leaves the genuinely uncovered 0.2s."""
        spans = [
            _span("parent", 1, None, 0.0, 1.0),
            _span("worker", 2, 1, 0.1, 0.7),
            _span("worker", 3, 1, 0.4, 0.9),
        ]
        totals = stage_totals_from_spans(spans)
        assert totals["parent"]["self_s"] == pytest.approx(0.2)
        # worker wall time is still the full 1.1s of worker work
        assert totals["worker"]["wall_s"] == pytest.approx(1.1)

    def test_children_exceeding_parent_clip_and_never_go_negative(self):
        spans = [
            _span("parent", 1, None, 0.0, 1.0),
            _span("worker", 2, 1, -0.5, 0.8),
            _span("worker", 3, 1, 0.2, 1.7),
        ]
        totals = stage_totals_from_spans(spans)
        assert totals["parent"]["self_s"] == pytest.approx(0.0)
        assert totals["parent"]["self_s"] >= 0.0

    def test_pipeline_stage_spans_fold_to_stage_name(self):
        spans = [
            _span("pipeline.stage", 1, None, 0.0, 0.5, stage="espresso"),
        ]
        totals = stage_totals_from_spans(spans)
        assert "espresso" in totals and "pipeline.stage" not in totals

    @pytest.mark.parametrize("cached", [False, True])
    def test_pipeline_stage_wrapper_counts_once(self, cached, tmp_path):
        """A stage whose code opens a span of its own name (regions,
        sop-derivation) is counted once per span of work, not once more
        for its ``pipeline.stage`` wrapper."""
        from repro.bench.runner import sg_of
        from repro.core import synthesize
        from repro.pipeline import ArtifactStore

        sg = sg_of("hybridf")
        store = ArtifactStore(str(tmp_path / "cache")) if cached else None
        tracer = Tracer()
        with tracing(tracer):
            synthesize(sg, name="hybridf", cache=store)
        spans = tracer.spans()
        totals = stage_totals_from_spans(spans)
        assert len(sg.non_inputs) == 4
        assert totals["regions"]["calls"] == 4
        assert totals["sop-derivation"]["calls"] == 1
        for label in ("regions", "sop-derivation"):
            work = sum(s.duration for s in spans if s.name == label)
            assert totals[label]["wall_s"] == pytest.approx(work)

    def test_adopted_worker_fanout_does_not_double_count(self):
        """The real merge path: a parent span waits while two overlapping
        worker spans (different pids, as the fault/fuzz pools produce)
        are adopted into the tracer."""
        tracer = Tracer()
        with tracer.span("fuzz-sweep") as h:
            time.sleep(0.05)
            t0 = h._span.start
            exported = {
                "pid": 99,
                "spans": [
                    {
                        "name": "fuzz-unit",
                        "id": 1,
                        "parent": None,
                        "t0": t0 + 0.005,
                        "t1": t0 + 0.035,
                        "pid": 99,
                        "tid": 1,
                        "attrs": {},
                    },
                    {
                        "name": "fuzz-unit",
                        "id": 2,
                        "parent": None,
                        "t0": t0 + 0.010,
                        "t1": t0 + 0.040,
                        "pid": 98,
                        "tid": 1,
                        "attrs": {},
                    },
                ],
            }
            assert adopt_spans(tracer, exported) == 2
        totals = stage_totals_from_spans(tracer.spans())
        parent = totals["fuzz-sweep"]
        # 60ms of worker wall time inside a ~50ms parent: the sum would
        # clamp parent self-time to zero, the union leaves wall - 35ms
        assert totals["fuzz-unit"]["wall_s"] == pytest.approx(0.060, abs=1e-6)
        assert parent["self_s"] > 0.0
        assert parent["self_s"] == pytest.approx(
            parent["wall_s"] - 0.035, abs=0.002
        )


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class TestStackSampler:
    def test_cpu_work_attributes_to_open_stage(self):
        with ProfileSession(interval=0.001) as sess:
            with trace_span("espresso"):
                _busy(0.08)
        doc = sess.document()
        assert doc["engine"] == "sampler"
        assert doc["samples"] > 10
        esp = doc["stages"]["espresso"]
        assert esp["sampled_s"] > 0.04
        assert any("_busy" in f["func"] for f in esp["functions"])
        assert doc["attributed_pct"] > 50

    def test_work_outside_spans_is_unattributed(self):
        with ProfileSession(interval=0.001) as sess:
            _busy(0.05)
        doc = sess.document()
        assert UNATTRIBUTED in doc["stages"]
        assert doc["attributed_pct"] < 50

    def test_sleep_charges_the_sleeping_frame(self):
        """Wall-clock sampling sees blocked time too (the GIL is
        released during sleep), charged to the calling Python frame."""

        def nap():
            time.sleep(0.05)

        with ProfileSession(interval=0.001) as sess:
            with trace_span("minimize"):
                nap()
        doc = sess.document()
        mini = doc["stages"]["minimize"]
        assert mini["sampled_s"] > 0.02
        assert any("nap" in f["func"] for f in mini["functions"])

    def test_switch_interval_restored(self):
        import sys

        before = sys.getswitchinterval()
        with ProfileSession(interval=0.001):
            assert sys.getswitchinterval() <= 0.001 / 2 + 1e-9
        assert sys.getswitchinterval() == pytest.approx(before)

# ----------------------------------------------------------------------
# the suite document
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def suite_doc():
    """One profiled quick-suite sweep shared by the document tests."""
    return profile_suite(quick=True, runs=2, interval=0.001)


class TestSuiteDocument:
    def test_validates_clean(self, suite_doc):
        assert validate_profile(suite_doc) == []
        assert suite_doc["schema"] == PROFILE_SCHEMA
        assert suite_doc["quick"] is True

    def test_attribution_floor(self, suite_doc):
        """>= 80% of sampled wall time lands in named pipeline stages —
        the acceptance floor the CI profile-smoke job also enforces."""
        assert suite_doc["attributed_pct"] >= 80.0

    def test_stages_speak_pipeline_vocabulary(self, suite_doc):
        named = set(suite_doc["stages"]) - {UNATTRIBUTED}
        assert named & {
            "synthesize",
            "oracle",
            "espresso",
            "minimize",
            "cover-audit",
            "reachability",
            "bench-run",
        }

    def test_work_normalized_rates(self, suite_doc):
        assert "cube_ops_per_s" in suite_doc["rates"]
        assert suite_doc["rates"]["cube_ops_per_s"] > 0
        assert suite_doc["metrics"]["cover.cube_ops"] > 0

    def test_round_trip_is_byte_stable(self, suite_doc):
        """dump → load → dump is identical: every float in the document
        is pre-rounded, so serialization cannot drift."""
        blob = json.dumps(suite_doc, sort_keys=True)
        rt = json.loads(blob)
        assert json.dumps(rt, sort_keys=True) == blob
        assert validate_profile(rt) == []

    def test_self_diff_is_exactly_empty(self, suite_doc):
        rt = json.loads(json.dumps(suite_doc))
        diff = diff_profiles(suite_doc, rt)
        assert diff["empty"] is True
        assert diff["functions"] == []
        assert diff["new"] == [] and diff["vanished"] == []
        assert diff["stages"] == []

    # a real-timing contract: runs under `-m slow`, not in tier-1
    @pytest.mark.slow
    def test_overhead_under_ten_percent(self):
        """Profiling the workload costs < 10% wall time (plus a small
        absolute slack so scheduler noise cannot flake a ~50ms
        measurement)."""
        from repro.obs.harness import run_circuit
        from repro.obs.trace import tracing

        def workload():
            run_circuit("converta", verify_runs=1)

        workload()  # warm imports/caches outside both measurements

        def timed(arm) -> float:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                arm()
                best = min(best, time.perf_counter() - t0)
            return best

        def base_arm():
            with tracing(Tracer()):
                workload()

        def prof_arm():
            with ProfileSession(interval=0.002):
                workload()

        base = timed(base_arm)
        prof = timed(prof_arm)
        assert prof <= base * 1.10 + 0.05, (
            f"profiling overhead too high: {base * 1e3:.1f}ms -> "
            f"{prof * 1e3:.1f}ms"
        )


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def _mini_doc(folded: dict, stages: dict | None = None, wall=1.0) -> dict:
    return {
        "schema": PROFILE_SCHEMA,
        "created_utc": "2026-08-07T00:00:00Z",
        "engine": "sampler",
        "wall_s": wall,
        "env": {"git_sha": "abc1234"},
        "stages": stages or {},
        "folded": folded,
    }


class TestDiffProfiles:
    def test_per_function_deltas_sorted_by_magnitude(self):
        a = _mini_doc({"s;f.py:slow": 0.1, "s;f.py:tiny": 0.01})
        b = _mini_doc({"s;f.py:slow": 0.4, "s;f.py:tiny": 0.02}, wall=1.3)
        diff = diff_profiles(a, b)
        assert diff["empty"] is False
        assert diff["wall_delta_s"] == pytest.approx(0.3)
        assert diff["functions"][0]["func"] == "f.py:slow"
        assert diff["functions"][0]["delta_s"] == pytest.approx(0.3)
        assert diff["functions"][0]["ratio"] == pytest.approx(4.0)

    def test_new_and_vanished_frames(self):
        a = _mini_doc({"s;f.py:old": 0.1})
        b = _mini_doc({"s;f.py:fresh": 0.2})
        diff = diff_profiles(a, b)
        assert diff["new"] == ["f.py:fresh"]
        assert diff["vanished"] == ["f.py:old"]

    def test_leaf_aggregation_across_stacks(self):
        """The same leaf reached through different stacks sums before
        diffing — the diff is per *function*, not per stack."""
        a = _mini_doc({"s;a.py:f;hot.py:g": 0.1, "s;b.py:h;hot.py:g": 0.1})
        b = _mini_doc({"s;a.py:f;hot.py:g": 0.3})
        diff = diff_profiles(a, b)
        row = next(r for r in diff["functions"] if r["func"] == "hot.py:g")
        assert row["a_s"] == pytest.approx(0.2)
        assert row["delta_s"] == pytest.approx(0.1)

    def test_stage_deltas(self):
        a = _mini_doc({}, stages={"espresso": {"sampled_s": 0.1}})
        b = _mini_doc({}, stages={"espresso": {"sampled_s": 0.25}})
        diff = diff_profiles(a, b)
        assert diff["stages"] == [
            {
                "stage": "espresso",
                "a_s": 0.1,
                "b_s": 0.25,
                "delta_s": pytest.approx(0.15),
            }
        ]


class TestHotspotSummary:
    DOC = {
        "stages": {
            "minimize": {
                "functions": [
                    {"func": "a.py:f", "self_s": 0.3, "pct": 60.0},
                    {"func": "b.py:g", "self_s": 0.2, "pct": 40.0},
                ]
            },
            "oracle": {"functions": [{"func": "c.py:h", "self_s": 0.1, "pct": 100.0}]},
            "empty": {"functions": []},
        }
    }

    def test_stage_filter(self):
        out = hotspot_summary(self.DOC, stages={"minimize"})
        assert set(out) == {"minimize"}

    def test_top_limit_and_empty_stages_dropped(self):
        out = hotspot_summary(self.DOC, top=1)
        assert set(out) == {"minimize", "oracle"}
        assert [f["func"] for f in out["minimize"]] == ["a.py:f"]


# ----------------------------------------------------------------------
# flamegraph exports
# ----------------------------------------------------------------------
class TestExports:
    def test_collapsed_stack_lines(self):
        doc = _mini_doc({"espresso;a.py:f;b.py:g": 0.0123, "oracle;c.py:h": 2e-7})
        text = to_collapsed(doc)
        lines = text.strip().splitlines()
        assert "espresso;a.py:f;b.py:g 12300" in lines
        # sub-microsecond stacks still emit weight >= 1 (never dropped)
        assert "oracle;c.py:h 1" in lines
        assert text.endswith("\n")

    def test_speedscope_document(self):
        doc = _mini_doc({"espresso;a.py:f": 0.5, "espresso;a.py:f;b.py:g": 0.25})
        ss = to_speedscope(doc)
        assert ss["$schema"].endswith("file-format-schema.json")
        prof = ss["profiles"][0]
        assert prof["type"] == "sampled" and prof["unit"] == "seconds"
        assert len(prof["samples"]) == len(prof["weights"]) == 2
        assert prof["endValue"] == pytest.approx(0.75)
        frames = ss["shared"]["frames"]
        for sample in prof["samples"]:
            assert all(0 <= i < len(frames) for i in sample)
        # shared frame table deduplicates across stacks
        assert [f["name"] for f in frames] == ["espresso", "a.py:f", "b.py:g"]


# ----------------------------------------------------------------------
# document loading / validation
# ----------------------------------------------------------------------
class TestLoadAndValidate:
    def test_validate_flags_problems(self):
        assert validate_profile({"schema": "other/9"})
        assert validate_profile("nope") == ["document is not a JSON object"]
        doc = _mini_doc({})
        doc["attributed_pct"] = 140.0
        assert any("attributed_pct" in p for p in validate_profile(doc))

    def _valid_doc(self):
        doc = _mini_doc({})
        doc.update(
            {
                "wall_s": 1.0,
                "sampled_s": 0.9,
                "attributed_s": 0.9,
                "attributed_pct": 100.0,
                "stages": {},
            }
        )
        return doc

    def test_load_plain_and_envelope(self, tmp_path):
        doc = self._valid_doc()
        plain = tmp_path / "p.json"
        plain.write_text(json.dumps(doc))
        assert load_profile_document(str(plain))["wall_s"] == 1.0
        env = tmp_path / "e.json"
        env.write_text(
            json.dumps({"schema": "repro-run-history/1", "doc": doc})
        )
        assert load_profile_document(str(env))["wall_s"] == 1.0

    def test_load_by_history_name(self, tmp_path):
        doc = self._valid_doc()
        (tmp_path / "run.json").write_text(json.dumps(doc))
        got = load_profile_document("run.json", history_dir=str(tmp_path))
        assert got["schema"] == PROFILE_SCHEMA

    def test_load_rejects_non_profile(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text('{"schema": "repro-bench/1"}')
        with pytest.raises(ValueError, match="not a valid profile"):
            load_profile_document(str(bad))
        with pytest.raises(FileNotFoundError):
            load_profile_document(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# regress-gate hotspot attribution (the seeded-slowdown acceptance)
# ----------------------------------------------------------------------
class TestRegressHotspots:
    @pytest.fixture(scope="class")
    def baseline(self):
        from repro.obs.harness import run_bench

        return run_bench(
            circuits=["converta"], runs=1, verify_runs=1, telemetry=True
        )

    def test_seeded_sleep_named_in_hotspot_table(self, baseline, monkeypatch):
        """An injected delay in the minimizer must come back from the
        regress gate not just as the guilty *phase* but as the guilty
        *function* in the markdown hotspot table."""
        from repro.obs.regress import Thresholds, run_regress

        real = minimize_mod.espresso

        def slow_espresso(*args, **kwargs):
            time.sleep(0.03)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimize_mod, "espresso", slow_espresso)
        report = run_regress(
            baseline,
            thresholds=Thresholds(rel=0.30, abs_s=0.005, confirm_runs=1),
        )
        assert not report.ok
        assert {d.phase for d in report.regressions} >= {"minimize"}
        assert report.hotspots, "conviction must carry hotspot rows"
        mini = [h for h in report.hotspots if h["stage"] == "minimize"]
        assert mini and mini[0]["func"].endswith(":slow_espresso")
        assert mini[0]["pct"] > 50  # the seeded sleep dominates the phase

        md = report.render_markdown()
        assert "## Hotspot attribution" in md
        assert "slow_espresso" in md
        assert "hotspot converta/minimize" in report.render_text()

        doc = report.to_json_doc()
        assert doc["hotspots"] == report.hotspots
        # absolute self-times only: no cross-run baseline columns
        assert set(mini[0]) == {"circuit", "stage", "func", "self_s", "pct"}

    def test_hotspots_opt_out(self, baseline, monkeypatch):
        from repro.obs.regress import Thresholds, run_regress

        real = minimize_mod.espresso

        def slow_espresso(*args, **kwargs):
            time.sleep(0.03)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimize_mod, "espresso", slow_espresso)
        report = run_regress(
            baseline,
            thresholds=Thresholds(rel=0.30, abs_s=0.005, confirm_runs=1),
            hotspots=False,
        )
        assert not report.ok
        assert report.hotspots == []
        assert "## Hotspot attribution" not in report.render_markdown()

    def test_clean_run_profiles_nothing(self, baseline):
        from repro.obs.regress import run_regress

        report = run_regress(baseline)
        assert report.ok
        assert report.hotspots == []

# ----------------------------------------------------------------------
# tracer support surface the profiler leans on
# ----------------------------------------------------------------------
class TestTracerSupport:
    def test_stack_of_other_thread(self):
        import threading

        tracer = Tracer()
        seen = {}
        release = threading.Event()
        ready = threading.Event()

        def worker():
            with tracer.span("inner"):
                ready.set()
                release.wait(2.0)

        t = threading.Thread(target=worker)
        t.start()
        assert ready.wait(2.0)
        seen["stack"] = tracer.stack_of(t.ident)
        release.set()
        t.join()
        assert [s.name for s in seen["stack"]] == ["inner"]
        # snapshot is a copy: the live stack has since been popped
        assert tracer.stack_of(t.ident) == []
