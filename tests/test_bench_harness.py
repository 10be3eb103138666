"""The machine-readable benchmark harness and its CLI surface.

``repro bench`` must emit a document that validates against the
``repro-bench/1`` schema it documents, and ``--profile`` must render
the *same* tracer spans the harness aggregates — there is no second
timing path to drift out of sync.
"""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.obs import Tracer, get_metrics, get_tracer, tracing
from repro.obs.harness import (
    BENCH_SCHEMA,
    WORK_METRICS,
    bench_circuit,
    default_bench_path,
    environment_fingerprint,
    quick_circuits,
    run_bench,
    validate_bench,
    warm_up,
    write_bench,
)
from repro.obs.readout import snapshot

CELEM_G = """
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
"""


@pytest.fixture()
def gfile(tmp_path) -> pathlib.Path:
    p = tmp_path / "celem.g"
    p.write_text(CELEM_G)
    return p


@pytest.fixture(scope="module")
def quick_doc():
    """One shared quick bench document (each measurement is cheap but
    not free; the schema assertions below all read the same run)."""
    return run_bench(circuits=["chu172"], quick=True)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class TestBenchCircuit:
    def test_entry_shape_and_phase_coverage(self):
        entry = bench_circuit("chu172", runs=2, verify_runs=1)
        assert entry["name"] == "chu172"
        assert entry["runs"] == 2
        assert entry["states"] > 0
        # the end-to-end pipeline phases all show up by name
        for phase in ("synthesize", "sop-derivation", "regions",
                      "minimize", "netlist-build", "verify", "oracle"):
            assert phase in entry["phases"], f"missing phase {phase}"
            p = entry["phases"][phase]
            assert p["median_s"] >= 0.0
            assert p["p90_s"] >= p["median_s"]
            assert p["calls"] >= 1
        assert entry["total"]["median_s"] > 0.0
        # every run is one bench-run span
        assert entry["phases"]["bench-run"]["calls"] == 1

    def test_work_metrics_recorded(self):
        entry = bench_circuit("chu172", runs=1, verify_runs=1)
        metrics = entry["metrics"]
        assert set(metrics) == set(WORK_METRICS.values())
        assert metrics["sim_events"] > 0
        assert metrics["sim_runs"] == 1
        assert metrics["reachability_states"] == entry["states"]
        assert metrics["espresso_iterations"] >= 1
        assert metrics["cover_cubes"] >= 1
        assert all(
            isinstance(v, int) and v >= 0 for v in metrics.values()
        )

    def test_bench_restores_global_tracer_and_metrics(self):
        tracer_before = get_tracer()
        metrics_before = get_metrics()
        runs_before = snapshot(metrics_before)["counters"].get("sim.runs", 0)
        bench_circuit("chu172", runs=1, verify_runs=1)
        assert get_tracer() is tracer_before
        assert get_tracer().enabled is False
        # the caller's registry comes back untouched by bench noise
        assert get_metrics() is metrics_before
        assert (
            snapshot(get_metrics())["counters"].get("sim.runs", 0)
            == runs_before
        )

    def test_warm_up_leaves_no_spans_or_metrics(self):
        metrics_before = snapshot(get_metrics())
        with tracing(Tracer()) as outer:
            warm_up("chu172")
        assert outer.spans() == []
        assert snapshot(get_metrics()) == metrics_before


class TestRunBench:
    def test_document_validates(self, quick_doc):
        assert validate_bench(quick_doc) == []
        assert quick_doc["schema"] == BENCH_SCHEMA
        assert quick_doc["quick"] is True
        assert quick_doc["runs_per_circuit"] == 1
        assert [e["name"] for e in quick_doc["circuits"]] == ["chu172"]
        assert quick_doc["totals"]["circuits"] == 1
        assert quick_doc["totals"]["wall_s"] > 0.0
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", quick_doc["created_utc"]
        )

    def test_quick_default_suite(self):
        assert quick_circuits() == ["chu150", "chu172", "converta", "pmcm2"]

    def test_unknown_circuit_raises_keyerror(self):
        with pytest.raises(KeyError):
            run_bench(circuits=["no_such_circuit"], quick=True)

    def test_progress_callback(self):
        seen = []
        run_bench(
            circuits=["chu172"], quick=True,
            progress=lambda name, entry: seen.append(name),
        )
        assert seen == ["chu172"]


class TestEnvironmentAndIO:
    def test_fingerprint_keys(self):
        env = environment_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count", "git_sha", "argv"):
            assert key in env
        assert env["cpu_count"] >= 1

    def test_default_path_is_utc_dated(self):
        assert re.fullmatch(
            r"\./BENCH_\d{4}-\d{2}-\d{2}\.json", default_bench_path()
        )

    def test_write_bench_roundtrip(self, tmp_path, quick_doc):
        path = write_bench(quick_doc, str(tmp_path / "BENCH_test.json"))
        assert json.loads(pathlib.Path(path).read_text()) == quick_doc

    def test_default_path_never_overwrites(
        self, tmp_path, quick_doc, monkeypatch
    ):
        """Two same-day default-named writes both survive: the second
        steps to a deterministic -2 suffix instead of clobbering."""
        monkeypatch.chdir(tmp_path)
        first = write_bench(quick_doc)
        second = write_bench({**quick_doc, "runs_per_circuit": 99})
        third = write_bench(quick_doc)
        assert first != second != third
        assert second == first.replace(".json", "-2.json")
        assert third == first.replace(".json", "-3.json")
        assert json.loads(pathlib.Path(first).read_text()) == quick_doc
        assert (
            json.loads(pathlib.Path(second).read_text())["runs_per_circuit"]
            == 99
        )

    def test_explicit_path_keeps_overwrite_semantics(
        self, tmp_path, quick_doc
    ):
        target = str(tmp_path / "BENCH_pinned.json")
        write_bench({**quick_doc, "runs_per_circuit": 1}, target)
        write_bench({**quick_doc, "runs_per_circuit": 2}, target)
        assert (
            json.loads(pathlib.Path(target).read_text())["runs_per_circuit"]
            == 2
        )


class TestValidateBench:
    def test_rejects_non_object(self):
        assert validate_bench([]) == ["document is not a JSON object"]

    def test_flags_each_defect(self, quick_doc):
        doc = json.loads(json.dumps(quick_doc))  # deep copy
        doc["schema"] = "bogus/9"
        del doc["env"]["python"]
        doc["circuits"][0]["metrics"]["sim_events"] = -1
        doc["circuits"][0]["total"]["median_s"] = -0.5
        problems = validate_bench(doc)
        assert any("schema" in p for p in problems)
        assert any("env.python" in p for p in problems)
        assert any("sim_events" in p for p in problems)
        assert any("total.median_s" in p for p in problems)

    def test_flags_empty_circuits(self, quick_doc):
        doc = {**quick_doc, "circuits": []}
        assert validate_bench(doc) == ["circuits: missing or empty"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_bench_quick_subset(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_ci.json"
        # --no-history keeps the test from appending to the repo's
        # real benchmarks/history/ ledger on every run
        assert main(
            ["bench", "chu172", "--quick", "--no-history", "-o", str(out_path)]
        ) == 0
        captured = capsys.readouterr()
        assert f"wrote {out_path}" in captured.out
        assert "chu172" in captured.err  # progress goes to stderr
        doc = json.loads(out_path.read_text())
        assert validate_bench(doc) == []

    def test_bench_unknown_circuit_fails_cleanly(self, capsys):
        assert main(["bench", "no_such_circuit", "--quick"]) == 1
        assert "unknown benchmark circuit" in capsys.readouterr().err


class TestProfileCli:
    def test_synth_profile_shows_nested_phases(self, gfile, capsys):
        assert main(["synth", str(gfile), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile" in err
        # at least five distinct pipeline phases, nested under synthesize
        for phase in ("reachability", "synthesize", "sop-derivation",
                      "minimize", "espresso", "netlist-build",
                      "delay-eval"):
            assert phase in err, f"phase {phase} missing from profile"
        # the CLI pulls through the content-addressed DAG: stage spans
        # wrap the work, and sop-derivation is nested inside them
        assert "pipeline.stage" in err
        assert re.search(r"\n +sop-derivation", err)  # indented = nested

    def test_synth_without_profile_prints_no_spans(self, gfile, capsys):
        assert main(["synth", str(gfile)]) == 0
        assert "profile" not in capsys.readouterr().err

    def test_compare_profile(self, gfile, capsys):
        assert main(["compare", str(gfile), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile" in err and "synthesize" in err

    def test_profile_restores_disabled_tracer(self, gfile, capsys):
        main(["synth", str(gfile), "--profile"])
        assert get_tracer().enabled is False
