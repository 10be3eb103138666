"""The noise-aware regression gate.

The two acceptance properties:

* **no false positives** — regressing a fresh run against a baseline
  taken moments earlier at the same SHA must exit 0;
* **real slowdowns convict** — an artificial delay inserted into the
  minimizer must come back as a regression naming the phase.
"""

import copy
import importlib
import time

import pytest

# repro.logic re-exports the minimize *function*, shadowing the
# submodule attribute; resolve the module itself for monkeypatching
minimize_mod = importlib.import_module("repro.logic.minimize")
import repro.obs.regress as regress_mod
from repro.obs.harness import run_bench
from repro.obs.regress import (
    REGRESS_SCHEMA,
    PhaseDelta,
    Thresholds,
    load_baseline,
    run_regress,
)

CIRCUIT = "converta"  # small: keeps the double-bench runtime low


@pytest.fixture(scope="module")
def baseline():
    return run_bench(circuits=[CIRCUIT], runs=1, verify_runs=1, telemetry=True)


class TestThresholds:
    def test_allowed_band(self):
        th = Thresholds(rel=0.30, abs_s=0.005)
        assert th.allowed(0.100) == pytest.approx(0.135)
        # tiny phases are dominated by the absolute floor
        assert th.allowed(0.001) == pytest.approx(0.0063)

    def test_delta_ratio(self):
        d = PhaseDelta("c", "p", base_s=0.1, cur_s=0.2, allowed_s=0.135, best_s=0.2)
        assert d.ratio == pytest.approx(2.0)


class TestSameShaStability:
    """Back-to-back runs at the same SHA must not page (twice, per the
    acceptance criterion)."""

    # times real bench runs, so it runs under `-m slow`, not in tier-1
    @pytest.mark.slow
    def test_no_false_positives_twice(self, baseline):
        for _ in range(2):
            report = run_regress(baseline, telemetry=False)
            assert report.ok, [d.render() for d in report.regressions]
            assert report.exit_code() == 0
            assert report.env_match

    def test_json_document(self, baseline, monkeypatch):
        # document shape under test, not timing: the fresh bench reads
        # the baseline back verbatim
        monkeypatch.setattr(
            regress_mod, "run_bench", lambda **_kw: copy.deepcopy(baseline)
        )
        report = run_regress(baseline, telemetry=False, remeasure=False)
        doc = report.to_json_doc()
        assert doc["schema"] == REGRESS_SCHEMA
        assert doc["current"]["schema"] == "repro-bench/1"
        assert any(d["phase"] == "total" for d in doc["deltas"])


class TestSlowdownConviction:
    def test_slow_minimizer_flagged_with_phase_name(self, baseline, monkeypatch):
        real = minimize_mod.espresso

        def slow_espresso(*args, **kwargs):
            time.sleep(0.03)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimize_mod, "espresso", slow_espresso)
        report = run_regress(
            baseline,
            thresholds=Thresholds(rel=0.30, abs_s=0.005, confirm_runs=1),
            telemetry=False,
        )
        assert not report.ok
        assert report.exit_code() == 1
        flagged = {d.phase for d in report.regressions}
        assert "minimize" in flagged  # the gate names the guilty phase
        assert report.regressions[0].circuit == CIRCUIT
        assert "REGRESSION" in report.render_text()

    def test_remeasure_clears_one_off_noise(self, baseline, monkeypatch):
        """A spike on the first reading only must be cleared by min-of-N.

        The readings are scripted, not slept: the first bench reads the
        minimizer 30 ms slow, every re-measure reads the baseline."""
        entry = baseline["circuits"][0]
        spiked = copy.deepcopy(baseline)
        for timing in (
            spiked["circuits"][0]["phases"]["minimize"],
            spiked["circuits"][0]["total"],
        ):
            timing["median_s"] += 0.03
        monkeypatch.setattr(regress_mod, "run_bench", lambda **_kw: spiked)
        monkeypatch.setattr(
            regress_mod,
            "bench_circuit",
            lambda name, **_kw: (copy.deepcopy(entry), None),
        )
        report = run_regress(
            baseline,
            thresholds=Thresholds(rel=0.30, abs_s=0.005, confirm_runs=2),
            telemetry=False,
        )
        assert report.ok
        assert all(d.status in ("ok", "cleared") for d in report.deltas)
        assert any(d.status == "cleared" for d in report.deltas)


class TestReporting:
    def test_markdown_tables(self, baseline, monkeypatch):
        # rendering under test, not timing: the fresh bench reads the
        # baseline back verbatim
        monkeypatch.setattr(
            regress_mod, "run_bench", lambda **_kw: copy.deepcopy(baseline)
        )
        report = run_regress(baseline, remeasure=False)
        md = report.render_markdown()
        assert "# repro regress report" in md
        assert "Hazard telemetry" in md
        assert "ω-margin" in md
        assert f"| {CIRCUIT} |" in md

    def test_unknown_circuit_skipped(self, baseline, monkeypatch):
        # skip logic under test, not timing: the fresh bench reads the
        # baseline back verbatim
        monkeypatch.setattr(
            regress_mod, "run_bench", lambda **_kw: copy.deepcopy(baseline)
        )
        report = run_regress(
            baseline, circuits=[CIRCUIT, "no-such"], telemetry=False,
            remeasure=False,
        )
        assert report.skipped == ["no-such"]
        assert report.ok

    def test_all_unknown_raises(self, baseline):
        with pytest.raises(ValueError):
            run_regress(baseline, circuits=["no-such"])

    def test_baseline_circuit_unknown_to_suite_skipped(
        self, baseline, monkeypatch
    ):
        """A baseline from before a circuit rename must not crash the
        fresh run — the stale name is skipped structurally.  The fresh
        bench reads the baseline back verbatim, so no timing is judged."""
        monkeypatch.setattr(
            regress_mod, "run_bench", lambda **_kw: copy.deepcopy(baseline)
        )
        doc = copy.deepcopy(baseline)
        ghost = copy.deepcopy(doc["circuits"][0])
        ghost["name"] = "ghost-renamed-away"
        doc["circuits"].append(ghost)
        report = run_regress(doc, telemetry=False, remeasure=False)
        assert report.skipped_unknown == ["ghost-renamed-away"]
        assert report.ok and report.exit_code() == 0
        assert "ghost-renamed-away" in report.render_text()
        assert report.to_json_doc()["skipped_unknown"] == [
            "ghost-renamed-away"
        ]
        md = report.render_markdown()
        assert "## Skipped" in md and "unknown to the current" in md

    def test_baseline_with_only_unknown_circuits_raises(self, baseline):
        import copy

        doc = copy.deepcopy(baseline)
        for entry in doc["circuits"]:
            entry["name"] = "ghost-renamed-away"
        with pytest.raises(ValueError, match="known to the current"):
            run_regress(doc, telemetry=False, remeasure=False)

    def test_load_baseline_rejects_invalid(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="baseline"):
            load_baseline(str(p))


class TestThresholdPolicy:
    def test_phase_override_wins(self):
        from repro.obs.regress import ThresholdPolicy

        policy = ThresholdPolicy(
            default=Thresholds(rel=0.25, abs_s=0.005),
            phases={"minimize": Thresholds(rel=0.10, abs_s=0.001)},
        )
        assert policy.for_phase("minimize").rel == 0.10
        assert policy.for_phase("oracle").rel == 0.25
        assert policy.allowed("minimize", 0.100) == pytest.approx(0.111)
        assert policy.allowed("oracle", 0.100) == pytest.approx(0.130)

    def test_json_round_trip(self):
        from repro.obs.regress import ThresholdPolicy

        policy = ThresholdPolicy(
            default=Thresholds(rel=0.3, abs_s=0.01, confirm_runs=5),
            phases={"espresso": Thresholds(rel=0.12, abs_s=0.002)},
        )
        again = ThresholdPolicy.from_json(policy.to_json())
        assert again.default == policy.default
        assert again.for_phase("espresso").rel == pytest.approx(0.12)
        assert again.for_phase("espresso").abs_s == pytest.approx(0.002)
        # overrides carry only the band; confirm_runs follows the default
        assert again.for_phase("espresso").confirm_runs == 5
        assert again.confirm_runs == 5

    def test_config_file_round_trip(self, tmp_path):
        from repro.obs.regress import (
            THRESHOLDS_SCHEMA,
            ThresholdPolicy,
            load_threshold_config,
            save_threshold_config,
        )

        path = str(tmp_path / "thr.json")
        policy = ThresholdPolicy(
            phases={"minimize": Thresholds(rel=0.08, abs_s=0.001)}
        )
        save_threshold_config(policy, path, provenance={"why": "test"})
        import json as json_mod

        doc = json_mod.load(open(path))
        assert doc["schema"] == THRESHOLDS_SCHEMA
        assert doc["provenance"] == {"why": "test"}
        loaded = load_threshold_config(path)
        assert loaded.for_phase("minimize").rel == pytest.approx(0.08)

    def test_load_rejects_wrong_schema(self, tmp_path):
        from repro.obs.regress import load_threshold_config

        p = tmp_path / "bad.json"
        p.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError, match="repro-thresholds/1"):
            load_threshold_config(str(p))

    def test_run_regress_accepts_policy(self, baseline):
        """A ratcheted per-phase override flows into the gate's allowed
        band (and the report names the override count)."""
        from repro.obs.regress import ThresholdPolicy

        policy = ThresholdPolicy(
            default=Thresholds(rel=5.0, abs_s=1.0, confirm_runs=1),
            phases={"minimize": Thresholds(rel=4.0, abs_s=0.9)},
        )
        report = run_regress(
            baseline, thresholds=policy, telemetry=False, remeasure=False
        )
        assert report.ok
        doc = report.to_json_doc()
        assert doc["thresholds"]["phases"]["minimize"]["rel"] == 4.0
        mins = [d for d in doc["deltas"] if d["phase"] == "minimize"]
        others = [d for d in doc["deltas"] if d["phase"] == "total"]
        # override band is tighter than the default band
        assert mins[0]["allowed_s"] < others[0]["allowed_s"] + 0.1  # sanity
        assert "ratcheted phase override" in report.render_markdown()
