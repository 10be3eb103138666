"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main

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

ORELEM_LIKE_G = """
.model seq
.inputs r
.outputs y
.graph
r+ y+
y+ r-
r- y-
y- r+
.marking { <y-,r+> }
.end
"""


@pytest.fixture()
def gfile(tmp_path) -> pathlib.Path:
    p = tmp_path / "celem.g"
    p.write_text(CELEM_G)
    return p


class TestInfo:
    def test_valid_file(self, gfile, capsys):
        assert main(["info", str(gfile)]) == 0
        out = capsys.readouterr().out
        assert "8 states" in out
        assert "distributive: True" in out
        assert "ER(+c)" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent.g"]) == 1


class TestSynth:
    def test_basic(self, gfile, capsys):
        assert main(["synth", str(gfile)]) == 0
        out = capsys.readouterr().out
        assert "N-SHOT circuit" in out
        assert "no compensation required" in out

    def test_outputs_written(self, gfile, tmp_path, capsys):
        v = tmp_path / "out.v"
        pla = tmp_path / "out.pla"
        assert main(["synth", str(gfile), "-o", str(v), "--pla", str(pla)]) == 0
        assert "module" in v.read_text()
        assert ".i 3" in pla.read_text()

    def test_verify_flag(self, gfile, capsys):
        assert main(["synth", str(gfile), "--verify", "--runs", "2"]) == 0
        assert "HAZARD-FREE" in capsys.readouterr().out

    def test_exact_method(self, gfile, capsys):
        assert main(["synth", str(gfile), "--method", "exact"]) == 0
        assert "method: exact" in capsys.readouterr().out

    def test_spread_changes_eq1(self, gfile, capsys):
        assert main(["synth", str(gfile), "--spread", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "delay req" in out

    def test_one_command_parser_keeps_the_full_usage(self, gfile, capsys):
        """``main`` declares only the invoked subcommand, yet an error
        the top-level parser reports shows the usage of the full one."""
        argv = ["synth", str(gfile), "--bogus"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        full = capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().err == full
        assert "{info,synth,compare," in full


class TestCompare:
    def test_all_flows_listed(self, gfile, capsys):
        assert main(["compare", str(gfile)]) == 0
        out = capsys.readouterr().out
        for label in ("SIS/Lavagno", "SYN/Beerel", "Q-module", "N-SHOT"):
            assert label in out

    def test_nondistributive_failure_codes(self, tmp_path, capsys):
        # build a non-distributive .g is impossible (safe nets); use the
        # sequential file and check it synthesizes everywhere instead
        p = tmp_path / "seq.g"
        p.write_text(ORELEM_LIKE_G)
        assert main(["compare", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.count("/") >= 4  # four area/delay cells


class TestTable2:
    def test_subset(self, capsys):
        assert main(["table2", "chu172", "pmcm2"]) == 0
        out = capsys.readouterr().out
        assert "chu172" in out and "pmcm2" in out
        assert "(1)" in out           # pmcm2 rejected by the baselines
        assert "never" in out         # compensation claim


class TestVcd:
    def test_synth_verify_vcd_and_telemetry(self, gfile, tmp_path, capsys):
        vcd = tmp_path / "celem.vcd"
        assert main(
            ["synth", str(gfile), "--verify", "--runs", "1", "--vcd", str(vcd)]
        ) == 0
        out = capsys.readouterr().out
        # satellite: the verify summary reports the physics counters
        assert "mhs_pulses_filtered" in out
        assert "ω-margin" in out
        assert "delay slack" in out
        text = vcd.read_text()
        assert "$enddefinitions" in text
        assert "set_c_g1" in text  # internal SOP nets are dumped too

    def test_synth_vcd_without_verify(self, gfile, tmp_path, capsys):
        vcd = tmp_path / "celem.vcd"
        assert main(["synth", str(gfile), "--vcd", str(vcd)]) == 0
        out = capsys.readouterr().out
        assert "HAZARD-FREE" not in out  # no verify summary was requested
        assert vcd.exists()

    def test_compare_vcd(self, gfile, tmp_path, capsys):
        vcd = tmp_path / "cmp.vcd"
        assert main(["compare", str(gfile), "--vcd", str(vcd)]) == 0
        assert "N-SHOT" in capsys.readouterr().out
        assert "$var wire" in vcd.read_text()


class TestExplain:
    def test_suite_circuit_text(self, capsys):
        assert main(["explain", "converta"]) == 0
        out = capsys.readouterr().out
        assert "ω-filtered pulse via" in out
        assert "causal chain" in out
        assert "environment input transition" in out

    def test_json_document(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "chain.json"
        assert main(
            ["explain", "converta", "--format", "json", "-o", str(out_file)]
        ) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro-causality/1"
        assert doc["circuit"] == "converta"
        assert doc["environment_rooted"] is True
        assert doc["target"]["kind"] == "mhs-filtered"
        assert doc["sweep"]["mode"] in ("organic", "probe")

    def test_probe_fallback_from_file(self, tmp_path, capsys):
        """A planes-equal-cubes spec still explains via the probe."""
        p = tmp_path / "seq.g"
        p.write_text(ORELEM_LIKE_G)
        assert main(["explain", str(p)]) == 0
        out = capsys.readouterr().out
        assert "ω-filtered pulse via" in out

    def test_unknown_target_is_error(self, capsys):
        assert main(["explain", "no-such-circuit"]) == 1


class TestCoverageFlags:
    def test_synth_verify_coverage(self, gfile, tmp_path, capsys):
        import json

        out_file = tmp_path / "cov.json"
        assert main(
            [
                "synth", str(gfile), "--verify", "--runs", "3",
                "--coverage", "--coverage-out", str(out_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "HAZARD-FREE" in out
        assert "coverage (celem" in out
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro-coverage/1"
        assert doc["regions"]["pct"] >= 95.0
        assert isinstance(doc["trigger_cubes"]["uncovered"], list)

    def test_synth_coverage_without_verify(self, gfile, capsys):
        """--coverage alone runs the oracle but skips the verdict."""
        assert main(["synth", str(gfile), "--coverage"]) == 0
        out = capsys.readouterr().out
        assert "coverage (celem" in out
        assert "HAZARD-FREE" not in out

    def test_compare_coverage(self, gfile, capsys):
        assert main(["compare", str(gfile), "--coverage"]) == 0
        out = capsys.readouterr().out
        assert "N-SHOT" in out
        assert "coverage (celem" in out


class TestRegressCli:
    @pytest.fixture()
    def baseline_file(self, tmp_path) -> pathlib.Path:
        from repro.obs.harness import run_bench, write_bench

        doc = run_bench(circuits=["converta"], runs=1, verify_runs=1)
        return pathlib.Path(write_bench(doc, str(tmp_path / "BASE.json")))

    def test_clean_run_exit_zero(self, baseline_file, tmp_path, capsys):
        md = tmp_path / "regress.md"
        code = main(
            [
                "regress",
                "--baseline", str(baseline_file),
                "--markdown", str(md),
                "--history-dir", str(tmp_path / "hist"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK:" in out
        assert "history:" in out
        assert "Hazard telemetry" in md.read_text()
        assert (tmp_path / "hist" / "index.jsonl").exists()

    def test_json_format(self, baseline_file, capsys, monkeypatch):
        # output format under test, not timing: the fresh bench reads the
        # baseline back verbatim
        import copy
        import json

        import repro.obs.regress as regress_mod

        baseline = json.loads(baseline_file.read_text())
        monkeypatch.setattr(
            regress_mod, "run_bench", lambda **_kw: copy.deepcopy(baseline)
        )
        code = main(
            [
                "regress",
                "--baseline", str(baseline_file),
                "--format", "json",
                "--no-history",
                "--no-remeasure",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-regress/1"
        assert doc["ok"] is True

    def test_missing_baseline_is_internal_error(self, capsys):
        assert main(["regress", "--baseline", "/nonexistent.json"]) == 2

    def test_invalid_baseline_is_internal_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/9"}')
        assert main(["regress", "--baseline", str(bad)]) == 2


class TestBenchHistory:
    def test_bench_appends_history(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench", "converta",
                "--runs", "1",
                "-o", str(tmp_path / "B.json"),
                "--history-dir", str(tmp_path / "hist"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "history:" in out
        from repro.obs.registry import RunHistory

        entries = RunHistory(str(tmp_path / "hist")).entries("bench")
        assert len(entries) == 1
