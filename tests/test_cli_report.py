"""CLI surface of ``repro report``, ``repro history``, and the
ratchet modes of ``repro regress`` — all against synthetic ledgers in
tmp dirs, never the repo's committed ``benchmarks/history/``."""

import json

from repro.cli import main
from repro.obs.registry import RunHistory
from repro.obs.regress import Thresholds, ThresholdPolicy, save_threshold_config

from .test_obs_analytics import _bench_doc, _profile_doc, _regress_doc


def _ledger(tmp_path, n=8, step_at=None):
    history = RunHistory(str(tmp_path / "ledger"))
    for i in range(n):
        slow = step_at is not None and i >= step_at
        history.append(
            "bench",
            _bench_doc(i, f"{i:02d}" + "e" * 38, 0.030 if slow else 0.010),
        )
    return history


class TestReportCli:
    def test_text_report(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        assert main(["report", "--history-dir", history.root]) == 0
        out = capsys.readouterr().out
        assert "8 run(s)" in out
        assert "bench=8" in out

    def test_json_report(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        assert (
            main(["report", "--history-dir", history.root, "--format", "json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-analytics/1"

    def test_html_dashboard_self_contained(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=12, step_at=6)
        history.append("profile", _profile_doc(12, "0a" + "e" * 38, 0.2))
        history.append("regress", _regress_doc(13, "0a" + "e" * 38))
        html_path = tmp_path / "observatory.html"
        assert (
            main(
                [
                    "report",
                    "--history-dir",
                    history.root,
                    "--html",
                    str(html_path),
                ]
            )
            == 0
        )
        html = html_path.read_text()
        for marker in ("http://", "https://", "src=", "<script", "url("):
            assert marker not in html
        assert "<svg" in html
        assert 'class="cp-slower"' in html  # the injected step is marked

    def test_empty_ledger_fails_loudly(self, tmp_path, capsys):
        assert (
            main(["report", "--history-dir", str(tmp_path / "nothing")]) == 2
        )
        assert "no runs recorded" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        out = tmp_path / "report.txt"
        assert (
            main(["report", "--history-dir", history.root, "-o", str(out)])
            == 0
        )
        assert "bench=8" in out.read_text()


class TestHistoryCli:
    def test_ls_with_filters(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=3)
        history.append("profile", _profile_doc(3, "aa" + "e" * 38, 0.1))
        assert main(["history", "--history-dir", history.root, "ls"]) == 0
        assert capsys.readouterr().out.count("\n") == 4
        assert (
            main(
                [
                    "history",
                    "--history-dir",
                    history.root,
                    "ls",
                    "--kind",
                    "profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profile" in out and out.count("\n") == 1
        assert (
            main(
                ["history", "--history-dir", history.root, "ls", "--sha", "01"]
            )
            == 0
        )
        assert capsys.readouterr().out.count("\n") == 1

    def test_ls_empty(self, tmp_path, capsys):
        assert (
            main(["history", "--history-dir", str(tmp_path / "none"), "ls"])
            == 0
        )
        assert "(empty)" in capsys.readouterr().out

    def test_ls_warns_on_torn_lines(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=2)
        with open(history.index_path, "a") as f:
            f.write("{torn")
        assert main(["history", "--history-dir", history.root, "ls"]) == 0
        assert "1 torn index line(s)" in capsys.readouterr().err

    def test_show_latest_pretty_prints_bench(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=2)
        assert main(["history", "--history-dir", history.root, "show"]) == 0
        out = capsys.readouterr().out
        assert "bench (repro-bench/1)" in out
        assert "converta" in out

    def test_show_by_prefix_and_json(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=2)
        target = history.entries()[0].file
        assert (
            main(
                [
                    "history",
                    "--history-dir",
                    history.root,
                    "show",
                    target[:12],
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-run-history/1"

    def test_show_missing_entry(self, tmp_path, capsys):
        history = _ledger(tmp_path, n=1)
        assert (
            main(["history", "--history-dir", history.root, "show", "nope"])
            == 2
        )
        assert "no ledger entry" in capsys.readouterr().err


class TestRegressRatchetCli:
    def test_propose_writes_schema_valid_proposal(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        out = tmp_path / "ratchet.json"
        assert (
            main(
                [
                    "regress",
                    "--propose-ratchet",
                    "--history-dir",
                    history.root,
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-thresholds/1"
        actions = [row["action"] for row in doc["evidence"].values()]
        assert actions.count("tighten") >= 1
        # every evidence row names its circuits, and every tightened
        # band is in the policy part of the document
        assert all(row["circuits"] for row in doc["evidence"].values())
        for phase, row in doc["evidence"].items():
            if row["action"] == "tighten":
                assert doc["phases"][phase] == row["proposed"]

    def test_apply_tightens_the_config(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        proposal = tmp_path / "ratchet.json"
        config = tmp_path / "thresholds.json"
        save_threshold_config(ThresholdPolicy(), str(config))
        assert (
            main(
                [
                    "regress",
                    "--propose-ratchet",
                    "--history-dir",
                    history.root,
                    "--thresholds",
                    str(config),
                    "-o",
                    str(proposal),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "regress",
                    "--apply-ratchet",
                    str(proposal),
                    "--thresholds",
                    str(config),
                ]
            )
            == 0
        )
        doc = json.loads(config.read_text())
        assert doc["schema"] == "repro-thresholds/1"
        assert doc["phases"]  # overrides landed
        for band in doc["phases"].values():
            assert band["rel"] <= 0.25 and band["abs_s"] <= 0.005
        assert "evidence" not in doc and "stale" not in doc
        assert doc["provenance"]["proposal_git_sha"]

    def test_apply_refuses_to_loosen(self, tmp_path, capsys):
        history = _ledger(tmp_path)
        proposal = tmp_path / "ratchet.json"
        config = tmp_path / "thresholds.json"
        # a hand-tightened config the measured noise cannot support
        save_threshold_config(
            ThresholdPolicy(default=Thresholds(rel=0.001, abs_s=0.000001)),
            str(config),
        )
        main(
            [
                "regress",
                "--propose-ratchet",
                "--history-dir",
                history.root,
                "--thresholds",
                str(config),
                "-o",
                str(proposal),
            ]
        )
        doc = json.loads(proposal.read_text())
        # the measured noise asks for looser bands: none is proposed
        assert doc["phases"] == {}
        assert {r["action"] for r in doc["evidence"].values()} == {"loosen"}
        # a hand edit that loosens a band is refused
        doc["phases"]["total"] = {"rel": 0.5, "abs_s": 0.01}
        proposal.write_text(json.dumps(doc))
        before = config.read_text()
        assert (
            main(
                [
                    "regress",
                    "--apply-ratchet",
                    str(proposal),
                    "--thresholds",
                    str(config),
                ]
            )
            == 2
        )
        assert "loosen" in capsys.readouterr().err
        assert config.read_text() == before  # refused = untouched

    def test_baseline_still_required_without_ratchet(self, capsys):
        assert main(["regress", "--no-history"]) == 2
        assert "--baseline is required" in capsys.readouterr().err
