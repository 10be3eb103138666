"""CLI surface of the hotspot profiler: ``repro profile``,
``--profile-out`` trace persistence, and ``repro bench --profile-doc``.
"""

import json
import pathlib

import pytest

from repro.cli import main

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


def _profile_doc(wall=1.0, folded=None, stages=None) -> dict:
    return {
        "schema": "repro-profile/1",
        "created_utc": "2026-08-07T00:00:00Z",
        "engine": "sampler",
        "wall_s": wall,
        "sampled_s": wall,
        "samples": 10,
        "attributed_s": wall,
        "attributed_pct": 100.0,
        "env": {"git_sha": "abc1234"},
        "stages": stages or {},
        "functions": [],
        "folded": folded or {},
    }


class TestProfileCommand:
    def test_quick_run_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        folded = tmp_path / "p.folded.txt"
        ss = tmp_path / "p.speedscope.json"
        rc = main(
            [
                "profile",
                "--quick",
                "--runs",
                "2",
                "--interval",
                "0.001",
                "--no-history",
                "-o",
                str(out),
                "--folded",
                str(folded),
                "--speedscope",
                str(ss),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"wrote {out} (repro-profile/1)" in printed
        assert "engine=sampler" in printed
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-profile/1"
        assert doc["quick"] is True
        assert doc["attributed_pct"] >= 80.0
        # folded lines are `stage;frames… <int µs>`
        lines = folded.read_text().strip().splitlines()
        assert lines and all(int(ln.rsplit(" ", 1)[1]) >= 1 for ln in lines)
        scope = json.loads(ss.read_text())
        assert scope["$schema"].endswith("file-format-schema.json")
        assert scope["profiles"][0]["samples"]

    def test_single_circuit_positional(self, capsys):
        rc = main(
            ["profile", "converta", "--interval", "0.001", "--no-history"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "engine=sampler" in printed
        assert "top" in printed  # the function table rendered

    def test_unknown_circuit(self, capsys):
        rc = main(["profile", "no-such-circuit", "--no-history"])
        assert rc == 1
        assert "unknown benchmark circuit" in capsys.readouterr().err

    def test_history_registration(self, tmp_path, capsys):
        rc = main(
            [
                "profile",
                "converta",
                "--interval",
                "0.001",
                "--history",
                "--history-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert "history:" in capsys.readouterr().out
        index = (tmp_path / "index.jsonl").read_text().strip().splitlines()
        assert any(json.loads(ln)["kind"] == "profile" for ln in index)


class TestProfileDiffCommand:
    def test_text_diff(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_profile_doc(folded={"s;f.py:hot": 0.1})))
        b.write_text(
            json.dumps(_profile_doc(wall=1.4, folded={"s;f.py:hot": 0.4}))
        )
        rc = main(["profile", "--diff", str(a), str(b), "--no-history"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "profile diff:" in printed
        assert "wall delta: +0.400s" in printed
        assert "f.py:hot" in printed

    def test_json_diff_to_file(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_profile_doc(folded={"s;f.py:hot": 0.1})))
        b.write_text(json.dumps(_profile_doc(folded={"s;g.py:fresh": 0.2})))
        out = tmp_path / "diff.json"
        rc = main(
            [
                "profile",
                "--diff",
                str(a),
                str(b),
                "--format",
                "json",
                "-o",
                str(out),
                "--no-history",
            ]
        )
        assert rc == 0
        assert "repro-profile-diff/1" in capsys.readouterr().out
        diff = json.loads(out.read_text())
        assert diff["schema"] == "repro-profile-diff/1"
        assert diff["new"] == ["g.py:fresh"]
        assert diff["vanished"] == ["f.py:hot"]

    def test_diff_by_history_entry_name(self, tmp_path, capsys):
        (tmp_path / "run1.json").write_text(
            json.dumps(_profile_doc(folded={"s;f.py:hot": 0.1}))
        )
        full = tmp_path / "other.json"
        full.write_text(json.dumps(_profile_doc(folded={"s;f.py:hot": 0.1})))
        rc = main(
            [
                "profile",
                "--diff",
                "run1.json",
                str(full),
                "--history-dir",
                str(tmp_path),
                "--no-history",
            ]
        )
        assert rc == 0
        assert "profiles identical" in capsys.readouterr().out

    def test_missing_operand(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_profile_doc()))
        rc = main(
            ["profile", "--diff", str(a), str(tmp_path / "nope.json"),
             "--no-history"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestProfileOutFlag:
    def test_synth_persists_trace_document(self, gfile, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["synth", str(gfile), "--profile-out", str(trace)])
        assert rc == 0
        assert f"wrote {trace} (repro-trace/1)" in capsys.readouterr().err
        doc = json.loads(trace.read_text())
        assert doc["schema"] == "repro-trace/1"
        names = {s["name"] for s in doc["spans"]}
        assert "synthesize" in names and "minimize" in names

    def test_compare_persists_trace_document(self, gfile, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["compare", str(gfile), "--profile-out", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == "repro-trace/1"
        assert doc["spans"]

    def test_profile_out_composes_with_profile(self, gfile, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(
            ["synth", str(gfile), "--profile", "--profile-out", str(trace)]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "── profile" in err  # stderr table still renders
        assert trace.exists()


class TestBenchProfileDoc:
    def test_embedded_hotspot_blocks(self, tmp_path, capsys):
        from repro.obs.harness import validate_bench

        pdoc = tmp_path / "profile.json"
        bdoc = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "converta",
                "--quick",
                "--no-history",
                "--profile-doc",
                str(pdoc),
                "-o",
                str(bdoc),
            ]
        )
        assert rc == 0
        assert f"profile: wrote {pdoc}" in capsys.readouterr().out
        doc = json.loads(bdoc.read_text())
        assert validate_bench(doc) == []
        summary = doc["profile"]
        assert summary["schema"] == "repro-profile/1"
        assert summary["path"] == "profile.json"
        entry = doc["circuits"][0]
        assert entry["name"] == "converta"
        assert "stages" in entry["profile"]
        side = json.loads(pdoc.read_text())
        assert side["schema"] == "repro-profile/1"

    def test_history_registers_profile_kind(self, tmp_path, capsys):
        pdoc = tmp_path / "profile.json"
        rc = main(
            [
                "bench",
                "converta",
                "--quick",
                "--history",
                "--history-dir",
                str(tmp_path / "hist"),
                "--profile-doc",
                str(pdoc),
                "-o",  # keep the default BENCH_<date>.json out of cwd
                str(tmp_path / "bench.json"),
            ]
        )
        assert rc == 0
        index = (
            (tmp_path / "hist" / "index.jsonl").read_text().strip().splitlines()
        )
        kinds = {json.loads(ln)["kind"] for ln in index}
        assert kinds == {"bench", "profile"}
