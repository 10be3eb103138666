"""The append-only run-history registry."""

import json

import pytest

from repro.obs.registry import (
    HISTORY_SCHEMA,
    RunHistory,
    fingerprint_digest,
)

ENV = {
    "python": "3.12.0",
    "implementation": "CPython",
    "platform": "Linux-x86_64",
    "machine": "x86_64",
    "cpu_count": 8,
    "git_sha": "deadbeefcafe0123456789aa",
    "argv": ["repro", "bench"],
}


def _doc(sha="deadbeefcafe0123456789aa", created="2026-08-06T12:00:00Z"):
    return {
        "schema": "repro-bench/1",
        "created_utc": created,
        "env": {**ENV, "git_sha": sha},
        "circuits": [],
    }


class TestFingerprint:
    def test_stable(self):
        assert fingerprint_digest(ENV) == fingerprint_digest(dict(ENV))

    def test_ignores_run_identity(self):
        """Same machine, different run → same digest."""
        other = {**ENV, "git_sha": "ffff", "argv": ["repro", "regress"]}
        assert fingerprint_digest(ENV) == fingerprint_digest(other)

    def test_machine_changes_digest(self):
        assert fingerprint_digest(ENV) != fingerprint_digest(
            {**ENV, "cpu_count": 64}
        )

    def test_none_env(self):
        assert len(fingerprint_digest(None)) == 12

    def test_cross_process_stability(self):
        """Same interpreter on the same box → the same digest in every
        process, so history entries from separate CI steps correlate."""
        import os
        import pathlib
        import subprocess
        import sys

        from repro.obs.harness import environment_fingerprint

        local = fingerprint_digest(environment_fingerprint())
        root = pathlib.Path(__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            # hash randomization must not leak into the digest
            "PYTHONHASHSEED": "random",
        }
        snippet = (
            "from repro.obs.harness import environment_fingerprint; "
            "from repro.obs.registry import fingerprint_digest; "
            "print(fingerprint_digest(environment_fingerprint()))"
        )
        digests = [
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env=env, cwd=root,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert digests[0] == digests[1] == local


class TestAppend:
    def test_round_trip(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        entry = hist.append("bench", _doc())
        assert entry.kind == "bench"
        assert entry.git_sha.startswith("deadbeef")
        loaded = hist.load(entry)
        assert loaded["schema"] == HISTORY_SCHEMA
        assert loaded["doc"]["schema"] == "repro-bench/1"
        assert loaded["env_digest"] == fingerprint_digest(ENV)

    def test_duplicate_append_deduplicated(self, tmp_path):
        """Same kind + SHA + fingerprint + timestamp → one entry."""
        hist = RunHistory(str(tmp_path / "h"))
        a = hist.append("bench", _doc())
        b = hist.append("bench", _doc())
        assert b == a
        assert len(hist.entries()) == 1
        assert len(list((tmp_path / "h").glob("*.json"))) == 1

    def test_distinct_timestamps_not_deduplicated(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        a = hist.append("bench", _doc(created="2026-08-06T12:00:00Z"))
        b = hist.append("bench", _doc(created="2026-08-06T12:00:01Z"))
        assert a.file != b.file
        assert len(hist.entries()) == 2

    def test_distinct_sha_not_deduplicated(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc(sha="aaaaaaaaaaaa"))
        hist.append("bench", _doc(sha="bbbbbbbbbbbb"))
        assert len(hist.entries()) == 2

    def test_distinct_kind_not_deduplicated(self, tmp_path):
        """The same document stored under two kinds is two runs."""
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc())
        hist.append("regress", _doc())
        assert len(hist.entries()) == 2

    def test_kind_filter_and_latest(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc(created="2026-08-06T10:00:00Z"))
        last = hist.append("regress", _doc(created="2026-08-06T11:00:00Z"))
        assert [e.kind for e in hist.entries("regress")] == ["regress"]
        assert hist.entries()[-1].file == last.file
        assert hist.entries("bench")[-1].kind == "bench"

    def test_regress_doc_env_under_current(self, tmp_path):
        """Regress documents nest env inside ``current``."""
        hist = RunHistory(str(tmp_path / "h"))
        entry = hist.append(
            "regress",
            {"schema": "repro-regress/1", "current": {"env": ENV}},
        )
        assert entry.git_sha == ENV["git_sha"]

    def test_bad_kind_rejected(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        with pytest.raises(ValueError):
            hist.append("../escape", _doc())


class TestReaderTolerance:
    def test_empty_store(self, tmp_path):
        hist = RunHistory(str(tmp_path / "missing"))
        assert hist.entries() == []

    def test_torn_index_line_skipped(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc(created="2026-08-06T12:00:00Z"))
        with open(hist.index_path, "a") as f:
            f.write('{"file": "half-writ')  # crashed writer
        hist.append("bench", _doc(created="2026-08-06T12:00:01Z"))
        assert len(hist.entries()) == 2

    def test_load_rejects_foreign_file(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc())
        stray = tmp_path / "h" / "stray.json"
        stray.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="envelope"):
            hist.load("stray.json")

    def test_scan_counts_torn_lines(self, tmp_path):
        hist = RunHistory(str(tmp_path / "h"))
        hist.append("bench", _doc(created="2026-08-06T12:00:00Z"))
        with open(hist.index_path, "a") as f:
            f.write('{"file": "half-writ\n{also torn\n')
        entries, torn = hist.scan()
        assert len(entries) == 1
        assert torn == 2
