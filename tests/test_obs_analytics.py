"""The cross-run analytics engine and the auto-ratchet.

Acceptance properties:

* a mixed-kind ledger (interleaved bench / profile / regress, torn
  index lines, duplicate rows) loads onto one timeline with every
  integrity problem **counted**, never silent;
* a synthetic step-slowdown ledger makes the changepoint detector flag
  exactly the injected commit range — no phantom neighbours;
* ``propose_ratchet`` only ever emits thresholds at or above the
  clamps, every band it tightens admits the runs it was derived from
  (on the committed ledger too), and ``apply_ratchet`` never loosens.
"""

import json
import os

import pytest

from repro.obs import analytics
from repro.obs.analytics import (
    ANALYTICS_SCHEMA,
    RatchetError,
    SeriesPoint,
    analyze,
    apply_ratchet,
    detect_changepoints,
    load_ledger,
    phase_series,
    propose_ratchet,
)
from repro.obs.metrics import mad, median
from repro.obs.registry import RunHistory
from repro.obs.regress import (
    DEFAULT_THRESHOLDS_PATH,
    THRESHOLDS_SCHEMA,
    ThresholdPolicy,
    Thresholds,
    load_threshold_config,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENV = {
    "python": "3.12.0",
    "implementation": "CPython",
    "platform": "Linux-x86_64",
    "machine": "x86_64",
    "cpu_count": 8,
}


def _stamp(i: int) -> str:
    return f"2026-08-{1 + i // 24:02d}T{i % 24:02d}:00:00Z"


def _bench_doc(i: int, sha: str, total_s: float, phases: dict | None = None):
    phases = phases or {"minimize": total_s * 0.5}
    return {
        "schema": "repro-bench/1",
        "created_utc": _stamp(i),
        "env": {**ENV, "git_sha": sha},
        "circuits": [
            {
                "name": "converta",
                "phases": {
                    p: {"median_s": v, "p90_s": v, "calls": 1}
                    for p, v in phases.items()
                },
                "total": {"median_s": total_s, "p90_s": total_s},
            }
        ],
    }


def _profile_doc(i: int, sha: str, self_s: float):
    return {
        "schema": "repro-profile/1",
        "created_utc": _stamp(i),
        "env": {**ENV, "git_sha": sha},
        "functions": [
            {"func": "cover.py:<setcomp>", "self_s": self_s, "pct": 60.0},
            {"func": "graph.py:enabled", "self_s": self_s / 2, "pct": 30.0},
        ],
    }


def _regress_doc(i: int, sha: str, ok: bool = True):
    return {
        "schema": "repro-regress/1",
        "created_utc": _stamp(i),
        "env": {**ENV, "git_sha": sha},
        "ok": ok,
        "regressions": 0 if ok else 2,
        "cleared": 1,
        "baseline": {"created_utc": _stamp(0), "git_sha": "b" * 40},
    }


def _fill(history, n=8, total_s=0.010, start=0, sha=None):
    for i in range(n):
        history.append(
            "bench",
            _bench_doc(start + i, sha or f"{start + i:02d}" + "a" * 38, total_s),
        )


class TestLedgerLoading:
    def test_mixed_kinds_share_one_timeline(self, tmp_path):
        """Interleaved kinds come back chronologically, not per-kind."""
        history = RunHistory(str(tmp_path / "h"))
        history.append("bench", _bench_doc(0, "a" * 40, 0.01))
        history.append("profile", _profile_doc(1, "a" * 40, 0.1))
        history.append("regress", _regress_doc(2, "a" * 40))
        history.append("bench", _bench_doc(3, "c" * 40, 0.01))
        ledger = load_ledger(history)
        assert [r.kind for r in ledger.runs] == [
            "bench",
            "profile",
            "regress",
            "bench",
        ]
        assert ledger.counts() == {"bench": 2, "profile": 1, "regress": 1}
        assert ledger.torn_lines == 0
        assert ledger.duplicates == 0
        assert ledger.unreadable == 0

    def test_torn_lines_counted_never_silent(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        history.append("bench", _bench_doc(0, "a" * 40, 0.01))
        with open(history.index_path, "a") as f:
            f.write('{"file": "half-writ')  # crashed writer
        history.append("bench", _bench_doc(1, "b" * 40, 0.01))
        entries, torn = history.scan()
        assert len(entries) == 2 and torn == 1
        ledger = load_ledger(history)
        assert ledger.torn_lines == 1
        assert len(ledger.runs) == 2  # the torn line isolates cleanly

    def test_duplicate_rows_collapse(self, tmp_path):
        """Identical (kind, created, sha, env) index rows collapse to
        one run, and the collapse is counted."""
        history = RunHistory(str(tmp_path / "h"))
        history.append("bench", _bench_doc(0, "a" * 40, 0.01))
        with open(history.index_path) as f:
            first = f.readline()
        with open(history.index_path, "a") as f:
            f.write(first)  # byte-identical duplicate row
        ledger = load_ledger(history)
        assert len(ledger.runs) == 1
        assert ledger.duplicates == 1

    def test_unreadable_files_counted_with_names(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        entry = history.append("bench", _bench_doc(0, "a" * 40, 0.01))
        history.append("bench", _bench_doc(1, "b" * 40, 0.01))
        os.remove(os.path.join(history.root, entry.file))
        ledger = load_ledger(history)
        assert ledger.unreadable == 1
        assert ledger.unreadable_files == [entry.file]
        assert len(ledger.runs) == 1

    def test_strata_and_current(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        history.append("bench", _bench_doc(0, "a" * 40, 0.01))
        doc = _bench_doc(1, "b" * 40, 0.01)
        doc["env"]["cpu_count"] = 64  # a different machine
        history.append("bench", doc)
        ledger = load_ledger(history)
        assert len(ledger.strata()) == 2
        assert ledger.current_stratum() == ledger.runs[-1].env_digest


class TestSeriesExtraction:
    def test_phase_series_includes_total(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=3)
        series = phase_series(load_ledger(history))
        assert ("converta", "minimize") in series
        assert ("converta", "total") in series
        assert len(series[("converta", "total")]) == 3

    def test_robust_stats(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        # one outlier barely moves the MAD (the whole point)
        quiet = [10.0, 10.1, 9.9, 10.0, 50.0]
        assert mad(quiet) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            median([])


def _series(values, shas=None, env="e" * 12):
    shas = shas or [f"{i:02d}" + "f" * 38 for i in range(len(values))]
    return [
        SeriesPoint(
            created_utc=_stamp(i),
            git_sha=shas[i],
            env_digest=env,
            value=v,
            file=f"run{i}.json",
        )
        for i, v in enumerate(values)
    ]


class TestChangepoints:
    def test_flags_exactly_the_injected_commit_range(self):
        """Six quiet runs, then six at 2x: one changepoint, attributed
        to the boundary pair (run5 -> run6) and nothing else."""
        pts = _series([0.010] * 6 + [0.020] * 6)
        cps = detect_changepoints(pts)
        assert len(cps) == 1
        cp = cps[0]
        assert cp.index == 6
        assert cp.from_sha == pts[5].git_sha
        assert cp.to_sha == pts[6].git_sha
        assert cp.direction == "slower"
        assert cp.ratio == pytest.approx(2.0)

    def test_quiet_series_is_quiet(self):
        pts = _series([0.010, 0.0101, 0.0099, 0.010, 0.0102, 0.0098, 0.010])
        assert detect_changepoints(pts) == []

    def test_speedup_detected_as_faster(self):
        pts = _series([0.020] * 5 + [0.010] * 5)
        cps = detect_changepoints(pts)
        assert len(cps) == 1
        assert cps[0].direction == "faster"

    def test_machine_swap_is_not_a_changepoint(self):
        """The same step, but the level shift coincides with an env
        change — per-stratum partitioning must stay silent."""
        slow = _series([0.010] * 6, env="a" * 12)
        fast = _series([0.020] * 6, env="b" * 12)
        assert detect_changepoints(slow + fast) == []

    def test_short_series_never_flags(self):
        assert detect_changepoints(_series([0.01, 0.09, 0.01])) == []

    def test_end_to_end_through_analyze(self, tmp_path):
        """The full pipeline: ledger -> analyze -> flagged commit range."""
        history = RunHistory(str(tmp_path / "h"))
        old = "0d" + "a" * 38
        new = "1e" + "b" * 38
        for i in range(6):
            history.append("bench", _bench_doc(i, old, 0.010))
        for i in range(6, 12):
            history.append("bench", _bench_doc(i, new, 0.025))
        doc = analyze(history)
        assert doc["schema"] == ANALYTICS_SCHEMA
        totals = [c for c in doc["changepoints"] if c["phase"] == "total"]
        assert len(totals) == 1
        assert totals[0]["from_sha"] == old
        assert totals[0]["to_sha"] == new
        assert totals[0]["direction"] == "slower"
        row = next(
            p
            for p in doc["phases"]
            if (p["circuit"], p["phase"]) == ("converta", "total")
        )
        assert len(row["changepoints"]) == 1
        assert row["values"][-1] == pytest.approx(0.025)


class TestAnalyzeDocument:
    def test_panels_and_regress_summary(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        for i in range(3):
            doc = _bench_doc(i, f"{i:02d}" + "c" * 38, 0.01)
            doc["circuits"][0]["telemetry"] = {
                "min_omega_margin": 2.0 + i,
                "min_delay_slack": 1.0,
            }
            doc["circuits"][0]["coverage"] = {"states_pct": 80.0}
            doc["circuits"][0]["static"] = {
                "mc_skipped": True,
                "fully_proved": True,
            }
            history.append("bench", doc)
        history.append("profile", _profile_doc(3, "0a" + "c" * 38, 0.2))
        history.append("regress", _regress_doc(4, "0b" + "c" * 38, ok=False))
        doc = analyze(history)
        assert doc["panels"]["min_omega_margin"]["latest"] == pytest.approx(4.0)
        assert doc["panels"]["coverage_pct"]["latest"] == pytest.approx(80.0)
        assert doc["panels"]["certified"]["latest"] == 1
        assert doc["regress"]["ok"] is False
        assert doc["regress"]["regressions"] == 2
        hot = {h["func"] for h in doc["hotspots"]}
        assert "cover.py:<setcomp>" in hot

    def test_empty_ledger(self, tmp_path):
        doc = analyze(str(tmp_path / "empty"))
        assert doc["ledger"]["runs"] == 0
        assert doc["phases"] == []
        assert doc["changepoints"] == []


class TestProposeRatchet:
    def test_quiet_ledger_proposes_tighter_bands(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=8, total_s=0.010)
        proposal = propose_ratchet(history, ThresholdPolicy())
        assert proposal["schema"] == THRESHOLDS_SCHEMA
        by_phase = proposal["evidence"]
        assert by_phase["total"]["action"] == "tighten"
        # the tightened band is the policy's, as a whole
        assert proposal["phases"]["total"] == by_phase["total"]["proposed"]
        # a dead-quiet series still never ratchets below the clamps
        assert by_phase["total"]["proposed"]["rel"] >= 0.05
        assert by_phase["total"]["proposed"]["abs_s"] >= 0.0005
        # evidence rides along
        ev = by_phase["total"]["circuits"][0]
        assert ev["circuit"] == "converta" and ev["n"] >= 3

    def test_stale_thresholds_flagged(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=8, total_s=0.010)
        proposal = propose_ratchet(
            history, ThresholdPolicy(default=Thresholds(rel=0.5))
        )
        assert "total" in proposal["stale"]

    def test_noisy_phase_proposes_loosen(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        # ±30-40% jitter run to run: the floor is far above a 0.05 band
        noisy = [0.010, 0.013, 0.007, 0.011, 0.009, 0.014, 0.008, 0.012]
        for i, v in enumerate(noisy):
            history.append("bench", _bench_doc(i, f"{i:02d}" + "d" * 38, v))
        proposal = propose_ratchet(
            history, ThresholdPolicy(default=Thresholds(rel=0.05, abs_s=0.0005))
        )
        assert proposal["evidence"]["total"]["action"] == "loosen"
        # a loosening is never proposed as a band, only reported
        assert proposal["phases"] == {}

    def test_too_few_runs_no_evidence(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=2)
        proposal = propose_ratchet(history, ThresholdPolicy())
        assert proposal["evidence"] == {} and proposal["phases"] == {}

    def test_clean_tail_excludes_the_old_level(self, tmp_path):
        """A freshly-landed perf win must not widen the floor: the
        median evidence comes from after the changepoint only."""
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=6, total_s=0.040, start=0)
        _fill(history, n=6, total_s=0.010, start=6)
        proposal = propose_ratchet(history, ThresholdPolicy())
        ev = proposal["evidence"]["total"]["circuits"][0]
        assert ev["median_s"] == pytest.approx(0.010)
        assert ev["n"] <= 6


class TestApplyRatchet:
    def _proposal(self, tmp_path, policy):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=8, total_s=0.010)
        return propose_ratchet(history, policy)

    def test_tighten_applies_componentwise(self, tmp_path):
        policy = ThresholdPolicy()
        proposal = self._proposal(tmp_path, policy)
        new = apply_ratchet(proposal, policy)
        for phase, t in new.phases.items():
            old = policy.for_phase(phase)
            assert t.rel <= old.rel and t.abs_s <= old.abs_s
        assert new.phases  # something actually ratcheted

    def test_refuses_to_loosen_loudly(self, tmp_path):
        tight = ThresholdPolicy(
            default=Thresholds(rel=0.001, abs_s=0.000001)
        )
        proposal = self._proposal(tmp_path, tight)
        assert proposal["evidence"]["total"]["action"] == "loosen"
        # the proposal itself keeps the tight bands ...
        assert apply_ratchet(proposal, tight) == tight
        # ... and a hand edit that loosens one is refused
        proposal["phases"]["total"] = proposal["evidence"]["total"]["proposed"]
        with pytest.raises(RatchetError, match="loosen"):
            apply_ratchet(proposal, tight)
        # and the policy is untouched on refusal
        assert tight.phases == {}

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="repro-thresholds/1"):
            apply_ratchet({"schema": "nope/9"}, ThresholdPolicy())

    def test_never_looser_even_on_mixed_rows(self):
        """A hand-built band that tightens ``rel`` but sneaks in a looser
        ``abs_s`` is refused as a whole: it allows more at the evidence
        median."""
        policy = ThresholdPolicy()
        proposal = {
            "schema": THRESHOLDS_SCHEMA,
            **policy.to_json(),
            "evidence": {"minimize": {"circuits": [{"median_s": 0.002}]}},
        }
        proposal["phases"] = {"minimize": {"rel": 0.10, "abs_s": 9.0}}
        with pytest.raises(RatchetError, match="minimize"):
            apply_ratchet(proposal, policy)
        # a band looser in rel but tighter at every evidence median is
        # no loosening
        proposal["phases"] = {"minimize": {"rel": 1.0, "abs_s": 0.001}}
        t = apply_ratchet(proposal, policy).phases["minimize"]
        assert (t.rel, t.abs_s) == (1.0, 0.001)


class TestCommittedLedgerRatchet:
    """The ratchet on the committed ``benchmarks/history/`` ledger and
    threshold config: a tightened band must admit every run of the
    clean evidence tail it was derived from.

    Once a proposal is installed, the committed config may have nothing
    left to tighten, so the ratchet also runs from the committed default
    without its per-phase overrides, which keeps something to tighten
    and so keeps the check from passing on an empty proposal."""

    def test_tightened_bands_admit_their_evidence(self):
        history = os.path.join(ROOT, "benchmarks", "history")
        committed = load_threshold_config(
            os.path.join(ROOT, DEFAULT_THRESHOLDS_PATH)
        )
        ledger = load_ledger(history)
        stratum = ledger.current_stratum()
        series_of = sorted(phase_series(ledger).items())
        stripped = ThresholdPolicy(default=committed.default)
        rejected = []
        tightened = set()
        for policy in (committed, stripped):
            new = apply_ratchet(propose_ratchet(ledger, policy), policy)
            for (circuit, phase), pts in series_of:
                band = new.for_phase(phase)
                if band == policy.for_phase(phase):
                    continue
                if policy is stripped:
                    tightened.add(phase)
                series = [p for p in pts if p.env_digest == stratum]
                cps = detect_changepoints(series)
                tail = [p.value for p in series[cps[-1].index if cps else 0 :]]
                tail = tail[-10:]
                if len(tail) < 3:
                    continue
                allowed = band.allowed(median(tail))
                over = [v for v in tail if v > allowed]
                if over:
                    rejected.append((phase, circuit, len(over), len(tail)))
        assert tightened, "the committed ledger tightens nothing, even from the default band"
        assert rejected == []


class TestRoundTrip:
    def test_analytics_doc_is_json(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        _fill(history, n=4)
        doc = analyze(history)
        again = json.loads(json.dumps(doc))
        assert again["schema"] == ANALYTICS_SCHEMA

    def test_module_exports(self):
        for name in ("analyze", "propose_ratchet", "apply_ratchet"):
            assert name in analytics.__all__
