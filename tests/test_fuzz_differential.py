"""Tests for the crash-contained differential harness and its judges."""

from __future__ import annotations

import json

import pytest

from repro.fuzz import (
    FLOW_NAMES,
    Disagreement,
    FlowOutcome,
    FuzzConfig,
    SpecKnobs,
    generate_spec,
    judge,
    run_flow,
    run_fuzz,
)
from repro.fuzz.differential import _lint_findings
from repro.fuzz.generator import SpecLabels
from repro.sg import properties


def _labels(**over) -> SpecLabels:
    base = dict(
        states=10,
        signals=4,
        inputs=2,
        consistent=True,
        csc=True,
        usc=True,
        semimodular=True,
        distributive=True,
        detonant_count=0,
        single_traversal=True,
    )
    base.update(over)
    return SpecLabels(**base)


def _ok(flow):
    return FlowOutcome(flow=flow, status="ok", area=1.0, delay=1.0, gates=1)


def _refused(flow, etype="SynthesisError"):
    return FlowOutcome(
        flow=flow, status="refused", detail=f"{etype}: nope", error_type=etype
    )


class TestJudge:
    def test_all_ok_on_valid_distributive_is_clean(self):
        assert judge(_labels(), [_ok(f) for f in FLOW_NAMES]) == []

    def test_crash_is_always_a_finding(self):
        outcomes = [
            FlowOutcome(
                flow="lavagno",
                status="crashed",
                detail="KeyError: 'x'",
                error_type="KeyError",
            )
        ]
        findings = judge(_labels(), outcomes)
        assert findings == [("flow-crash", "lavagno", "KeyError: 'x'")]

    def test_timeout_is_a_finding(self):
        outcomes = [FlowOutcome(flow="qflop", status="timeout", detail="20s")]
        assert judge(_labels(), outcomes)[0][0] == "flow-timeout"

    def test_invalid_spec_must_be_refused_by_everyone(self):
        labels = _labels(csc=False)
        findings = judge(labels, [_ok("nshot"), _refused("lavagno")])
        assert findings == [
            (
                "unexpected-success",
                "nshot",
                findings[0][2],
            )
        ]
        assert "Theorem 2" in findings[0][2]

    def test_nondistributive_refusal_by_restricted_flows_is_expected(self):
        labels = _labels(distributive=False, detonant_count=2)
        outcomes = [
            _refused("lavagno", "NotDistributiveError"),
            _refused("beerel", "NotDistributiveError"),
            _ok("nshot"),
            _ok("complex_gate"),
            _ok("qflop"),
        ]
        assert judge(labels, outcomes) == []

    def test_nondistributive_acceptance_by_restricted_flow_is_a_finding(self):
        labels = _labels(distributive=False, detonant_count=1)
        findings = judge(labels, [_ok("lavagno")])
        assert findings[0][:2] == ("unexpected-success", "lavagno")

    def test_universal_flow_refusing_valid_spec_is_a_finding(self):
        findings = judge(_labels(), [_refused("nshot")])
        assert findings[0][:2] == ("unexpected-refusal", "nshot")

    def test_data_dependent_refusals_are_tolerated(self):
        outcomes = [
            _refused("beerel", "StateSignalsRequiredError"),
            _refused("hazard_free_sop", "UnmaskableHazardError"),
        ]
        assert judge(_labels(), outcomes) == []


class TestRunFlow:
    def test_every_flow_contained_on_valid_spec(self):
        sg = generate_spec(0, SpecKnobs(signals=6)).sg
        for flow in FLOW_NAMES:
            out = run_flow(flow, sg, timeout=15.0)
            assert out.status in ("ok", "refused"), (flow, out.detail)

    def test_unknown_flow_is_crash_verdict_not_exception(self):
        sg = generate_spec(0, SpecKnobs(signals=6)).sg
        out = run_flow("no-such-flow", sg)
        assert out.status == "crashed"
        assert out.error_type == "ValueError"

    def test_refusal_carries_error_type(self):
        sg = generate_spec(1, SpecKnobs(signals=6, csc=False)).sg
        out = run_flow("nshot", sg, timeout=15.0)
        assert out.status == "refused"
        assert out.error_type == "SynthesisError"



class TestLintJudge:
    """The lint judge holds the preflight to the labels and to the
    pipeline's ``classify`` verdict."""

    def test_clean_on_a_valid_and_a_csc_broken_spec(self):
        for csc in (True, False):
            spec = generate_spec(1, SpecKnobs(signals=6, csc=csc))
            assert _lint_findings(spec.sg, spec.labels, spec.name) == []

    def test_classify_passing_what_the_preflight_refuses_is_a_finding(self, monkeypatch):
        spec = generate_spec(1, SpecKnobs(signals=6, csc=False))
        monkeypatch.setattr(properties, "code_conflicts", lambda sg: [])
        findings = _lint_findings(spec.sg, spec.labels, spec.name)
        assert ("lint-mismatch", "classify") in [f[:2] for f in findings]


class TestCampaign:
    def test_small_campaign_is_clean_and_contained(self):
        cfg = FuzzConfig(
            seed=0, budget=8, signals=6, jobs=1, oracle_runs=1, flow_timeout=15.0
        )
        report = run_fuzz(cfg)
        assert len(report.samples) == 8
        assert report.clean
        assert not report.truncated
        # every sample produced a verdict from every flow
        for s in report.samples:
            assert [o.flow for o in s.outcomes] == list(FLOW_NAMES)
            for o in s.outcomes:
                assert o.status in ("ok", "refused")

    def test_pool_campaign_matches_inline(self):
        inline = run_fuzz(
            FuzzConfig(seed=5, budget=4, signals=6, jobs=1, oracle_runs=0)
        )
        pooled = run_fuzz(
            FuzzConfig(seed=5, budget=4, signals=6, jobs=2, oracle_runs=0)
        )
        key = lambda r: [(s.seed, [(o.flow, o.status) for o in s.outcomes]) for s in r.samples]
        assert key(inline) == key(pooled)

    def test_schema_document(self):
        report = run_fuzz(
            FuzzConfig(seed=2, budget=4, signals=6, jobs=1, oracle_runs=0)
        )
        doc = report.to_json()
        assert doc["schema"] == "repro-fuzz/1"
        assert doc["summary"]["samples"] == 4
        json.dumps(doc)  # must be serializable as-is

    def test_broken_flow_is_found_minimized_and_archived(
        self, monkeypatch, tmp_path
    ):
        """End-to-end pipeline: injected flow bug -> disagreement ->
        shrink -> corpus archive, with the campaign itself surviving."""
        import repro.baselines as baselines
        from repro.fuzz import archive_reproducer, load_corpus

        def broken(sg, name="cg", **kw):
            raise KeyError("injected bug")

        monkeypatch.setattr(baselines, "synthesize_complex_gate", broken)
        report = run_fuzz(
            FuzzConfig(
                seed=1,
                budget=4,
                signals=6,
                jobs=1,  # inline, so the monkeypatch reaches the worker
                oracle_runs=0,
                minimize=True,
                shrink_evals=60,
            )
        )
        assert not report.clean
        sigs = {d.signature for d in report.disagreements}
        assert "flow-crash:complex_gate:KeyError" in sigs
        unique = report.unique_disagreements()
        d = next(x for x in unique if x.flow == "complex_gate")
        assert d.minimized_text is not None
        assert 1 <= d.minimized_states <= d.original_states
        path = archive_reproducer(d, tmp_path)
        assert path is not None and path.exists()
        entries = load_corpus(tmp_path)
        assert entries[0].signature == d.signature
        assert entries[0].sg().num_states == d.minimized_states
