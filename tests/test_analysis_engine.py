"""Engine-level tests: registry, scope phasing, crash containment,
pre-flight subset and baseline suppression."""

from __future__ import annotations

import pytest

from repro.analysis import (
    LintContext,
    RuleRegistry,
    Severity,
    analyze,
    apply_baseline,
    build_baseline,
    default_registry,
    load_baseline,
    rule,
    run_preflight,
    run_rules,
)
from repro.analysis.baseline import baseline_fingerprints, fingerprint
from repro.analysis.registry import Scope
from repro.bench.circuits import figure1_sg
from repro.core.synthesizer import SynthesisError, synthesize

from tests.conftest import sabotage_code


class TestRegistry:
    def test_duplicate_id_rejected(self):
        reg = RuleRegistry()

        @rule(
            "XX001",
            title="first",
            severity=Severity.INFO,
            scope=Scope.SG,
            registry=reg,
        )
        def first(ctx, meta):
            return iter(())

        with pytest.raises(ValueError, match="XX001"):

            @rule(
                "XX001",
                title="second",
                severity=Severity.INFO,
                scope=Scope.SG,
                registry=reg,
            )
            def second(ctx, meta):
                return iter(())

    def test_select_and_ignore(self, celem_sg):
        result = analyze(celem_sg, select={"SG001", "SG002"})
        assert result.rules_run == 2
        result = analyze(celem_sg, ignore={"SG001"})
        assert result.rules_run == len(default_registry().ids()) - 1

    def test_default_registry_is_id_sorted(self):
        ids = default_registry().ids()
        assert ids == sorted(ids)


class TestPhasing:
    def test_all_scopes_run_when_clean(self, celem_sg):
        result = analyze(celem_sg, name="celem")
        assert result.scopes_run == ["sg", "cover", "netlist"]
        assert result.scopes_skipped == []

    def test_sg_errors_gate_deeper_scopes(self):
        result = analyze(figure1_sg(), name="figure1")
        assert result.scopes_run == ["sg"]
        assert result.scopes_skipped == ["cover", "netlist"]

    def test_netlist_only_context_skips_sg_scopes(self):
        from repro.netlist.gates import Gate, GateType, Pin
        from repro.netlist.netlist import Netlist

        nl = Netlist("n")
        nl.add_input("x")
        nl.add(Gate("g", GateType.BUF, [Pin("x")], output="y"))
        nl.add_output("y")
        result = run_rules(LintContext(netlist=nl, name="n"))
        assert result.scopes_run == ["netlist"]


class TestCrashContainment:
    def test_rule_crash_becomes_engine_diagnostic(self, celem_sg):
        reg = RuleRegistry()

        @rule(
            "CR001",
            title="crasher",
            severity=Severity.INFO,
            scope=Scope.SG,
            registry=reg,
        )
        def crasher(ctx, meta):
            raise RuntimeError("boom")
            yield  # pragma: no cover - marks this as a generator

        result = run_rules(LintContext(celem_sg), reg)
        assert result.internal_errors == 1
        assert result.exit_code() == 2
        (diag,) = result.diagnostics
        assert diag.rule_id == "ENGINE"
        assert "CR001 crashed" in diag.message
        assert "boom" in diag.message


class TestPreflight:
    def test_preflight_runs_only_theorem2_rules(self, celem_sg):
        result = run_preflight(celem_sg, name="celem")
        assert result.ok
        preflight_ids = {
            r.meta.id for r in default_registry().all() if r.meta.preflight
        }
        assert preflight_ids == {"SG001", "SG002", "SG004"}
        # all in the one module the preflight loads
        assert {
            r.body.__module__ for r in default_registry().all() if r.meta.preflight
        } == {"repro.analysis.rules_sg"}
        assert result.rules_run == 3
        # SG-scope only: nothing minimized or mapped
        assert result.scopes_run == ["sg"]

    def test_synthesizer_uses_the_engine(self):
        """No second validation path: SynthesisError now carries the
        engine's structured diagnostics."""
        with pytest.raises(SynthesisError) as exc:
            synthesize(figure1_sg(), name="figure1")
        assert "Theorem 2" in str(exc.value)
        assert exc.value.diagnostics
        assert {d.rule_id for d in exc.value.diagnostics} == {"SG002"}

    def test_validate_for_synthesis_backed_by_engine(self):
        from repro.sg import validate_for_synthesis

        report = validate_for_synthesis(figure1_sg())
        assert not report.ok
        assert report.csc  # the same conflicts SG002 reports


class TestBaseline:
    def test_round_trip_suppression(self, tmp_path):
        results = [analyze(figure1_sg(), name="figure1")]
        assert results[0].errors == 4

        doc = build_baseline(results)
        path = tmp_path / "baseline.json"
        import json

        path.write_text(json.dumps(doc))
        fingerprints = load_baseline(str(path))
        assert len(fingerprints) == 4

        suppressed = apply_baseline(results, fingerprints)
        assert suppressed[0].errors == 0
        assert suppressed[0].suppressed == 4
        assert suppressed[0].exit_code() == 0
        assert "suppressed" in suppressed[0].summary()

    def test_new_findings_survive_baseline(self, celem_sg):
        # a baseline recorded on figure1 does not hide celem findings
        base = build_baseline([analyze(figure1_sg(), name="figure1")])
        sabotage_code(celem_sg, next(iter(celem_sg.states())), 0b111)
        fresh = [analyze(celem_sg, name="bad", select={"SG001"})]
        kept = apply_baseline(fresh, baseline_fingerprints(base))
        assert kept[0].errors == fresh[0].errors > 0

    def test_fingerprint_is_target_scoped(self):
        assert fingerprint("a", "k") != fingerprint("b", "k")

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="repro-lint-baseline/1"):
            baseline_fingerprints({"schema": "bogus", "entries": {}})
