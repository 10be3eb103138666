"""Tests for the symbolic hazard certifier (HZ001–HZ005).

Satellite of the certifier PR: per obligation family, one proving case
on a paper circuit and one seeded refuting mutation, mirroring the
seeded-violation pattern of ``test_analysis_rules``.  Plus the
certificate document schema, the lint-rule surfacing, the differential
soundness harness, and the CLI exit contract.
"""

from __future__ import annotations

import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.analysis import LintContext, Severity, run_rules
from repro.analysis.certify import (
    CERT_SCHEMA,
    PROVED,
    REFUTED,
    UNKNOWN,
    Certificate,
    DifferentialOutcome,
    Obligation,
    archive_soundness_failure,
    certify_circuit,
    certify_cover,
    coverage_obligations,
    cross_check,
    delay_obligations,
    disjointness_obligations,
    omega_obligations,
    trigger_obligations,
)
from repro.analysis.certify import engine as certify_engine
from repro.analysis.certify.engine import _guarded
from repro.bench.circuits import figure7b_sg
from repro.cli import main
from repro.core import synthesize
from repro.core.sop_derivation import derive_sop_spec
from repro.logic import Cover, Cube
from repro.netlist.gates import GateType

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


@pytest.fixture()
def celem_circuit(celem_sg):
    return synthesize(celem_sg, name="celem")


def _fragmented_figure7b():
    """The TR003 fixture: a cover whose products fragment the trigger
    regions (each ON minterm covered, but never by a single cube)."""
    sg = figure7b_sg()
    spec = derive_sop_spec(sg)
    r = sg.signal_index("r")
    clk = sg.signal_index("clk")
    y = sg.signal_index("y")
    so = spec.output_index(y, "set")
    ro = spec.output_index(y, "reset")
    n = sg.num_signals

    def cube(bits, out):
        c = Cube.full(n, 1 << out)
        for var, val in bits.items():
            c = c.with_literal(var, 0b10 if val else 0b01)
        return c

    fragmented = Cover(
        n,
        spec.num_outputs,
        [
            cube({r: 1, y: 0, clk: 0}, so),
            cube({r: 1, y: 0, clk: 1}, so),
            cube({r: 0, y: 1, clk: 0}, ro),
            cube({r: 0, y: 1, clk: 1}, ro),
        ],
    )
    return sg, spec, fragmented


# ----------------------------------------------------------------------
# certificate records
# ----------------------------------------------------------------------
class TestCertificateDocument:
    def test_empty_certificate_is_not_proved(self):
        cert = Certificate(name="empty")
        assert not cert.fully_proved  # vacuous truth licenses nothing
        assert cert.counts == {PROVED: 0, REFUTED: 0, UNKNOWN: 0}

    def test_schema_round_trip(self, celem_circuit):
        cert = certify_circuit(celem_circuit)
        doc = cert.to_json()
        assert doc["schema"] == CERT_SCHEMA
        assert doc["name"] == "celem"
        assert doc["fully_proved"] is True
        assert doc["counts"]["proved"] == len(cert)
        assert {ob["rule"] for ob in doc["obligations"]} == {
            "HZ001",
            "HZ002",
            "HZ003",
            "HZ004",
            "HZ005",
        }
        # the document must be plain JSON (witnesses included)
        json.dumps(doc)

    def test_summary_states_verdict(self, celem_circuit):
        cert = certify_circuit(celem_circuit)
        assert "CERTIFIED" in cert.summary()
        cert.obligations.append(
            Obligation("HZ001", "c", "set", "x", REFUTED)
        )
        assert "REFUTED" in cert.summary()
        assert len(cert.refuted()) == 1

    def test_guarded_crash_becomes_unknown(self):
        def boom():
            raise RuntimeError("engine failure")

        (ob,) = _guarded(boom, "HZ002", "c", "set")
        assert ob.unknown and not ob.proved
        assert "RuntimeError" in ob.witness["error"]


# ----------------------------------------------------------------------
# obligation families: one prove + one seeded refutation each
# ----------------------------------------------------------------------
class TestTriggerContainment:  # HZ001
    def test_proved_on_celem(self, celem_circuit):
        obs = trigger_obligations(celem_circuit.spec, celem_circuit.cover)
        assert obs and all(ob.proved for ob in obs)

    def test_refuted_on_fragmented_cover(self):
        sg, spec, fragmented = _fragmented_figure7b()
        obs = trigger_obligations(spec, fragmented)
        bad = [ob for ob in obs if ob.refuted]
        assert bad, "fragmented trigger region must refute HZ001"
        assert all("uncovered_states" in ob.witness for ob in bad)


class TestStatic1Coverage:  # HZ002
    def test_proved_on_celem(self, celem_circuit):
        obs = coverage_obligations(celem_circuit.spec, celem_circuit.cover)
        assert obs and all(ob.proved for ob in obs)

    def test_refuted_on_emptied_column(self, celem_circuit):
        spec = celem_circuit.spec
        empty = Cover(spec.sg.num_signals, spec.num_outputs, [])
        obs = coverage_obligations(spec, empty)
        assert obs and all(ob.refuted for ob in obs)
        # the uncovered residue is the whole ON cube
        assert all(ob.witness["uncovered_count"] >= 1 for ob in obs)


class TestStatic0Disjointness:  # HZ003
    def test_proved_on_celem(self, celem_circuit):
        obs = disjointness_obligations(
            celem_circuit.spec, celem_circuit.cover
        )
        assert obs and all(ob.proved for ob in obs)

    def test_refuted_on_off_set_trespass(self, celem_circuit):
        spec = celem_circuit.spec
        off = spec.off.projection(0)
        # seed a product that *is* an OFF cube of the same function
        trespass = Cube.from_string(off.cubes[0].input_string(), 1)
        mutated = Cover(
            spec.sg.num_signals,
            spec.num_outputs,
            list(celem_circuit.cover.cubes) + [trespass],
        )
        obs = disjointness_obligations(spec, mutated)
        bad = [ob for ob in obs if ob.refuted]
        assert bad
        assert any(
            ob.witness["off_cube"] == off.cubes[0].input_string()
            for ob in bad
        )


class TestDelayInequalities:  # HZ004
    def test_proved_without_compensation(self, celem_circuit):
        obs = delay_obligations(celem_circuit)
        assert obs and all(ob.proved for ob in obs)
        assert all(
            ob.witness["compensation_required"] is False for ob in obs
        )

    def test_proved_with_inserted_delay_lines(self):
        # converta at spread 0.3 needs compensation; the synthesizer
        # inserts del_{set,reset} lines, so the inequality still proves
        from repro.bench import sg_of

        circuit = synthesize(
            sg_of("converta"), name="converta", delay_spread=0.3
        )
        assert any(
            r.compensation_required
            for r in circuit.delay_requirements.values()
        )
        obs = delay_obligations(circuit)
        assert obs and all(ob.proved for ob in obs)
        assert any(
            ob.witness.get("compensation_required") is True for ob in obs
        )

    def test_refuted_when_delay_lines_stripped(self):
        from repro.bench import sg_of

        circuit = synthesize(
            sg_of("converta"), name="converta", delay_spread=0.3
        )
        circuit.netlist.gates[:] = [
            g for g in circuit.netlist.gates if g.type is not GateType.DELAY
        ]
        obs = delay_obligations(circuit)
        bad = [ob for ob in obs if ob.refuted]
        assert bad, "stripping the delay lines must refute Equation (1)"
        assert all(ob.witness["missing"] for ob in bad)


class TestOmegaMargin:  # HZ005
    def test_proved_at_design_point(self, celem_circuit):
        obs = omega_obligations(celem_circuit)
        assert obs and all(ob.proved for ob in obs)
        assert all(ob.witness["margin"] > 0 for ob in obs)

    def test_refuted_when_omega_reaches_tau(self, celem_circuit, monkeypatch):
        # MhsParams itself rejects ω ≥ τ, so a stand-in carries the values
        monkeypatch.setattr(
            certify_engine, "MhsParams", lambda: SimpleNamespace(omega=1.5, tau=1.2)
        )
        obs = omega_obligations(celem_circuit)
        assert obs and all(ob.refuted for ob in obs)

    def test_unknown_when_derating_exhausts_margin(self, celem_sg):
        circuit = synthesize(celem_sg, name="celem", delay_spread=0.7)
        # ω=0.4 < τ=1.2 but ω ≥ τ·(1−spread)=0.36: statically undecidable
        obs = omega_obligations(circuit)
        assert obs and all(ob.unknown for ob in obs)


# ----------------------------------------------------------------------
# full-circuit drivers
# ----------------------------------------------------------------------
class TestCertifyCircuit:
    def test_celem_fully_proved(self, celem_circuit):
        cert = certify_circuit(celem_circuit)
        assert cert.fully_proved
        assert set(cert.by_rule()) == {
            "HZ001",
            "HZ002",
            "HZ003",
            "HZ004",
            "HZ005",
        }

    def test_certify_cover_families_only(self, celem_circuit):
        obs = certify_cover(celem_circuit.spec, celem_circuit.cover)
        assert {ob.rule for ob in obs} == {"HZ001", "HZ002", "HZ003"}


# ----------------------------------------------------------------------
# lint-rule surfacing (ERROR on refuted, WARNING on unknown)
# ----------------------------------------------------------------------
class TestHazardRules:
    def test_hz001_errors_on_fragmented_cover(self):
        sg, _spec, fragmented = _fragmented_figure7b()
        ctx = LintContext(sg, name="fragmented", cover=fragmented)
        result = run_rules(ctx, select={"HZ001"})
        diags = result.by_rule()["HZ001"]
        assert diags and all(d.severity is Severity.ERROR for d in diags)
        assert result.exit_code() == 1

    def test_hz002_errors_on_emptied_column(self, celem_sg):
        spec = derive_sop_spec(celem_sg)
        empty = Cover(celem_sg.num_signals, spec.num_outputs, [])
        ctx = LintContext(celem_sg, name="empty", cover=empty)
        result = run_rules(ctx, select={"HZ002"})
        diags = result.by_rule()["HZ002"]
        assert diags and all(d.severity is Severity.ERROR for d in diags)
        assert "static-1" in diags[0].message

    def test_hz003_errors_on_trespassing_product(self, celem_sg):
        spec = derive_sop_spec(celem_sg)
        trespass = Cube.from_string(spec.off.projection(0).cubes[0].input_string(), 1)
        cover = Cover(celem_sg.num_signals, spec.num_outputs, [trespass])
        ctx = LintContext(celem_sg, name="trespass", cover=cover)
        result = run_rules(ctx, select={"HZ003"})
        assert result.by_rule()["HZ003"]
        assert result.exit_code() == 1

    def test_hz_rules_silent_on_clean_circuit(self, celem_sg):
        ctx = LintContext(celem_sg, name="celem")
        result = run_rules(
            ctx, select={"HZ001", "HZ002", "HZ003", "HZ004", "HZ005"}
        )
        assert result.diagnostics == []
        assert result.exit_code() == 0


# ----------------------------------------------------------------------
# differential soundness harness
# ----------------------------------------------------------------------
class TestDifferential:
    def test_cross_check_sound_on_celem(self, celem_circuit):
        outcome = cross_check(
            celem_circuit, name="celem", runs=1, max_transitions=20
        )
        assert outcome.status == "ok"
        assert outcome.sound
        assert outcome.fully_proved
        assert outcome.oracle_ok is True
        assert "certifier proved, oracle clean" in outcome.describe()

    def test_unsound_is_exactly_proved_and_violated(self):
        assert not DifferentialOutcome(
            "x", "unsound", fully_proved=True, oracle_ok=False
        ).sound
        # every other cell of the matrix is sound
        assert DifferentialOutcome(
            "x", "ok", fully_proved=False, oracle_ok=False
        ).sound
        assert DifferentialOutcome(
            "x", "ok", fully_proved=True, oracle_ok=True
        ).sound
        assert DifferentialOutcome("x", "synthesis-error").sound

    def test_archive_soundness_failure(self, tmp_path):
        outcome = DifferentialOutcome(
            "bad", "unsound", fully_proved=True, oracle_ok=False
        )
        path = archive_soundness_failure(outcome, ".dummy spec\n", tmp_path)
        assert path is not None and path.exists()
        text = path.read_text()
        assert "# signature: certify-unsound:bad" in text
        assert text.endswith(".dummy spec\n")
        # dedupe: the same signature archives once
        assert archive_soundness_failure(outcome, ".x\n", tmp_path) is None


# ----------------------------------------------------------------------
# pipeline + bench integration (static-first verification)
# ----------------------------------------------------------------------
class TestStaticFirst:
    def test_pipeline_skips_monte_carlo_when_proved(self, celem_sg, tmp_path):
        from repro.pipeline import ArtifactStore, PipelineRun

        store = ArtifactStore(str(tmp_path / "cache"))
        run = PipelineRun.from_sg(celem_sg, name="celem", store=store)
        summary = run.verify(runs=1, static_first=True)
        assert summary.static_skip and summary.ok
        assert summary.certificate["fully_proved"] is True
        assert "statically certified" in summary.summary()
        # the certificate is a cached stage artifact, labeled in `cache ls`
        assert "certify" in store.stats()["by_stage"]
        assert any(
            e.describe().split()[1:3] == ["certify", "v1"]
            for e in store.entries()
        )
        # verify itself was never pulled: no verify-stage artifact
        assert "verify" not in store.stats()["by_stage"]

    def test_warm_static_first_is_one_cache_hit(self, celem_sg, tmp_path):
        from repro.pipeline import ArtifactStore, PipelineRun

        store = ArtifactStore(str(tmp_path / "cache"))
        PipelineRun.from_sg(celem_sg, name="celem", store=store).verify(
            runs=1, static_first=True
        )
        warm = PipelineRun.from_sg(celem_sg, name="celem", store=store)
        summary = warm.verify(runs=1, static_first=True)
        assert summary.static_skip
        assert warm.report()["misses"] == 0
        assert warm.report()["stages"]["certify"] == "hit"

    def test_verify_static_first_helper(self, celem_sg):
        from repro.pipeline import PipelineRun

        run = PipelineRun.from_sg(celem_sg, name="celem")
        summary = run.verify(runs=1, static_first=True)
        assert summary.static_skip and summary.ok

    def test_bench_entry_records_skip(self):
        from repro.obs.harness import bench_circuit, validate_bench

        entry = bench_circuit(
            "chu150", runs=1, verify_runs=1, static_first=True
        )
        assert entry["static"]["mc_skipped"] is True
        assert entry["static"]["counts"]["refuted"] == 0
        assert "certify" in entry["phases"]
        assert "oracle" not in entry["phases"]
        # the static block passes document validation
        doc = {
            "schema": "repro-bench/1",
            "env": {"python": "x", "platform": "y", "cpu_count": 1},
            "circuits": [entry],
        }
        assert validate_bench(doc) == []
        doc["circuits"][0] = dict(entry, static={"mc_skipped": "yes"})
        assert any("static.mc_skipped" in p for p in validate_bench(doc))


# ----------------------------------------------------------------------
# CLI exit contract (mirrors `repro lint`)
# ----------------------------------------------------------------------
class TestCertifyCli:
    def test_clean_file_exits_zero(self, gfile, capsys):
        assert main(["certify", str(gfile)]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        assert "1/1 target(s) fully certified" in out

    def test_json_document(self, gfile, capsys):
        assert main(["certify", str(gfile), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == CERT_SCHEMA
        assert doc["certificates"][0]["fully_proved"] is True

    def test_sarif_carries_hz_rules(self, gfile, capsys):
        assert main(["certify", str(gfile), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rules = {
            r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"HZ001", "HZ002", "HZ003", "HZ004", "HZ005"} <= rules

    def test_spread_and_method_reach_every_run(
        self, gfile, tmp_path, capsys, monkeypatch
    ):
        """``--spread``/``--method`` shape the certificate with and
        without a store: both documents are equal and record them."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = [
            "certify", str(gfile), "--spread", "0.4", "--method", "exact",
            "--format", "json",
        ]
        docs = []
        for extra in ([], ["--cache-dir", str(tmp_path / "cache")]):
            assert main(argv + extra) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]
        (cert,) = docs[0]["certificates"]
        assert cert["spread"] == 0.4
        assert cert["method"] == "exact"

    def test_no_targets_exits_two(self, capsys):
        assert main(["certify"]) == 2
        assert "no certify targets" in capsys.readouterr().err

    def test_lint_select_accepts_hz_ids(self, gfile, capsys):
        assert main(["lint", str(gfile), "--select", "HZ001,HZ005"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_synth_static_first_skips_monte_carlo(self, gfile, capsys):
        assert (
            main(["synth", str(gfile), "--verify", "--static-first"]) == 0
        )
        out = capsys.readouterr().out
        assert "statically certified" in out
        assert "Monte-Carlo skipped" in out
