"""SG state-space coverage maps and their verify wiring.

The headline acceptance property: under the verification oracle the
paper-suite circuits reach ≥95% excitation-region traversal coverage,
and whatever stays uncovered is *listed*, never silently dropped.
"""

import pytest

from repro.core import synthesize, verify_hazard_freeness
from repro.obs.coverage import (
    COVERAGE_SCHEMA,
    CoverageMap,
    CoverageReport,
    RegionCoverage,
    _pct,
)


@pytest.fixture(scope="module")
def celem_circuit():
    from repro.stg import elaborate, parse_g
    from tests.conftest import C_ELEMENT_G

    sg = elaborate(parse_g(C_ELEMENT_G))
    return synthesize(sg, name="celem", delay_spread=0.0)


# ----------------------------------------------------------------------
# the static universe
# ----------------------------------------------------------------------
class TestUniverse:
    def test_pct_conventions(self):
        assert _pct(0, 0) == 100.0  # an empty universe is fully covered
        assert _pct(1, 3) == pytest.approx(33.33)

    def test_universe_matches_synthesis(self, celem_circuit):
        cov = CoverageMap.for_circuit(celem_circuit)
        sg = celem_circuit.sg
        assert cov.universe == frozenset(sg.reachable())
        # the C-element has one rising + one falling excitation region
        labels = [r.label for r in cov.region_cov]
        assert len(labels) == 2
        assert any("+c" in x for x in labels)
        assert any("-c" in x for x in labels)
        # every cube of the cover's set/reset columns is in the universe
        assert cov.totals()["cubes_total"] == len(
            celem_circuit.cover.cubes
        )

    def test_unattached_map_reports_zero(self, celem_circuit):
        report = CoverageMap.for_circuit(celem_circuit).report()
        assert report.runs == 0
        assert report.states_visited == 0
        assert report.states_pct == 0.0
        # the gaps are the point: the full listings must be present
        assert len(report.uncovered_states) == report.states_total
        assert report.uncovered_regions == [
            r.label for r in report.regions
        ]
        assert len(report.uncovered_cubes) == report.cubes_total


# ----------------------------------------------------------------------
# accumulation through the oracle
# ----------------------------------------------------------------------
class TestOracleAccumulation:
    def test_verify_reaches_full_region_coverage(self, celem_circuit):
        cov = CoverageMap.for_circuit(celem_circuit)
        summary = verify_hazard_freeness(celem_circuit, runs=3, coverage=cov)
        assert summary.ok
        report = cov.report()
        assert report.runs == 3
        # acceptance criterion: ≥95% excitation-region traversal
        assert report.regions_pct >= 95.0
        assert report.states_pct == 100.0
        for r in report.regions:
            assert r.entries > 0 and r.exits > 0 and r.traversals > 0

    def test_summary_carries_schema_document(self, celem_circuit):
        cov = CoverageMap.for_circuit(celem_circuit)
        verify_hazard_freeness(celem_circuit, runs=1, coverage=cov)
        doc = cov.summary()
        assert doc["schema"] == COVERAGE_SCHEMA
        assert doc["circuit"] == "celem"
        assert set(doc) >= {"states", "regions", "trigger_cubes"}
        for block in (doc["states"], doc["regions"], doc["trigger_cubes"]):
            assert isinstance(block["uncovered"], list)
            assert 0.0 <= block["pct"] <= 100.0

    def test_coverage_none_without_map(self, celem_circuit):
        """A sweep without a map records no coverage: the summary has no
        coverage field, and a map built but not passed stays at zero."""
        cov = CoverageMap.for_circuit(celem_circuit)
        summary = verify_hazard_freeness(celem_circuit, runs=1)
        assert not hasattr(summary, "coverage")
        doc = cov.summary()
        assert doc["runs"] == 0 and doc["states"]["visited"] == 0

    def test_accumulates_across_sweeps(self, celem_circuit):
        """One map over two separate sweeps keeps aggregating."""
        cov = CoverageMap.for_circuit(celem_circuit)
        verify_hazard_freeness(celem_circuit, runs=1, coverage=cov)
        first = cov.report().states_visited
        verify_hazard_freeness(celem_circuit, runs=1, coverage=cov)
        assert cov.report().runs == 2
        assert cov.report().states_visited >= first


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
class TestReport:
    def _report(self):
        return CoverageReport(
            circuit="x",
            runs=1,
            states_total=4,
            states_visited=3,
            uncovered_states=["1000"],
            regions=[
                RegionCoverage("ER(+y)", states=2, entries=1, exits=1,
                               traversals=1),
                RegionCoverage("ER(-y)", states=2),
            ],
            cubes_total=2,
            cubes_fired=1,
            uncovered_cubes=["set_y/a b'"],
        )

    def test_percentages(self):
        r = self._report()
        assert r.states_pct == 75.0
        assert r.regions_pct == 50.0
        assert r.cubes_pct == 50.0
        assert r.uncovered_regions == ["ER(-y)"]

    def test_totals_block(self):
        t = self._report().totals()
        assert t == {
            "states_pct": 75.0, "regions_pct": 50.0, "cubes_pct": 50.0,
            "states_visited": 3, "states_total": 4,
            "regions_traversed": 1, "regions_total": 2,
            "cubes_fired": 1, "cubes_total": 2,
        }

    def test_text_lists_uncovered(self):
        text = self._report().render_text()
        assert "ER(-y)" in text
        assert "set_y/a b'" in text
        assert "3/4" in text

    def test_text_caps_long_listings_explicitly(self):
        r = self._report()
        r.uncovered_states = [f"s{i}" for i in range(20)]
        text = r.render_text(list_cap=4)
        assert "(+16 more)" in text  # capped loudly, never silently
        # ...but the JSON document keeps every item
        assert len(r.to_json()["states"]["uncovered"]) == 20


# ----------------------------------------------------------------------
# the paper-suite acceptance sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestPaperSuiteCoverage:
    def test_region_traversal_at_least_95pct(self):
        from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS
        from repro.bench.runner import sg_of

        for name in DISTRIBUTIVE_BENCHMARKS:
            circuit = synthesize(sg_of(name), name=name, delay_spread=0.0)
            cov = CoverageMap.for_circuit(circuit)
            verify_hazard_freeness(circuit, runs=5, coverage=cov)
            report = cov.report()
            assert report.regions_pct >= 95.0, (
                f"{name}: {report.regions_pct}% "
                f"uncovered={report.uncovered_regions}"
            )
