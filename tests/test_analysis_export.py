"""Exporter tests: text report, ``repro-lint/1`` JSON and SARIF 2.1.0
structural validity."""

from __future__ import annotations

import json

from repro.analysis import (
    analyze,
    default_registry,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.export import LINT_SCHEMA, SARIF_VERSION
from repro.bench.circuits import figure1_sg

from tests.conftest import sabotage_code


def _results(celem_sg):
    return [
        analyze(celem_sg, name="celem", source="celem.g"),
        analyze(figure1_sg(), name="figure1"),
    ]


class TestText:
    def test_contains_findings_and_summaries(self, celem_sg):
        text = render_text(_results(celem_sg))
        assert "SG002" in text
        assert "celem: clean" in text
        assert "figure1: 4 error(s)" in text
        assert "total: 4 error(s)" in text
        assert "── figure1 ──" in text and "── celem ──" not in text


class TestJson:
    def test_schema_and_shape(self, celem_sg):
        doc = json.loads(render_json(_results(celem_sg)))
        assert doc["schema"] == LINT_SCHEMA == "repro-lint/1"
        assert doc["totals"]["targets"] == 2
        assert doc["totals"]["errors"] == 4

        celem, figure1 = doc["targets"]
        assert celem["name"] == "celem"
        assert celem["diagnostics"] == []
        assert celem["scopes_run"] == ["sg", "cover", "netlist"]
        assert figure1["scopes_skipped"] == ["cover", "netlist"]

        diag = figure1["diagnostics"][0]
        assert diag["rule"] == "SG002"
        assert diag["severity"] == "error"
        assert diag["location"]["kind"] == "state-pair"
        assert "hint" in diag

        # the full rule catalog rides along for consumers
        ids = [r["id"] for r in doc["rules"]]
        assert ids == default_registry().ids()


class TestSarif:
    def test_required_210_fields(self, celem_sg):
        doc = json.loads(render_sarif(_results(celem_sg)))
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == default_registry().ids()
        for r in driver["rules"]:
            assert r["shortDescription"]["text"]
            assert r["defaultConfiguration"]["level"] in (
                "error",
                "warning",
                "note",
            )

        results = doc["runs"][0]["results"]
        assert len(results) == 4
        for entry in results:
            assert entry["ruleId"] == "SG002"
            assert entry["level"] == "error"
            assert entry["message"]["text"].startswith("figure1: ")
            # ruleIndex must agree with the driver rules array
            assert driver["rules"][entry["ruleIndex"]]["id"] == entry["ruleId"]
            (loc,) = entry["locations"]
            (logical,) = loc["logicalLocations"]
            assert logical["fullyQualifiedName"].startswith("figure1::")

    def test_physical_location_for_file_targets(self, celem_sg):
        sabotage_code(celem_sg, next(iter(celem_sg.states())), 0b111)
        result = analyze(
            celem_sg, name="bad", source="specs/bad.g", select={"SG001"}
        )
        doc = json.loads(render_sarif([result]))
        entry = doc["runs"][0]["results"][0]
        uri = entry["locations"][0]["physicalLocation"]["artifactLocation"][
            "uri"
        ]
        assert uri == "specs/bad.g"
