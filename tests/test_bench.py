"""Tests for the benchmark reconstructions and the Table 2 runner."""

import pytest

from repro.bench import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    run_benchmark,
    sg_of,
)
from repro.core import synthesize
from repro.sg import is_distributive, validate_for_synthesis
from repro.stg import elaborate

SMALL_DISTRIBUTIVE = [
    n for n, (_, states, _) in DISTRIBUTIVE_BENCHMARKS.items() if states <= 120
]


class TestBenchmarkValidity:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIVE_BENCHMARKS))
    def test_distributive_benchmarks_valid(self, name):
        builder, paper_states, _ = DISTRIBUTIVE_BENCHMARKS[name]
        if paper_states > 600:
            pytest.skip("large benchmark covered by the bench harness")
        sg = elaborate(builder())
        rep = validate_for_synthesis(sg)
        assert rep.ok, rep.summary()
        assert is_distributive(sg)
        # reconstructed size within the paper's order of magnitude
        assert paper_states / 4 <= sg.num_states <= paper_states * 4

    @pytest.mark.parametrize("name", sorted(NONDISTRIBUTIVE_BENCHMARKS))
    def test_nondistributive_benchmarks_valid(self, name):
        builder, paper_states, _ = NONDISTRIBUTIVE_BENCHMARKS[name]
        sg = builder()
        rep = validate_for_synthesis(sg)
        assert rep.ok, rep.summary()
        assert not is_distributive(sg)
        assert paper_states / 4 <= sg.num_states <= paper_states * 4

    def test_sg_of_both_registries(self):
        assert sg_of("chu172").num_states > 0
        assert sg_of("pmcm2").num_states > 0


class TestRunner:
    def test_distributive_row_all_flows(self):
        row = run_benchmark("chu172")
        for cell in (row.sis, row.syn, row.assassin):
            assert "/" in cell  # area/delay, no failure code
        assert row.paper_assassin == "120/2.4"
        assert not row.compensation_required

    def test_nondistributive_row_failure_codes(self):
        row = run_benchmark("pmcm2")
        assert row.sis == "(1)"
        assert row.syn == "(1)"
        assert "/" in row.assassin

    def test_cells_shape(self):
        row = run_benchmark("hazard")
        name, states, *cells = row.cells()
        assert name == "hazard"
        assert isinstance(states, int)
        assert len(cells) == 3


class TestTable2Shape:
    """The qualitative claims of Section V on the reconstructed suite."""

    @pytest.mark.parametrize("name", ["chu133", "full", "sbuf-send-ctl", "qr42"])
    def test_assassin_never_bigger_than_syn(self, name):
        row = run_benchmark(name)
        a_area = float(row.assassin.split("/")[0])
        s_area = float(row.syn.split("/")[0])
        assert a_area <= s_area

    @pytest.mark.parametrize("name", ["chu133", "hazard", "sbuf-send-ctl"])
    def test_assassin_no_slower_than_sis_on_concurrent(self, name):
        row = run_benchmark(name)
        a_delay = float(row.assassin.split("/")[1])
        s_delay = float(row.sis.split("/")[1])
        assert a_delay <= s_delay

    def test_delay_compensation_never_required(self):
        """Section V: 'delay compensation … was never required'."""
        for name in SMALL_DISTRIBUTIVE + list(NONDISTRIBUTIVE_BENCHMARKS):
            assert not synthesize(sg_of(name), name=name).compensation_required, name

    def test_only_assassin_handles_nondistributive(self):
        for name in NONDISTRIBUTIVE_BENCHMARKS:
            row = run_benchmark(name)
            assert row.sis == "(1)" and row.syn == "(1)"
            assert "/" in row.assassin
