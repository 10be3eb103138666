"""Tests for dynamic performance measurement."""

import math

import pytest

from repro.baselines import synthesize_beerel
from repro.core import synthesize
from repro.sim import measure_performance


class TestMeasurePerformance:
    def test_conformant_and_populated(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        report = measure_performance(circuit.netlist, handshake_sg, runs=2)
        assert report.conformant
        assert report.transitions > 0
        assert report.response_times  # y measured
        assert not math.isnan(report.mean_response())

    def test_response_bounded_by_static_path(self, celem_sg):
        circuit = synthesize(celem_sg)
        report = measure_performance(circuit.netlist, celem_sg, runs=3)
        assert report.mean_response() <= circuit.stats().delay + 1e-9

    def test_ordering_vs_baseline(self, celem_sg):
        ours = synthesize(celem_sg)
        syn = synthesize_beerel(celem_sg)
        p_ours = measure_performance(ours.netlist, celem_sg)
        p_syn = measure_performance(syn.netlist, celem_sg)
        assert p_ours.conformant and p_syn.conformant
        assert p_ours.mean_response() < p_syn.mean_response() + 1e-9

    def test_cycle_times_recorded(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        report = measure_performance(
            circuit.netlist, handshake_sg, runs=1, max_transitions=40
        )
        cyc = report.mean_cycle("y")
        assert not math.isnan(cyc)
        assert cyc > 0

    def test_summary_text(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        report = measure_performance(circuit.netlist, handshake_sg, runs=1)
        assert "mean response" in report.summary()

    def test_missing_signal_is_nan(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        report = measure_performance(circuit.netlist, handshake_sg, runs=1)
        assert math.isnan(report.mean_cycle("nonexistent"))
