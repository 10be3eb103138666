"""Tests for waveforms, the pure-delay simulator and the environment."""

import pytest

from repro.netlist import Gate, GateType, Netlist, Pin
from repro.sim import (
    Pulse,
    SGEnvironment,
    SimConfig,
    Simulator,
    TraceSet,
    Waveform,
    analyze_hazards,
)


class TestWaveform:
    def test_record_and_query(self):
        w = Waveform("n")
        w.record(0.0, 0)
        w.record(1.0, 1)
        w.record(2.5, 0)
        assert w.value_at(0.5) == 0
        assert w.value_at(1.0) == 1
        assert w.value_at(3.0) == 0
        assert len(w.changes[1:]) == 2

    def test_idempotent_record(self):
        w = Waveform("n")
        w.record(0.0, 1)
        w.record(1.0, 1)
        assert len(w.changes[1:]) == 0

    def test_non_monotonic_rejected(self):
        w = Waveform("n")
        w.record(5.0, 1)
        with pytest.raises(ValueError):
            w.record(1.0, 0)

    def test_pulses(self):
        w = Waveform("n")
        for t, v in [(0.0, 0), (1.0, 1), (1.2, 0), (5.0, 1)]:
            w.record(t, v)
        ps = w.pulses()
        assert ps[1] == Pulse(1.0, 1.2, 1)

    def test_glitch_pulses_exclude_endpoints(self):
        w = Waveform("n")
        for t, v in [(0.0, 0), (1.0, 1), (1.1, 0), (2.0, 1)]:
            w.record(t, v)
        glitches = w.glitch_pulses(0.5)
        assert len(glitches) == 1 and glitches[0].width == pytest.approx(0.1)

    def test_render_smoke(self):
        w = Waveform("sig")
        w.record(0.0, 0)
        w.record(1.0, 1)
        assert "sig" in w.render()

    def test_trace_set(self):
        ts = TraceSet()
        ts.record("a", 0.0, 0)
        ts.record("a", 1.0, 1)
        assert "a" in ts
        assert len(ts.get("a").changes[1:]) == 1
        assert ts.get("zzz") is None


def inverter_chain(n: int) -> Netlist:
    nl = Netlist("chain")
    nl.add_input("in")
    prev = "in"
    for k in range(n):
        out = f"w{k}"
        nl.add(Gate(f"inv{k}", GateType.INV, [Pin(prev)], out))
        prev = out
    nl.add_output(prev)
    return nl


class TestSimulator:
    def test_initial_settle(self):
        nl = inverter_chain(3)
        sim = Simulator(nl)
        sim.initialize({"in": 0})
        assert sim.value("w0") == 1
        assert sim.value("w2") == 1 - sim.value("w1")

    def test_propagation_delay(self):
        nl = inverter_chain(2)
        sim = Simulator(nl)
        sim.initialize({"in": 0})
        sim.drive("in", 1, at=1.0)
        sim.run(10.0)
        w = sim.traces["w1"]
        # two inverter delays after the edge; w1 follows `in` (double inversion)
        [(t, v)] = w.changes[1:]
        assert t == pytest.approx(1.0 + 2.4)
        assert v == 1

    def test_pure_delay_pulse_propagates(self):
        """A pulse narrower than the gate delay still reaches the output."""
        nl = inverter_chain(1)
        sim = Simulator(nl)
        sim.initialize({"in": 0})
        sim.drive("in", 1, at=1.0)
        sim.drive("in", 0, at=1.1)   # 0.1 pulse < 1.2 gate delay
        sim.run(10.0)
        assert len(sim.traces["w0"].changes[1:]) == 2

    def test_and_or_evaluation(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_input("b")
        nl.add_output("y")
        nl.add(Gate("g1", GateType.AND, [Pin("a"), Pin("b", inverted=True)], "x"))
        nl.add(Gate("g2", GateType.OR, [Pin("x"), Pin("b")], "y"))
        sim = Simulator(nl)
        sim.initialize({"a": 1, "b": 0})
        assert sim.value("y") == 1     # a·b' = 1
        sim.drive("b", 1, at=1.0)
        sim.run(20.0)
        assert sim.value("y") == 1     # now through the b term

    def test_drive_non_input_rejected(self):
        sim = Simulator(inverter_chain(1))
        sim.initialize({"in": 0})
        with pytest.raises(ValueError):
            sim.drive("w0", 1, at=0.0)

    def test_jitter_reproducible(self):
        nl = inverter_chain(4)
        s1 = Simulator(nl, SimConfig(jitter=0.4, seed=5))
        s2 = Simulator(nl, SimConfig(jitter=0.4, seed=5))
        assert s1._delay == s2._delay
        s3 = Simulator(nl, SimConfig(jitter=0.4, seed=6))
        assert s1._delay != s3._delay

    def test_mhsff_in_circuit_filters_runt(self):
        nl = Netlist()
        nl.add_input("s")
        nl.add_input("r")
        nl.add_output("q")
        nl.add(Gate("ff", GateType.MHSFF, [Pin("s"), Pin("r")], "q", output_n="qn"))
        sim = Simulator(nl)
        sim.initialize({"s": 0, "r": 0})
        sim.drive("s", 1, at=1.0)
        sim.drive("s", 0, at=1.1)    # runt: below omega (0.4)
        sim.run(20.0)
        assert sim.value("q") == 0
        sim.drive("s", 1, at=30.0)
        sim.run(60.0)
        assert sim.value("q") == 1
        assert sim.traces["q"].changes[1:] == [(30.0 + 1.2, 1)]

    def test_mhsff_dual_rail(self):
        nl = Netlist()
        nl.add_input("s")
        nl.add_input("r")
        nl.add_output("q")
        nl.add(Gate("ff", GateType.MHSFF, [Pin("s"), Pin("r")], "q", output_n="qn"))
        sim = Simulator(nl)
        sim.initialize({"s": 0, "r": 0})
        assert sim.value("qn") == 1
        sim.drive("s", 1, at=1.0)
        sim.run(10.0)
        assert (sim.value("q"), sim.value("qn")) == (1, 0)

    def test_rslatch_behaviour(self):
        nl = Netlist()
        nl.add_input("s")
        nl.add_input("r")
        nl.add_output("q")
        nl.add(Gate("rs", GateType.RSLATCH, [Pin("s"), Pin("r")], "q"))
        sim = Simulator(nl)
        sim.initialize({"s": 0, "r": 0})
        sim.drive("s", 1, at=1.0)
        sim.run(5.0)
        assert sim.value("q") == 1
        sim.drive("s", 0, at=6.0)
        sim.drive("r", 1, at=7.0)
        sim.run(12.0)
        assert sim.value("q") == 0

    def test_rslatch_both_high_flagged(self):
        nl = Netlist()
        nl.add_input("s")
        nl.add_input("r")
        nl.add_output("q")
        nl.add(Gate("rs", GateType.RSLATCH, [Pin("s"), Pin("r")], "q"))
        sim = Simulator(nl)
        sim.initialize({"s": 0, "r": 0})
        sim.drive("s", 1, at=1.0)
        sim.drive("r", 1, at=1.0)
        sim.run(5.0)
        assert sim.violations


class TestEnvironmentConformance:
    def test_correct_circuit_conforms(self, handshake_sg):
        from repro.core import synthesize

        circuit = synthesize(handshake_sg, name="hs")
        sim = Simulator(circuit.netlist, SimConfig(jitter=0.3, seed=1))
        env = SGEnvironment(handshake_sg, sim, seed=2)
        report = env.run(max_time=500.0, max_transitions=40)
        assert report.ok, report.summary()
        assert report.transitions_observed == 40

    def test_wrong_circuit_flagged(self, handshake_sg):
        """An inverter driving y violates the SG the moment r rises...
        actually it fires -y/+y out of spec — conformance must catch it."""
        nl = Netlist("bogus")
        nl.add_input("r")
        nl.add_output("y")
        nl.add(Gate("g", GateType.INV, [Pin("r")], "y"))
        sim = Simulator(nl)
        env = SGEnvironment(handshake_sg, sim, seed=3)
        report = env.run(max_time=100.0, max_transitions=10)
        assert not report.ok
        assert report.conformance_errors

    def test_dead_circuit_deadlocks(self, handshake_sg):
        nl = Netlist("dead")
        nl.add_input("r")
        nl.add_output("y")
        nl.add(Gate("c0", GateType.CONST, [], "y", attrs={"value": 0}))
        sim = Simulator(nl)
        env = SGEnvironment(handshake_sg, sim, seed=4)
        report = env.run(max_time=100.0, max_transitions=10)
        assert report.progress_errors


class TestHazardAnalysis:
    def test_split_internal_observable(self):
        ts = TraceSet()
        for t, v in [(0.0, 0), (1.0, 1), (1.1, 0), (9.0, 1)]:
            ts.record("plane", t, v)
        for t, v in [(0.0, 0), (5.0, 1)]:
            ts.record("q", t, v)
        report = analyze_hazards(ts, observable_nets=["q"], internal_nets=["plane"])
        assert report.internal_total == 1
        assert report.observable_total == 0
        assert report.externally_hazard_free

    def test_observable_glitch_detected(self):
        ts = TraceSet()
        for t, v in [(0.0, 0), (1.0, 1), (1.05, 0), (3.0, 1)]:
            ts.record("q", t, v)
        report = analyze_hazards(ts, observable_nets=["q"], internal_nets=[])
        assert not report.externally_hazard_free
        assert "observable" in report.summary()
