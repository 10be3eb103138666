"""Edge cases of the SG environment and in-circuit delay lines."""

import pytest

from repro.core import synthesize
from repro.netlist import Gate, GateType, Netlist, Pin
from repro.sg import SGBuilder
from repro.sim import SGEnvironment, SimConfig, Simulator


def choice_sg():
    """Free input choice: the environment picks r1 or r2, never both."""
    b = SGBuilder(["r1", "r2", "g"], ["r1", "r2"])
    b.arc("000", "+r1", "100")
    b.arc("000", "+r2", "010")
    b.arc("100", "+g", "101")
    b.arc("010", "+g", "011")
    b.arc("101", "-r1", "001")
    b.arc("011", "-r2", "001")
    b.arc("001", "-g", "000")
    b.initial("000")
    return b.build()


class TestInputChoice:
    def test_environment_resolves_choices(self):
        sg = choice_sg()
        circuit = synthesize(sg, name="choice", delay_spread=0.45)
        sim = Simulator(circuit.netlist, SimConfig(jitter=0.45, seed=5))
        env = SGEnvironment(sg, sim, seed=5)
        report = env.run(max_time=2000.0, max_transitions=60)
        assert report.ok, report.conformance_errors[:2]
        # the mutually exclusive requests never coexist
        r1, r2 = sim.traces.get("r1"), sim.traces.get("r2")
        assert r1 is not None and r2 is not None
        for t, v in r1.changes:
            if v == 1:
                assert r2.value_at(t) == 0

    def test_both_branches_eventually_taken(self):
        sg = choice_sg()
        circuit = synthesize(sg, name="choice", delay_spread=0.45)
        taken = set()
        for seed in range(6):
            sim = Simulator(circuit.netlist, SimConfig(jitter=0.45, seed=seed))
            env = SGEnvironment(sg, sim, seed=seed)
            env.run(max_time=800.0, max_transitions=30)
            for net in ("r1", "r2"):
                w = sim.traces.get(net)
                if w is not None and len(w.changes[1:]) > 0:
                    taken.add(net)
        assert taken == {"r1", "r2"}


class TestEnvironmentBudgets:
    def test_max_transitions_respected(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        sim = Simulator(circuit.netlist)
        env = SGEnvironment(handshake_sg, sim, seed=1)
        report = env.run(max_time=1e6, max_transitions=12)
        assert report.transitions_observed == 12

    def test_max_time_respected(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        sim = Simulator(circuit.netlist)
        env = SGEnvironment(handshake_sg, sim, seed=1, input_delay=(50.0, 60.0))
        report = env.run(max_time=200.0, max_transitions=10**6)
        assert report.final_time <= 260.0

    def test_report_counts_inputs(self, handshake_sg):
        circuit = synthesize(handshake_sg)
        sim = Simulator(circuit.netlist)
        env = SGEnvironment(handshake_sg, sim, seed=2)
        report = env.run(max_time=2000.0, max_transitions=20)
        # the handshake alternates one input per output transition
        assert report.inputs_fired >= report.transitions_observed - 1


class TestDelayLineInCircuit:
    def test_delay_line_delays(self):
        nl = Netlist("dl")
        nl.add_input("a")
        nl.add_output("y")
        nl.add(Gate("d", GateType.DELAY, [Pin("a")], "y", delay=3.6))
        sim = Simulator(nl)
        sim.initialize({"a": 0})
        sim.drive("a", 1, at=1.0)
        sim.run(10.0)
        [(t, v)] = sim.traces["y"].changes[1:]
        assert t == pytest.approx(4.6)
        assert v == 1

    def test_delay_line_not_jittered(self):
        nl = Netlist("dl")
        nl.add_input("a")
        nl.add_output("y")
        nl.add(Gate("d", GateType.DELAY, [Pin("a")], "y", delay=2.4))
        for seed in range(3):
            sim = Simulator(nl, SimConfig(jitter=0.5, seed=seed))
            assert sim._delay["d"] == pytest.approx(2.4)

    def test_compensated_circuit_still_conformant(self, celem_sg):
        """A circuit designed for ±90% bounds carries delay lines and
        still verifies under that jitter."""
        from repro.core import verify_hazard_freeness
        from repro.bench.circuits import figure1_csc_sg

        sg = figure1_csc_sg()
        circuit = synthesize(sg, name="comp", delay_spread=0.9)
        if circuit.compensation_required:
            delays = [g for g in circuit.netlist.gates if g.type == GateType.DELAY]
            assert delays
        summary = verify_hazard_freeness(circuit, runs=3, max_transitions=60)
        assert summary.ok


class TestCElementGate:
    def test_cel_waits_for_agreement(self):
        nl = Netlist("cel")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_output("q")
        nl.add(Gate("c", GateType.CEL, [Pin("a"), Pin("b")], "q"))
        sim = Simulator(nl)
        sim.initialize({"a": 0, "b": 0})
        sim.drive("a", 1, at=1.0)
        sim.run(10.0)
        assert sim.value("q") == 0          # only one input high
        sim.drive("b", 1, at=11.0)
        sim.run(20.0)
        assert sim.value("q") == 1          # agreement reached
        sim.drive("a", 0, at=21.0)
        sim.run(30.0)
        assert sim.value("q") == 1          # holds until both low
        sim.drive("b", 0, at=31.0)
        sim.run(40.0)
        assert sim.value("q") == 0
