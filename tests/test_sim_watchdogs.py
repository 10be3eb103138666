"""Simulator watchdogs: an injected livelock is a structured outcome.

A fault-induced oscillator schedules events forever.  The simulator's
event and simulated-time budgets must turn that into a
:class:`SimulationLimitError`, and the oracle must report it as a
``timeout`` verdict instead of hanging.
"""

from dataclasses import dataclass

import pytest

from repro.core import run_oracle, synthesize
from tests.fault_models import FaultModel, rebuild_netlist
from repro.netlist import Gate, GateType, Netlist, Pin
from repro.sim import (
    SimConfig,
    SimulationError,
    SimulationLimitError,
    Simulator,
)
from repro.stg import elaborate, parse_g
from tests.conftest import C_ELEMENT_G


@pytest.fixture(scope="module")
def golden():
    sg = elaborate(parse_g(C_ELEMENT_G))
    circuit = synthesize(sg, name="celem", delay_spread=0.3)
    return sg, circuit


# ----------------------------------------------------------------------
# simulator watchdogs + structured errors (the livelock guard)
# ----------------------------------------------------------------------
def gated_oscillator() -> Netlist:
    """Stable at ``en=0``; oscillates forever once ``en`` rises.

    A single fast AND gate fed back through its own inverted output:
    the canonical event-flood livelock the ``max_events`` watchdog
    exists for.
    """
    nl = Netlist("osc")
    nl.add_input("en")
    nl.add_output("osc_out")
    nl.add(
        Gate(
            "osc_and",
            GateType.AND,
            [Pin("en"), Pin("osc_out", inverted=True)],
            "osc_out",
            delay=0.05,
        )
    )
    return nl


class TestWatchdogs:
    def test_livelock_hits_event_budget(self):
        sim = Simulator(gated_oscillator(), SimConfig(max_events=5_000))
        sim.initialize({"en": 0})
        sim.drive("en", 1, 1.0)
        with pytest.raises(SimulationLimitError) as exc:
            sim.run(1e9)
        assert exc.value.limit == "events"
        assert exc.value.events >= 5_000
        assert sim.events_processed >= 5_000

    def test_livelock_hits_time_budget(self):
        sim = Simulator(
            gated_oscillator(),
            SimConfig(max_events=10_000_000, max_sim_time=50.0),
        )
        sim.initialize({"en": 0})
        sim.drive("en", 1, 1.0)
        with pytest.raises(SimulationLimitError) as exc:
            sim.run(1e9)
        assert exc.value.limit == "time"
        assert exc.value.time > 50.0

    def test_limit_error_is_simulation_error(self):
        assert issubclass(SimulationLimitError, SimulationError)
        e = SimulationError("boom", gate="g1", net="n1", time=2.5)
        assert (e.gate, e.net, e.time) == ("g1", "n1", 2.5)
        assert "g1" in e.describe() and "t=2.5" in e.describe()

    def test_unbudgeted_run_unaffected(self):
        sim = Simulator(gated_oscillator(), SimConfig())
        sim.initialize({"en": 0})
        sim.run(100.0)  # stable: no budget, no events, no error
        assert sim.value("osc_out") == 0

    def test_inject_validates_net(self):
        sim = Simulator(gated_oscillator(), SimConfig())
        sim.initialize({"en": 0})
        with pytest.raises(ValueError, match="is not a net"):
            sim.inject("no_such_net", 1, 1.0)

    def test_schedule_callback_fires_once(self):
        sim = Simulator(gated_oscillator(), SimConfig())
        sim.initialize({"en": 0})
        seen = []
        sim.schedule_callback(5.0, lambda s, t: seen.append(t))
        sim.run(100.0)
        assert seen == [5.0]


# ----------------------------------------------------------------------
# a fault that livelocks the circuit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LivelockFault(FaultModel):
    """Grafts a self-latching ring oscillator armed by the output.

    ``osc_en`` latches high the first time ``signal`` rises (a
    self-looped OR), after which a fast feedback AND oscillates
    forever — the circuit itself still conforms, but the event stream
    never quiesces.  Only the ``max_events`` watchdog turns this into
    a recorded outcome instead of a stuck run.
    """

    signal: str = "c"

    kind = "livelock"

    def apply_netlist(self, netlist):
        nl = rebuild_netlist(netlist, lambda g: g)
        nl.add(
            Gate(
                "osc_latch",
                GateType.OR,
                [Pin(self.signal), Pin("osc_en")],
                "osc_en",
            )
        )
        nl.add(
            Gate(
                "osc_and",
                GateType.AND,
                [Pin("osc_en"), Pin("osc_out", inverted=True)],
                "osc_out",
                delay=0.05,
            )
        )
        return nl


class TestGracefulDegradation:
    def test_oracle_reports_timeout_not_hang(self, golden):
        sg, circuit = golden
        fault = LivelockFault("c")
        faulty = fault.apply_netlist(circuit.netlist)
        verdict = run_oracle(
            faulty, sg, SimConfig(jitter=0.3, seed=0, max_events=20_000)
        )
        assert verdict.status == "timeout"
        assert verdict.events >= 20_000
        assert verdict.errors and "event" in verdict.errors[0]
