"""Pure-delay event-driven gate-level simulator.

Implements the delay model of Section IV-A: every gate has a *pure*
delay — "a pulse of any length that occurs on a gate input can
propagate to the gate output".  There is no inertial filtering in
ordinary gates; the only pulse filtering in the whole system is the ω
threshold inside the MHS flip-flop.  Gates and wires may have
arbitrary delays: in ``jitter`` mode each gate instance is assigned a
random delay around its library nominal, which is how the Monte-Carlo
hazard-freeness verification explores delay corners.

The simulator executes a :class:`~repro.netlist.netlist.Netlist`
containing combinational gates plus the behavioural sequential cells
(MHS flip-flop, C-element, RS latch).  External drivers (the
SG environment) inject values on primary inputs via :meth:`drive`.

Every scheduled event is stamped with a *cause link*: the sequence id
of the event whose processing scheduled it, plus the gate that
evaluated (``None`` for external drives/injections).  The links form a
cause DAG rooted at environment transitions; an attached
:class:`~repro.obs.causality.FlightRecorder` (:meth:`attach_recorder`)
records the DAG under a ring-buffer budget so any observed glitch or
ω-filtered pulse can be explained back to the input transition that
set it in motion.  Un-attached runs pay only the two extra tuple slots
— the heap orders on ``(time, kind, seq)`` and ``seq`` is unique, so
the stamps never participate in comparisons.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from ..netlist.gates import Gate, GateType
from ..netlist.library import DEFAULT_LIBRARY
from ..netlist.netlist import Netlist
from ..obs import trace_span
from .mhs import MhsParams, MhsState
from .waveform import TraceSet

__all__ = ["Simulator", "SimConfig", "SimulationError", "SimulationLimitError"]


class SimulationError(RuntimeError):
    """A structural/behavioural failure inside a simulation run.

    Carries the offending gate/net and the simulation time so the oracle
    can report actionable diagnostics instead of a bare assertion
    message.
    """

    def __init__(
        self,
        message: str,
        *,
        gate: str | None = None,
        net: str | None = None,
        time: float | None = None,
    ) -> None:
        super().__init__(message)
        self.gate = gate
        self.net = net
        self.time = time

    def describe(self) -> str:
        parts = [str(self)]
        if self.gate is not None:
            parts.append(f"gate={self.gate}")
        if self.net is not None:
            parts.append(f"net={self.net}")
        if self.time is not None:
            parts.append(f"t={self.time:.3f}")
        return " ".join(parts)


class SimulationLimitError(SimulationError):
    """A watchdog limit tripped: the run was cut off, not completed.

    Raised by :meth:`Simulator.run` when ``max_events`` or
    ``max_sim_time`` is exceeded — the structured signal that a faulty
    netlist livelocked (e.g. an oscillating loop generating unbounded
    event streams) rather than quiescing.  ``limit`` names the budget
    that tripped (``"events"`` or ``"time"``).
    """

    def __init__(
        self, message: str, *, limit: str, events: int, time: float
    ) -> None:
        super().__init__(message, time=time)
        self.limit = limit
        self.events = events


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``jitter`` — relative spread of per-gate delays: each gate gets a
    fixed delay drawn uniformly from ``nominal × [1-jitter, 1+jitter]``
    at construction (0 = nominal everywhere).
    ``mhs`` — the MHS flip-flop's electrical parameters.
    ``cel_tau`` — response delay of baseline C-elements/RS latches.
    ``max_events`` / ``max_sim_time`` — watchdog budgets: when set, a
    run that processes more events (cumulative over the simulator's
    lifetime) or advances past the time bound raises
    :class:`SimulationLimitError` instead of spinning forever on a
    livelocked netlist.
    """

    jitter: float = 0.0
    seed: int | None = None
    mhs: MhsParams = field(default_factory=MhsParams)
    cel_tau: float = 1.2
    max_events: int | None = None
    max_sim_time: float | None = None


class Simulator:
    """Event-driven execution of a netlist under the pure delay model."""

    # event kinds, ordered so that internal window checks run before
    # net changes at equal timestamps; callbacks run after both
    _KIND_CHECK = 0
    _KIND_NET = 1
    _KIND_CALL = 2

    def __init__(
        self,
        netlist: Netlist,
        config: SimConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.config = config or SimConfig()
        self.rng = random.Random(self.config.seed)
        self.now = 0.0
        self.events_processed = 0
        self.values: dict[str, int] = {}
        self.traces = TraceSet()
        self.violations: list[str] = []
        # queue entries: (time, kind, seq, net, value, cause, gate) —
        # cause/gate sit after the unique seq so they never affect
        # heap ordering (see module docstring)
        self._queue: list[tuple[float, int, int, str, int, int | None, str | None]] = []
        self._seq = 0
        #: seq of the event currently being processed (cause context for
        #: anything scheduled from inside the event loop); None between
        #: run() calls, so external drives become cause-DAG roots
        self._cause_ctx: int | None = None
        self._recorder = None
        self._callbacks: dict[int, Callable[["Simulator", float], None]] = {}
        self._watchers: dict[str, list[Callable[[float, int], None]]] = {}
        self._fanout: dict[str, list[Gate]] = {}
        for g in netlist.gates:
            for p in g.inputs:
                self._fanout.setdefault(p.net, []).append(g)
        self._delay: dict[str, float] = {}
        for g in netlist.gates:
            nominal = DEFAULT_LIBRARY.gate_delay(g)
            if (
                self.config.jitter > 0
                and not g.is_sequential
                and g.type != GateType.DELAY
            ):
                lo = nominal * (1 - self.config.jitter)
                hi = nominal * (1 + self.config.jitter)
                self._delay[g.name] = max(0.01, self.rng.uniform(lo, hi))
            else:
                self._delay[g.name] = max(0.01, nominal)
        self._mhs: dict[str, MhsState] = {}
        self._cel_pending: dict[str, tuple[float, int] | None] = {}
        for g in netlist.gates:
            if g.type == GateType.MHSFF:
                self._mhs[g.name] = MhsState(
                    params=self.config.mhs, q=int(g.attrs.get("init", 0))
                )
            elif g.type in (GateType.CEL, GateType.RSLATCH):
                self._cel_pending[g.name] = None

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def initialize(self, input_values: dict[str, int]) -> None:
        """Set primary inputs and settle the combinational logic at t=0.

        Sequential cells start from their ``init`` attribute; the
        combinational network is levelized by repeated evaluation until
        the values reach a fixed point (the netlists built here have no
        combinational cycles).
        """
        with trace_span("sim-initialize", circuit=self.netlist.name):
            self._initialize(input_values)

    def _initialize(self, input_values: dict[str, int]) -> None:
        for net in self.netlist.primary_inputs:
            self.values[net] = int(input_values.get(net, 0))
        for g in self.netlist.gates:
            if g.type == GateType.MHSFF:
                q = self._mhs[g.name].q
                self.values[g.output] = q
                if g.output_n:
                    self.values[g.output_n] = 1 - q
            elif g.type in (GateType.CEL, GateType.RSLATCH):
                q = int(g.attrs.get("init", 0))
                self.values[g.output] = q
                if g.output_n:
                    self.values[g.output_n] = 1 - q
            elif g.type == GateType.CONST:
                self.values[g.output] = int(g.attrs.get("value", 0))
        # settle combinational nets
        for _ in range(len(self.netlist.gates) + 2):
            changed = False
            for g in self.netlist.gates:
                if g.is_sequential or g.type in (GateType.INPUT, GateType.CONST):
                    continue
                val = self._eval_comb(g)
                if val is not None and self.values.get(g.output) != val:
                    self.values[g.output] = val
                    changed = True
            if not changed:
                break
        else:
            raise SimulationError(
                "combinational initialization did not settle "
                "(combinational cycle in the netlist?)",
                time=0.0,
            )
        # seed MHS input levels so later edges are detected correctly
        for g in self.netlist.gates:
            if g.type == GateType.MHSFF:
                st = self._mhs[g.name]
                st.set_level = self._pin_value(g.inputs[0])
                st.reset_level = self._pin_value(g.inputs[1])
                if st.set_level and st.q == 0:
                    st._set_window = 0.0
                    self._schedule_check(self.config.mhs.omega)
                if st.reset_level and st.q == 1:
                    st._reset_window = 0.0
                    self._schedule_check(self.config.mhs.omega)
        for net, v in self.values.items():
            self.traces.record(net, 0.0, v)

    # ------------------------------------------------------------------
    # driving and observing
    # ------------------------------------------------------------------
    def drive(self, net: str, value: int, at: float) -> None:
        """Schedule a primary-input change."""
        if net not in self.netlist.primary_inputs:
            raise ValueError(f"{net!r} is not a primary input")
        self._post(at, net, value)

    def inject(self, net: str, value: int, at: float) -> None:
        """Force a value onto *any* net at a given time (fault injection).

        Unlike :meth:`drive` this bypasses the primary-input check: it
        is the single-event-upset hook transient fault models use to
        overdrive an internal net.  The driving gate does not fight
        back until one of its own inputs changes, so a pair of injects
        (flip at ``t``, restore at ``t + width``) models a transient
        pulse of the given width.
        """
        if net not in self.netlist.nets():
            raise ValueError(f"{net!r} is not a net of {self.netlist.name!r}")
        self._post(at, net, value)

    def watch(self, net: str, callback: Callable[[float, int], None]) -> None:
        """Register a callback invoked on every change of ``net``."""
        self._watchers.setdefault(net, []).append(callback)

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.obs.causality.FlightRecorder`.

        The recorder observes every processed event (with its cause
        link) plus the derived ``mhs-filtered`` events the flip-flop
        models report; it never influences the simulation.
        """
        self._recorder = recorder
        recorder.bind(self)

    def value(self, net: str) -> int:
        return self.values.get(net, 0)

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _post(
        self, time: float, net: str, value: int, gate: str | None = None
    ) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue,
            (time, self._KIND_NET, self._seq, net, value, self._cause_ctx, gate),
        )

    def _schedule_check(self, time: float) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue,
            (time, self._KIND_CHECK, self._seq, "", 0, self._cause_ctx, None),
        )

    def schedule_callback(
        self, time: float, fn: Callable[["Simulator", float], None]
    ) -> None:
        """Run ``fn(sim, time)`` when the event loop reaches ``time``.

        Used by transient fault models to decide their injection lazily
        (e.g. read the victim net's value at the moment of the upset).
        """
        self._seq += 1
        self._callbacks[self._seq] = fn
        heapq.heappush(
            self._queue,
            (time, self._KIND_CALL, self._seq, "", 0, self._cause_ctx, None),
        )

    def next_time(self) -> float | None:
        return self._queue[0][0] if self._queue else None

    def run(self, until: float) -> None:
        """Process events up to (and including) time ``until``.

        Enforces the :class:`SimConfig` watchdog budgets: exceeding
        ``max_events`` (cumulative across calls) or ``max_sim_time``
        raises :class:`SimulationLimitError`, turning a livelocked
        netlist — e.g. a fault-induced oscillator that schedules events
        forever — into a structured, catchable outcome.
        """
        cfg = self.config
        try:
            while self._queue and self._queue[0][0] <= until + 1e-12:
                time, kind, seq, net, value, cause, gate = heapq.heappop(
                    self._queue
                )
                self.now = max(self.now, time)
                self.events_processed += 1
                if cfg.max_events is not None and self.events_processed > cfg.max_events:
                    raise SimulationLimitError(
                        f"event budget exhausted ({cfg.max_events} events)",
                        limit="events",
                        events=self.events_processed,
                        time=self.now,
                    )
                if cfg.max_sim_time is not None and time > cfg.max_sim_time:
                    raise SimulationLimitError(
                        f"simulation time budget exhausted ({cfg.max_sim_time} ns)",
                        limit="time",
                        events=self.events_processed,
                        time=self.now,
                    )
                # everything scheduled while this event is handled —
                # gate evaluations, watcher callbacks, lazy injections —
                # is caused by it
                self._cause_ctx = seq
                if kind == self._KIND_CHECK:
                    if self._recorder is not None:
                        self._recorder.on_event(
                            seq, time, "check", net, value, cause, gate
                        )
                    self._run_mhs_checks(time)
                    continue
                if kind == self._KIND_CALL:
                    if self._recorder is not None:
                        self._recorder.on_event(
                            seq, time, "call", net, value, cause, gate
                        )
                    fn = self._callbacks.pop(seq, None)
                    if fn is not None:
                        fn(self, time)
                    continue
                if self.values.get(net) == value:
                    continue
                if self._recorder is not None:
                    self._recorder.on_event(
                        seq, time, "net", net, value, cause, gate
                    )
                self.values[net] = value
                self.traces.record(net, time, value)
                for cb in self._watchers.get(net, []):
                    cb(time, value)
                for g in self._fanout.get(net, []):
                    self._gate_input_changed(g, time)
        finally:
            # drives issued between run() calls are cause-DAG roots
            self._cause_ctx = None

    def _pin_value(self, pin) -> int:
        v = self.values.get(pin.net, 0)
        return 1 - v if pin.inverted else v

    def _eval_comb(self, g: Gate) -> int | None:
        t = g.type
        ins = [self._pin_value(p) for p in g.inputs]
        if t == GateType.AND:
            return 1 if all(ins) else 0
        if t == GateType.OR:
            return 1 if any(ins) else 0
        if t == GateType.INV:
            return 1 - ins[0]
        if t in (GateType.BUF, GateType.DELAY):
            return ins[0]
        if t == GateType.CONST:
            return int(g.attrs.get("value", 0))
        return None

    def _gate_input_changed(self, g: Gate, time: float) -> None:
        t = g.type
        if t in (GateType.AND, GateType.OR, GateType.INV, GateType.BUF, GateType.DELAY):
            val = self._eval_comb(g)
            if val is None:
                raise SimulationError(
                    f"gate {g.name} ({t.value}) produced no value",
                    gate=g.name,
                    net=g.output,
                    time=time,
                )
            # pure delay: schedule unconditionally; the queue's
            # last-write-wins per net at each timestamp reproduces the
            # transport-delay waveform, including narrow pulses.
            self._post(time + self._delay[g.name], g.output, val, gate=g.name)
        elif t == GateType.MHSFF:
            st = self._mhs[g.name]
            before_filtered = st.filtered
            sv = self._pin_value(g.inputs[0])
            rv = self._pin_value(g.inputs[1])
            if sv != st.set_level:
                st.on_set_edge(time, sv)
            if rv != st.reset_level:
                st.on_reset_edge(time, rv)
            if self._recorder is not None and st.filtered > before_filtered:
                # the edge just processed closed a sub-ω drive window:
                # surface the absorption as a derived cause-DAG event
                # whose cause is the falling edge itself
                self._recorder.on_filtered(
                    time,
                    gate=g.name,
                    width=st.filtered_widths[-1],
                    cause=self._cause_ctx,
                )
            dl = st.window_deadline()
            if dl is not None:
                self._schedule_check(dl)
        elif t in (GateType.CEL, GateType.RSLATCH):
            self._cel_changed(g, time)
        elif t in (GateType.INPUT, GateType.CONST):
            pass
        else:  # pragma: no cover - defensive
            raise SimulationError(
                f"unsupported gate type {g.type.value} on {g.name}",
                gate=g.name,
                time=time,
            )

    def _run_mhs_checks(self, time: float) -> None:
        for g in self.netlist.gates:
            if g.type != GateType.MHSFF:
                continue
            st = self._mhs[g.name]
            for t_commit, v in st.check_windows(time):
                # the output event is applied through the normal queue;
                # its cause is the maturity check, which in turn links
                # back to the edge that opened the drive window
                self._seq += 1
                heapq.heappush(
                    self._queue,
                    (
                        t_commit,
                        self._KIND_NET,
                        self._seq,
                        g.output,
                        v,
                        self._cause_ctx,
                        g.name,
                    ),
                )
                if g.output_n:
                    heapq.heappush(
                        self._queue,
                        (
                            t_commit,
                            self._KIND_NET,
                            self._seq,
                            g.output_n,
                            1 - v,
                            self._cause_ctx,
                            g.name,
                        ),
                    )
                st.apply_commit(t_commit, v)

    def _cel_changed(self, g: Gate, time: float) -> None:
        """Baseline C-element / RS latch behaviour (no ω filtering).

        A C-element commits whenever all inputs agree on a value
        different from the current output — even if the agreement is a
        runt pulse (this is exactly the weakness the MHS flip-flop
        fixes).  An RS latch commits on set/reset assertion.
        """
        ins = [self._pin_value(p) for p in g.inputs]
        q = self.values.get(g.output, 0)
        fire: int | None = None
        if g.type == GateType.CEL:
            if all(v == 1 for v in ins) and q == 0:
                fire = 1
            elif all(v == 0 for v in ins) and q == 1:
                fire = 0
        else:  # RS latch: inputs [set, reset]
            s, r = ins[0], ins[1]
            if s and r:
                self.violations.append(
                    f"t={time:.3f}: RS latch {g.name} set and reset both high"
                )
            elif s and q == 0:
                fire = 1
            elif r and q == 1:
                fire = 0
        if fire is not None:
            self._post(time + self.config.cel_tau, g.output, fire, gate=g.name)
            if g.output_n:
                self._post(
                    time + self.config.cel_tau, g.output_n, 1 - fire, gate=g.name
                )

    # ------------------------------------------------------------------
    def mhs_flipflops(self) -> dict[str, Gate]:
        """MHS flip-flop gates of the netlist, keyed by gate name.

        The gate's ``inputs[0]``/``inputs[1]`` nets are the master set
        and reset inputs — the nets whose pulse streams the ω threshold
        filters, and therefore where the hazard telemetry measures
        pulse widths.
        """
        return {
            g.name: g for g in self.netlist.gates if g.type == GateType.MHSFF
        }

    def mhs_state(self, name: str) -> MhsState:
        """Behavioural model state of one MHS flip-flop instance."""
        return self._mhs[name]

    @property
    def mhs_pulses_filtered(self) -> int:
        """Input pulses absorbed by the ω threshold across all MHS
        flip-flops — the pulse-filtering work the architecture exists
        for, surfaced for the observability counters."""
        return sum(st.filtered for st in self._mhs.values())

    def mhs_violations(self) -> list[str]:
        """Set/reset overlap violations recorded by the MHS models."""
        out = list(self.violations)
        for name, st in self._mhs.items():
            out.extend(f"{name}: {v}" for v in st.violations)
        return out
