"""Causal flight recorder: explain *why* an event happened.

The simulator stamps every scheduled event with a cause link — the
event whose processing scheduled it plus the gate that evaluated
(:mod:`repro.sim.simulator`).  A :class:`FlightRecorder` attached via
``Simulator.attach_recorder`` records those links into a bounded ring
buffer, forming the run's cause DAG:

* **roots** are events scheduled from outside the event loop — the
  environment driving a primary input, or a fault model arming its
  first callback;
* **interior nodes** are gate evaluations, ω-window maturity checks,
  MHS commits and lazy callbacks;
* **derived events** mark physics with no queue event of their own,
  currently ``mhs-filtered``: an input pulse absorbed by the flip-flop
  ω threshold, linked to the falling edge that closed the window.

:meth:`FlightRecorder.explain` walks the DAG from any recorded event
back to its originating environment transitions and renders the chain
as text or as a ``repro-causality/1`` JSON document.  The ring buffer
keeps the last ``budget`` events; a walk that runs off the evicted end
reports itself truncated — never silently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

__all__ = [
    "CAUSALITY_SCHEMA",
    "RecordedEvent",
    "CausalChain",
    "FlightRecorder",
    "find_filtered_chain",
]

CAUSALITY_SCHEMA = "repro-causality/1"

#: longest cause chain :meth:`FlightRecorder.explain` walks
MAX_CHAIN_DEPTH = 10_000


@dataclass(frozen=True)
class RecordedEvent:
    """One node of the recorded cause DAG.

    ``kind`` is ``net`` (a net changed value), ``check`` (an ω-window
    maturity check), ``call`` (a scheduled callback ran — environment
    probes and fault injections), or ``mhs-filtered`` (derived: a pulse
    absorbed by the ω threshold).  ``cause`` is the seq of the causing
    event, ``None`` for DAG roots.  ``gate`` names the evaluating gate
    when one did.
    """

    seq: int
    time: float
    kind: str
    net: str = ""
    value: int = 0
    cause: int | None = None
    gate: str | None = None
    width: float | None = None

    def describe(self) -> str:
        head = f"t={self.time:.3f}"
        if self.kind == "net":
            head += f"  {self.net} -> {self.value}"
            if self.gate:
                head += f"  (via {self.gate})"
        elif self.kind == "mhs-filtered":
            head += (
                f"  ω-filtered pulse at {self.gate}"
                + (f" (width {self.width:.3f})" if self.width is not None else "")
            )
        elif self.kind == "check":
            head += "  ω-window maturity check"
        else:
            head += "  scheduled callback"
        return head

    def to_dict(self) -> dict:
        d = {
            "seq": self.seq,
            "time": round(self.time, 6),
            "kind": self.kind,
            "cause": self.cause,
        }
        if self.kind in ("net",):
            d["net"] = self.net
            d["value"] = self.value
        if self.gate is not None:
            d["gate"] = self.gate
        if self.width is not None:
            d["width"] = round(self.width, 6)
        return d


@dataclass
class CausalChain:
    """One walk of the cause DAG: target event back to its root.

    ``events`` is ordered root-first (the originating transition at
    index 0, the explained event last).  ``truncated`` is set when the
    walk ran into an evicted event — the ring buffer had already
    dropped part of the history.
    """

    target: RecordedEvent
    events: list[RecordedEvent] = field(default_factory=list)
    truncated: bool = False
    dropped: int = 0
    #: primary-input nets of the simulated netlist (classifies roots)
    inputs: frozenset[str] = frozenset()

    @property
    def root(self) -> RecordedEvent | None:
        return self.events[0] if self.events else None

    @property
    def depth(self) -> int:
        return len(self.events)

    def _root_origin(self) -> str:
        r = self.root
        if r is None or self.truncated:
            return "unknown (history evicted)"
        if r.kind == "net" and r.net in self.inputs:
            return f"environment input transition {r.net} -> {r.value}"
        if r.kind == "net":
            return f"external injection on {r.net}"
        if r.kind == "call":
            return "externally armed callback"
        return r.kind

    @property
    def environment_rooted(self) -> bool:
        """True when the chain bottoms out at a primary-input change."""
        r = self.root
        return (
            not self.truncated
            and r is not None
            and r.kind == "net"
            and r.net in self.inputs
        )

    def render_text(self, max_steps: int = 40) -> str:
        lines = [
            f"causal chain ({self.depth} event(s), "
            f"origin: {self._root_origin()})"
            + ("  [TRUNCATED: ring buffer evicted earlier history]"
               if self.truncated else ""),
        ]
        events = self.events
        elided = 0
        if len(events) > max_steps:
            # keep both ends: the origin matters and so does the target
            head = max_steps // 2
            tail = max_steps - head
            elided = len(events) - head - tail
            events = events[:head] + events[-tail:]
        for i, ev in enumerate(events):
            if elided and i == max_steps // 2:
                lines.append(f"    ... {elided} intermediate event(s) elided ...")
            lines.append(f"  {'->' if i else '**'} {ev.describe()}")
        return "\n".join(lines)

    def to_json_doc(self) -> dict:
        return {
            "schema": CAUSALITY_SCHEMA,
            "target": self.target.to_dict(),
            "origin": self._root_origin(),
            "environment_rooted": self.environment_rooted,
            "truncated": self.truncated,
            "dropped_events": self.dropped,
            "depth": self.depth,
            "chain": [ev.to_dict() for ev in self.events],
        }


class FlightRecorder:
    """Bounded recorder of one simulator's cause DAG.

    Attach with ``sim.attach_recorder(recorder)`` (or call
    :meth:`attach` from the ``observe`` hook of
    :func:`repro.core.verify.run_oracle`).  The ring buffer keeps the
    last ``budget`` events; eviction is counted in :attr:`dropped` and
    surfaces as ``truncated`` on any chain that needs the lost history.
    """

    def __init__(self, budget: int = 50_000) -> None:
        if budget < 16:
            raise ValueError("flight recorder budget must be at least 16")
        self.budget = budget
        self.dropped = 0
        self._events: OrderedDict[int, RecordedEvent] = OrderedDict()
        self._filtered: list[int] = []  # seqs of mhs-filtered events
        self._inputs: frozenset[str] = frozenset()
        self._derived_seq = 0

    # ------------------------------------------------------------------
    # recording (called by the simulator)
    # ------------------------------------------------------------------
    def bind(self, sim: "Simulator") -> None:
        """Called by ``Simulator.attach_recorder``; learns the netlist's
        primary inputs so chain roots can be classified."""
        self._inputs = frozenset(sim.netlist.primary_inputs)

    def attach(self, sim: "Simulator") -> None:
        """Convenience for ``observe`` hooks: attach this recorder."""
        sim.attach_recorder(self)

    def _remember(self, ev: RecordedEvent) -> None:
        self._events[ev.seq] = ev
        while len(self._events) > self.budget:
            old_seq, _ = self._events.popitem(last=False)
            self.dropped += 1
            # an evicted filtered-pulse marker is no longer explainable
            if self._filtered and self._filtered[0] == old_seq:
                self._filtered.pop(0)

    def on_event(
        self,
        seq: int,
        time: float,
        kind: str,
        net: str,
        value: int,
        cause: int | None,
        gate: str | None,
    ) -> None:
        self._remember(
            RecordedEvent(
                seq=seq,
                time=time,
                kind=kind,
                net=net,
                value=value,
                cause=cause,
                gate=gate,
            )
        )

    def on_filtered(
        self, time: float, *, gate: str, width: float, cause: int | None
    ) -> None:
        """A pulse was absorbed by the ω threshold (derived event)."""
        # derived events get negative seqs: they are not queue events
        # and must never collide with the simulator's counter
        self._derived_seq -= 1
        ev = RecordedEvent(
            seq=self._derived_seq,
            time=time,
            kind="mhs-filtered",
            cause=cause,
            gate=gate,
            width=width,
        )
        self._filtered.append(ev.seq)
        self._remember(ev)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def filtered_pulses(self) -> list[RecordedEvent]:
        """The ``mhs-filtered`` derived events still in the buffer."""
        return [
            self._events[s] for s in self._filtered if s in self._events
        ]

    def find_net_event(
        self, net: str, at: float | None = None, value: int | None = None
    ) -> RecordedEvent | None:
        """Most recent change of ``net`` (closest to ``at`` if given)."""
        hits = [
            ev
            for ev in self._events.values()
            if ev.kind == "net"
            and ev.net == net
            and (value is None or ev.value == value)
        ]
        if not hits:
            return None
        if at is None:
            return hits[-1]
        return min(hits, key=lambda ev: abs(ev.time - at))

    # ------------------------------------------------------------------
    # explanation
    # ------------------------------------------------------------------
    def explain(self, event: RecordedEvent | int) -> CausalChain:
        """Walk the cause DAG from ``event`` back to its root (at most
        :data:`MAX_CHAIN_DEPTH` events).

        Accepts a :class:`RecordedEvent` or a seq.  Raises ``KeyError``
        for a seq the buffer does not hold (already evicted or never
        recorded).
        """
        if isinstance(event, int):
            event = self._events[event]
        chain: list[RecordedEvent] = [event]
        seen = {event.seq}
        cur = event
        truncated = False
        while cur.cause is not None and len(chain) < MAX_CHAIN_DEPTH:
            nxt = self._events.get(cur.cause)
            if nxt is None:
                truncated = True  # evicted: history ends here
                break
            if nxt.seq in seen:  # pragma: no cover - defensive (DAG)
                break
            seen.add(nxt.seq)
            chain.append(nxt)
            cur = nxt
        chain.reverse()
        return CausalChain(
            target=event,
            events=chain,
            truncated=truncated,
            dropped=self.dropped,
            inputs=self._inputs,
        )

    def explain_last_filtered(self) -> CausalChain | None:
        """Chain of the most recent ω-filtered pulse, if any."""
        pulses = self.filtered_pulses()
        if not pulses:
            return None
        return self.explain(pulses[-1])


# ----------------------------------------------------------------------
# demonstration sweep (the `repro explain` engine)
# ----------------------------------------------------------------------

#: flight-recorder event budget of each sweep run
_SWEEP_BUDGET = 200_000

#: (jitter, input_delay) stress corners, most productive first: high
#: delay spread plus a fast-reacting environment is what makes the SOP
#: planes race and shed sub-ω runts at the flip-flop masters
_STRESS_LADDER: tuple[tuple[float, tuple[float, float]], ...] = (
    (0.9, (0.0, 1.0)),
    (0.95, (0.0, 0.5)),
    (0.8, (0.0, 2.0)),
    (0.99, (0.0, 0.2)),
)


def find_filtered_chain(
    circuit, *, seeds: int = 16
) -> tuple[CausalChain | None, dict]:
    """Produce one environment-rooted chain of an ω-filtered pulse.

    Sweeps the stress ladder (high jitter × immediate-reaction
    environment × ``seeds`` seeds) until the flight recorder catches the
    MHS absorbing a hazard pulse, then explains it.  Circuits whose SOP
    planes are exactly their trigger cubes (single-cube planes, e.g.
    chu133) can never organically produce a sub-ω runt — every plane
    assertion is a level held until acknowledged — so when the sweep
    comes back empty, a causally-anchored runt injection demonstrates
    the filtering instead (see :func:`_probe_chain`).

    Returns ``(chain, info)``; ``info`` says which mode and stress
    corner produced the chain (``mode`` is ``organic``, ``probe``, or
    ``none`` with ``chain=None``).
    """
    from ..sim.environment import SGEnvironment
    from ..sim.simulator import SimConfig, Simulator

    sg = circuit.sg
    for jitter, input_delay in _STRESS_LADDER:
        for seed in range(seeds):
            recorder = FlightRecorder(budget=_SWEEP_BUDGET)
            sim = Simulator(
                circuit.netlist,
                SimConfig(jitter=jitter, seed=seed, max_events=500_000),
            )
            recorder.attach(sim)
            env = SGEnvironment(sg, sim, seed=seed, input_delay=input_delay)
            try:
                env.run(max_time=2000.0, max_transitions=300)
            except Exception:
                continue  # a watchdog trip at an extreme corner: move on
            chain = recorder.explain_last_filtered()
            if chain is not None and chain.environment_rooted:
                return chain, {
                    "mode": "organic",
                    "jitter": jitter,
                    "input_delay": list(input_delay),
                    "seed": seed,
                }
    return _probe_chain(circuit)


def _probe_chain(circuit) -> tuple[CausalChain | None, dict]:
    """Causally-anchored runt probe for cubes-equal-planes circuits.

    Watches the primary inputs; from *within* an input-change event
    (so the cause context is the environment transition itself) it
    injects a sub-ω runt onto an idle MHS master.  A healthy flip-flop
    must absorb the runt, and the recorded chain genuinely roots at the
    input transition that the injection rode on.
    """
    from ..netlist.gates import GateType
    from ..sim.environment import SGEnvironment
    from ..sim.simulator import SimConfig, Simulator

    sg = circuit.sg
    recorder = FlightRecorder()
    sim = Simulator(
        circuit.netlist, SimConfig(jitter=0.3, seed=0, max_events=500_000)
    )
    recorder.attach(sim)
    env = SGEnvironment(sg, sim, seed=0, input_delay=(0.5, 4.0))
    omega = sim.config.mhs.omega
    width = omega * 0.5
    ffs = [g for g in sim.netlist.gates if g.type == GateType.MHSFF]
    probes_left = [8]

    def on_input(time: float, value: int) -> None:
        if probes_left[0] <= 0:
            return
        for g in ffs:
            set_net = g.inputs[0].net
            reset_net = g.inputs[1].net
            if sim.value(set_net) or sim.value(reset_net):
                continue  # a window is (or may be) open: stay clear
            master = reset_net if sim.value(g.output) else set_net
            # both injections run inside this input event, so they (and
            # everything downstream) inherit its cause link
            sim.inject(master, 1, time + 0.05)
            sim.inject(master, 0, time + 0.05 + width)
            probes_left[0] -= 1
            return

    for net in sim.netlist.primary_inputs:
        sim.watch(net, on_input)
    try:
        env.run(max_time=2000.0, max_transitions=300)
    except Exception:
        pass  # the recorder keeps whatever happened before the trip
    for pulse in reversed(recorder.filtered_pulses()):
        chain = recorder.explain(pulse)
        if chain.environment_rooted:
            return chain, {"mode": "probe", "runt_width": width}
    return None, {"mode": "none"}
