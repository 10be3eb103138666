"""Composable fault models for the oracle-sensitivity tests.

The hazard-freeness oracle (:func:`repro.core.verify.run_oracle`) is
only trustworthy if it demonstrably *fails* on broken circuits.  Each
class here is one way to break a circuit — structurally (a pure
``Netlist -> Netlist`` transform), electrically (a pure
``SimConfig -> SimConfig`` transform), or transiently (an ``arm`` hook
that schedules mid-traversal injections on a fresh simulator).  All
models are frozen dataclasses: hashable, picklable and
self-describing.

The catalogue:

* :class:`StuckAtFault` — a net permanently tied to 0/1 (classic
  stuck-at model);
* :class:`InvertedLiteralFault` — one AND-plane literal's inversion
  bubble flipped (a wrong-polarity wiring bug);
* :class:`SwappedSetResetFault` — the MHS flip-flop's set and reset
  inputs exchanged;
* :class:`DeletedAckGateFault` — the acknowledgement enable pin
  removed from a plane's ack gate (breaks the Figure 3 gating that
  makes internal pulse streams safe);
* :class:`TransientPulseFault` — a single-event-upset pulse of
  configurable width forced onto any net mid-traversal;
* :class:`DelayViolationFault` — a gate's delay scaled so that the
  Equation (1) delay requirement the circuit was designed for no
  longer holds (factor 0 on a DELAY gate removes the compensation
  line outright);
* :class:`OmegaMarginFault` — the MHS flip-flop's ω filtering margin
  shrunk, so runt pulses that a healthy flip-flop absorbs now commit.

:func:`enumerate_faults` walks a netlist and instantiates every
applicable model — the fault universe of the coverage sweep in
``tests/test_faults_campaign.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.netlist.gates import Gate, GateType, Pin
from repro.netlist.library import DEFAULT_LIBRARY
from repro.netlist.netlist import Netlist
from repro.sim.mhs import MhsParams
from repro.sim.simulator import SimConfig, Simulator

__all__ = [
    "FaultModel",
    "StuckAtFault",
    "InvertedLiteralFault",
    "SwappedSetResetFault",
    "DeletedAckGateFault",
    "TransientPulseFault",
    "DelayViolationFault",
    "OmegaMarginFault",
    "rebuild_netlist",
    "enumerate_faults",
]


def rebuild_netlist(
    netlist: Netlist, mutate: Callable[[Gate], Gate | None]
) -> Netlist:
    """Deep-copy a netlist, applying ``mutate(gate) -> Gate | None``.

    Returning ``None`` drops the gate; returning a (possibly modified)
    gate keeps it.  The input netlist is never touched — fault
    transforms are pure, so one golden circuit can seed every fault.
    """
    nl = Netlist(netlist.name + "_faulty")
    for n in netlist.primary_inputs:
        nl.add_input(n)
    for n in netlist.primary_outputs:
        nl.add_output(n)
    for g in netlist.gates:
        g2 = Gate(
            g.name,
            g.type,
            [Pin(p.net, p.inverted) for p in g.inputs],
            g.output,
            output_n=g.output_n,
            delay=g.delay,
            attrs=dict(g.attrs),
        )
        g2 = mutate(g2)
        if g2 is not None:
            nl.add(g2)
    return nl


@dataclass(frozen=True)
class FaultModel:
    """Base class: the identity fault (a golden, unmodified run)."""

    #: short class label
    kind = "golden"

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        """Structural transform (default: identity)."""
        return netlist

    def apply_config(self, config: SimConfig) -> SimConfig:
        """Electrical-parameter transform (default: identity)."""
        return config

    def arm(self, sim: Simulator) -> None:
        """Schedule transient injections on a fresh simulator."""

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class StuckAtFault(FaultModel):
    """Net ``net`` permanently tied to ``value``.

    The driving gate is replaced by a constant; when the driver is a
    dual-rail cell the complementary rail is tied to the complement
    (a stuck flip-flop sticks both rails).
    """

    net: str
    value: int

    kind = "stuck"

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        if self.net in netlist.primary_inputs:
            raise ValueError(f"cannot stick primary input {self.net!r}")
        hit = [False]

        def mutate(g: Gate) -> Gate | None:
            if g.output != self.net and g.output_n != self.net:
                return g
            hit[0] = True
            return None

        nl = rebuild_netlist(netlist, mutate)
        if not hit[0]:
            raise ValueError(f"net {self.net!r} has no driver in {netlist.name!r}")
        # re-drive both rails of the removed driver as constants
        for g in netlist.gates:
            if g.output == self.net or g.output_n == self.net:
                stuck = self.value if g.output == self.net else 1 - self.value
                nl.add(
                    Gate(
                        f"stuck_{g.output}",
                        GateType.CONST,
                        [],
                        g.output,
                        attrs={"value": stuck},
                    )
                )
                if g.output_n:
                    nl.add(
                        Gate(
                            f"stuck_{g.output_n}",
                            GateType.CONST,
                            [],
                            g.output_n,
                            attrs={"value": 1 - stuck},
                        )
                    )
                break
        return nl

    def describe(self) -> str:
        return f"stuck{self.value}@{self.net}"


@dataclass(frozen=True)
class InvertedLiteralFault(FaultModel):
    """Inversion bubble of input pin ``pin`` of gate ``gate`` flipped."""

    gate: str
    pin: int = 0

    kind = "inverted-literal"

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        hit = [False]

        def mutate(g: Gate) -> Gate:
            if g.name == self.gate:
                if self.pin >= len(g.inputs):
                    raise ValueError(
                        f"gate {self.gate!r} has no input pin {self.pin}"
                    )
                p = g.inputs[self.pin]
                g.inputs[self.pin] = Pin(p.net, not p.inverted)
                hit[0] = True
            return g

        nl = rebuild_netlist(netlist, mutate)
        if not hit[0]:
            raise ValueError(f"no gate named {self.gate!r} in {netlist.name!r}")
        return nl

    def describe(self) -> str:
        return f"invlit@{self.gate}.{self.pin}"


@dataclass(frozen=True)
class SwappedSetResetFault(FaultModel):
    """Set and reset inputs of a storage element exchanged."""

    gate: str

    kind = "swapped-set-reset"

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        hit = [False]

        def mutate(g: Gate) -> Gate:
            if g.name == self.gate:
                if g.type not in (GateType.MHSFF, GateType.RSLATCH):
                    raise ValueError(f"gate {self.gate!r} is not a set/reset cell")
                g.inputs = [g.inputs[1], g.inputs[0]]
                hit[0] = True
            return g

        nl = rebuild_netlist(netlist, mutate)
        if not hit[0]:
            raise ValueError(f"no gate named {self.gate!r} in {netlist.name!r}")
        return nl

    def describe(self) -> str:
        return f"swap-sr@{self.gate}"


def _schedule_flip(sim: Simulator, net: str, at: float, width: float) -> None:
    """Flip ``net`` for ``width`` ns starting at ``at`` (lazy read of the
    victim's level at the moment of the upset)."""

    def upset(s: Simulator, t: float) -> None:
        v = s.value(net)
        s.inject(net, 1 - v, t)
        s.inject(net, v, t + width)

    sim.schedule_callback(at, upset)


@dataclass(frozen=True)
class DeletedAckGateFault(FaultModel):
    """Acknowledgement enable pin removed from a plane's ack gate.

    The Figure 3 acknowledgement scheme gates each SOP plane with the
    flip-flop's opposite rail; deleting that pin lets the plane drive
    the flip-flop whenever the plane is active — the multi-shot firing
    the architecture exists to prevent.

    Because the small reconstructed planes rarely emit stale pulses on
    their own, :meth:`arm` also plays the Section IV-C *trespassing
    pulse* against the broken gating: each time the flip-flop fires, a
    wide stale pulse is forced onto the plane side of the ack gate.  In
    a healthy circuit the (now deleted) enable pin masks exactly this
    pulse; with the fault it reaches the flip-flop and produces
    set/reset drive conflicts or multi-shot re-firing.  The stressor is
    skipped when the plane side is a primary input (folded single-cube
    planes), where overdriving would bypass the environment instead of
    the acknowledgement.
    """

    gate: str
    stale_width: float = 40.0
    stale_lag: float = 0.5

    kind = "deleted-ack"

    def _parse(self) -> tuple[str, str]:
        # architecture naming: ack_{set|reset}_{signal}
        parts = self.gate.split("_", 2)
        if len(parts) == 3 and parts[0] == "ack" and parts[1] in ("set", "reset"):
            return parts[1], parts[2]
        raise ValueError(f"{self.gate!r} is not an acknowledgement gate name")

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        self._parse()
        hit = [False]

        def mutate(g: Gate) -> Gate:
            if g.name == self.gate:
                if len(g.inputs) < 2:
                    raise ValueError(
                        f"gate {self.gate!r} has no enable pin to delete"
                    )
                # the enable rail is wired as the last pin by the
                # architecture builder
                g.inputs = g.inputs[:-1]
                hit[0] = True
            return g

        nl = rebuild_netlist(netlist, mutate)
        if not hit[0]:
            raise ValueError(f"no gate named {self.gate!r} in {netlist.name!r}")
        return nl

    def arm(self, sim: Simulator) -> None:
        kind, signal = self._parse()
        gate = next((g for g in sim.netlist.gates if g.name == self.gate), None)
        if gate is None or not gate.inputs:
            return
        victim = gate.inputs[0].net
        driver = sim.netlist.driver(victim)
        if driver is None or driver.is_sequential:
            # folded plane (primary-input literal) or a flip-flop rail:
            # overdriving would bypass the environment/spec, not the
            # acknowledgement — leave the fault to natural detection
            return
        fired_level = 1 if kind == "set" else 0

        def on_ff_change(time: float, value: int) -> None:
            if value == fired_level:
                # stale plane activity right after the flip-flop fired —
                # the moment the enable rail would have masked it
                def stale(s: Simulator, t: float) -> None:
                    s.inject(victim, 1, t)
                    s.inject(victim, 0, t + self.stale_width)

                sim.schedule_callback(time + self.stale_lag, stale)

        sim.watch(signal, on_ff_change)

    def describe(self) -> str:
        return f"no-ack@{self.gate}"


@dataclass(frozen=True)
class TransientPulseFault(FaultModel):
    """Single-event upset: net ``net`` flipped for ``width`` ns.

    Purely simulation-side: :meth:`arm` schedules a callback that reads
    the victim's value at the moment of the upset, overdrives the
    complement, and restores the original level ``width`` later.  A
    pulse wider than the MHS ω threshold landing on a flip-flop input
    while the acknowledgement enables it commits a spurious transition.

    With ``at=None`` (the default) each Monte-Carlo seed draws
    ``count`` upset instants from the run's own RNG — the standard SEU
    campaign shape, sampling injection time alongside delay corners.
    """

    net: str
    at: float | None = None
    width: float = 3.0
    count: int = 2
    window: tuple[float, float] = (5.0, 400.0)

    kind = "seu"

    def arm(self, sim: Simulator) -> None:
        if self.at is not None:
            times = [self.at]
        else:
            times = sorted(
                sim.rng.uniform(*self.window) for _ in range(self.count)
            )
        for t in times:
            _schedule_flip(sim, self.net, t, self.width)

    def describe(self) -> str:
        when = f"t{self.at:g}" if self.at is not None else f"rnd{self.count}"
        return f"seu@{self.net}@{when}w{self.width:g}"


@dataclass(frozen=True)
class DelayViolationFault(FaultModel):
    """Delay scaled by ``factor`` so Equation (1) no longer holds.

    With ``gate=None`` (the default) every DELAY gate in the netlist is
    scaled — ``factor = 0`` then reproduces the Section IV-C experiment
    exactly: a circuit whose Equation (1) evaluation demanded local
    compensation, operated with the compensation omitted wholesale, lets
    a stale plane pulse trespass the acknowledgement window.  Naming a
    specific gate scales just that one (a single slow/fast cell), a
    strictly weaker fault that only rare delay corners expose.
    """

    gate: str | None = None
    factor: float = 0.0

    kind = "delay-violation"

    def apply_netlist(self, netlist: Netlist) -> Netlist:
        hit = [False]

        def mutate(g: Gate) -> Gate:
            if g.name == self.gate or (
                self.gate is None and g.type == GateType.DELAY
            ):
                nominal = DEFAULT_LIBRARY.gate_delay(g)
                g.delay = nominal * self.factor
                hit[0] = True
            return g

        nl = rebuild_netlist(netlist, mutate)
        if not hit[0]:
            what = (
                "no DELAY gates"
                if self.gate is None
                else f"no gate named {self.gate!r}"
            )
            raise ValueError(f"{what} in {netlist.name!r}")
        return nl

    def describe(self) -> str:
        return f"delay×{self.factor:g}@{self.gate or '*delay-lines*'}"


@dataclass(frozen=True)
class OmegaMarginFault(FaultModel):
    """MHS flip-flop ω margin shrunk to ``omega``.

    The flip-flop's pulse-filtering threshold collapses, so the runt
    pulses the SOP planes legitimately emit (and a healthy ω absorbs)
    can now commit the master latch.

    ``stress_net`` replays the Figure 6 hazardous-input experiment in
    closed loop: :meth:`arm` injects a train of runt pulses (width
    between the shrunk and the healthy ω) on that net — typically a
    flip-flop's set input.  A healthy flip-flop filters every one of
    them; the degraded flip-flop commits whichever runt lands outside
    the signal's excitation region, which the oracle flags as a
    spurious transition.
    """

    omega: float = 0.02
    stress_net: str | None = None
    stress_width: float = 0.2
    stress_count: int = 4
    window: tuple[float, float] = (5.0, 400.0)

    kind = "omega-margin"

    def apply_config(self, config: SimConfig) -> SimConfig:
        return dataclasses.replace(
            config, mhs=MhsParams(omega=self.omega, tau=config.mhs.tau)
        )

    def arm(self, sim: Simulator) -> None:
        if self.stress_net is None:
            return
        for _ in range(self.stress_count):
            _schedule_flip(
                sim,
                self.stress_net,
                sim.rng.uniform(*self.window),
                self.stress_width,
            )

    def describe(self) -> str:
        base = f"omega={self.omega:g}"
        if self.stress_net is not None:
            return f"{base}+runts@{self.stress_net}"
        return base


def enumerate_faults(
    netlist: Netlist,
    *,
    seu_width: float = 3.0,
    include_seu: bool = True,
    include_omega: bool = True,
) -> list[FaultModel]:
    """Every applicable fault of the catalogue for one netlist.

    Structural faults target the combinational planes and storage
    elements the architecture builder emits; transient faults target
    each flip-flop's set input and output (the nets whose upsets the
    acknowledgement scheme cannot mask).  Deleted-ack faults are only
    enumerated where a *separate* acknowledgement gate exists (a plane
    net feeding the gate): in folded single-cube planes the enable is
    one literal of the only AND gate, so there is no distinct ack gate
    to break.
    """
    faults: list[FaultModel] = []
    for g in netlist.gates:
        if g.type in (GateType.AND, GateType.OR):
            faults.append(StuckAtFault(g.output, 0))
            faults.append(StuckAtFault(g.output, 1))
        if g.type == GateType.AND and g.inputs:
            faults.append(InvertedLiteralFault(g.name, 0))
        if g.type in (GateType.MHSFF, GateType.RSLATCH):
            faults.append(SwappedSetResetFault(g.name))
            if include_seu:
                faults.append(TransientPulseFault(g.output, width=seu_width))
                faults.append(
                    TransientPulseFault(g.inputs[0].net, width=seu_width)
                )
            if include_omega:
                faults.append(OmegaMarginFault(stress_net=g.inputs[0].net))
        if g.name.startswith("ack_") and len(g.inputs) >= 2:
            plane_driver = netlist.driver(g.inputs[0].net)
            if plane_driver is not None and plane_driver.type in (
                GateType.AND,
                GateType.OR,
            ):
                faults.append(DeletedAckGateFault(g.name))
        if g.type == GateType.DELAY:
            # one wholesale compensation-omitted fault per circuit (the
            # Section IV-C scenario); dedupe below collapses repeats
            faults.append(DelayViolationFault(None, 0.0))
    # dedupe while keeping order (e.g. SEU targets can coincide)
    seen: set[FaultModel] = set()
    unique: list[FaultModel] = []
    for f in faults:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique
