"""Circuit-physics telemetry: hazard margins measured at run time.

PR 2 made the *software* pipeline observable; this module makes the
physics the paper is about observable.  A :class:`HazardTelemetry`
object is built once per synthesized circuit
(:meth:`HazardTelemetry.for_circuit`) and attached to any number of
simulators (:meth:`attach`) — each attach registers ordinary
:meth:`~repro.sim.simulator.Simulator.watch` callbacks plus one
``schedule_callback(0.0, ...)`` to seed initial levels, so collection
is entirely non-invasive: the simulator's behaviour is untouched and
an un-attached run pays nothing.

Per non-input signal it measures the quantities Theorem 2 and
Equation (1) reason about:

* **pulse-width histograms** of the high pulses arriving at each MHS
  master input (the gated set/reset nets) — the pulse streams of
  Figure 3 as the flip-flop actually sees them;
* **ω-margin** — the two distances to the Theorem 2 threshold:
  smallest surviving width − ω and ω − largest filtered width
  (:func:`repro.sim.hazards.omega_margins`), cross-checked against the
  :class:`~repro.sim.mhs.MhsState` model's own absorbed-pulse account;
* **measured Equation (1) delay slack** — at every opening of an
  enable rail, the time since the corresponding SOP plane settled to 0
  (negative when stale excitation trespasses into the new phase),
  reported next to the static bound from
  :mod:`repro.core.delays`;
* **per-excitation-region glitch counts** — high pulses narrower than
  one gate delay at each set/reset plane output, i.e. the tolerated
  internal hazards attributed to the region that produced them.

:meth:`HazardTelemetry.totals` is the compact ``telemetry`` block of
bench entries (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..sim.hazards import omega_margins

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.synthesizer import NShotCircuit
    from ..sim.simulator import Simulator

__all__ = [
    "SignalTelemetry",
    "HazardTelemetry",
]

_EPS = 1e-12

#: a plane-output pulse shorter than this (ns, one gate delay) counts
#: as a region glitch
_GLITCH_WIDTH = 1.0


def _round_opt(v: float | None) -> float | None:
    return None if v is None else round(v, 6)


@dataclass
class SignalTelemetry:
    """Measured hazard physics of one non-input signal.

    ``pulse_widths`` holds every high-pulse width seen at the two MHS
    master inputs; ``filtered``/``surviving`` split them by the ω
    threshold.  ``delay_slacks`` holds measured Equation (1) slack
    samples per plane; ``region_glitches`` counts sub-gate-delay pulses
    at each plane output (the excitation region's tolerated hazards).
    """

    signal: str
    mhs_gate: str
    omega: float = 0.0
    #: Equation (1) right-hand side evaluated statically (core.delays)
    static_bound: float = 0.0
    #: delay-line compensation actually inserted by the architecture
    t_del: float = 0.0
    pulse_widths: dict[str, list[float]] = field(
        default_factory=lambda: {"set": [], "reset": []}
    )
    filtered_widths: list[float] = field(default_factory=list)
    surviving_widths: list[float] = field(default_factory=list)
    #: absorbed-pulse count from the MhsState model (cross-check)
    mhs_filtered: int = 0
    delay_slacks: dict[str, list[float]] = field(
        default_factory=lambda: {"set": [], "reset": []}
    )
    region_glitches: dict[str, int] = field(
        default_factory=lambda: {"set": 0, "reset": 0}
    )

    # ------------------------------------------------------------------
    @property
    def omega_margin(self) -> dict[str, float | None]:
        return omega_margins(
            self.filtered_widths, self.surviving_widths, self.omega
        )

    @property
    def min_omega_margin(self) -> float | None:
        return self.omega_margin["min"]

    @property
    def min_delay_slack(self) -> float | None:
        samples = self.delay_slacks["set"] + self.delay_slacks["reset"]
        return min(samples) if samples else None

    def record_pulse(self, kind: str, width: float) -> None:
        self.pulse_widths[kind].append(width)
        if width < self.omega - _EPS:
            self.filtered_widths.append(width)
        else:
            self.surviving_widths.append(width)

    def render(self) -> str:
        """One human-readable line (the `repro synth --verify` view)."""
        margin = self.omega_margin
        parts = [f"{self.signal}: mhs_pulses_filtered={self.mhs_filtered}"]
        if margin["min"] is not None:
            parts.append(f"ω-margin {margin['min']:+.3f}")
        else:
            parts.append("ω-margin n/a (no pulses)")
        slack = self.min_delay_slack
        if slack is not None:
            parts.append(
                f"delay slack {slack:+.2f} (static bound {self.static_bound:+.2f})"
            )
        else:
            parts.append("delay slack n/a")
        g = self.region_glitches
        parts.append(f"glitches set={g['set']} reset={g['reset']}")
        return "  ".join(parts)


# ----------------------------------------------------------------------
# watch-hook meters
# ----------------------------------------------------------------------
class _PulseMeter:
    """Measures high-pulse widths on one net from watch callbacks."""

    def __init__(self, on_pulse: Callable[[float, float], None]) -> None:
        self._on_pulse = on_pulse
        self._level: int | None = None
        self._rise: float | None = None

    def seed(self, time: float, value: int) -> None:
        if self._level is None:
            self._level = value
            self._rise = time if value == 1 else None

    def __call__(self, time: float, value: int) -> None:
        if value == self._level:
            return
        self._level = value
        if value == 1:
            self._rise = time
        else:
            if self._rise is not None:
                self._on_pulse(self._rise, time)
            self._rise = None


class _SlackMeter:
    """Measured Equation (1) slack for one (signal, plane) pair.

    Watches the plane output and its enable rail.  Whenever the enable
    opens (rises), the slack sample is the time since the plane last
    settled to 0; if the plane is still excited at the opening, the
    sample is negative — recorded once the plane does settle — which is
    exactly the "pulse trespassing into the opposite phase" Equation
    (1) exists to forbid.
    """

    def __init__(self, record: Callable[[float], None]) -> None:
        self._record = record
        self._plane_level: int | None = None
        self._enable_level: int | None = None
        self._last_fall: float | None = None
        self._plane_seen_high = False
        self._pending_open: float | None = None

    def seed_plane(self, time: float, value: int) -> None:
        if self._plane_level is None:
            self._plane_level = value
            if value == 1:
                self._plane_seen_high = True

    def seed_enable(self, time: float, value: int) -> None:
        if self._enable_level is None:
            self._enable_level = value

    def on_plane(self, time: float, value: int) -> None:
        if value == self._plane_level:
            return
        self._plane_level = value
        if value == 1:
            self._plane_seen_high = True
        else:
            self._last_fall = time
            if self._pending_open is not None:
                # the enable opened while the plane was still excited:
                # negative slack by the time it took to settle
                self._record(self._pending_open - time)
                self._pending_open = None

    def on_enable(self, time: float, value: int) -> None:
        if value == self._enable_level:
            return
        self._enable_level = value
        if value != 1:
            self._pending_open = None
            return
        if self._plane_level == 1:
            self._pending_open = time
        elif self._plane_seen_high and self._last_fall is not None:
            self._record(time - self._last_fall)


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
class HazardTelemetry:
    """Per-signal hazard telemetry collected over one or more runs.

    Build with :meth:`for_circuit`, call :meth:`attach` from the
    ``observe`` hook of :func:`repro.core.verify.run_oracle`, read
    :meth:`summary` afterwards.  Attaching to several simulators
    accumulates samples — a Monte-Carlo sweep produces one aggregate
    margin picture.
    """

    def __init__(self) -> None:
        self.omega: float | None = None
        self.signals: dict[str, SignalTelemetry] = {}
        #: (mhs gate, signal name, set net, reset net)
        self._mhs_map: dict[str, str] = {}
        #: (signal, kind) -> plane output net
        self._plane_nets: dict[tuple[str, str], str] = {}
        #: (signal, kind) -> enable rail net
        self._enable_nets: dict[tuple[str, str], str] = {}
        self._attached = 0
        self._baseline_mhs_filtered: list[tuple[Simulator, dict[str, int]]] = []

    # ------------------------------------------------------------------
    @classmethod
    def for_circuit(cls, circuit: "NShotCircuit") -> "HazardTelemetry":
        """Wire the collector to a synthesized N-SHOT circuit.

        Reads the plane structure from the circuit's
        :class:`~repro.core.architecture.ArchitectureResult` and the
        static Equation (1) evaluation from its delay requirements.
        """
        tele = cls()
        sg = circuit.sg
        for a in sg.non_inputs:
            sig = sg.signals[a]
            st = SignalTelemetry(signal=sig, mhs_gate=f"mhs_{sig}")
            req = circuit.delay_requirements.get(a)
            if req is not None:
                st.static_bound = req.bound
                st.t_del = req.t_del
            tele.signals[sig] = st
            tele._mhs_map[st.mhs_gate] = sig
            for kind in ("set", "reset"):
                plane = circuit.architecture.plane_nets.get((a, kind))
                if plane is not None:
                    tele._plane_nets[(sig, kind)] = plane
                # the set plane reopens when qn rises (after -a), the
                # reset plane when q rises (after +a)
                tele._enable_nets[(sig, kind)] = (
                    sig + "_n" if kind == "set" else sig
                )
        return tele

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Register watch hooks on one simulator (the ``observe`` hook)."""
        omega = sim.config.mhs.omega
        if self.omega is None:
            self.omega = omega
            for st in self.signals.values():
                st.omega = omega
        self._attached += 1
        # model-side absorbed-pulse account: remember each flip-flop's
        # pre-run count so re-attached simulators never double-count
        baseline = {
            name: sim.mhs_state(name).filtered
            for name in sim.mhs_flipflops()
            if name in self._mhs_map
        }
        self._baseline_mhs_filtered.append((sim, baseline))

        seeders: list[Callable[[float], None]] = []

        def _watch(net: str, cb, seed_fn) -> None:
            sim.watch(net, cb)
            seeders.append(lambda t, _n=net, _f=seed_fn: _f(t, sim.value(_n)))

        for name, gate in sim.mhs_flipflops().items():
            sig = self._mhs_map.get(name)
            if sig is None:
                continue
            st = self.signals[sig]
            for kind, pin in zip(("set", "reset"), gate.inputs[:2]):
                meter = _PulseMeter(
                    lambda t0, t1, _st=st, _k=kind: _st.record_pulse(_k, t1 - t0)
                )
                _watch(pin.net, meter, meter.seed)
        for (sig, kind), plane in self._plane_nets.items():
            st = self.signals[sig]
            # region glitch census: sub-gate-delay pulses at the plane
            glitch = _PulseMeter(
                lambda t0, t1, _st=st, _k=kind: (
                    _st.region_glitches.__setitem__(
                        _k, _st.region_glitches[_k] + 1
                    )
                    if t1 - t0 < _GLITCH_WIDTH
                    else None
                )
            )
            _watch(plane, glitch, glitch.seed)
            enable = self._enable_nets[(sig, kind)]
            slack = _SlackMeter(
                lambda s, _st=st, _k=kind: _st.delay_slacks[_k].append(s)
            )
            _watch(plane, slack.on_plane, slack.seed_plane)
            _watch(enable, slack.on_enable, slack.seed_enable)

        def _seed_all(s: "Simulator", t: float) -> None:
            for fn in seeders:
                fn(t)

        # seed meters with the settled t=0 levels via the existing
        # callback hook; net events at t=0 (there are none in a normal
        # run) would sort before it, which only widens the first pulse
        sim.schedule_callback(0.0, _seed_all)

    # ------------------------------------------------------------------
    def _fold_model_counts(self) -> None:
        """Refresh per-signal MhsState absorbed counts from every
        attached simulator (idempotent: recomputed from baselines)."""
        totals = {sig: 0 for sig in self.signals}
        for sim, baseline in self._baseline_mhs_filtered:
            for name, before in baseline.items():
                sig = self._mhs_map[name]
                totals[sig] += sim.mhs_state(name).filtered - before
        for sig, st in self.signals.items():
            st.mhs_filtered = totals[sig]

    def totals(self) -> dict:
        """Compact cross-signal aggregate (the bench entry block)."""
        self._fold_model_counts()
        margins = [
            st.min_omega_margin
            for st in self.signals.values()
            if st.min_omega_margin is not None
        ]
        slacks = [
            st.min_delay_slack
            for st in self.signals.values()
            if st.min_delay_slack is not None
        ]
        return {
            "pulses": sum(
                len(ws)
                for st in self.signals.values()
                for ws in st.pulse_widths.values()
            ),
            "filtered": sum(
                len(st.filtered_widths) for st in self.signals.values()
            ),
            "surviving": sum(
                len(st.surviving_widths) for st in self.signals.values()
            ),
            "mhs_filtered": sum(
                st.mhs_filtered for st in self.signals.values()
            ),
            "min_omega_margin": _round_opt(min(margins) if margins else None),
            "min_delay_slack": _round_opt(min(slacks) if slacks else None),
            "region_glitches": sum(
                n
                for st in self.signals.values()
                for n in st.region_glitches.values()
            ),
        }

    def render_text(self) -> str:
        """Per-signal lines for the verify summary output."""
        self._fold_model_counts()
        omega = self.omega if self.omega is not None else float("nan")
        lines = [f"hazard telemetry (ω={omega:.2f}, {self._attached} run(s)):"]
        for _, st in sorted(self.signals.items()):
            lines.append("  " + st.render())
        return "\n".join(lines)
