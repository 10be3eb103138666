"""Behavioural model of the MHS flip-flop (Section IV-B, Figures 4–6).

The MHS flip-flop (Master RS latch / Hazard filter / Slave RS latch) is
the storage element of the N-SHOT architecture.  Functionally it is a
set/reset C-element; electrically it differs in two ways the paper
leans on:

1. **Short-pulse immunity** — an input pulse narrower than the
   threshold ω is absorbed (the master latch's analog response never
   crosses the filter threshold); a pulse of width ≥ ω commits the
   flip-flop, and the output transition appears τ after the pulse's
   leading edge (Figure 4).
2. **Metastability filtering** — the filter stage only couples the
   master to the slave once the master has fully resolved, so partial
   excursions ("hazardous down-transitions" in Figure 6) never reach
   the slave.

This module provides the pure response function used by the Figure 4/6
benches (:func:`mhs_response`) plus the :class:`MhsState` controller
the event simulator drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MhsParams", "MhsState", "mhs_response", "celement_response"]


@dataclass(frozen=True)
class MhsParams:
    """Electrical parameters of the MHS flip-flop.

    ``omega`` (ω) — minimum input pulse width that commits the master
    latch; the paper requires ω < τ.
    ``tau`` (τ) — response delay from a committing input edge to the
    output transition.
    """

    omega: float = 0.4
    tau: float = 1.2

    def __post_init__(self) -> None:
        if not self.omega < self.tau:
            raise ValueError("MHS flip-flop requires omega < tau")


@dataclass
class MhsState:
    """Sequential state of one MHS flip-flop instance.

    The simulator feeds edges via :meth:`on_set_edge` /
    :meth:`on_reset_edge` and collects matured commits through
    :meth:`check_windows`.

    The model:

    * the set input *drives* the master only while reset is low (the
      master RS latch holds both rails down under a simultaneous S/R
      assertion and resolves when one side releases); a drive episode
      starting at ``t`` — set rising with reset low, or reset releasing
      while set is high — opens a *candidate window* when ``q = 0``;
    * if the drive persists ω, the master commits and ``q`` rises at
      ``window_open + τ``; a drive shorter than ω is absorbed
      (Figure 4, v < ω) — the first filtering stage;
    * symmetric for *reset*;
    * transient set/reset overlaps (one acknowledgement-gate delay
      while the opposite plane settles, Section IV-C) are expected and
      counted in ``overlaps``; an overlap *persisting* beyond
      ``overlap_tolerance`` means the acknowledgement scheme failed and
      is recorded as a violation.
    """

    params: MhsParams = field(default_factory=MhsParams)
    q: int = 0
    set_level: int = 0
    reset_level: int = 0
    #: tolerated drive-conflict duration before it counts as a failure
    overlap_tolerance: float = 3.0
    # candidate window opening times (None when no window open)
    _set_window: float | None = None
    _reset_window: float | None = None
    _overlap_start: float | None = None
    # committed output events not yet applied: (time, value)
    _commits: list[tuple[float, int]] = field(default_factory=list)
    #: (start, end) of resolved set/reset overlap episodes
    overlaps: list[tuple[float, float]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: input pulses absorbed because they were narrower than ω — the
    #: first filtering stage at work (Figure 4, v < ω); observability
    #: counters aggregate this across all flip-flops of a run
    filtered: int = 0
    #: widths of the absorbed pulses, in drive order — the raw samples
    #: behind the ω-margin telemetry (largest filtered width is one of
    #: the two distances to the Theorem 2 threshold)
    filtered_widths: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _overlap_update(self, time: float) -> None:
        both = self.set_level == 1 and self.reset_level == 1
        if both and self._overlap_start is None:
            self._overlap_start = time
        elif not both and self._overlap_start is not None:
            dur = time - self._overlap_start
            self.overlaps.append((self._overlap_start, time))
            if dur > self.overlap_tolerance:
                self.violations.append(
                    f"t={time:.3f}: set/reset overlap persisted {dur:.2f} "
                    f"(> {self.overlap_tolerance:.2f})"
                )
            self._overlap_start = None

    def on_set_edge(self, time: float, value: int) -> None:
        """Feed a set-input change at ``time``."""
        if value == self.set_level:
            return
        self.set_level = value
        if value == 1:
            if self.reset_level == 0 and self.q == 0 and not self._has_pending(1):
                self._set_window = time
            elif self.reset_level == 1 and self._reset_window is not None:
                # conflicting drive interrupts the opposing window
                self._reset_window = None
        else:
            if self._set_window is not None:
                width = time - self._set_window
                if width < self.params.omega:
                    self._set_window = None  # absorbed (Figure 4, v < ω)
                    self.filtered += 1
                    self.filtered_widths.append(width)
                # width >= omega: the commit was already registered by
                # check_windows(); nothing to do here.
            # set releasing may let a blocked reset drive through
            if self.reset_level == 1 and self.q == 1 and self._reset_window is None \
                    and not self._has_pending(0):
                self._reset_window = time
        self._overlap_update(time)

    def on_reset_edge(self, time: float, value: int) -> None:
        """Feed a reset-input change at ``time``."""
        if value == self.reset_level:
            return
        self.reset_level = value
        if value == 1:
            if self.set_level == 0 and self.q == 1 and not self._has_pending(0):
                self._reset_window = time
            elif self.set_level == 1 and self._set_window is not None:
                self._set_window = None
        else:
            if self._reset_window is not None:
                width = time - self._reset_window
                if width < self.params.omega:
                    self._reset_window = None
                    self.filtered += 1
                    self.filtered_widths.append(width)
            if self.set_level == 1 and self.q == 0 and self._set_window is None \
                    and not self._has_pending(1):
                self._set_window = time
        self._overlap_update(time)

    # ------------------------------------------------------------------
    def window_deadline(self) -> float | None:
        """Earliest time at which an open candidate window matures."""
        times = []
        if self._set_window is not None:
            times.append(self._set_window + self.params.omega)
        if self._reset_window is not None:
            times.append(self._reset_window + self.params.omega)
        return min(times) if times else None

    def check_windows(self, now: float) -> list[tuple[float, int]]:
        """Mature candidate windows whose ω has elapsed by ``now``.

        Returns committed output events ``(time, value)`` where ``time``
        is ``window_open + τ``.
        """
        out: list[tuple[float, int]] = []
        if (
            self._set_window is not None
            and now >= self._set_window + self.params.omega - 1e-12
        ):
            # pulse survived >= omega: master committed
            out.append((self._set_window + self.params.tau, 1))
            self._set_window = None
        if (
            self._reset_window is not None
            and now >= self._reset_window + self.params.omega - 1e-12
        ):
            out.append((self._reset_window + self.params.tau, 0))
            self._reset_window = None
        self._commits.extend(out)
        return out

    def apply_commit(self, time: float, value: int) -> bool:
        """Apply a committed output event; returns True when q changed."""
        self._commits = [(t, v) for (t, v) in self._commits if (t, v) != (time, value)]
        if self.q == value:
            return False
        self.q = value
        return True

    def _has_pending(self, value: int) -> bool:
        return any(v == value for _, v in self._commits)


def mhs_response(
    pulses: list[tuple[float, float]],
    params: MhsParams | None = None,
) -> list[tuple[float, int]]:
    """Output transitions of the set input driven by a pulse train.

    ``pulses`` is a list of (start, end) high intervals on the *set*
    input with the flip-flop initially reset (``q = 0``); the
    returned list contains the resulting output transitions.  This is
    the Figure 4 experiment: pulses narrower than ω produce nothing;
    the first pulse of width ≥ ω produces a single ``+q`` at
    ``start + τ``.
    """
    p = params or MhsParams()
    st = MhsState(params=p)
    events: list[tuple[float, int]] = []
    for start, end in pulses:
        if end <= start:
            raise ValueError(f"bad pulse ({start}, {end})")
        st.on_set_edge(start, 1)
        deadline = st.window_deadline()
        commits: list[tuple[float, int]] = []
        if deadline is not None and end >= deadline - 1e-12:
            # the pulse outlives ω: the master commits at the deadline
            commits = st.check_windows(deadline)
        st.on_set_edge(end, 0)
        for t, v in commits:
            if st.apply_commit(t, v):
                events.append((t, v))
    return events


def celement_response(
    pulses: list[tuple[float, float]],
    tau: float = 1.2,
) -> list[tuple[float, int]]:
    """A plain C-element's response to the same pulse train (from
    ``q = 0``).

    A C-element has *no* ω threshold: any set pulse while ``q = 0``
    (however narrow) can commit it.  Used by the ablation bench to
    demonstrate why the MHS flip-flop is needed: under a hazardous
    pulse stream the C-element may fire on a runt pulse.
    """
    q = 0
    events = []
    for start, end in pulses:
        if q == 0:
            q = 1
            events.append((start + tau, 1))
    return events
