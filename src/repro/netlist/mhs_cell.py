"""Structural model of the MHS flip-flop cell (Figure 5).

The paper's Figure 5 shows the flip-flop's internals: a **master RS
latch** converting input pulses into an analog level, a **hazard
filter** (two "degenerated inverters", the same structure mutual
exclusion elements use to block metastability), and a **slave RS
latch** that removes the filter's hazardous down-transitions.  The
behavioural cell used in simulation (:mod:`repro.sim.mhs`) abstracts
this; the structural view here documents the gate-level anatomy,
drives the Figure 5 bench, and provides the transistor-pair accounting
behind the library's area number for the cell.
"""

from __future__ import annotations

from .gates import Gate, GateType, Pin
from .netlist import Netlist

__all__ = ["build_mhs_cell", "MHS_STAGE_NAMES"]

#: the three stages of Figure 5, in signal-flow order
MHS_STAGE_NAMES = ("master", "filter", "slave")


def build_mhs_cell() -> Netlist:
    """Gate-level netlist of one MHS flip-flop (Figure 5).

    Ports: inputs ``set`` / ``reset``; outputs ``q`` / ``qn``.
    Internal nets: ``master_s`` / ``master_r`` (master latch rails),
    ``slave_set`` / ``slave_reset`` (the filter outputs shown in the
    paper's Figure 6 waveforms).

    The filter stage is modelled with buffer cells marked
    ``{"stage": "filter", "degenerated": True}`` — at this abstraction
    a degenerated inverter is a threshold element; its electrical role
    (suppressing sub-threshold master excursions) lives in the
    behavioural model's ω parameter.
    """
    nl = Netlist("mhs_cell")
    nl.add_input("set")
    nl.add_input("reset")
    nl.add_output("q")
    nl.add_output("qn")

    # master RS latch: converts input pulses into a held level
    nl.add(
        Gate(
            "master",
            GateType.RSLATCH,
            [Pin("set"), Pin("reset")],
            "master_s",
            output_n="master_r",
            attrs={"stage": "master"},
        )
    )
    # hazard filter: two degenerated inverters; hazard-free
    # up-transitions on slave_set / slave_reset (first filtering stage)
    nl.add(
        Gate(
            "filter_s",
            GateType.BUF,
            [Pin("master_s")],
            "slave_set",
            attrs={"stage": "filter", "degenerated": True},
        )
    )
    nl.add(
        Gate(
            "filter_r",
            GateType.BUF,
            [Pin("master_r")],
            "slave_reset",
            attrs={"stage": "filter", "degenerated": True},
        )
    )
    # slave RS latch: eliminates the filter's hazardous down-transitions
    nl.add(
        Gate(
            "slave",
            GateType.RSLATCH,
            [Pin("slave_set"), Pin("slave_reset")],
            "q",
            output_n="qn",
            attrs={"stage": "slave"},
        )
    )
    return nl
