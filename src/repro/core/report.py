"""Reporting: the paper's Table 1 (region ↔ SET/RESET ↔ MHS mode) and
Table 2 style formatting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..sg.graph import StateGraph
from ..sg.regions import signal_regions

__all__ = ["ModeRow", "format_mode_table", "format_results_table", "region_mode_table"]


@dataclass(frozen=True)
class ModeRow:
    """One row of the paper's Table 1 for a concrete state."""

    state: object
    region: str  # "ER(+a)", "QR(+a)", "ER(-a)", "QR(-a)", "unreachable"
    set_value: str  # "0", "1" or "*"
    reset_value: str
    mode: str  # "+a", "a = 1", "-a", "a = 0", "memory"


def region_mode_table(sg: StateGraph, signal: int) -> list[ModeRow]:
    """Reproduce Table 1: region ↔ SET/RESET levels ↔ MHS mode.

    Enumerates every reachable state of the SG, classifies it into the
    signal's region structure and emits the specified SET/RESET values
    and the flip-flop operation mode.
    """
    name = sg.signals[signal]
    sr = signal_regions(sg, signal)
    view = sg.dense()
    up_er, up_qr, dn_er, dn_qr = (
        view.flags(sr.union_bits(kind, direction))
        for kind, direction in (("ER", 1), ("QR", 1), ("ER", -1), ("QR", -1))
    )
    rows: list[ModeRow] = []
    for i, s in enumerate(view.ids):
        if up_er[i]:
            rows.append(ModeRow(s, f"ER(+{name})", "1", "0", f"+{name}"))
        elif up_qr[i]:
            rows.append(ModeRow(s, f"QR(+{name})", "*", "0", f"{name} = 1"))
        elif dn_er[i]:
            rows.append(ModeRow(s, f"ER(-{name})", "0", "1", f"-{name}"))
        elif dn_qr[i]:
            rows.append(ModeRow(s, f"QR(-{name})", "0", "*", f"{name} = 0"))
        else:
            rows.append(ModeRow(s, "unreachable", "*", "*", "memory"))
    return rows


def format_mode_table(sg: StateGraph, rows: Sequence[ModeRow]) -> str:
    """Render the Table 1 correspondence for concrete states."""
    lines = [
        f"{'state':<16} {'region':<10} {'SET':^4} {'RESET':^6} mode",
        "-" * 48,
    ]
    for r in rows:
        label = sg.state_label(r.state)
        lines.append(
            f"{label:<16} {r.region:<10} {r.set_value:^4} {r.reset_value:^6} {r.mode}"
        )
    return "\n".join(lines)


def format_results_table(rows: Sequence[tuple[str, int, str, str, str]]) -> str:
    """Render a Table 2 style comparison.

    Each row is ``(name, states, sis_cell, syn_cell, assassin_cell)``
    where a cell is an ``area/delay`` string or a ``(k)`` failure code.
    """
    headers = ("Circuit", "states", "SIS", "SYN", "ASSASSIN")
    widths = [max(len(headers[0]), *(len(r[0]) for r in rows)) if rows else len(headers[0])]
    lines = []
    header = (
        f"{headers[0]:<{widths[0]}}  {headers[1]:>6}  "
        f"{headers[2]:>12}  {headers[3]:>12}  {headers[4]:>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, states, sis, syn, ours in rows:
        lines.append(
            f"{name:<{widths[0]}}  {states:>6}  {sis:>12}  {syn:>12}  {ours:>12}"
        )
    return "\n".join(lines)
