"""Reporting helpers: Table 1 / Table 2 style formatting."""

from __future__ import annotations

from typing import Sequence

from ..sg.graph import StateGraph
from .sop_derivation import ModeRow

__all__ = ["format_mode_table", "format_results_table"]


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
