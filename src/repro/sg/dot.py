"""Graphviz DOT export for state graphs and netlists.

Produces figures in the style of the paper's SG drawings: states are
labelled with their starred binary codes (``1*1*1``), region membership
can be colour-coded, and netlists render as the Figure 3 block
structure.  Pure text generation — rendering needs an external
``dot`` binary, but the output is also a readable artefact by itself.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from .graph import StateGraph
from .regions import Region

__all__ = ["sg_to_dot", "netlist_to_dot"]

_REGION_COLORS = {
    "ER+": "#bfe3bf",   # up-excitation: light green
    "QR+": "#e3f2e3",
    "ER-": "#e3bfbf",   # down-excitation: light red
    "QR-": "#f2e3e3",
}


def sg_to_dot(
    sg: StateGraph,
    regions: Iterable[Region] = (),
    title: str | None = None,
) -> str:
    """Render an SG as DOT, optionally colouring region membership.

    Regions are painted in listing order (later regions win on
    overlap, though regions of one signal never overlap).
    """
    fill: dict[object, str] = {}
    for r in regions:
        key = f"{r.kind}{'+' if r.rising else '-'}"
        color = _REGION_COLORS.get(key, "#dddddd")
        for s in r.states:
            fill[s] = color

    # node names by insertion order, not by hash, so the text is the same
    # for every hash seed
    node = {s: f"s{i}" for i, s in enumerate(sg.states())}
    lines = ["digraph sg {", '  rankdir=TB;', '  node [shape=ellipse, fontname="monospace"];']
    if title:
        lines.append(f'  label="{title}"; labelloc=t;')
    for s in sg.states():
        attrs = [f'label="{sg.state_label(s)}"']
        if s in fill:
            attrs.append(f'style=filled, fillcolor="{fill[s]}"')
        if s == sg.initial:
            attrs.append("penwidth=2")
        lines.append(f'  {node[s]} [{", ".join(attrs)}];')
    for s in sg.states():
        for t, d in sg.successors(s):
            style = "" if sg.is_input(t.signal) else ", style=bold"
            lines.append(
                f'  {node[s]} -> {node[d]} '
                f'[label="{t.label(sg.signals)}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


_GATE_SHAPES: Mapping[GateType, str] = {
    GateType.AND: "invhouse",
    GateType.OR: "invtrapezium",
    GateType.INV: "triangle",
    GateType.BUF: "triangle",
    GateType.DELAY: "cds",
    GateType.MHSFF: "box3d",
    GateType.CEL: "box3d",
    GateType.RSLATCH: "box3d",
    GateType.QFLOP: "box3d",
    GateType.CONST: "plaintext",
    GateType.INPUT: "plaintext",
}


def netlist_to_dot(nl: Netlist, title: str | None = None) -> str:
    """Render a netlist as a DOT dataflow diagram (Figure 3 style)."""
    lines = ["digraph netlist {", "  rankdir=LR;", '  node [fontname="monospace"];']
    if title:
        lines.append(f'  label="{title}"; labelloc=t;')
    for pi in nl.primary_inputs:
        lines.append(f'  "{pi}" [shape=circle];')
    for g in nl.gates:
        shape = _GATE_SHAPES.get(g.type, "box")
        lines.append(f'  "{g.name}" [shape={shape}, label="{g.name}\\n{g.type.value}"];')
    # edges: driver -> consumer, labelled with the net
    for g in nl.gates:
        for p in g.inputs:
            drv = nl.driver(p.net)
            src = f'"{drv.name}"' if drv is not None else f'"{p.net}"'
            style = ", style=dashed" if p.inverted else ""
            lines.append(f'  {src} -> "{g.name}" [label="{p.net}"{style}];')
    for po in nl.primary_outputs:
        drv = nl.driver(po)
        if drv is not None:
            lines.append(f'  "{po}_port" [shape=doublecircle, label="{po}"];')
            lines.append(f'  "{drv.name}" -> "{po}_port";')
    lines.append("}")
    return "\n".join(lines) + "\n"
