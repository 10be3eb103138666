"""Structural Verilog-style writer.

Emits a readable structural netlist for inspection and for feeding
external gate-level simulators.  The MHS flip-flop, C-element and RS
latch are emitted as instantiations of behavioural primitives whose
definitions are included once per file (matching how the authors
validated their designs "at the gate-level using VERILOG").
"""

from __future__ import annotations

from .gates import Gate, GateType
from .netlist import Netlist

__all__ = ["write_verilog"]

_PRIMITIVES = """
// --- behavioural primitives -------------------------------------------
module MHSFF(input set, input rst, output reg q, output qn);
  // master RS latch + hazard filter + slave RS latch (Figure 5).
  // Behaviourally a C-element on (set, ~rst) that is additionally
  // immune to short input pulses (electrical property, not expressible
  // at this abstraction).
  assign qn = ~q;
  always @(posedge set) q <= 1'b1;
  always @(posedge rst) q <= 1'b0;
endmodule

module CEL(input a, input b, output reg q);
  always @(a or b) if (a == b) q <= a;
endmodule

module RSLATCH(input s, input r, output reg q, output qn);
  assign qn = ~q;
  always @(s or r) begin
    if (s && !r) q <= 1'b1;
    else if (r && !s) q <= 1'b0;
  end
endmodule
// ----------------------------------------------------------------------
"""


def _expr(gate: Gate) -> str:
    terms = [("~" if p.inverted else "") + _id(p.net) for p in gate.inputs]
    if gate.type == GateType.AND:
        return " & ".join(terms) if terms else "1'b1"
    if gate.type == GateType.OR:
        return " | ".join(terms) if terms else "1'b0"
    if gate.type == GateType.INV:
        return f"~{terms[0]}"
    if gate.type in (GateType.BUF, GateType.DELAY):
        return terms[0]
    if gate.type == GateType.CONST:
        return f"1'b{int(gate.attrs.get('value', 0))}"
    raise ValueError(f"no expression form for {gate.type}")


def _id(net: str) -> str:
    """Sanitize a net name into a Verilog identifier."""
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in net)
    if out and out[0].isdigit():
        out = "n_" + out
    return out


def write_verilog(netlist: Netlist) -> str:
    """Serialize a netlist as structural Verilog text."""
    name = _id(netlist.name)
    ins = [_id(n) for n in netlist.primary_inputs]
    outs = [_id(n) for n in netlist.primary_outputs]
    ports = ins + outs
    lines = [f"module {name}({', '.join(ports)});"]
    for n in ins:
        lines.append(f"  input {n};")
    for n in outs:
        lines.append(f"  output {n};")
    internal = {
        _id(n)
        for n in netlist.nets()
        if _id(n) not in set(ins) | set(outs)
    }
    for n in sorted(internal):
        lines.append(f"  wire {n};")
    lines.append("")
    for g in netlist.gates:
        if g.type in (GateType.AND, GateType.OR, GateType.INV, GateType.BUF,
                      GateType.CONST):
            lines.append(f"  assign {_id(g.output)} = {_expr(g)};  // {g.name}")
        elif g.type == GateType.DELAY:
            d = g.delay if g.delay is not None else 0.0
            lines.append(
                f"  assign #{d:g} {_id(g.output)} = {_expr(g)};  // {g.name} (delay line)"
            )
        elif g.type == GateType.MHSFF:
            qn = _id(g.output_n) if g.output_n else _id(g.output) + "_n"
            lines.append(
                f"  MHSFF {_id(g.name)}(.set({_id(g.inputs[0].net)}), "
                f".rst({_id(g.inputs[1].net)}), .q({_id(g.output)}), .qn({qn}));"
            )
        elif g.type == GateType.CEL:
            lines.append(
                f"  CEL {_id(g.name)}(.a({_id(g.inputs[0].net)}), "
                f".b({_id(g.inputs[1].net)}), .q({_id(g.output)}));"
            )
        elif g.type == GateType.RSLATCH:
            qn = _id(g.output_n) if g.output_n else _id(g.output) + "_n"
            lines.append(
                f"  RSLATCH {_id(g.name)}(.s({_id(g.inputs[0].net)}), "
                f".r({_id(g.inputs[1].net)}), .q({_id(g.output)}), .qn({qn}));"
            )
        elif g.type == GateType.INPUT:
            continue
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot emit gate type {g.type}")
    lines.append("endmodule")
    return _PRIMITIVES + "\n" + "\n".join(lines) + "\n"
