"""N-SHOT architecture assembly — Figure 3 at the netlist level.

For every non-input signal ``a`` the architecture instantiates:

* the **set plane**: one AND gate per cube of the set function (cubes
  shared between functions are instantiated once), an OR gate when the
  plane has several cubes;
* the **reset plane**, symmetric;
* the **acknowledgement scheme**: the set plane is gated by
  ``enable_set`` — the flip-flop's ``qn`` rail, through a local delay
  line when Equation (1) requires one — and the reset plane by ``q``;
* the **MHS flip-flop**, dual-rail (``a`` / ``a_n``), so non-input
  literals never need inverters; input-signal literals use the AND
  gates' input-inversion bubbles (footnote 2 of the paper).

Single-cube planes are folded into the acknowledgement AND gate (one
gate computes ``cube ∧ enable``), which is what makes the shortest
benchmarks come out at 2 levels like the paper's fastest entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover, Cube
from ..netlist import Gate, GateType, Netlist, Pin
from ..netlist.trees import build_gate_tree
from ..sg.graph import StateGraph
from .delays import DelayRequirement, PlaneTiming
from .sop_derivation import SopSpec

__all__ = ["ArchitectureResult", "build_nshot_netlist"]


@dataclass
class ArchitectureResult:
    """Netlist plus per-signal plane structure information."""

    netlist: Netlist
    set_timing: dict[int, PlaneTiming] = field(default_factory=dict)
    reset_timing: dict[int, PlaneTiming] = field(default_factory=dict)
    plane_nets: dict[tuple[int, str], str] = field(default_factory=dict)
    sop_nets: list[str] = field(default_factory=list)


def _literal_pins(
    sg: StateGraph, cube: Cube, rails: dict[int, tuple[str, str]]
) -> list[Pin]:
    """Input pins of a product term.

    Input signals use the single-rail primary input with an inversion
    bubble for negative literals; non-input signals use the flip-flop's
    dual rails directly.
    """
    pins: list[Pin] = []
    for var in cube.fixed_vars():
        positive = cube.literal(var) == 0b10
        if sg.is_input(var):
            pins.append(Pin(sg.signals[var], inverted=not positive))
        else:
            q, qn = rails[var]
            pins.append(Pin(q if positive else qn, inverted=False))
    return pins


def build_nshot_netlist(
    spec: SopSpec,
    cover: Cover,
    delay_requirements: dict[int, DelayRequirement] | None = None,
    init_values: dict[int, int] | None = None,
    name: str = "nshot",
) -> ArchitectureResult:
    """Map a minimized multi-output cover into the N-SHOT structure.

    Parameters
    ----------
    spec:
        The SOP specification (provides SG, output indexing).
    cover:
        Minimized multi-output cover (set/reset columns per signal).
    delay_requirements:
        Per-signal evaluated Equation (1); a positive ``t_del`` inserts
        a delay line on the corresponding enable rail.
    init_values:
        Initial flip-flop values per signal (defaults to the SG initial
        state's code).
    """
    sg = spec.sg
    nl = Netlist(name)
    result = ArchitectureResult(nl)

    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])

    # dual rails for every non-input signal
    rails: dict[int, tuple[str, str]] = {}
    for a in sg.non_inputs:
        rails[a] = (sg.signals[a], sg.signals[a] + "_n")
        nl.add_output(sg.signals[a])

    # shared product terms: one AND gate per cube used by >1 output or
    # by a multi-cube plane; single-cube/single-user planes fold into
    # the acknowledgement gate below
    cube_net: dict[int, str] = {}  # index in cover -> net

    def column(o: int) -> list[int]:
        bit = 1 << o
        return [i for i, c in enumerate(cover.cubes) if c.outputs & bit]

    usage: dict[int, int] = {}
    for o in range(spec.num_outputs):
        for i in column(o):
            usage[i] = usage.get(i, 0) + 1

    def cube_pins(i: int) -> list[Pin]:
        return _literal_pins(sg, cover.cubes[i], rails)

    cube_depth: dict[int, int] = {}

    def materialize_cube(i: int, label: str) -> str:
        if i in cube_net:
            return cube_net[i]
        pins = cube_pins(i)
        if len(pins) == 1 and not pins[0].inverted:
            cube_net[i] = pins[0].net  # a bare literal is just a wire
            cube_depth[i] = 0
            return cube_net[i]
        net = nl.fresh_net(f"p_{label}_")
        cube_depth[i] = build_gate_tree(nl, GateType.AND, pins, net, f"and_{label}")
        cube_net[i] = net
        return net

    code0 = sg.initial_code
    for a in sg.non_inputs:
        sig_name = sg.signals[a]
        q, qn = rails[a]
        req = (delay_requirements or {}).get(a)
        init = (init_values or {}).get(a, code0 >> a & 1)

        gated: dict[str, str] = {}
        for kind in ("set", "reset"):
            o = spec.output_index(a, kind)
            col = column(o)
            enable_rail = qn if kind == "set" else q
            # optional local delay compensation on the enable rail
            if req is not None and req.compensation_required:
                dnet = nl.fresh_net(f"en_{kind}_{sig_name}_")
                nl.add(
                    Gate(
                        f"del_{kind}_{sig_name}",
                        GateType.DELAY,
                        [Pin(enable_rail)],
                        dnet,
                        delay=req.t_del,
                    )
                )
                enable = dnet
            else:
                enable = enable_rail

            gate_out = nl.fresh_net(f"{kind}_{sig_name}_g")
            if not col:
                # function is constant 0: the plane never excites
                nl.add(
                    Gate(
                        f"const0_{kind}_{sig_name}",
                        GateType.CONST,
                        [],
                        gate_out,
                        attrs={"value": 0},
                    )
                )
                result.plane_nets[(a, kind)] = gate_out
                timing = PlaneTiming(0, 0)
            elif (
                len(col) == 1
                and usage[col[0]] == 1
                and len(cube_pins(col[0])) < 8
            ):
                # fold the single cube into the acknowledgement gate
                pins = cube_pins(col[0]) + [Pin(enable)]
                nl.add(Gate(f"ack_{kind}_{sig_name}", GateType.AND, pins, gate_out))
                result.plane_nets[(a, kind)] = gate_out
                timing = PlaneTiming(1, 1)
            else:
                cube_nets = [materialize_cube(i, kind[0] + sig_name) for i in col]
                depths = [cube_depth[i] for i in col]
                if len(cube_nets) == 1:
                    plane_out = cube_nets[0]
                    plane_levels = max(1, depths[0])
                else:
                    plane_out = nl.fresh_net(f"{kind}_{sig_name}_or")
                    or_depth = build_gate_tree(
                        nl,
                        GateType.OR,
                        [Pin(nta) for nta in cube_nets],
                        plane_out,
                        f"or_{kind}_{sig_name}",
                    )
                    plane_levels = max(depths) + or_depth
                result.sop_nets.extend(cube_nets)
                result.sop_nets.append(plane_out)
                nl.add(
                    Gate(
                        f"ack_{kind}_{sig_name}",
                        GateType.AND,
                        [Pin(plane_out), Pin(enable)],
                        gate_out,
                    )
                )
                result.plane_nets[(a, kind)] = plane_out
                timing = PlaneTiming(plane_levels, 1)
            gated[kind] = gate_out
            if kind == "set":
                result.set_timing[a] = timing
            else:
                result.reset_timing[a] = timing

        nl.add(
            Gate(
                f"mhs_{sig_name}",
                GateType.MHSFF,
                [Pin(gated["set"]), Pin(gated["reset"])],
                q,
                output_n=qn,
                attrs={"init": init},
            )
        )
    return result
