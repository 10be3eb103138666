"""SYN/Beerel-style speed-independent baseline flow ([1] in the paper).

Algorithmic model of the flow Table 2's ``SYN`` column came from:

1. **Restricted to distributive SGs** — failure code ``(1)`` otherwise.
2. The architecture is set/reset SOP planes into a **C-element** per
   non-input signal — structurally close to N-SHOT, which is why the
   paper's numbers for SYN and ASSASSIN often match.
3. The covers must however be **speed-independent without hazard
   filtering**: each excitation region is implemented by a *monotonous*
   single cube (one AND gate per ER that covers the whole ER and may
   extend only into that ER's own quiescent region or unreachable
   codes — never into foreign don't-care territory the way the N-SHOT
   minimizer freely does).  When no such cube exists the flow needs
   additional state signals: failure code ``(2)``.  Unreachable codes
   are open to a cube only on specs of at most
   :data:`~repro.logic.cover.MAX_CODE_SIGNALS` signals: on wider
   specs the flow does not enumerate the reachable codes and counts
   every code as used, so each cube stays inside its ER and QR.
4. Cubes whose switch-off is *not acknowledged* by the output's own
   transition (cubes that persist into the quiescent region and are
   eventually turned off by a later input change) need **extra
   acknowledgement hardware** — modelled as one 2-input gate each.
   This is the "extra internal hardware to ensure proper
   acknowledgement" that makes SYN noticeably bigger on
   ``pe-send-ifc``/``wrdatab``/``sbuf-send-ctl``/``pr-rcv-ifc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover, Cube
from ..logic.cover import MAX_CODE_SIGNALS
from ..logic.cube import spread_bits
from ..netlist import Gate, GateType, Netlist, Pin
from ..netlist.trees import build_gate_tree
from ..sg.encoding import reachable_codes
from ..sg.graph import StateGraph
from ..sg.regions import signal_regions
from .errors import BaselineRefusal, require_valid_spec
from .hazard_free_sop import product_nets
from .lavagno import require_distributive

__all__ = ["BeerelResult", "StateSignalsRequiredError", "synthesize_beerel"]


class StateSignalsRequiredError(BaselineRefusal):
    """Table 2 failure code (2): monotonous covers need new state signals."""

    code = "(2)"


@dataclass
class BeerelResult:
    """Outcome of the SYN-style flow."""

    sg: StateGraph
    netlist: Netlist
    covers: dict[tuple[int, str], Cover]
    ack_gates_added: int
    unacknowledged_cubes: list[str] = field(default_factory=list)

    def stats(self):
        return self.netlist.stats()


def _monotonous_cube(
    n: int, er_codes: set[int], allowed: set[int], used: "frozenset[int] | range", name: str
) -> Cube:
    """A single cube covering an ER, confined to its allowed codes.

    The cube may touch the codes in ``allowed`` (the ER, or the ER and
    its own QR) and any code not in ``used`` (an unreachable code; past
    :data:`~repro.logic.cover.MAX_CODE_SIGNALS` signals ``used`` is
    every code, so there is none).  It starts as the ER's supercube and
    greedily expands one variable at a time while it stays inside those
    codes.  Raises when even the supercube leaves them.
    """
    # the ER's supercube: the variables where the AND of the codes (of
    # their complements) has a 1 keep their 1 (0) literal
    full = (1 << n) - 1
    ones = zeros = full
    for c in er_codes:
        ones &= c
        zeros &= ~c

    def inside(care: int) -> bool:
        # the cube's codes: its fixed bits plus each subset of its free bits
        base = ones & care
        free = sub = full & ~care
        while True:
            code = base | sub
            if code in used and code not in allowed:
                return False
            if not sub:
                return True
            sub = (sub - 1) & free

    care = ones | zeros
    if not inside(care):
        raise StateSignalsRequiredError(
            f"(2) excitation region of {name} has no monotonous cover cube; "
            "state signals required"
        )
    improved = True
    while improved:
        improved = False
        for var in [v for v in range(n) if care >> v & 1]:
            if inside(care & ~(1 << var)):
                care &= ~(1 << var)
                improved = True
    return Cube(n, spread_bits(full & ~(zeros & care)) << 1 | spread_bits(full & ~(ones & care)))


def synthesize_beerel(
    sg: StateGraph,
    name: str = "syn",
) -> BeerelResult:
    """Run the standard-C monotonous-cover flow on a distributive SG."""
    require_valid_spec(sg, name)
    require_distributive(sg, name, "SYN/Beerel")

    nl = Netlist(name)
    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])
    for a in sg.non_inputs:
        nl.add_output(sg.signals[a])

    # past MAX_CODE_SIGNALS signals every code counts as used, so cubes
    # stay inside their allowed codes and never grow into the
    # unreachable space
    n = sg.num_signals
    used = reachable_codes(sg) if n <= MAX_CODE_SIGNALS else range(1 << n)

    covers: dict[tuple[int, str], Cover] = {}
    ack_gates = 0
    unack: list[str] = []

    for a in sg.non_inputs:
        sig = sg.signals[a]
        sr = signal_regions(sg, a)
        plane_nets: dict[str, str] = {}
        local_unack: list[str] = []
        for kind, direction in (("set", 1), ("reset", -1)):
            cubes: list[Cube] = []
            for er in sr.excitation:
                if er.direction != direction:
                    continue
                qr = sr.quiescent_after(er)
                er_codes = er.codes()
                qr_codes = qr.codes()
                tag = f"{'+' if direction == 1 else '-'}{sig}"
                try:
                    # preferred: the cube stays inside the excitation
                    # region (plus unreachable codes) — its turn-off is
                    # acknowledged by the output's own firing
                    cube = _monotonous_cube(sg.num_signals, er_codes, er_codes, used, tag)
                except StateSignalsRequiredError:
                    # the ER's supercube spills into its quiescent
                    # region: legal for a monotonous cover, but the
                    # cube's turn-off is no longer acknowledged by the
                    # output transition — extra completion hardware
                    cube = _monotonous_cube(
                        sg.num_signals, er_codes, er_codes | qr_codes, used, tag
                    )
                    net_ok = f"ackh_{kind}_{sig}_{len(cubes)}"
                    local_unack.append(net_ok)
                    unack.append(net_ok)
                cubes.append(cube)
            covers[(a, kind)] = Cover(sg.num_signals, 1, cubes)

            # build the plane; the latch input is gated by the output's
            # own rail (the feedback acknowledgement of the standard-C
            # architecture — the same role the ack AND plays in N-SHOT)
            enable = Pin(sig, inverted=(kind == "set"))
            gate_out = nl.fresh_net(f"{kind}_{sig}_g")

            if not cubes:
                nl.add(
                    Gate(
                        f"const0_{kind}_{sig}",
                        GateType.CONST,
                        [],
                        gate_out,
                        attrs={"value": 0},
                    )
                )
            else:
                cube_nets = product_nets(nl, cubes, sg.signals, f"{kind}_{sig}")
                if len(cube_nets) == 1:
                    plane = cube_nets[0]
                else:
                    plane = nl.fresh_net(f"{kind}_{sig}_or")
                    build_gate_tree(
                        nl,
                        GateType.OR,
                        [Pin(c) for c in cube_nets],
                        plane,
                        f"or_{kind}_{sig}",
                    )
                nl.add(
                    Gate(
                        f"ack_{kind}_{sig}",
                        GateType.AND,
                        [Pin(plane), enable],
                        gate_out,
                    )
                )
            plane_nets[kind] = gate_out

        # extra acknowledgement hardware: one completion gate per
        # unacknowledged cube (the cubes extending into the quiescent
        # region whose turn-off the output transition cannot observe)
        for net_ok in local_unack:
            dummy_out = nl.fresh_net("ackh")
            nl.add(
                Gate(
                    net_ok,
                    GateType.AND,
                    [Pin(plane_nets["set"]), Pin(plane_nets["reset"], inverted=True)],
                    dummy_out,
                    attrs={"ack_hardware": True},
                )
            )
            ack_gates += 1

        # storage element: C-element/RS latch per the standard-C scheme
        nl.add(
            Gate(
                f"cel_{sig}",
                GateType.RSLATCH,
                [Pin(plane_nets["set"]), Pin(plane_nets["reset"])],
                sig,
                output_n=sig + "_n",
                attrs={"init": sg.initial_code >> a & 1},
            )
        )
    return BeerelResult(
        sg=sg,
        netlist=nl,
        covers=covers,
        ack_gates_added=ack_gates,
        unacknowledged_cubes=unack,
    )
