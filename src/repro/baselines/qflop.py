"""Q-module / locally-clocked baseline (Rosenberger et al. [9]).

Section II of the paper devotes a full paragraph to why this approach
is expensive, and every cost it lists is structural:

1. **every external input and every feedback state signal is bounded
   by a Q-flop synchronizer** — N memory elements where N = #inputs +
   #non-input signals, "typically much more" than the latch count of
   the SOP architectures;
2. an **N-way rendezvous implemented as a tree of C-elements**
   generates the local clock — N−1 extra cells plus ⌈log₂N⌉ levels in
   the cycle;
3. the local clock needs a **delay line at least as long as the
   longest path through the combinational circuit**, so "the circuit
   has to operate in steps that are at least as slow as the worst-case
   delay through the combinational logic".

This module models the flow faithfully enough to regenerate those
claims: the combinational core is the same next-state SOP used by the
other baselines; the synchronizers, the rendezvous tree and the delay
line are added structurally; the reported delay is the local clock
period (combinational worst path + rendezvous + Q-flop response).
Unlike SIS/SYN, the Q-module approach has no distributivity
restriction — its costs are what rule it out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic import Cover, minimize
from ..netlist import DEFAULT_LIBRARY, Gate, GateType, Netlist, Pin
from ..netlist.trees import build_gate_tree
from ..sg.graph import StateGraph
from .errors import require_valid_spec
from .hazard_free_sop import next_state_function, product_nets

__all__ = ["QModuleResult", "synthesize_qmodule"]


@dataclass
class QModuleResult:
    """Outcome of the Q-module flow."""

    sg: StateGraph
    netlist: Netlist
    covers: dict[int, Cover]
    num_qflops: int
    rendezvous_cells: int
    clock_delay_line: float

    def stats(self):
        return self.netlist.stats()


def synthesize_qmodule(
    sg: StateGraph,
    name: str = "qmod",
) -> QModuleResult:
    """Synthesize with the locally-clocked Q-module architecture of [9]."""
    require_valid_spec(sg, name)

    nl = Netlist(name)
    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])
    for a in sg.non_inputs:
        nl.add_output(sg.signals[a])

    # 1. Q-flop synchronizers on every input and every feedback signal
    clock = "lclk"
    sampled: list[str] = []
    qflops = 0
    for idx in range(sg.num_signals):
        src = sg.signals[idx] if sg.is_input(idx) else sg.signals[idx] + "_fb"
        out = nl.fresh_net(f"q_{sg.signals[idx]}_")
        nl.add(
            Gate(
                f"qflop_{sg.signals[idx]}",
                GateType.QFLOP,
                [Pin(src), Pin(clock)],
                out,
                output_n=out + "_n",
                attrs={"sync": True},
            )
        )
        sampled.append(out)
        qflops += 1

    # 2. the combinational next-state core over the sampled values
    covers: dict[int, Cover] = {}
    done_nets: list[str] = []
    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        cover = minimize(spec.on, spec.dc, spec.off)
        covers[a] = cover
        sig = sg.signals[a]
        cube_nets = product_nets(nl, cover.cubes, sampled, sig)
        if not cube_nets:
            z = nl.fresh_net(f"z_{sig}_")
            nl.add(Gate(f"c0_{sig}", GateType.CONST, [], z, attrs={"value": 0}))
            cube_nets = [z]
        if len(cube_nets) == 1:
            plane = cube_nets[0]
        else:
            plane = nl.fresh_net(f"f_{sig}_")
            build_gate_tree(
                nl, GateType.OR, [Pin(c) for c in cube_nets], plane, f"or_{sig}"
            )
        # output register clocked by the local clock; also the feedback
        nl.add(
            Gate(
                f"reg_{sig}",
                GateType.RSLATCH,
                [Pin(plane), Pin(plane, inverted=True)],
                sig,
                output_n=sig + "_fb",
                attrs={"init": sg.initial_code >> a & 1},
            )
        )
        done_nets.append(sig)

    # 3. the N-way rendezvous: a tree of C-elements over the Q-flop
    #    completion signals generates the local clock
    rendezvous_cells = 0
    level = sampled
    while len(level) > 1:
        nxt: list[str] = []
        for k in range(0, len(level) - 1, 2):
            out = nl.fresh_net("rdv_")
            nl.add(
                Gate(
                    f"cel_rdv_{out}",
                    GateType.CEL,
                    [Pin(level[k]), Pin(level[k + 1])],
                    out,
                    attrs={"rendezvous": True},
                )
            )
            rendezvous_cells += 1
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt

    # 4. the local clock: delay line at least as long as the longest
    #    path through the combinational circuit
    comb_levels = 0
    for a in sg.non_inputs:
        cover = covers[a]
        has_or = len(cover.cubes) > 1
        comb_levels = max(comb_levels, (1 if cover.cubes else 0) + (1 if has_or else 0))
    clock_delay = max(1, comb_levels) * DEFAULT_LIBRARY.level_delay
    nl.add(
        Gate(
            "clk_delay",
            GateType.DELAY,
            [Pin(level[0])],
            clock,
            delay=clock_delay,
            attrs={"clock": True},
        )
    )
    return QModuleResult(
        sg=sg,
        netlist=nl,
        covers=covers,
        num_qflops=qflops,
        rendezvous_cells=rendezvous_cells,
        clock_delay_line=clock_delay,
    )
