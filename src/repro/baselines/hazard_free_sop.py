"""Hazard-aware two-level synthesis helpers for the baseline flows.

The existing methods the paper compares against must keep their
combinational logic hazard-free — the very constraint the N-SHOT
architecture removes.  This module provides the shared machinery:

* :func:`next_state_function` — the classical next-state spec of a
  non-input signal: ``f_a = 1`` on ``ER(+a) ∪ QR(+a)``
  (up-excitation: drive toward 1; up-quiescent: hold 1);
* :func:`static_one_hazard_pairs` — SG arcs along which the function
  holds 1 while an input changes; each pair must be covered by a
  single cube or the AND-OR plane can emit a 1-0-1 glitch;
* :func:`add_hazard_cover_cubes` — the classical fix: add consensus
  cubes so every such transition pair is single-cube covered (the
  hazard-free-cover condition of Eggan/Unger/Nowick, as used by
  Lavagno's bounded-delay flow);
* :func:`function_hazard_states` — states where ≥2 concurrently
  enabled transitions both affect the function: a *function* hazard no
  combinational fix can remove — the bounded-delay flow masks these
  with delay padding instead;
* :func:`synthesize_hazard_free_sop` — the helpers as a flow of their
  own: a *purely combinational* hazard-free SOP implementation (no
  storage, no delay padding).  It refuses any spec with function
  hazards (:class:`UnmaskableHazardError`) — the strictest baseline in
  the differential bench, exhibiting exactly the failure mode the
  bounded-delay and N-SHOT methods exist to remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover, Cube, minimize
from ..logic.espresso import expand as espresso_expand
from ..netlist import Gate, GateType, Netlist, Pin
from ..netlist.trees import build_gate_tree
from ..sg.encoding import bits_to_cover, unreachable_cover
from ..sg.graph import StateGraph, StateId, render_state
from ..sg.regions import signal_regions
from .errors import BaselineRefusal, refusal_diagnostic, require_valid_spec

__all__ = [
    "NextStateSpec",
    "next_state_function",
    "static_one_hazard_pairs",
    "add_hazard_cover_cubes",
    "function_hazard_states",
    "UnmaskableHazardError",
    "HazardFreeSopResult",
    "synthesize_hazard_free_sop",
]


class UnmaskableHazardError(BaselineRefusal):
    """Failure code (fh): function hazards need delay masking.

    A purely combinational AND-OR plane cannot be glitch-free across a
    multi-input change that moves the function non-monotonically —
    only delay padding (Lavagno) or the MHS flip-flop (N-SHOT) absorbs
    those, and this flow has neither.
    """

    code = "(fh)"


@dataclass
class NextStateSpec:
    """(F, D, R) of one signal's next-state function (single output)."""

    signal: int
    on: Cover
    dc: Cover
    off: Cover
    on_states: set[StateId]
    off_states: set[StateId]


def next_state_function(sg: StateGraph, signal: int) -> NextStateSpec:
    """The classical next-state spec of a non-input signal.

    ``f = 1`` where the signal is 1-and-stable or excited toward 1
    (``ER(+a) ∪ QR(+a)``); ``f = 0`` on ``ER(-a) ∪ QR(-a)``;
    unreachable codes are don't care.
    """
    sr = signal_regions(sg, signal)
    view = sg.dense()
    on_states = sr.union_states("ER", 1) | sr.union_states("QR", 1)
    off_states = sr.union_states("ER", -1) | sr.union_states("QR", -1)
    return NextStateSpec(
        signal=signal,
        on=bits_to_cover(
            sg, sr.union_bits(view, "ER", 1) | sr.union_bits(view, "QR", 1)
        ),
        dc=unreachable_cover(sg),
        off=bits_to_cover(
            sg, sr.union_bits(view, "ER", -1) | sr.union_bits(view, "QR", -1)
        ),
        on_states=on_states,
        off_states=off_states,
    )


def static_one_hazard_pairs(
    sg: StateGraph, spec: NextStateSpec
) -> list[tuple[StateId, StateId]]:
    """SG arcs where the function stays 1 while another signal flips.

    In a two-level AND-OR plane a single-variable change between two
    ON minterms glitches unless one cube covers both (static-1 hazard).
    0-1-0 static hazards do not occur in AND-OR SOP with input
    inversions (the paper makes the same observation in Section IV-A).
    """
    out = []
    for s in spec.on_states:
        for t, d in sg.successors(s):
            if t.signal == spec.signal:
                continue
            if d in spec.on_states:
                out.append((s, d))
    return out


def add_hazard_cover_cubes(
    sg: StateGraph, spec: NextStateSpec, cover: Cover
) -> tuple[Cover, int]:
    """Make a cover hazard-free for all static-1 transition pairs.

    For every required pair not covered by a single cube, the pair's
    supercube (always inside the ON-set, hence never touching R) is
    expanded to a prime and added.  Returns the repaired cover and the
    number of cubes added — the area overhead that hazard-freedom
    costs the baseline flows.
    """
    added = 0
    work = cover.copy()
    for s, d in static_one_hazard_pairs(sg, spec):
        cs = Cube.from_minterm(sg.code(s), sg.num_signals)
        cd = Cube.from_minterm(sg.code(d), sg.num_signals)
        pair = cs.supercube(cd)
        if any(c.contains(pair) for c in work.cubes):
            continue
        prime = espresso_expand(
            Cover(sg.num_signals, 1, [pair]), spec.off
        ).cubes[0]
        work.add(prime)
        added += 1
    if added:
        work = work.single_cube_containment()
    return work, added


def function_hazard_states(sg: StateGraph, spec: NextStateSpec) -> list[StateId]:
    """States exposing a function hazard of the next-state function.

    A state where two concurrently enabled transitions (neither being
    the signal's own) lead through a diamond whose corners give the
    function a non-monotonic course: combinational logic cannot be
    glitch-free across it, whatever the cover.  The bounded-delay flow
    must mask such hazards with delay lines.
    """
    out: list[StateId] = []

    def f(state: StateId) -> int | None:
        if state in spec.on_states:
            return 1
        if state in spec.off_states:
            return 0
        return None

    for s in sg.states():
        enabled = [t for t in sg.enabled(s) if t.signal != spec.signal]
        exposed = False
        for i in range(len(enabled)):
            for j in range(i + 1, len(enabled)):
                t1, t2 = enabled[i], enabled[j]
                s1, s2 = sg.succ(s, t1), sg.succ(s, t2)
                s12 = sg.succ(s1, t2) if s1 is not None else None
                corners = [f(x) for x in (s, s1, s2, s12) if x is not None]
                vals = [v for v in corners if v is not None]
                if len(set(vals)) > 1:
                    # the function changes across a multi-input change:
                    # under the bounded-delay model the AND-OR plane can
                    # glitch during the transition however it is covered
                    exposed = True
        if exposed:
            out.append(s)
    return out


@dataclass
class HazardFreeSopResult:
    """Outcome of the purely combinational hazard-free SOP flow."""

    sg: StateGraph
    netlist: Netlist
    covers: dict[int, Cover]
    hazard_cubes_added: int
    padded_signals: list[str] = field(default_factory=list)

    def stats(self):
        return self.netlist.stats()


def synthesize_hazard_free_sop(
    sg: StateGraph,
    name: str = "hfsop",
    method: str = "espresso",
    validate: bool = True,
) -> HazardFreeSopResult:
    """Purely combinational hazard-free SOP flow (no storage, no delays).

    Each non-input signal becomes a feedback SOP of its next-state
    function, repaired by :func:`add_hazard_cover_cubes` until every
    static-1 transition pair is single-cube covered.  Function hazards
    have no combinational fix, so any spec exposing one is refused with
    :class:`UnmaskableHazardError` — the Lavagno flow continues from
    here by padding delay lines; this flow deliberately does not.
    """
    if validate:
        require_valid_spec(sg, name)

    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        exposed = function_hazard_states(sg, spec)
        if exposed:
            sig = sg.signals[a]
            states = ", ".join(map(render_state, exposed[:4]))
            more = "" if len(exposed) <= 4 else f" (+{len(exposed) - 4} more)"
            raise UnmaskableHazardError(
                f"(fh) function hazard on {sig}: combinational SOP cannot "
                f"be glitch-free at states {states}{more}",
                diagnostics=refusal_diagnostic(
                    "BL002",
                    f"signal {sig} has function hazards at "
                    f"{len(exposed)} state(s): {states}{more}",
                    name,
                    hint="use the bounded-delay (lavagno) flow, which masks "
                    "function hazards with delay lines, or the N-SHOT flow",
                ),
            )

    nl = Netlist(name)
    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])
    for a in sg.non_inputs:
        nl.add_output(sg.signals[a])

    covers: dict[int, Cover] = {}
    hazard_added = 0

    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        cover = minimize(spec.on, spec.dc, spec.off, method=method)
        cover, added = add_hazard_cover_cubes(sg, spec, cover)
        hazard_added += added
        covers[a] = cover
        sig = sg.signals[a]

        cube_nets: list[str] = []
        for k, cube in enumerate(cover.cubes):
            pins = []
            for var in cube.fixed_vars():
                positive = cube.literal(var) == 0b10
                pins.append(Pin(sg.signals[var], inverted=not positive))
            if not pins:
                # tautology cube: constant-1 next-state function
                # (fuzz corpus: flow_crash_hazard_free_sop_valueerror)
                net = nl.fresh_net(f"p_{sig}_")
                nl.add(
                    Gate(f"c1_{sig}{k}", GateType.CONST, [], net, attrs={"value": 1})
                )
                cube_nets.append(net)
                continue
            if len(pins) == 1 and not pins[0].inverted:
                cube_nets.append(pins[0].net)
                continue
            net = nl.fresh_net(f"p_{sig}_")
            build_gate_tree(nl, GateType.AND, pins, net, f"and_{sig}{k}")
            cube_nets.append(net)
        plane = nl.fresh_net(f"f_{sig}_")
        if not cube_nets:
            nl.add(
                Gate(f"c0_{sig}", GateType.CONST, [], plane, attrs={"value": 0})
            )
        elif len(cube_nets) == 1:
            nl.add(Gate(f"buf_{sig}", GateType.BUF, [Pin(cube_nets[0])], plane))
        else:
            build_gate_tree(
                nl, GateType.OR, [Pin(c) for c in cube_nets], plane, f"or_{sig}"
            )
        nl.add(
            Gate(
                f"out_{sig}",
                GateType.BUF,
                [Pin(plane)],
                sig,
                attrs={"cut": True},
            )
        )

    return HazardFreeSopResult(
        sg=sg,
        netlist=nl,
        covers=covers,
        hazard_cubes_added=hazard_added,
    )
