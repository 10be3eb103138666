"""Hazard-aware two-level synthesis helpers for the baseline flows.

The existing methods the paper compares against must keep their
combinational logic hazard-free — the very constraint the N-SHOT
architecture removes.  This module provides the shared machinery:

* :func:`next_state_function` — the classical next-state spec of a
  non-input signal: ``f_a = 1`` on ``ER(+a) ∪ QR(+a)``
  (up-excitation: drive toward 1; up-quiescent: hold 1);
* :func:`add_hazard_cover_cubes` — the classical fix for static-1
  hazards: the SG arcs along which the function holds 1 while another
  signal changes must each be covered by a single cube, or the AND-OR
  plane can emit a 1-0-1 glitch, so consensus cubes are added until
  every such transition pair is single-cube covered (the
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
  bounded-delay and N-SHOT methods exist to remove;
* :func:`sop_plane` / :func:`product_nets` — a cover's AND-OR plane,
  or its product nets alone, for every baseline netlist builder.

The predicates walk the graph's dense view (state numbers, the ``nxt``
table, the spec's on/off bitsets), so what they list and the order they
list it in do not depend on the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..logic import Cover, Cube, minimize
from ..logic.cube import LIT_DC, LIT_EMPTY, LIT_ONE, minterm_mask
from ..logic.espresso import expand as espresso_expand
from ..netlist import Gate, GateType, Netlist, Pin
from ..netlist.trees import build_gate_tree
from ..sg.encoding import bits_to_covers, unreachable_cover
from ..sg.graph import StateGraph, StateId, render_state
from ..sg.regions import signal_regions
from .errors import BaselineRefusal, refusal_diagnostic, require_valid_spec

__all__ = [
    "NextStateSpec",
    "next_state_function",
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
    """(F, D, R) of one signal's next-state function (single output).

    ``on_bits``/``off_bits`` are its ON and OFF states, as bitsets over
    the graph's dense state numbers.
    """

    signal: int
    on: Cover
    dc: Cover
    off: Cover
    on_bits: int
    off_bits: int


def next_state_function(sg: StateGraph, signal: int) -> NextStateSpec:
    """The classical next-state spec of a non-input signal.

    ``f = 1`` where the signal is 1-and-stable or excited toward 1
    (``ER(+a) ∪ QR(+a)``); ``f = 0`` on ``ER(-a) ∪ QR(-a)``;
    unreachable codes are don't care.
    """
    sr = signal_regions(sg, signal)
    on_bits = sr.union_bits("ER", 1) | sr.union_bits("QR", 1)
    off_bits = sr.union_bits("ER", -1) | sr.union_bits("QR", -1)
    on, off = bits_to_covers(sg, [on_bits, off_bits])
    return NextStateSpec(
        signal=signal,
        on=on,
        dc=unreachable_cover(sg),
        off=off,
        on_bits=on_bits,
        off_bits=off_bits,
    )


def _static_one_arcs(sg: StateGraph, spec: NextStateSpec) -> list[tuple[int, int, int]]:
    """The static-1 arcs ``(s, signal, d)``: SG arcs where the function
    stays 1 while another signal flips, by ascending dense state number
    of ``s`` and per ``s`` in insertion order, so the order does not
    depend on the hash seed.

    In a two-level AND-OR plane a single-variable change between two
    ON minterms glitches unless one cube covers both (static-1 hazard).
    0-1-0 static hazards do not occur in AND-OR SOP with input
    inversions (the paper makes the same observation in Section IV-A).
    """
    view = sg.dense()
    on, succ, own = view.flags(spec.on_bits), view.succ, spec.signal
    return [
        (s, a, d)
        for s in view.numbers(spec.on_bits)
        for a, _dir, d in succ[s]
        if a != own and on[d]
    ]


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
    n, codes = sg.num_signals, sg.dense().codes
    arcs = _static_one_arcs(sg, spec)
    sources = {s: codes[s] for s, _a, _d in arcs}.items()
    # per signal a: the states s whose pair across a some cube covers,
    # i.e. the ON states of the cubes where a is don't care (single-output
    # covers: containment is on the input parts alone)
    covered: list[set[int]] = [set() for _ in range(n)]

    def account(cube: Cube) -> None:
        fields = [cube.inputs >> (2 * v) & LIT_DC for v in range(n)]
        if LIT_EMPTY not in fields:  # an empty cube covers nothing
            care = sum(1 << v for v, f in enumerate(fields) if f != LIT_DC)
            value = sum(1 << v for v, f in enumerate(fields) if f == LIT_ONE)
            states = [s for s, code in sources if code & care == value]
            for v in cube.free_vars():
                covered[v].update(states)

    work = cover.copy()
    for cube in work.cubes:
        account(cube)
    added = 0
    for s, a, _d in arcs:
        if s not in covered[a]:
            # the pair's supercube: s's minterm with the arc's signal raised
            m = minterm_mask(codes[s], n) | LIT_DC << (2 * a)
            prime = espresso_expand(Cover(n, 1, [Cube(n, m)]), spec.off).cubes[0]
            work.add(prime)
            account(prime)
            added += 1
    if added:
        work = work.single_cube_containment()
    return work, added


def _function_hazards(sg: StateGraph, spec: NextStateSpec) -> Iterator[int]:
    """Dense numbers of the states exposing a function hazard, ascending."""
    view = sg.dense()
    n, nxt, signal = view.num_signals, view.nxt, spec.signal
    # per state: bit 0 = f is 1 there, bit 1 = f is 0 there
    f = bytearray(view.flags(spec.on_bits))
    for x in view.numbers(spec.off_bits):
        f[x] |= 2
    for s, arcs in enumerate(view.succ):
        enabled = [(a, d) for a, _dir, d in arcs if a != signal]
        # the function changes across a multi-input change: under the
        # bounded-delay model the AND-OR plane can glitch during the
        # transition however it is covered
        if any(
            f[s] | f[s1] | f[s2] | (f[s12] if (s12 := nxt[s1 * n + a2]) >= 0 else 0)
            == 3
            for i, (_a1, s1) in enumerate(enabled)
            for a2, s2 in enabled[i + 1 :]
        ):
            yield s


def function_hazard_states(sg: StateGraph, spec: NextStateSpec) -> list[StateId]:
    """States exposing a function hazard of the next-state function.

    A state where two concurrently enabled transitions (neither being
    the signal's own) lead through a diamond whose corners give the
    function a non-monotonic course: combinational logic cannot be
    glitch-free across it, whatever the cover.  The bounded-delay flow
    must mask such hazards with delay lines.
    """
    label = sg.dense().label
    return [label(s) for s in _function_hazards(sg, spec)]


def sop_plane(nl: Netlist, cover: Cover, names: Sequence[str], tag: str) -> str:
    """The AND-OR plane of a cover; returns the net it drives.

    One product net per cube (see :func:`product_nets`), ORed into a
    fresh ``f_<tag>_`` net: a buffer for one cube, constant 0 for an
    empty cover (the signal never rises).
    """
    cube_nets = product_nets(nl, cover.cubes, names, tag)
    plane = nl.fresh_net(f"f_{tag}_")
    if not cube_nets:
        nl.add(Gate(f"c0_{tag}", GateType.CONST, [], plane, attrs={"value": 0}))
    elif len(cube_nets) == 1:
        nl.add(Gate(f"buf_{tag}", GateType.BUF, [Pin(cube_nets[0])], plane))
    else:
        build_gate_tree(
            nl, GateType.OR, [Pin(c) for c in cube_nets], plane, f"or_{tag}"
        )
    return plane


def product_nets(
    nl: Netlist, cubes: Sequence[Cube], names: Sequence[str], tag: str
) -> list[str]:
    """One net per cube, reading variable ``i`` from net ``names[i]``.

    A tautology cube becomes a constant 1 (fuzz corpus:
    ``flow_crash_*_valueerror``), a single positive literal is its own
    net, and any other cube an AND tree ``and_<tag><k>`` into a fresh
    ``p_<tag>_`` net.  The function may read its own output (feedback).
    """
    nets: list[str] = []
    for k, cube in enumerate(cubes):
        pins = [
            Pin(names[var], inverted=cube.literal(var) != LIT_ONE)
            for var in cube.fixed_vars()
        ]
        if len(pins) == 1 and not pins[0].inverted:
            nets.append(pins[0].net)
            continue
        net = nl.fresh_net(f"p_{tag}_")
        if pins:
            build_gate_tree(nl, GateType.AND, pins, net, f"and_{tag}{k}")
        else:
            nl.add(Gate(f"c1_{tag}{k}", GateType.CONST, [], net, attrs={"value": 1}))
        nets.append(net)
    return nets


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
) -> HazardFreeSopResult:
    """Purely combinational hazard-free SOP flow (no storage, no delays).

    Each non-input signal becomes a feedback SOP of its next-state
    function, repaired by :func:`add_hazard_cover_cubes` until every
    static-1 transition pair is single-cube covered.  Function hazards
    have no combinational fix, so any spec exposing one is refused with
    :class:`UnmaskableHazardError` — the Lavagno flow continues from
    here by padding delay lines; this flow deliberately does not.
    """
    require_valid_spec(sg, name)

    specs = {a: next_state_function(sg, a) for a in sg.non_inputs}
    for a, spec in specs.items():
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

    for a, spec in specs.items():
        cover = minimize(spec.on, spec.dc, spec.off)
        cover, added = add_hazard_cover_cubes(sg, spec, cover)
        hazard_added += added
        covers[a] = cover
        sig = sg.signals[a]
        plane = sop_plane(nl, cover, sg.signals, sig)
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
