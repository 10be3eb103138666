"""Bridging state graphs and Boolean covers.

The synthesis procedure of Section IV-A regards *sets of SG states* as
Boolean point sets over the signal variables: a state contributes the
minterm given by its binary code.  This module provides those
conversions plus the code-space bookkeeping (which codes are
reachable, which are unreachable and therefore free don't cares).
"""

from __future__ import annotations

from typing import Iterable

from ..logic import Cover, Cube
from ..logic.cover import compact_minterm_cover
from .graph import StateGraph, StateId

__all__ = [
    "state_cube",
    "states_to_cover",
    "bits_to_cover",
    "reachable_codes",
    "unreachable_cover",
    "code_partition_check",
]


def state_cube(sg: StateGraph, state: StateId, outputs: int = 1) -> Cube:
    """The minterm cube of one state's binary code."""
    return Cube.from_minterm(sg.code(state), sg.num_signals, outputs)


def states_to_cover(
    sg: StateGraph, states: Iterable[StateId], outputs: int = 1, num_outputs: int = 1
) -> Cover:
    """Cover of the binary codes of a set of states (see
    :func:`bits_to_cover`)."""
    return bits_to_cover(sg, sg.dense().bitset_of(states), outputs, num_outputs)


def bits_to_cover(
    sg: StateGraph, bits: int, outputs: int = 1, num_outputs: int = 1
) -> Cover:
    """Cover of the binary codes of a set of states given as a bitset
    over the graph's dense state numbers (see
    :meth:`~repro.sg.regions.Region.bits`).

    Duplicate codes (states distinguished only by history) collapse to
    a single minterm cube, mirroring how the logic sees them.
    """
    return compact_minterm_cover(
        sg.dense().codes_of(bits), sg.num_signals, outputs, num_outputs
    )


def reachable_codes(sg: StateGraph) -> set[int]:
    """The set of binary codes of reachable states."""
    return {sg.code(s) for s in sg.states()}


def unreachable_cover(sg: StateGraph, outputs: int = 1, num_outputs: int = 1) -> Cover:
    """Cover of all binary codes *not* used by any reachable state.

    These are the "unreachable states" that step 3 of the synthesis
    procedure adds to the don't-care set.  Returned as minterms; the
    minimizer absorbs them.  For wide signal sets (where enumerating
    the code space would explode) the complement is computed
    symbolically instead.
    """
    n = sg.num_signals
    used = reachable_codes(sg)
    space = 1 << n
    if space <= 1 << 16:
        return compact_minterm_cover(
            {m for m in range(space) if m not in used}, n, outputs, num_outputs
        )
    # symbolic complement of the used-code cover
    from ..logic import complement

    used_cover = Cover.from_minterms(sorted(used), n)
    comp = complement(used_cover)
    return Cover(n, num_outputs, [c.with_outputs(outputs) for c in comp.cubes])


def code_partition_check(
    on: Cover, dc: Cover, off: Cover, num_signals: int
) -> bool:
    """True when (F, D, R) partitions the whole code space per output.

    The region-derivation procedure must produce an exact partition:
    every code belongs to exactly one of the three covers.  This is the
    oracle tests use against the region machinery.
    """
    from ..logic import is_tautology

    for o in range(max(on.num_outputs, 1)):
        fo, do, ro = on.projection(o), dc.projection(o), off.projection(o)
        union = Cover(num_signals, 1, fo.cubes + do.cubes + ro.cubes)
        if not is_tautology(union):
            return False
        for a, b in ((fo, do), (fo, ro), (do, ro)):
            for ca in a.cubes:
                for cb in b.cubes:
                    if ca.intersects(cb):
                        return False
    return True
