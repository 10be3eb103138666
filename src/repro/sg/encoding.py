"""Bridging state graphs and Boolean covers.

The synthesis procedure of Section IV-A regards *sets of SG states* as
Boolean point sets over the signal variables: a state contributes the
minterm given by its binary code.  This module provides those
conversions plus the code-space bookkeeping (which codes are
reachable, which are unreachable and therefore free don't cares).
"""

from __future__ import annotations

from ..logic import Cover, Cube
from ..logic.cover import compact_minterm_cover
from .graph import StateGraph

__all__ = ["bits_to_cover", "reachable_codes", "unreachable_cover"]


def bits_to_cover(sg: StateGraph, bits: int) -> Cover:
    """Single-output cover of the binary codes of a set of states given
    as a bitset over the graph's dense state numbers (see
    :meth:`~repro.sg.regions.Region.bits`).

    Duplicate codes (states distinguished only by history) collapse to
    a single minterm cube, mirroring how the logic sees them.  The cover
    of each bitset is memoized on ``sg`` (see
    :meth:`StateGraph.analysis`): the N-SHOT reset OFF-set of a signal
    is the Lavagno ON-set, so the two flows build it once.
    """
    n, memo = sg.num_signals, sg.analysis().covers
    masks = memo.get(bits)
    if masks is None:
        cover = compact_minterm_cover(sg.dense().codes_of(bits), n)
        masks = memo[bits] = [c.inputs for c in cover.cubes]
    return Cover(n, 1, [Cube(n, m) for m in masks])


def reachable_codes(sg: StateGraph) -> frozenset[int]:
    """The set of binary codes of reachable states, memoized on ``sg``."""
    memo = sg.analysis()
    if memo.codes is None:
        memo.codes = frozenset(sg.dense().codes)
    return memo.codes


def unreachable_cover(sg: StateGraph) -> Cover:
    """Single-output cover of all binary codes *not* used by any
    reachable state, memoized on ``sg`` (callers must not mutate it).

    These are the "unreachable states" that step 3 of the synthesis
    procedure adds to the don't-care set.  Returned as minterms; the
    minimizer absorbs them.  For wide signal sets (where enumerating
    the code space would explode) the complement is computed
    symbolically instead.
    """
    memo, n = sg.analysis(), sg.num_signals
    if memo.unreachable is None and n <= 16:
        used = reachable_codes(sg)
        memo.unreachable = compact_minterm_cover(set(range(1 << n)) - used, n)
    elif memo.unreachable is None:
        # symbolic complement of the used-code cover
        from ..logic import complement

        memo.unreachable = complement(Cover.from_minterms(sorted(reachable_codes(sg)), n))
    return memo.unreachable
