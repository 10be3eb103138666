"""Bridging state graphs and Boolean covers.

The synthesis procedure of Section IV-A regards *sets of SG states* as
Boolean point sets over the signal variables: a state contributes the
minterm given by its binary code.  This module provides those
conversions plus the code-space bookkeeping (which codes are
reachable, which are unreachable and therefore free don't cares).

A graph with a code space (:func:`~repro.sg.codespace.code_space`)
takes a set of states to its code bitmap and splits that
(:func:`~repro.sg.codespace.bitmap_cover`); any other graph collects
the codes and splits the sorted minterms
(:func:`~repro.logic.cover.compact_minterm_cover`).  Both give the
same cubes.
"""

from __future__ import annotations

from ..logic import Cover, Cube
from ..logic.cover import compact_minterm_cover
from .graph import StateGraph

__all__ = ["bits_to_covers", "reachable_codes", "unreachable_cover"]


def bits_to_covers(sg: StateGraph, bitsets: list[int]) -> list[Cover]:
    """Single-output covers of the binary codes of sets of states, each
    given as a bitset over the graph's dense state numbers (see
    :meth:`~repro.sg.regions.Region.bits`).

    Duplicate codes (states distinguished only by history) collapse to
    a single minterm, mirroring how the logic sees them.  The cover of
    each bitset is memoized on ``sg`` (see :meth:`StateGraph.analysis`):
    the N-SHOT reset OFF-set of a signal is the Lavagno ON-set, so the
    two flows build it once.  The bitsets are taken to code space
    together, so pass all a caller needs in one call.
    """
    # imported here, not above: a warm synth loads this module but builds
    # no cover, so it need not load the code space
    from .codespace import bitmap_cover, code_space

    n, memo = sg.num_signals, sg.analysis().covers
    todo = [bits for bits in dict.fromkeys(bitsets) if bits not in memo]
    if todo:
        cs = code_space(sg)
        if cs is None:
            view = sg.dense()
            for bits in todo:
                memo[bits] = [c.inputs for c in compact_minterm_cover(view.codes_of(bits), n).cubes]
        else:
            split: dict = {}
            for bits, codes in zip(todo, cs.to_codes(todo)):
                memo[bits] = bitmap_cover(codes, n, split)
    return [Cover(n, 1, [Cube(n, m) for m in memo[bits]]) for bits in bitsets]


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
    procedure adds to the don't-care set, split from the bitmap of the
    unused codes.  For wide signal sets (where enumerating the code
    space would explode) the complement is computed symbolically
    instead.
    """
    from .codespace import MAX_CODE_SIGNALS, bitmap_cover, code_bitmap

    memo, n = sg.analysis(), sg.num_signals
    if memo.unreachable is None and n <= MAX_CODE_SIGNALS:
        unused = ((1 << (1 << n)) - 1) & ~code_bitmap(reachable_codes(sg), n)
        memo.unreachable = Cover(n, 1, [Cube(n, m) for m in bitmap_cover(unused, n)])
    elif memo.unreachable is None:
        # symbolic complement of the used-code cover
        from ..logic import complement

        memo.unreachable = complement(Cover.from_minterms(sorted(reachable_codes(sg)), n))
    return memo.unreachable
