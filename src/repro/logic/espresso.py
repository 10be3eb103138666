"""ESPRESSO-style heuristic two-level minimization.

This is a from-scratch implementation of the heuristic loop of
ESPRESSO-II [Brayton et al. 84] sufficient for the circuits of the
paper: multi-output EXPAND against the OFF-set, IRREDUNDANT,
relatively-essential extraction, and REDUCE, iterated until the cost
function (cube count, then literal count) stops improving.

The paper's synthesis procedure (Section IV-A) explicitly allows *any*
conventional multi-output two-level minimizer because the N-SHOT
architecture tolerates hazards in the SOP planes.  This module plays
the role of the ``espresso`` command the authors invoked from SIS.

Multi-output semantics: cubes carry an output bitmask; a raise of the
output part corresponds to sharing a product term between functions
(e.g. between the set network of one signal and the reset network of
another), exactly the sharing the paper permits.

Each step asks set questions: does a raised cube stay clear of the
OFF-set, is a cube covered by the rest of the cover plus the don't-care
set, which points of a cube only that cube covers.  On covers of at
most :data:`~repro.logic.cover.MAX_CODE_SIGNALS` (16) inputs the loop
asks them of code bitmaps (:class:`_Codes`): per output, the codes a
cover holds as one 2ⁿ-bit integer (bit ``x`` = code ``x``), so each
answer is a few bitwise operations.  The public step functions, and
the loop on wider covers, ask them of cubes: cube intersection
(EXPAND), the unate-recursive tautology check (IRREDUNDANT) and the
sharp product (REDUCE).  Both readings are exact, so both give the
same cover.  Tautology and complement are imported only on the cube
path and by :func:`make_offset` (elsewhere, by the certifier's HZ002),
so a synthesis that supplies its OFF-set never loads them.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Callable

from ..obs import get_metrics, trace_span
from .cover import MAX_CODE_SIGNALS, Cover, code_halves, cube_codes, output_codes
from .cube import LIT_ONE, LIT_ZERO, Cube

__all__ = [
    "expand", "irredundant", "reduce_cover", "relatively_essential", "espresso", "make_offset",
]

#: safety bound on the EXPAND/IRREDUNDANT/REDUCE improve loop
MAX_ITERATIONS = 20


def make_offset(on: Cover, dc: Cover | None = None) -> Cover:
    """Compute the multi-output OFF-set cover ``R = complement(F ∪ D)``.

    Complements are taken per output and assembled back into one
    multi-output cover.  Cubes with identical input parts are merged by
    OR-ing their output parts, which keeps EXPAND's feasibility checks
    cheap.
    """
    from .complement import complement

    n, m = on.num_inputs, on.num_outputs
    merged: dict[int, int] = {}
    for o in range(m):
        fo = on.projection(o)
        if dc is not None:
            for c in dc.projection(o).cubes:
                fo.add(c)
        for c in complement(fo).cubes:
            merged[c.inputs] = merged.get(c.inputs, 0) | (1 << o)
    out = Cover.empty(n, m)
    for inputs, outputs in merged.items():
        out.add(Cube(n, inputs, outputs))
    return out


def expand(on: Cover, off: Cover) -> Cover:
    """EXPAND: grow every cube into a prime against the OFF-set.

    Each cube's bound input literals are raised one at a time while the
    cube remains disjoint from ``off``; afterwards output-part bits are
    raised the same way (term sharing).  Cubes that become single-cube
    contained in an already-expanded cube are dropped.

    The per-cube raise order prefers literals that conflict with few
    OFF-set cubes, a cheap stand-in for ESPRESSO's blocking-matrix
    heuristic.
    """
    return _expand(on, _conflicts(off), lambda raised, _cube: off.intersects_cube(raised))


def _conflicts(off: Cover) -> list[int]:
    """Per variable, the number of OFF-set cubes that bind it."""
    low = ((1 << 2 * off.num_inputs) - 1) // 3  # the low bit of every field
    bound = [(r.inputs ^ r.inputs >> 1) & low for r in off.cubes]
    return [sum(b >> 2 * v & 1 for b in bound) for v in range(off.num_inputs)]


def _expand(on: Cover, conflicts: list[int], blocked: Callable[[Cube, Cube], bool]) -> Cover:
    """:func:`expand`, where ``blocked(raised, cube)`` tells whether
    ``raised``, ``cube`` with one more part raised, meets the OFF-set."""
    n, m = on.num_inputs, on.num_outputs
    # expand small cubes first so they are absorbed by big primes
    order = sorted(range(len(on.cubes)), key=lambda i: len(on.cubes[i].free_vars()))
    expanded: list[Cube] = []
    for idx in order:
        c = on.cubes[idx]
        if c.is_empty() or any(e.contains(c) for e in expanded):
            continue
        # raise input literals
        progress = True
        while progress:
            progress = False
            # a raise of var v can only be blocked by OFF cubes that
            # bind v to the opposite phase: try low-conflict vars first
            for var in sorted(c.fixed_vars(), key=conflicts.__getitem__):
                raised = c.raise_var(var)
                if not blocked(raised, c):
                    c = raised
                    progress = True
        # raise output parts (product-term sharing between functions)
        for o in range(m):
            raised = c.with_outputs(c.outputs | 1 << o)
            if raised.outputs != c.outputs and not blocked(raised, c):
                c = raised
        if not any(e.contains(c) for e in expanded):
            expanded = [e for e in expanded if not c.contains(e)]
            expanded.append(c)
    return Cover(n, m, expanded)


def relatively_essential(on: Cover, dc: Cover | None = None) -> list[int]:
    """Indices of cubes not covered by the rest of the cover plus DC."""
    return _essential(on.cubes, partial(_tautology, on, dc))


def irredundant(on: Cover, dc: Cover | None = None) -> Cover:
    """IRREDUNDANT: extract a minimal (not minimum) subset covering F.

    Relatively essential cubes are always kept; the remaining cubes are
    dropped greedily (largest literal count first) whenever the rest of
    the cover still covers them.
    """
    return _irredundant(on, partial(_tautology, on, dc))


def _essential(cubes: list[Cube], covered: Callable) -> list[int]:
    """:func:`relatively_essential`, where ``covered(cubes, live)(i)``
    tells whether the other ``live`` cubes plus DC cover cube ``i``."""
    test = covered(cubes, range(len(cubes)))
    return [i for i in range(len(cubes)) if not test(i)]


def _irredundant(on: Cover, covered: Callable) -> Cover:
    """:func:`irredundant`, with the ``covered`` of :func:`_essential`."""
    keep = on.cubes
    live = list(range(len(keep)))
    test = covered(keep, live)
    # candidates for removal, worst (most literals, fewest outputs) first
    cand = sorted(
        (i for i in live if test(i)),
        key=lambda i: (-keep[i].num_literals(), keep[i].outputs.bit_count()),
    )
    for i in cand:
        if test(i):
            live.remove(i)
            test = covered(keep, live)
    return Cover(on.num_inputs, on.num_outputs, [keep[j] for j in live])


def _tautology(on: Cover, dc: Cover | None, cubes: list[Cube], live) -> Callable[[int], bool]:
    """The ``covered`` of :func:`_essential` by tautology."""
    from .tautology import cover_covers_cube_multi

    extra = dc.cubes if dc is not None else []
    return lambda i: cover_covers_cube_multi(
        Cover(on.num_inputs, on.num_outputs, [cubes[j] for j in live if j != i] + extra), cubes[i]
    )


def reduce_cover(on: Cover, dc: Cover | None = None) -> Cover:
    """REDUCE: shrink each cube to the smallest cube still needed.

    Every cube is replaced, per output, by the supercube of the part of
    it not covered by the other cubes plus the don't-care set; the
    replacement is the supercube over the cube's outputs, so the result
    still covers the ON-set.  Reduction unlocks better EXPAND moves on
    the next iteration.
    """
    return _reduce(on, partial(_sharp, on, dc))


def _reduce(on: Cover, reduced: Callable[[list[Cube], int], Cube]) -> Cover:
    """:func:`reduce_cover`, where ``reduced(cubes, i)`` is what cube
    ``i`` shrinks to (output-less when the others cover it)."""
    cubes = list(on.cubes)
    order = sorted(range(len(cubes)), key=lambda i: -len(cubes[i].free_vars()))
    for i in order:
        if not cubes[i].is_empty():
            cubes[i] = reduced(cubes, i)
    return Cover(on.num_inputs, on.num_outputs, [c for c in cubes if not c.is_empty()])


def _sharp(on: Cover, dc: Cover | None, cubes: list[Cube], i: int) -> Cube:
    """The ``reduced`` of :func:`_reduce` by the sharp product."""
    from .complement import cube_sharp

    c = cubes[i]
    extra = dc.cubes if dc is not None else []
    others = Cover(on.num_inputs, on.num_outputs, cubes[:i] + cubes[i + 1 :] + extra)
    inputs = outputs = 0
    for o in c.output_list():
        residue = cube_sharp(c.with_outputs(1), others.projection(o))
        if not residue.is_empty():  # else output o is covered by the others: drop it
            outputs |= 1 << o
            inputs |= residue.supercube().inputs
    return Cube(c.num_inputs, inputs, outputs)


def espresso(
    on: Cover,
    dc: Cover | None = None,
    off: Cover | None = None,
) -> Cover:
    """Heuristic multi-output two-level minimization.

    Parameters
    ----------
    on:
        ON-set cover (multi-output).
    dc:
        Optional don't-care cover; used freely, as the paper's
        procedure step 3 prescribes.
    off:
        Optional OFF-set cover; computed by complementation when
        absent.  Supplying it (as region-derived covers do) avoids the
        complementation cost and — more importantly — pins down
        the function when ``F ∪ D ∪ R`` is not the whole space.

    The improve loop stops after :data:`MAX_ITERATIONS` passes at most.

    Returns
    -------
    Cover
        A prime, irredundant multi-output cover of the interval
        ``[F, F ∪ D]``.
    """
    with trace_span("espresso", inputs=on.num_inputs, outputs=on.num_outputs) as sp:
        result, iterations = _espresso_loop(on, dc, off)
        sp.set(iterations=iterations, cubes=len(result))
    get_metrics().counter("espresso.iterations").add(iterations)
    return result


def _espresso_loop(
    on: Cover,
    dc: Cover | None,
    off: Cover | None,
) -> tuple[Cover, int]:
    """The EXPAND/IRREDUNDANT/REDUCE loop; returns (cover, iterations)."""
    if off is None:
        off = make_offset(on, dc)
    work = on.drop_empty().single_cube_containment()
    if not work.cubes:
        return work, 0
    steps = (_Codes if on.num_inputs <= MAX_CODE_SIGNALS else _Cubes)(on, dc, off)
    work = steps.irredundant(steps.expand(work))

    # Lock relatively-essential primes: move them into the DC set for the
    # inner loop (they are guaranteed to be in the final cover anyway).
    ess_idx = set(steps.relatively_essential(work))
    essential = [c for i, c in enumerate(work.cubes) if i in ess_idx]
    rest = [c for i, c in enumerate(work.cubes) if i not in ess_idx]
    work = Cover(on.num_inputs, on.num_outputs, rest)
    steps.lock(essential)

    best = work.copy()
    best_cost = _loop_cost(best, essential)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        work = steps.reduce_cover(work)
        work = steps.expand(work) if work.cubes else work
        work = steps.irredundant(work)
        cost = _loop_cost(work, essential)
        if cost < best_cost:
            best, best_cost = work.copy(), cost
        else:
            break

    final = Cover(on.num_inputs, on.num_outputs, essential + best.cubes)
    return final.single_cube_containment(), iterations


def _loop_cost(cover: Cover, essential: list[Cube]) -> tuple[int, int]:
    total = Cover(cover.num_inputs, cover.num_outputs, cover.cubes + essential)
    return total.cost()


class _Cubes:
    """The loop's steps past :data:`~repro.logic.cover.MAX_CODE_SIGNALS`
    inputs: the public step functions, against the OFF-set and the
    don't-care set, which :meth:`lock` grows."""

    def __init__(self, on: Cover, dc: Cover | None, off: Cover) -> None:
        self.dc, self.off = dc or Cover.empty(on.num_inputs, on.num_outputs), off

    def expand(self, cover: Cover) -> Cover:
        return expand(cover, self.off)

    def irredundant(self, cover: Cover) -> Cover:
        return irredundant(cover, self.dc)

    def relatively_essential(self, cover: Cover) -> list[int]:
        return relatively_essential(cover, self.dc)

    def reduce_cover(self, cover: Cover) -> Cover:
        return reduce_cover(cover, self.dc)

    def lock(self, cubes: list[Cube]) -> None:
        self.dc = Cover(self.dc.num_inputs, self.dc.num_outputs, self.dc.cubes + cubes)


class _Codes(dict):
    """The loop's steps on code bitmaps, with per output the don't-care
    and OFF codes; maps a cube's input part to its codes (a memo).
    EXPAND blocks the raise of ``v`` when ``x | flip_v(x)`` meets the OFF
    codes of an output the cube feeds; IRREDUNDANT drops cube ``i`` when
    ``x_i & ~twice == 0`` per output, ``twice`` being the don't-care codes
    and those of two or more live cubes; REDUCE keeps, per output, the
    supercube of ``x & ~(others | DC)``."""

    def __init__(self, on: Cover, dc: Cover | None, off: Cover) -> None:
        self.n, self.conflicts = on.num_inputs, _conflicts(off)
        self.dc = output_codes(dc.cubes if dc is not None else (), self.n)
        self.off_codes = output_codes(off.cubes, self.n)
        self.off_of: dict[int, int] = {}  # per output part, its OFF codes
        self.outputs = _Outputs()
        self.last = (0, cube_codes(0, self.n))  # the cube EXPAND grows: inputs, codes

    def __missing__(self, inputs: int) -> int:
        x = self[inputs] = cube_codes(inputs, self.n)
        return x

    def blocked(self, raised: Cube, cube: Cube) -> bool:
        inputs, x = self.last
        if inputs != cube.inputs:
            self[inputs] = x  # the cube the last expansion ended with
            x = self[cube.inputs]
        grown = raised.inputs ^ cube.inputs  # the bit a raised literal of ``v`` gained
        if grown:  # a 0 literal gains its field's high bit: copy the codes up by 2^v
            shift = 1 << (grown.bit_length() - 1) // 2
            x |= x << shift if grown.bit_length() % 2 == 0 else x >> shift
        off = self.off_of.get(raised.outputs)
        if off is None:
            off = 0
            for o in self.outputs[raised.outputs]:
                off |= self.off_codes[o]
            self.off_of[raised.outputs] = off
        if x & off:
            return True
        self.last = raised.inputs, x
        return False

    def covered(self, cubes: list[Cube], live) -> Callable[[int], bool]:
        once: defaultdict[int, int] = defaultdict(int)
        twice = self.dc.copy()
        for j in live:
            x = self[cubes[j].inputs]
            for o in self.outputs[cubes[j].outputs]:
                twice[o] |= once[o] & x
                once[o] |= x
        return lambda i: not any(
            self[cubes[i].inputs] & ~twice[o] for o in self.outputs[cubes[i].outputs]
        )

    def reduced(self, cubes: list[Cube], i: int) -> Cube:
        c = cubes[i]
        x = self[c.inputs]
        zeros, ones = code_halves(self.n)
        free, inputs, outputs = c.free_vars(), 0, 0
        for o in self.outputs[c.outputs]:
            rest = self.dc[o]
            for j, d in enumerate(cubes):
                if d.outputs >> o & 1 and j != i:
                    rest |= self[d.inputs]
            left = x & ~rest
            if left:
                outputs |= 1 << o
                sc = c.inputs
                for v in free:
                    if not left & zeros[v]:
                        sc ^= LIT_ZERO << 2 * v
                    if not left & ones[v]:
                        sc ^= LIT_ONE << 2 * v
                inputs |= sc
        return Cube(self.n, inputs, outputs)

    def expand(self, cover: Cover) -> Cover:
        return _expand(cover, self.conflicts, self.blocked)

    def irredundant(self, cover: Cover) -> Cover:
        return _irredundant(cover, self.covered)

    def relatively_essential(self, cover: Cover) -> list[int]:
        return _essential(cover.cubes, self.covered)

    def reduce_cover(self, cover: Cover) -> Cover:
        return _reduce(cover, self.reduced)

    def lock(self, cubes: list[Cube]) -> None:
        for c in cubes:
            for o in self.outputs[c.outputs]:
                self.dc[o] |= self[c.inputs]


class _Outputs(dict):
    """The outputs each output part feeds (a memo)."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        got = self[mask] = tuple(o for o in range(mask.bit_length()) if mask >> o & 1)
        return got
