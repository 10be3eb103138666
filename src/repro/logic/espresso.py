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
"""

from __future__ import annotations

from ..obs import get_metrics, trace_span
from .complement import complement, cube_sharp
from .cover import Cover
from .cube import Cube
from .tautology import cover_covers_cube_multi

__all__ = [
    "expand",
    "irredundant",
    "reduce_cover",
    "relatively_essential",
    "espresso",
    "make_offset",
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


def _raise_feasible(cube: Cube, off: Cover) -> bool:
    """True when ``cube`` (already raised) stays disjoint from the OFF-set."""
    return not off.intersects_cube(cube)


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
    n, m = on.num_inputs, on.num_outputs
    # literal conflict frequency in the OFF-set, per (var, phase)
    freq = [[0, 0] for _ in range(n)]
    for r in off.cubes:
        for var in range(n):
            f = r.literal(var)
            if f == 0b01:
                freq[var][0] += 1
            elif f == 0b10:
                freq[var][1] += 1

    # expand small cubes first so they are absorbed by big primes
    order = sorted(range(len(on.cubes)), key=lambda i: len(on.cubes[i].free_vars()))
    expanded: list[Cube] = []
    for idx in order:
        c = on.cubes[idx]
        if c.is_empty():
            continue
        if any(e.contains(c) for e in expanded):
            continue
        # raise input literals
        progress = True
        while progress:
            progress = False
            cands = [v for v in c.fixed_vars()]
            # a raise of var v can only be blocked by OFF cubes that
            # bind v to the opposite phase: try low-conflict vars first
            cands.sort(key=lambda v: freq[v][0] + freq[v][1])
            for var in cands:
                raised = c.raise_var(var)
                if _raise_feasible(raised, off):
                    c = raised
                    progress = True
        # raise output parts (product-term sharing between functions)
        for o in range(m):
            bit = 1 << o
            if c.outputs & bit:
                continue
            raised = c.with_outputs(c.outputs | bit)
            if _raise_feasible(raised, off):
                c = raised
        if not any(e.contains(c) for e in expanded):
            expanded = [e for e in expanded if not c.contains(e)]
            expanded.append(c)
    return Cover(n, m, expanded)


def relatively_essential(on: Cover, dc: Cover | None = None) -> list[int]:
    """Indices of cubes not covered by the rest of the cover plus DC."""
    out = []
    for i, c in enumerate(on.cubes):
        rest = Cover(
            on.num_inputs,
            on.num_outputs,
            [x for j, x in enumerate(on.cubes) if j != i]
            + (dc.cubes if dc is not None else []),
        )
        if not cover_covers_cube_multi(rest, c):
            out.append(i)
    return out


def irredundant(on: Cover, dc: Cover | None = None) -> Cover:
    """IRREDUNDANT: extract a minimal (not minimum) subset covering F.

    Relatively essential cubes are always kept; the remaining cubes are
    dropped greedily (largest literal count first) whenever the rest of
    the cover still covers them.
    """
    essential = set(relatively_essential(on, dc))
    keep = list(on.cubes)
    # candidates for removal, worst (most literals, fewest outputs) first
    cand = sorted(
        (i for i in range(len(keep)) if i not in essential),
        key=lambda i: (-keep[i].num_literals(), keep[i].outputs.bit_count()),
    )
    removed: set[int] = set()
    for i in cand:
        rest = Cover(
            on.num_inputs,
            on.num_outputs,
            [x for j, x in enumerate(keep) if j != i and j not in removed]
            + (dc.cubes if dc is not None else []),
        )
        if cover_covers_cube_multi(rest, keep[i]):
            removed.add(i)
    return Cover(
        on.num_inputs,
        on.num_outputs,
        [x for j, x in enumerate(keep) if j not in removed],
    )


def reduce_cover(on: Cover, dc: Cover | None = None) -> Cover:
    """REDUCE: shrink each cube to the smallest cube still needed.

    Every cube is replaced, per output, by the supercube of the part of
    it not covered by the other cubes plus the don't-care set; the
    replacement is the supercube over the cube's outputs, so the result
    still covers the ON-set.  Reduction unlocks better EXPAND moves on
    the next iteration.
    """
    n, m = on.num_inputs, on.num_outputs
    cubes = list(on.cubes)
    order = sorted(range(len(cubes)), key=lambda i: -len(cubes[i].free_vars()))
    for i in order:
        c = cubes[i]
        if c.is_empty():
            continue
        others = [x for j, x in enumerate(cubes) if j != i] + (
            dc.cubes if dc is not None else []
        )
        others_cover = Cover(n, m, others)
        new_inputs: int | None = None
        new_outputs = 0
        for o in c.output_list():
            proj = others_cover.projection(o)
            residue = cube_sharp(c.with_outputs(1), proj)
            if residue.is_empty():
                continue  # output o fully covered by others: drop bit
            sc = residue.supercube()
            assert sc is not None
            new_outputs |= 1 << o
            new_inputs = sc.inputs if new_inputs is None else (new_inputs | sc.inputs)
        if new_outputs == 0:
            cubes[i] = Cube(n, 0, 0)  # fully redundant, empty it
        else:
            cubes[i] = Cube(n, new_inputs if new_inputs is not None else c.inputs, new_outputs)
    return Cover(n, m, [c for c in cubes if not c.is_empty()])


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
    work = expand(work, off)
    work = irredundant(work, dc)

    # Lock relatively-essential primes: move them into the DC set for the
    # inner loop (they are guaranteed to be in the final cover anyway).
    ess_idx = set(relatively_essential(work, dc))
    essential = [c for i, c in enumerate(work.cubes) if i in ess_idx]
    work = Cover(
        work.num_inputs,
        work.num_outputs,
        [c for i, c in enumerate(work.cubes) if i not in ess_idx],
    )
    dc_aug = Cover(
        on.num_inputs,
        on.num_outputs,
        (dc.cubes if dc is not None else []) + essential,
    )

    best = work.copy()
    best_cost = _loop_cost(best, essential)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        work = reduce_cover(work, dc_aug)
        work = expand(work, off) if work.cubes else work
        work = irredundant(work, dc_aug)
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
