"""Tautology checking and cover containment via unate recursion.

The tautology check is the workhorse predicate of two-level
minimization: *is this cover identically 1?*  ESPRESSO reduces both
redundancy detection and cube-covering queries to tautology of a
cofactored cover.  We implement the classic unate recursive paradigm
[Brayton et al. 84, Rudell 89]:

* **Unate leaf rule** — a unate cover is a tautology iff it contains a
  row of all don't cares.
* **Speedups** — a cover with an all-don't-care row is a tautology; a
  cover with fewer than ``2**n / max_cube_size`` coverage cannot be; a
  variable appearing in only one phase can be cofactored away for free
  (unate reduction).
* **Binate splitting** — recurse on the most binate variable.

All functions here treat covers as *single-output* (the input parts
only).  Multi-output queries project per output first; see
:func:`covers_cube` and :func:`cover_covers_cube_multi`.  The cofactor
and the choice of splitting variable are shared with
:mod:`repro.logic.complement`.
"""

from __future__ import annotations

from ..obs import get_metrics
from .cube import LIT_DC, LIT_ONE, LIT_ZERO, Cube
from .cover import Cover

__all__ = ["is_tautology", "covers_cube", "cover_covers_cube_multi"]


def cofactor(cover: Cover, cube: Cube) -> Cover:
    """Input-part cofactor of ``cover`` w.r.t. ``cube``.

    Only cubes whose input parts intersect ``cube`` survive, with every
    variable bound in ``cube`` raised to don't care.  The output parts
    are preserved; callers project per output when multi-output
    semantics are needed.
    """
    get_metrics().counter("cover.cube_ops").add(len(cover.cubes))
    low = ((1 << 2 * cover.num_inputs) - 1) // 3  # the low bit of every field
    bound = cube.inputs ^ cube.inputs >> 1 | ~cube.inputs & ~cube.inputs >> 1
    raised = (bound & low) * LIT_DC  # both bits of every field ``cube`` does not leave free
    out = []
    for c in cover.cubes:
        meet = c.inputs & cube.inputs
        if (meet | meet >> 1) & low == low:  # no empty field
            out.append(Cube(cover.num_inputs, c.inputs | raised, c.outputs))
    return Cover(cover.num_inputs, cover.num_outputs, out)


def var_usage(cover: Cover, var: int) -> tuple[int, int]:
    """Count (negative, positive) literal occurrences of variable."""
    neg = pos = 0
    for c in cover.cubes:
        f = c.literal(var)
        if f == LIT_ZERO:
            neg += 1
        elif f == LIT_ONE:
            pos += 1
    return neg, pos


def most_binate_var(cover: Cover) -> int | None:
    """Select the best splitting variable for unate recursion.

    Returns the variable that appears in both phases in the most cubes
    (ties broken by total occurrences), or ``None`` when the cover is
    unate.
    """
    best_var = None
    best_key = None
    for var in range(cover.num_inputs):
        neg, pos = var_usage(cover, var)
        if neg and pos:
            key = (min(neg, pos), neg + pos)
            if best_key is None or key > best_key:
                best_key = key
                best_var = var
    return best_var


def most_used_var(cover: Cover) -> int | None:
    """The variable with the most literal occurrences (any phase)."""
    best_var = None
    best = 0
    for var in range(cover.num_inputs):
        neg, pos = var_usage(cover, var)
        if neg + pos > best:
            best = neg + pos
            best_var = var
    return best_var


def _unate_reduced(cover: Cover) -> Cover:
    """Drop unate variables' literals (monotone reduction).

    If a variable appears only in one phase, rows containing that
    literal can only help cover the half-space they sit in; for the
    tautology question, the cover is a tautology iff the cofactor
    against the *opposing* half-space is — which equals dropping the
    rows that contain the literal.  Equivalently: taut(F) iff
    taut(F cofactored by the phase where those literals are absent).
    We implement the standard reduction: remove every row containing a
    unate literal, because those rows cannot cover the opposite
    half-space which must be covered anyway.
    """
    cubes = cover.cubes
    changed = True
    while changed:
        changed = False
        for var in range(cover.num_inputs):
            neg = pos = 0
            for c in cubes:
                f = c.literal(var)
                if f == LIT_ZERO:
                    neg += 1
                elif f == LIT_ONE:
                    pos += 1
            if neg and pos:
                continue
            if not neg and not pos:
                continue
            # unate in `var`: rows with the literal cannot cover the
            # opposite half-space; the cover is a tautology iff the
            # sub-cover of rows with var = don't care is.
            new = [c for c in cubes if c.literal(var) == LIT_DC]
            if len(new) != len(cubes):
                cubes = new
                changed = True
        if not cubes:
            break
    return Cover(cover.num_inputs, cover.num_outputs, list(cubes))


def is_tautology(cover: Cover) -> bool:
    """True when the union of the cover's cubes is the whole space.

    Operates on input parts only (single-output semantics).
    """
    cubes = [c for c in cover.cubes if not c.is_empty()]
    if not cubes:
        # The empty cover is the constant-0 function.  This holds even
        # over zero variables: the space still has exactly one minterm
        # (the empty assignment), and nothing covers it.  Planes that
        # degenerate to CONST-0 gates land here.
        return False
    # quick accept: a universal row.  Over zero variables every
    # non-empty cube *is* the universal row, so a non-empty cover of a
    # zero-variable space (a CONST-1 plane) is always accepted here and
    # the recursion below never sees num_inputs == 0.
    for c in cubes:
        if c.is_full_inputs():
            return True
    # quick reject: total size bound
    total = 0
    space = 1 << cover.num_inputs
    for c in cubes:
        total += c.size()
        if total >= space:
            break
    if total < space:
        return False

    work = Cover(cover.num_inputs, 1, cubes)
    work = _unate_reduced(work)
    if not work.cubes:
        return False
    for c in work.cubes:
        if c.is_full_inputs():
            return True

    var = most_binate_var(work)
    if var is None:
        # unate cover: tautology iff it has a universal row (checked above)
        return False
    pos_half = Cube.full(cover.num_inputs).with_literal(var, LIT_ONE)
    neg_half = Cube.full(cover.num_inputs).with_literal(var, LIT_ZERO)
    return is_tautology(cofactor(work, pos_half)) and is_tautology(cofactor(work, neg_half))


def covers_cube(cover: Cover, cube: Cube) -> bool:
    """True when ``cover`` covers every minterm of ``cube`` (input parts).

    Classic reduction: ``cover ⊇ cube`` iff ``cofactor(cover, cube)``
    is a tautology.
    """
    if cube.is_empty():
        return True
    return is_tautology(cofactor(cover, cube))


def cover_covers_cube_multi(cover: Cover, cube: Cube) -> bool:
    """Multi-output covering: every (minterm, output) of ``cube`` covered.

    For each output bit in ``cube.outputs``, the projection of
    ``cover`` onto that output must cover the cube's input part.
    """
    o = cube.outputs
    idx = 0
    while o:
        if o & 1:
            if not covers_cube(cover.projection(idx), cube.with_outputs(1)):
                return False
        o >>= 1
        idx += 1
    return True
