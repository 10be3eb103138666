"""Cover complementation via Shannon/unate recursion.

Computes a sum-of-products cover of the Boolean complement of a
(single-output) cover.  Used by:

* ``minimize(F, D)`` when the OFF-set ``R`` is not supplied explicitly,
* the REDUCE step of the ESPRESSO loop (smallest cube containing the
  part of a cube not covered by the rest of the cover),
* validity checks in the exact minimizer.

The recursion is the textbook one:

``comp(F) = x' · comp(F|x=0)  +  x · comp(F|x=1)``

with three base cases (empty cover, universal row, single cube — De
Morgan) and a merge step that applies single-cube containment to keep
intermediate covers small.
"""

from __future__ import annotations

from .cube import LIT_ONE, LIT_ZERO, Cube
from .cover import Cover
from .tautology import cofactor, most_binate_var, most_used_var

__all__ = ["complement", "complement_cube", "cube_sharp"]


def complement_cube(cube: Cube) -> Cover:
    """De Morgan complement of a single cube (input part).

    The complement of ``x1 x2' x3`` is ``x1' + x2 + x3'``: one cube per
    bound literal, with the literal flipped and everything else don't
    care.
    """
    n = cube.num_inputs
    out = Cover.empty(n, 1)
    # A cube with no bound literals (including every cube over zero
    # variables) is the universal cube; its complement is the empty
    # cover (constant 0) — the loop below adds nothing, which is right.
    for var in range(n):
        f = cube.literal(var)
        if f == LIT_ONE:
            out.add(Cube.full(n).with_literal(var, LIT_ZERO))
        elif f == LIT_ZERO:
            out.add(Cube.full(n).with_literal(var, LIT_ONE))
    return out


def complement(cover: Cover) -> Cover:
    """SOP cover of the complement of ``cover`` (input parts only)."""
    n = cover.num_inputs
    cubes = [c for c in cover.cubes if not c.is_empty()]
    if not cubes:
        # constant 0 complements to constant 1 — also over zero
        # variables, where Cover.universe(0, 1) is the one-minterm
        # space (the CONST-0 plane case the certifier probes).
        return Cover.universe(n, 1)
    for c in cubes:
        if c.is_full_inputs():
            # any universal row (every non-empty cube when n == 0)
            # makes the cover constant 1; complement is constant 0.
            return Cover.empty(n, 1)
    if len(cubes) == 1:
        return complement_cube(cubes[0])

    work = Cover(n, 1, cubes)
    var = most_binate_var(work)
    if var is None:
        var = most_used_var(work)
    if var is None:  # all cubes universal was handled; defensive
        return Cover.empty(n, 1)

    pos_half = Cube.full(n).with_literal(var, LIT_ONE)
    neg_half = Cube.full(n).with_literal(var, LIT_ZERO)
    comp_pos = complement(cofactor(work, pos_half))
    comp_neg = complement(cofactor(work, neg_half))

    merged = Cover.empty(n, 1)
    for c in comp_pos.cubes:
        merged.add(c.with_literal(var, _and_field(c.literal(var), LIT_ONE)))
    for c in comp_neg.cubes:
        merged.add(c.with_literal(var, _and_field(c.literal(var), LIT_ZERO)))
    return merged.drop_empty().single_cube_containment()


def _and_field(a: int, b: int) -> int:
    """AND two 2-bit literal fields (used to re-attach the split literal)."""
    return a & b


def cube_sharp(cube: Cube, cover: Cover) -> Cover:
    """The sharp product ``cube # cover`` as a cover (input parts).

    Returns a cover of the minterms of ``cube`` *not* covered by
    ``cover``.  Implemented as ``cube ∩ complement(cofactor(cover, cube))``
    which keeps the recursion over the small cofactored space.
    """
    remainder = complement(cofactor(cover, cube))
    out = Cover.empty(cube.num_inputs, 1)
    for c in remainder.cubes:
        i = c.intersect(cube.with_outputs(c.outputs))
        if i is not None:
            out.add(i)
    return out
