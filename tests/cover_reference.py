"""Tautology readings of the covers the synthesis flow derives.

:func:`verify_cover` is the reading :func:`repro.logic.verify_cover`
replaced, kept as the reference it is tested against
(``test_cover_check.py``): the same three soundness conditions of a
minimized cover, decided by cover containment (a cofactor tautology per
cube and output) and pairwise cube intersection.
:func:`code_partition_check` is the oracle the SOP derivation tests use,
and :func:`covers_cover` the containment the minimizer tests assert.
:func:`from_rows` builds the covers the logic tests start from.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.logic import Cover, Cube, is_tautology
from repro.logic.minimize import CoverCheck
from repro.logic.tautology import cover_covers_cube_multi


def covers_cover(big: Cover, small: Cover) -> bool:
    """True when ``big`` covers every cube of ``small`` (multi-output)."""
    return all(cover_covers_cube_multi(big, c) for c in small.cubes)


def verify_cover(
    result: Cover, on: Cover, dc: Cover | None = None, off: Cover | None = None
) -> CoverCheck:
    covers_on = covers_cover(result, on)
    fd = Cover(on.num_inputs, on.num_outputs, on.cubes + (dc.cubes if dc else []))
    within = all(cover_covers_cube_multi(fd, c) for c in result.cubes)
    disjoint = off is None or not any(
        c.intersects(d) for c in result.cubes for d in off.cubes
    )
    return CoverCheck(covers_on, within, disjoint)


def code_partition_check(on: Cover, dc: Cover, off: Cover, num_signals: int) -> bool:
    """True when (F, D, R) partitions the whole code space per output:
    every code belongs to exactly one of the three covers, as the
    region-derivation procedure must ensure."""
    for o in range(max(on.num_outputs, 1)):
        fo, do, ro = on.projection(o), dc.projection(o), off.projection(o)
        if not is_tautology(Cover(num_signals, 1, fo.cubes + do.cubes + ro.cubes)):
            return False
        for a, b in ((fo, do), (fo, ro), (do, ro)):
            if any(ca.intersects(cb) for ca in a.cubes for cb in b.cubes):
                return False
    return True


def from_rows(rows: Iterable[str]) -> Cover:
    """A cover from ESPRESSO-style rows: an input part (``"1-0"``,
    single output) or input and output parts (``"1-0 10"``); the output
    count is the width of the output parts."""
    cubes: list[Cube] = []
    num_inputs = num_outputs = 1
    for row in rows:
        inp, *out = row.split()
        num_inputs = len(inp)
        if out:
            num_outputs = len(out[0])
            bits = sum(1 << o for o, ch in enumerate(out[0]) if ch in "14")
        else:
            bits = 1
        cubes.append(Cube.from_string(inp, bits))
    return Cover(num_inputs, num_outputs, cubes)
