"""Top-level minimization API used by the synthesis flows.

``minimize()`` is the single entry point the N-SHOT synthesizer and the
baseline flows call.  It accepts an (ON, DC, OFF) triple — exactly the
``(F, D, R)`` the paper's Section IV-A procedure constructs from the
excitation/quiescent regions — and dispatches to the heuristic
ESPRESSO loop or the exact minimizer.

It also provides :func:`verify_cover`, the sanity oracle asserting the
fundamental containment ``F ⊆ result ⊆ F ∪ D`` that any sound
minimizer must satisfy.  Tests and the synthesis flow both lean on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import get_metrics, trace_span
from .cover import Cover
from .espresso import espresso
from .tautology import cover_covers_cube_multi, covers_cover

__all__ = ["minimize", "verify_cover", "MinimizationError"]


class MinimizationError(ValueError):
    """Raised when the (F, D, R) specification is inconsistent."""


def minimize(
    on: Cover,
    dc: Cover | None = None,
    off: Cover | None = None,
    method: str = "espresso",
) -> Cover:
    """Minimize a multi-output incompletely-specified function.

    Parameters
    ----------
    on, dc, off:
        The ON-set, don't-care-set and OFF-set covers.  ``off`` may be
        omitted, in which case it is computed by complementation of
        ``on ∪ dc``.
    method:
        ``"espresso"`` (heuristic, default — what the paper used) or
        ``"exact"`` (Quine–McCluskey + covering, footnote 6; only for
        single-output covers, multi-output covers are minimized
        per-output and re-merged).

    Returns
    -------
    Cover
        A prime irredundant cover ``C`` with ``F ⊆ C ⊆ F ∪ D``.
    """
    if off is not None and _overlaps(on, off):
        raise MinimizationError("ON-set and OFF-set overlap")
    with trace_span("minimize", method=method, outputs=on.num_outputs) as sp:
        result = _dispatch(on, dc, off, method)
        cubes, literals = len(result), result.num_literals()
        sp.set(cubes=cubes, literals=literals)
    metrics = get_metrics()
    metrics.gauge("minimize.cubes").set(cubes)
    metrics.gauge("minimize.literals").set(literals)
    return result


def _dispatch(
    on: Cover, dc: Cover | None, off: Cover | None, method: str
) -> Cover:
    if method == "espresso":
        return espresso(on, dc, off)
    if method == "exact":
        from .exact import exact_minimize

        if on.num_outputs == 1:
            return exact_minimize(on, dc)
        merged = Cover.empty(on.num_inputs, on.num_outputs)
        for o in range(on.num_outputs):
            sub = exact_minimize(
                on.projection(o), dc.projection(o) if dc is not None else None
            )
            for c in sub.cubes:
                merged.add(c.with_outputs(1 << o))
        return merged.single_cube_containment()
    raise ValueError(f"unknown minimization method {method!r}")


def _overlaps(a: Cover, b: Cover) -> bool:
    for ca in a.cubes:
        for cb in b.cubes:
            if ca.intersects(cb):
                return True
    return False


@dataclass
class CoverCheck:
    """Result of :func:`verify_cover`."""

    covers_on: bool
    within_on_dc: bool
    disjoint_from_off: bool

    @property
    def ok(self) -> bool:
        return self.covers_on and self.within_on_dc and self.disjoint_from_off


def verify_cover(
    result: Cover,
    on: Cover,
    dc: Cover | None = None,
    off: Cover | None = None,
) -> CoverCheck:
    """Check the fundamental soundness conditions of a minimized cover.

    * ``covers_on`` — every ON-set cube is covered by the result,
    * ``within_on_dc`` — every result cube lies inside ``F ∪ D``,
    * ``disjoint_from_off`` — no result cube intersects the OFF-set
      (trivially true when ``off`` is None).
    """
    covers_on = covers_cover(result, on)

    fd = Cover(
        on.num_inputs,
        on.num_outputs,
        on.cubes + (dc.cubes if dc is not None else []),
    )
    within = all(cover_covers_cube_multi(fd, c) for c in result.cubes)

    disjoint = True
    if off is not None:
        disjoint = not _overlaps(result, off)
    return CoverCheck(covers_on, within, disjoint)
