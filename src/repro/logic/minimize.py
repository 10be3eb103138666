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
from .cover import Cover, cube_codes, output_codes
from .espresso import espresso

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
    if off is not None and any(off.intersects_cube(c) for c in on.cubes):
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

    Each cover is read, per output, as the set of codes its cubes
    contain: an integer with bit ``x`` set for code ``x`` (``2**n`` bits
    wide), so the conditions are bitwise operations, not tautology
    checks (``tests/cover_reference.py`` keeps that reading).
    """
    n = on.num_inputs
    mine = [(cube_codes(c.inputs, n), c.output_list()) for c in result.cubes]
    f, d, r, covered = (
        output_codes(c.cubes if c is not None else (), n) for c in (on, dc, off, result)
    )
    return CoverCheck(
        covers_on=all(not bits & ~covered[o] for o, bits in f.items()),
        within_on_dc=all(not bits & ~(f[o] | d[o]) for bits, outs in mine for o in outs),
        disjoint_from_off=not any(bits & r[o] for bits, outs in mine for o in outs),
    )

