"""``verify_cover`` on integer code sets against the tautology reading.

The N-SHOT flow audits every minimized cover with
:func:`repro.logic.verify_cover`.  Its verdicts must not move, so the
integer check and ``cover_reference.verify_cover`` must give the same
:class:`~repro.logic.minimize.CoverCheck` on the N-SHOT covers of the
Table 2 specs, on those covers deliberately broken, and on random
multi-output covers that include empty and output-less cubes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.circuits import TABLE2_CIRCUITS
from repro.bench.runner import sg_of
from repro.core import synthesize
from repro.logic import Cover, Cube, verify_cover
from repro.logic.cube import LIT_DC, LIT_EMPTY, LIT_ONE, LIT_ZERO

from tests import cover_reference as ref


FIELDS = (LIT_ZERO, LIT_ONE, LIT_DC, LIT_DC)


def broken_covers(spec, cover: Cover) -> dict[str, Cover]:
    """``cover`` with its first cube dropped, with one cube grown into
    the OFF-set, and with an OFF-set cube added (outside F ∪ D)."""
    n, m = cover.num_inputs, cover.num_outputs
    out = {"dropped": Cover(n, m, cover.cubes[1:])}
    grown = (
        (k, Cube(n, c.inputs | LIT_DC << (2 * v), c.outputs))
        for k, c in enumerate(cover.cubes)
        for v in c.fixed_vars()
    )
    for k, cube in grown:
        if any(cube.intersects(d) for d in spec.off.cubes):
            out["grown"] = Cover(n, m, cover.cubes[:k] + [cube] + cover.cubes[k + 1 :])
            break
    out["outside"] = Cover(n, m, cover.cubes + [spec.off.cubes[len(spec.off.cubes) // 2]])
    return out


@pytest.mark.parametrize("name", TABLE2_CIRCUITS)
def test_table2_covers_and_their_breakages(name):
    circuit = synthesize(sg_of(name), name=name)
    spec = circuit.spec
    cases = {"intact": circuit.cover, **broken_covers(spec, circuit.cover)}
    assert set(cases) == {"intact", "dropped", "grown", "outside"}
    for case, cover in cases.items():
        got = verify_cover(cover, spec.on, spec.dc, spec.off)
        assert got == ref.verify_cover(cover, spec.on, spec.dc, spec.off), case
        assert got.ok == (case == "intact"), case
        # the same without an OFF-set, and without a DC-set
        assert verify_cover(cover, spec.on, spec.dc) == ref.verify_cover(
            cover, spec.on, spec.dc
        ), case
        assert verify_cover(cover, spec.on) == ref.verify_cover(cover, spec.on), case


def test_breakages_fail_each_field():
    """Guard against a vacuous pass: across the Table 2 breakages, each
    field of the check is seen false."""
    seen = set()
    for name in ("chu133", "pe-send-ifc", "combuf1"):
        circuit = synthesize(sg_of(name), name=name)
        spec = circuit.spec
        for cover in broken_covers(spec, circuit.cover).values():
            check = verify_cover(cover, spec.on, spec.dc, spec.off)
            seen |= {f for f, ok in vars(check).items() if not ok}
    assert seen == {"covers_on", "within_on_dc", "disjoint_from_off"}


def random_cover(rng: random.Random, n: int, m: int, size: int) -> Cover:
    """Random cubes over ``n`` inputs and ``m`` outputs, a few of them
    empty (a ``00`` input field) or feeding no output."""
    cubes = []
    for _ in range(size):
        inputs = 0
        for v in range(n):
            field = LIT_EMPTY if rng.random() < 0.03 else rng.choice(FIELDS)
            inputs |= field << (2 * v)
        outputs = 0 if rng.random() < 0.1 else rng.randrange(1, 1 << m)
        cubes.append(Cube(n, inputs, outputs))
    return Cover(n, m, cubes)


@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_random_covers(n, m, seed):
    rng = random.Random(seed)
    result, on, dc, off = (random_cover(rng, n, m, rng.randrange(6)) for _ in range(4))
    for args in ((on, dc, off), (on, dc), (on,), (on, None, off)):
        assert verify_cover(result, *args) == ref.verify_cover(result, *args)
