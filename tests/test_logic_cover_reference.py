"""``compact_minterm_cover`` and ``bitmap_cover`` against the
set-splitting construction.

The library builds the same cubes two ways, each merging a
sub-space's halves as they return: ``compact_minterm_cover`` splits one
sorted minterm list by bisection; ``bitmap_cover`` splits a minterm
bitmap, memoized on (variables, sub-bitmap).
The reference below is the earlier construction: per-variable set
splitting and a merge pass that groups cubes by everything but one
variable.  All must return the same cube list on every input.
"""

import hashlib
import random

import pytest

from repro.bench.circuits.handshakes import ring
from repro.core.sop_derivation import derive_sop_spec
from repro.logic.cover import compact_minterm_cover
from repro.logic.cube import LIT_DC, LIT_ONE, LIT_ZERO
from repro.sg.codespace import bitmap_cover, code_space
from repro.stg import elaborate


def reference_cover(minterms: set[int], num_inputs: int) -> list[int]:
    """Input masks of the cubes, sorted."""
    cubes: list[int] = []

    def rec(prefix_mask: int, var: int, members: set[int]) -> None:
        if not members:
            return
        if len(members) == 1 << (var + 1):
            mask = prefix_mask
            for v in range(var + 1):
                mask |= LIT_DC << (2 * v)
            cubes.append(mask)
            return
        bit = 1 << var
        lo = {m for m in members if not m & bit}
        hi = {m & ~bit for m in members if m & bit}
        rec(prefix_mask | (LIT_ZERO << (2 * var)), var - 1, lo)
        rec(prefix_mask | (LIT_ONE << (2 * var)), var - 1, hi)

    rec(0, num_inputs - 1, set(minterms))

    work = set(cubes)
    changed = True
    while changed:
        changed = False
        for var in range(num_inputs):
            shift = 2 * var
            by_rest: dict[int, int] = {}
            for mask in work:
                rest = mask & ~(0b11 << shift)
                by_rest[rest] = by_rest.get(rest, 0) | ((mask >> shift) & 0b11)
            for rest, phases in by_rest.items():
                if phases == 0b11:
                    lo = rest | (LIT_ZERO << shift)
                    hi = rest | (LIT_ONE << shift)
                    if lo in work and hi in work:
                        work.discard(lo)
                        work.discard(hi)
                        work.add(rest | (LIT_DC << shift))
                        changed = True
    return sorted(work)


def assert_same(minterms: set[int], n: int) -> None:
    got = compact_minterm_cover(minterms, n)
    want = reference_cover(minterms, n)
    assert [c.inputs for c in got.cubes] == want
    if n <= 12:
        assert bitmap_cover(sum(1 << m for m in set(minterms)), n) == want
    assert all(c.outputs == 1 and c.num_inputs == n for c in got.cubes)
    assert got.num_outputs == 1


@pytest.mark.parametrize("n", range(3, 15))
def test_seeded_random_sets(n):
    rng = random.Random(1000 + n)
    space = 1 << n
    for density in (0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0):
        for _ in range(3 if n > 11 else 6):
            assert_same({m for m in range(space) if rng.random() < density}, n)


@pytest.mark.parametrize("n", range(3, 15))
def test_structured_sets(n):
    space = range(1 << n)
    parity = {m for m in space if bin(m).count("1") % 2}
    assert_same(parity, n)
    assert_same({m for m in space if m not in parity}, n)
    for k in range(n):
        # half-spaces on one variable, and on one low and one high variable
        assert_same({m for m in space if m >> k & 1}, n)
        assert_same({m for m in space if m >> k & 1 or m >> (n - 1) & 1}, n)
    assert_same({m for m in space if m < (1 << n) // 3}, n)


def test_degenerate_inputs():
    assert_same(set(), 0)
    assert_same({0}, 0)
    assert_same(set(), 4)
    assert_same({5}, 4)
    # any iterable of minterms, duplicates collapsing
    got = compact_minterm_cover([3, 1, 3, 1], 2)
    assert [c.inputs for c in got.cubes] == reference_cover({1, 3}, 2)


def test_bitmap_cover_shares_its_memo():
    """One memo across calls, as a batch of region covers uses it: each
    call still gets the reference's cubes, and later calls reuse the
    sub-spaces earlier ones split."""
    rng = random.Random(77)
    memo: dict = {}
    for _ in range(200):
        n = rng.randrange(0, 11)
        density = rng.random()
        minterms = {m for m in range(1 << n) if rng.random() < density}
        assert bitmap_cover(sum(1 << m for m in minterms), n, memo) == reference_cover(minterms, n)
    assert len(memo) > 0


#: sha256 of the ON, DC and OFF covers of the 17- and 21-signal rings,
#: as the minterm path built them before the code-space engine
RING_COVERS = {
    17: "6b6358a93a40aa6af8f1a71e4a0d06208135396f6f13a24300bc71f20c5cfc2d",
    21: "e852958eb02095ed3e9bc29a3a06d1da7def6d434d72c962c72fae0efadc01ec",
}


@pytest.mark.parametrize("k", sorted(RING_COVERS))
def test_wide_ring_covers_pinned(k):
    """Wider than the code space: these specs keep the minterm path,
    and their region covers stay the same bytes."""
    sg = elaborate(ring([f"s{i}" for i in range(k)], ["s0"]))
    assert code_space(sg) is None
    spec = derive_sop_spec(sg)
    text = "\n|\n".join("\n".join(c.to_strings()) for c in (spec.on, spec.dc, spec.off))
    assert hashlib.sha256(text.encode()).hexdigest() == RING_COVERS[k]
