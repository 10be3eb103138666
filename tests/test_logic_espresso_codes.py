"""ESPRESSO's two readings of a cover give the same cover.

On covers of at most ``MAX_CODE_SIGNALS`` inputs the loop asks its set
questions of code bitmaps; wider covers ask them of cubes (cube
intersection, unate-recursive tautology, the sharp product).  Setting
``MAX_CODE_SIGNALS`` to 0 sends every cover down the cube path, so
each input here runs through the loop twice and both runs must return
the same cubes, in the same order, after the same number of
iterations.  The inputs are random multi-output (F, D, R) triples,
including ones whose sets leave codes unassigned, and the loop inputs
of the Table 2 flows and of the committed fuzz corpus.  Each step is
also checked on its own against the public step on cubes, since a
wrong REDUCE or don't-care set often leaves the loop's final cover
unchanged.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.bench import TABLE2_CIRCUITS, sg_of
from repro.fuzz import load_corpus
from repro.fuzz.differential import FLOW_NAMES, run_flow
from repro.logic import Cover, Cube

ESPRESSO = importlib.import_module("repro.logic.espresso")


def _both_readings(monkeypatch, on, dc, off):
    """(cubes, iterations) of the loop on code bitmaps, then on cubes."""
    built = []

    class Spy(ESPRESSO._Codes):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    with monkeypatch.context() as m:
        m.setattr(ESPRESSO, "_Codes", Spy)
        cover, iterations = ESPRESSO._espresso_loop(on, dc, off)
        codes = (cover.cubes, iterations)
        assert built or not on.drop_empty().cubes, "the bitmap path did not run"
        m.setattr(ESPRESSO, "MAX_CODE_SIGNALS", 0)
        count = len(built)
        cover, iterations = ESPRESSO._espresso_loop(on, dc, off)
        assert len(built) == count, "the cube path built code bitmaps"
    return codes, (cover.cubes, iterations)


def _recorded(monkeypatch, run) -> list[tuple]:
    """Every (on, dc, off) the loop is called with while ``run()`` runs."""
    calls = []
    loop = ESPRESSO._espresso_loop

    def record(on, dc, off):
        calls.append((on, dc, off))
        return loop(on, dc, off)

    with monkeypatch.context() as m:
        m.setattr(ESPRESSO, "_espresso_loop", record)
        run()
    return calls


def _random_cube(rng: random.Random, n: int, m: int) -> Cube:
    fields = [rng.choice((0b01, 0b10, 0b11, 0b11)) for _ in range(n)]
    return Cube(n, sum(f << 2 * v for v, f in enumerate(fields)), rng.randrange(1, 1 << m))


def _random_triple(seed: int):
    rng = random.Random(seed)
    n, m = rng.randint(1, 8), rng.randint(1, 3)
    on = Cover(n, m, [_random_cube(rng, n, m) for _ in range(rng.randint(1, 8))])
    dc = Cover(n, m, [_random_cube(rng, n, m) for _ in range(rng.randint(0, 6))])
    if seed % 3 == 0:
        return on, dc, None  # the OFF-set by complementation: F, D, R partition
    # OFF cubes kept clear of F per output, so some codes stay in no set
    off = Cover(n, m, [])
    for c in (_random_cube(rng, n, m) for _ in range(rng.randint(1, 10))):
        outputs = c.outputs
        for f in on.cubes:
            if f.with_outputs(1).intersects(c.with_outputs(1)):
                outputs &= ~f.outputs
        if outputs:
            off.add(c.with_outputs(outputs))
    return on, (dc if seed % 2 else None), off


@pytest.mark.parametrize("seed", range(0, 300, 30))
def test_random_covers(monkeypatch, seed):
    for s in range(seed, seed + 30):
        on, dc, off = _random_triple(s)
        codes, cubes = _both_readings(monkeypatch, on, dc, off)
        assert codes == cubes, s


@pytest.mark.parametrize("seed", range(0, 300, 60))
def test_each_step_agrees(seed):
    """Each step on code bitmaps against the public step on cubes, also
    with the don't-care set grown by ``lock`` as the loop grows it."""
    for s in range(seed, seed + 60):
        on, dc, off = _random_triple(s)
        if off is None:
            off = ESPRESSO.make_offset(on, dc)
        dc = dc or Cover(on.num_inputs, on.num_outputs, [])
        codes = ESPRESSO._Codes(on, dc, off)
        locked = ESPRESSO._Codes(on, None, off)
        locked.lock(dc.cubes)
        grown = ESPRESSO.expand(on, off)
        assert codes.expand(on) == grown, s
        for cover in (on, grown):
            for steps in (codes, locked):
                assert steps.irredundant(cover) == ESPRESSO.irredundant(cover, dc), s
                assert steps.reduce_cover(cover) == ESPRESSO.reduce_cover(cover, dc), s
                assert steps.relatively_essential(cover) == ESPRESSO.relatively_essential(
                    cover, dc
                ), s


def test_table2_flows(monkeypatch):
    def run():
        for name in TABLE2_CIRCUITS:
            sg = sg_of(name)
            for flow in ("nshot", "lavagno", "beerel"):
                run_flow(flow, sg, name=name)

    calls = _recorded(monkeypatch, run)
    assert len(calls) > 100
    for on, dc, off in calls:
        codes, cubes = _both_readings(monkeypatch, on, dc, off)
        assert codes == cubes


def test_fuzz_corpus(monkeypatch):
    entries = load_corpus()
    assert entries

    def run():
        for entry in entries:
            sg = entry.sg()
            for flow in FLOW_NAMES:
                run_flow(flow, sg, name=entry.path.stem)

    calls = _recorded(monkeypatch, run)
    assert calls
    for on, dc, off in calls:
        codes, cubes = _both_readings(monkeypatch, on, dc, off)
        assert codes == cubes
