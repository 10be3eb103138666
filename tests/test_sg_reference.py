"""Differential test: the region analysis against the naive reference.

:mod:`tests.sg_reference` reads Definitions 5-7 and 9 independently of
:mod:`repro.sg.regions`; any disagreement on the excitation, quiescent
or trigger regions, or on single traversal, fails.  Regions are
compared as sets of frozensets, so only membership matters, not the
order the analysis lists them in.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS, NONDISTRIBUTIVE_BENCHMARKS
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.sg.regions import is_single_traversal, signal_regions
from repro.sg.sgformat import parse_sg
from repro.stg import elaborate

from tests import sg_reference as ref

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "fuzz-corpus"


def analysis(sg) -> dict:
    """Per non-input: (ERs, ER→QR pairs, ER→trigger regions), as sets."""
    out = {}
    for a in sg.non_inputs:
        sr = signal_regions(sg, a)
        assert all(r.signal == a for r in sr.excitation + sr.quiescent)
        out[a] = (
            {(er.direction, er.states) for er in sr.excitation},
            {(er.states, qr.states) for er, qr in zip(sr.excitation, sr.quiescent)},
            {
                (er.states, frozenset(tr.states for tr in trs))
                for er, trs in zip(sr.excitation, sr.triggers)
            },
        )
        assert len(out[a][0]) == len(sr.excitation)  # no duplicate ERs
    return out


def reference(sg) -> dict:
    g = ref.Explicit.of(sg)
    out = {}
    for a in sg.non_inputs:
        ers = ref.excitation_regions(g, a)
        out[a] = (
            ers,
            {(er, ref.quiescent_region(g, a, d, er)) for d, er in ers},
            {(er, frozenset(ref.trigger_regions(g, a, er))) for _, er in ers},
        )
    return out


def assert_agrees(sg) -> None:
    want = reference(sg)
    assert analysis(sg) == want
    triggers = (tr for _, _, pairs in want.values() for _, trs in pairs for tr in trs)
    assert is_single_traversal(sg) == ref.single_traversal(triggers)


SUITE = [(n, lambda b=b: elaborate(b())) for n, (b, *_r) in DISTRIBUTIVE_BENCHMARKS.items()]
SUITE += [(n, b) for n, (b, *_r) in NONDISTRIBUTIVE_BENCHMARKS.items()]


@pytest.mark.parametrize("build", [b for _, b in SUITE], ids=[n for n, _ in SUITE])
def test_table2_suite(build):
    assert_agrees(build())


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.g")), ids=lambda p: p.stem)
def test_fuzz_corpus(path):
    assert_agrees(parse_sg(path.read_text()))


@pytest.mark.parametrize("knobs", knob_combinations(signals=6), ids=lambda k: k.short())
def test_generated_specs(knobs):
    for i in range(40):
        spec = generate_spec(derive_seed(7, i), knobs)
        assert_agrees(spec.sg)


def test_reference_sees_multi_state_trigger_regions():
    """Guard against a vacuous pass: the generated specs do include
    graphs with wide trigger regions."""
    spec = generate_spec(0, knob_combinations(signals=6, traversal="multi")[0])
    want = reference(spec.sg)
    assert any(len(tr) > 1 for _, _, pairs in want.values() for _, trs in pairs for tr in trs)
    assert not is_single_traversal(spec.sg)
