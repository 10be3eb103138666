"""Tests for the SIS/Lavagno, SYN/Beerel and complex-gate baselines."""

import pytest

import repro.baselines.lavagno as lavagno

from repro.baselines.hazard_free_sop import _static_one_arcs

from repro.baselines import (
    NotDistributiveError,
    add_hazard_cover_cubes,
    function_hazard_states,
    next_state_function,
    synthesize_beerel,
    synthesize_complex_gate,
    synthesize_lavagno,
)
from repro.bench.circuits import TABLE2_CIRCUITS, figure1_csc_sg, figure1_sg
from repro.bench.circuits.handshakes import fork_join, muller_pipeline, ring
from repro.bench.runner import sg_of
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.logic import Cover, Cube, covers_cube, minimize
from repro.logic.cube import LIT_DC, minterm_mask
from repro.logic.espresso import expand as espresso_expand
from repro.netlist import GateType
from repro.sg.codespace import MAX_CODE_SIGNALS
from repro.stg import elaborate


class TestNextStateFunction:
    def test_celem_majority(self, celem_sg):
        c = celem_sg.signal_index("c")
        spec = next_state_function(celem_sg, c)
        cover = minimize(spec.on, spec.dc, spec.off)
        # the C-element's next-state function is the majority function
        for m, want in [(0b011, 1), (0b111, 1), (0b101, 1), (0b000, 0), (0b100, 0)]:
            assert cover.contains_minterm(m) == bool(want)

    def test_on_off_partition(self, celem_sg, xyz_sg):
        for sg in (celem_sg, xyz_sg):
            for a in sg.non_inputs:
                spec = next_state_function(sg, a)
                on = set(sg.dense().labels(spec.on_bits))
                off = set(sg.dense().labels(spec.off_bits))
                assert not on & off
                assert on | off == set(sg.states())


class TestHazardCovers:
    def test_static_pairs_detected(self, celem_sg):
        c = celem_sg.signal_index("c")
        spec = next_state_function(celem_sg, c)
        arcs = _static_one_arcs(celem_sg, spec)
        assert arcs  # e.g. 111 -> 011 keeps f=1 while a falls

    def test_hazard_cover_fixes_all_pairs(self, celem_sg):
        c = celem_sg.signal_index("c")
        spec = next_state_function(celem_sg, c)
        cover = minimize(spec.on, spec.dc, spec.off)
        fixed, added = add_hazard_cover_cubes(celem_sg, spec, cover)
        codes, n = celem_sg.dense().codes, celem_sg.num_signals
        for s, _a, d in _static_one_arcs(celem_sg, spec):
            from repro.logic import Cube

            pair = Cube.from_minterm(codes[s], n).supercube(Cube.from_minterm(codes[d], n))
            assert any(cu.contains(pair) for cu in fixed.cubes)

    def test_function_hazards_on_concurrent_spec(self):
        sg = elaborate(muller_pipeline(3))
        exposed = 0
        for a in sg.non_inputs:
            spec = next_state_function(sg, a)
            exposed += len(function_hazard_states(sg, spec))
        assert exposed > 0

    def test_no_function_hazards_on_sequential_spec(self, xyz_sg):
        for a in xyz_sg.non_inputs:
            spec = next_state_function(xyz_sg, a)
            assert function_hazard_states(xyz_sg, spec) == []


class TestLavagno:
    def test_rejects_nondistributive(self):
        with pytest.raises(NotDistributiveError):
            synthesize_lavagno(figure1_csc_sg())

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            synthesize_lavagno(figure1_sg())

    def test_sequential_circuit_unpadded(self, xyz_sg):
        res = synthesize_lavagno(xyz_sg)
        assert res.delay_lines_inserted == 0
        assert res.netlist.validate() == []

    def test_concurrent_circuit_padded(self):
        sg = elaborate(muller_pipeline(3))
        res = synthesize_lavagno(sg)
        assert res.delay_lines_inserted > 0
        pads = [g for g in res.netlist.gates if g.type == GateType.DELAY]
        assert len(pads) == res.delay_lines_inserted
        assert all(g.attrs.get("cut") for g in pads)

    def test_padding_slows_critical_path(self, monkeypatch):
        sg = elaborate(muller_pipeline(3))
        padded = synthesize_lavagno(sg).stats().delay
        monkeypatch.setattr(lavagno, "PAD_LEVELS", 0)
        unpadded = synthesize_lavagno(sg).stats().delay
        assert padded > unpadded

    def test_no_storage_elements(self, celem_sg):
        res = synthesize_lavagno(celem_sg)
        assert not res.netlist.sequential_gates()


class TestBeerel:
    def test_wide_spec_cell_pinned(self):
        """Past MAX_CODE_SIGNALS signals every code counts as used, so no
        cube grows into an unreachable code: the SYN cell of the
        17-signal, 34-state ring as that cap gives it."""
        sg = elaborate(ring([f"s{i}" for i in range(MAX_CODE_SIGNALS + 1)], ["s0"]))
        assert (sg.num_signals, sg.num_states) == (17, 34)
        assert synthesize_beerel(sg).stats().row() == "6912/6.0"

    def test_rejects_nondistributive(self):
        with pytest.raises(NotDistributiveError):
            synthesize_beerel(figure1_csc_sg())

    def test_monotonous_cubes_cover_ers(self, celem_sg):
        from repro.sg import signal_regions

        res = synthesize_beerel(celem_sg)
        c = celem_sg.signal_index("c")
        sr = signal_regions(celem_sg, c)
        for kind, direction in (("set", 1), ("reset", -1)):
            cover = res.covers[(c, kind)]
            for er in sr.excitation:
                if er.direction != direction:
                    continue
                for s in er.states:
                    assert cover.contains_minterm(celem_sg.code(s))

    def test_one_latch_per_signal(self, celem_sg, xyz_sg):
        for sg in (celem_sg, xyz_sg):
            res = synthesize_beerel(sg)
            latches = [g for g in res.netlist.gates if g.type == GateType.RSLATCH]
            assert len(latches) == len(sg.non_inputs)

    def test_structure_valid(self, celem_sg):
        res = synthesize_beerel(celem_sg)
        assert res.netlist.validate() == []

    def test_latch_two_level_delay_model(self, celem_sg):
        # plane (1) + ack (1) + latch (2 levels) = 4.8 max for this SG
        res = synthesize_beerel(celem_sg)
        assert res.stats().delay == pytest.approx(4.8)


class TestComplexGate:
    def test_one_gate_per_signal(self, celem_sg):
        res = synthesize_complex_gate(celem_sg)
        assert len(res.netlist.gates) == len(celem_sg.non_inputs)

    def test_single_level_delay(self, celem_sg):
        res = synthesize_complex_gate(celem_sg)
        assert res.stats().delay == pytest.approx(1.2)

    def test_handles_nondistributive(self):
        # the complex-gate model has no distributivity restriction
        res = synthesize_complex_gate(figure1_csc_sg())
        assert res.netlist.gates

    def test_area_smallest_of_all_flows(self, celem_sg):
        from repro.core import synthesize

        cg = synthesize_complex_gate(celem_sg).stats().area
        ours = synthesize(celem_sg).stats().area
        assert cg < ours


def reference_hazard_cover(sg, spec, cover):
    """The repair ``add_hazard_cover_cubes`` replaced: one mask test
    per static-1 arc against every cube, in state-number order."""
    n, view = sg.num_signals, sg.dense()
    on = view.flags(spec.on_bits)
    work, masks, tried, added = cover.copy(), [c.inputs for c in cover.cubes], set(), 0
    for s in view.numbers(spec.on_bits):
        for a, _dir, d in view.succ[s]:
            m = minterm_mask(view.codes[s], n) | LIT_DC << (2 * a)
            if a == spec.signal or not on[d] or m in tried:
                continue
            tried.add(m)
            if not any(c & m == m for c in masks):
                prime = espresso_expand(Cover(n, 1, [Cube(n, m)]), spec.off).cubes[0]
                work.add(prime)
                masks.append(prime.inputs)
                added += 1
    return (work.single_cube_containment() if added else work), added


#: the Table 2 specs but the four of over 256 states (the per-arc loop
#: is slow on those), and generated CSC specs
LARGE = {"master-read", "read-write", "tsbmsi", "tsbmsiBRK"}
HAZARD_INPUTS = [(n, lambda n=n: sg_of(n)) for n in TABLE2_CIRCUITS if n not in LARGE]
HAZARD_INPUTS += [
    (f"{k.short()}-{i}", lambda k=k, i=i: generate_spec(derive_seed(11, i), k).sg)
    for k in knob_combinations(signals=6, csc="on")
    for i in range(10)
]


def hazard_cases(sg):
    """Per non-input: its next-state spec and three covers to repair,
    the minimized one, the ON-set cover and one cube per ON code (so
    nearly every static-1 pair needs a cube) plus an empty cube that is
    free in all but one variable."""
    n = sg.num_signals
    empty = Cube(n, (1 << 2 * n) - 4)
    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        minterms = Cover.from_minterms(sorted(sg.dense().codes_of(spec.on_bits)), n)
        minterms.add(empty)
        for cover in (minimize(spec.on, spec.dc, spec.off), spec.on, minterms):
            yield spec, cover


@pytest.mark.parametrize("build", [b for _, b in HAZARD_INPUTS], ids=[n for n, _ in HAZARD_INPUTS])
def test_hazard_cover_matches_reference(build):
    """Same cubes, in the same order, and the same count as the
    per-arc loop."""
    sg = build()
    for spec, cover in hazard_cases(sg):
        got, added = add_hazard_cover_cubes(sg, spec, cover)
        want, want_added = reference_hazard_cover(sg, spec, cover)
        assert (got.cubes, added) == (want.cubes, want_added)


def test_hazard_cover_reference_adds_cubes():
    """Guard against a vacuous pass: the cases above need many repairs,
    on the minimized covers of some specs too."""
    added = {}
    for _name, build in HAZARD_INPUTS:
        sg = build()
        for k, (spec, cover) in enumerate(hazard_cases(sg)):
            added[k % 3] = added.get(k % 3, 0) + reference_hazard_cover(sg, spec, cover)[1]
    assert added[0] >= 1 and added[2] >= 100
