"""Property-based testing over randomized specifications.

Hypothesis generates random (but structurally valid) STG patterns —
phased cycles, fork/joins, rings, pipelines — and the properties
asserted are the paper's theorems and the flow's invariants:

* elaborated SGs are consistent, CSC and semi-modular;
* the region-derived (F, D, R) partitions the code space per function;
* the minimized cover is sound (F ⊆ C ⊆ F∪D) and realizes Table 1 on
  every reachable state;
* single-traversal SGs pass the trigger audit without repair
  (Corollary 1);
* Equation (1) is non-positive at the nominal bound for the
  architecture's plane shapes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.circuits.handshakes import fork_join, muller_pipeline, phased_cycle, ring
from repro.core import check_trigger_cubes, derive_sop_spec, synthesize
from repro.sg import is_single_traversal, validate_for_synthesis
from repro.stg import elaborate

from tests.cover_reference import code_partition_check

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NAMES = [f"s{i}" for i in range(8)]


@st.composite
def phased_cycle_stgs(draw):
    """Random fork/join phase cycles over up to 6 signals.

    A dedicated phase-marker output separates the rising and falling
    halves, so state codes never repeat (CSC by construction) — the
    same structural device the real benchmark controllers use (a
    master/acknowledge signal between the handshake halves).
    """
    n_sigs = draw(st.integers(2, 6))
    sigs = _NAMES[:n_sigs]
    n_phases = draw(st.integers(2, 4))
    # partition the signals into rising phases (each signal appears in
    # exactly one rising and one falling phase, preserving order)
    assignment = [draw(st.integers(0, n_phases - 1)) for _ in sigs]
    rising = [[] for _ in range(n_phases)]
    for s, ph in zip(sigs, assignment):
        rising[ph].append((s, True))
    rising = [ph for ph in rising if ph]
    falling = [[(s, False) for s, _ in ph] for ph in rising]
    phases = (
        rising
        + [[("ph", True)]]
        + falling
        + [[("ph", False)]]
    )
    n_inputs = draw(st.integers(1, max(1, n_sigs - 1)))
    inputs = sigs[:n_inputs]
    return phased_cycle(phases, inputs=inputs, name="prop")


@st.composite
def pattern_stgs(draw):
    kind = draw(st.sampled_from(["phased", "ring", "fork", "pipe"]))
    if kind == "phased":
        return draw(phased_cycle_stgs())
    if kind == "ring":
        n = draw(st.integers(2, 5))
        sigs = _NAMES[:n]
        return ring(sigs, [sigs[0]])
    if kind == "fork":
        n = draw(st.integers(1, 4))
        return fork_join("m", _NAMES[:n], name="prop")
    n = draw(st.integers(1, 4))
    return muller_pipeline(n, name="prop")


class TestRandomSpecs:
    @given(pattern_stgs())
    @SETTINGS
    def test_elaboration_valid(self, stg):
        sg = elaborate(stg)
        report = validate_for_synthesis(sg)
        assert report.ok, report.summary()

    @given(pattern_stgs())
    @SETTINGS
    def test_fdr_partitions_code_space(self, stg):
        sg = elaborate(stg)
        spec = derive_sop_spec(sg)
        assert code_partition_check(spec.on, spec.dc, spec.off, sg.num_signals)

    @given(pattern_stgs())
    @SETTINGS
    def test_synthesis_realizes_table1(self, stg):
        sg = elaborate(stg)
        circuit = synthesize(sg, name="prop")
        spec = circuit.spec
        view = sg.dense()
        for a in sg.non_inputs:
            sr = spec.regions[a]
            for kind, direction in (("set", 1), ("reset", -1)):
                o = spec.output_index(a, kind)
                for m in view.codes_of(sr.union_bits("ER", direction)):
                    assert circuit.cover.contains_minterm(m, o)
                off = sr.union_bits("ER", -direction) | sr.union_bits("QR", -direction)
                for m in view.codes_of(off):
                    assert not circuit.cover.contains_minterm(m, o)

    @given(pattern_stgs())
    @SETTINGS
    def test_corollary1_trigger_audit(self, stg):
        sg = elaborate(stg)
        circuit = synthesize(sg, name="prop")
        if is_single_traversal(sg):
            audits = check_trigger_cubes(spec=circuit.spec, cover=circuit.cover)
            assert all(a.ok for a in audits)
            assert circuit.trigger_cubes_added == 0

    @given(pattern_stgs())
    @SETTINGS
    def test_nominal_delay_requirement_nonpositive(self, stg):
        sg = elaborate(stg)
        circuit = synthesize(sg, name="prop")
        assert not circuit.compensation_required

    @given(pattern_stgs())
    @SETTINGS
    def test_netlist_structure_invariants(self, stg):
        from repro.netlist import GateType

        sg = elaborate(stg)
        circuit = synthesize(sg, name="prop")
        nl = circuit.netlist
        assert nl.validate() == []
        mhs = [g for g in nl.gates if g.type == GateType.MHSFF]
        assert len(mhs) == len(sg.non_inputs)
        # delay is a whole number of 1.2 ns levels
        d = nl.stats().delay
        assert abs(d / 1.2 - round(d / 1.2)) < 1e-9
