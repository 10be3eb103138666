"""Tests for CSC, semi-modularity, distributivity and validation."""

from repro.bench.circuits import figure1_csc_sg, figure1_sg
from repro.sg import (
    SGBuilder,
    check_consistency,
    csc_report,
    csc_violations,
    detonant_states,
    insert_state_signal,
    is_distributive,
    is_semimodular_with_input_choices,
    non_distributive_signals,
    satisfies_csc,
    semimodularity_violations,
    usc_violations,
    validate_for_synthesis,
)

from tests.conftest import sabotage_code


class TestConsistency:
    def test_valid_graph_clean(self, celem_sg):
        assert check_consistency(celem_sg) == []

    def test_checker_detects_corruption(self, celem_sg):
        # sabotage a state's code behind the builder's back
        s = next(iter(celem_sg.states()))
        sabotage_code(celem_sg, s, 0b111)
        assert check_consistency(celem_sg)


class TestCsc:
    def test_celem_satisfies(self, celem_sg):
        assert satisfies_csc(celem_sg)
        assert csc_violations(celem_sg) == []

    def test_figure1_violates(self):
        sg = figure1_sg()
        assert not satisfies_csc(sg)
        report = csc_report(sg)
        assert len(report) == 4
        # conflicting pairs differ exactly in the excitation of c
        c = sg.signal_index("c")
        for conflict in report:
            assert (c in conflict.excited_a) != (c in conflict.excited_b)
            assert "share code" in conflict.describe(sg)

    def test_usc_strictly_stronger_than_csc(self):
        # figure1_csc shares codes between rising and falling phases
        # (101 and 011) with identical non-input excitation: CSC holds
        # while USC does not — exactly the gap between the properties.
        sg = figure1_csc_sg()
        assert satisfies_csc(sg)
        assert len(usc_violations(sg)) == 2

    def test_usc_detects_duplicate_codes(self):
        b = SGBuilder(["a", "b"], ["a", "b"])
        # two behaviourally identical-code states via tags
        b.arc("00/x", "+a", "10/x")
        b.arc("10/x", "-a", "00/y")
        b.arc("00/y", "+b", "01/y")
        b.arc("01/y", "-b", "00/x")
        b.initial("00/x")
        sg = b.build()
        assert len(usc_violations(sg)) == 1
        # same excited-non-input sets (none): CSC still fine
        assert satisfies_csc(sg)


class TestSemimodularity:
    def test_celem_semimodular(self, celem_sg):
        assert is_semimodular_with_input_choices(celem_sg)

    def test_input_choice_allowed(self):
        # two inputs in free choice: allowed to disable each other
        b = SGBuilder(["r1", "r2", "g"], ["r1", "r2"])
        b.arc("000", "+r1", "100")
        b.arc("000", "+r2", "010")
        b.arc("100", "+g", "101")
        b.arc("010", "+g", "011")
        b.arc("101", "-r1", "001")
        b.arc("011", "-r2", "001")
        b.arc("001", "-g", "000")
        b.initial("000")
        sg = b.build()
        assert is_semimodular_with_input_choices(sg)

    def test_output_disabling_detected(self):
        # +g enabled, then +r2 disables it: a semi-modularity violation
        b = SGBuilder(["r1", "r2", "g"], ["r1", "r2"])
        b.arc("100", "+g", "101")       # g excited at 100
        b.arc("100", "+r2", "110")      # ...but +r2 leads to a state
        b.arc("110", "-r1", "010")      # where +g is no longer enabled
        b.arc("010", "-r2", "000")
        b.arc("000", "+r1", "100")
        b.arc("101", "-g", "100")
        b.initial("100")
        sg = b.build()
        violations = semimodularity_violations(sg)
        assert violations
        assert any(v.kind == "disabled" for v in violations)

    def test_no_diamond_detected(self):
        # both orders exist but do not commute to the same state
        b = SGBuilder(["a", "b", "x"], ["a", "b"])
        b.arc("000", "+a", "100")
        b.arc("000", "+x", "001")
        b.arc("100", "+x", "101/alt")
        b.arc("001", "+a", "101/main")
        b.arc("101/alt", "-a", "001/2")
        b.arc("101/main", "-a", "001/2")
        b.arc("001/2", "-x", "000/2")
        b.arc("000/2", "+b", "010")
        b.arc("010", "-b", "000")
        b.initial("000")
        sg = b.build()
        violations = semimodularity_violations(sg)
        assert any(v.kind == "no-diamond" for v in violations)


class TestDistributivity:
    def test_celem_distributive(self, celem_sg):
        assert is_distributive(celem_sg)
        assert non_distributive_signals(celem_sg) == []

    def test_or_element_not_distributive(self, or_element_sg):
        c = or_element_sg.signal_index("c")
        assert c in non_distributive_signals(or_element_sg)
        dets = detonant_states(or_element_sg, c)
        labels = {or_element_sg.state_label(d.state) for d in dets}
        assert "0*0*0" in labels

    def test_figure1_detonant_both_phases(self):
        sg = figure1_sg()
        c = sg.signal_index("c")
        labels = {sg.state_label(d.state) for d in detonant_states(sg, c)}
        assert labels == {"0*0*0", "1*1*1"}


class TestValidateForSynthesis:
    def test_good(self, celem_sg):
        rep = validate_for_synthesis(celem_sg)
        assert rep.ok
        assert "valid" in rep.summary()

    def test_bad(self):
        rep = validate_for_synthesis(figure1_sg())
        assert not rep.ok
        assert "CSC" in rep.summary()


class TestInsertStateSignal:
    def test_repair_restores_csc(self):
        sg = figure1_sg()
        high = {s for s in sg.states() if isinstance(s, str) and s.endswith("/f")}
        high |= {"111/r"}
        repaired = insert_state_signal(sg, high, name="z")
        assert satisfies_csc(repaired)
        assert is_semimodular_with_input_choices(repaired)
        assert check_consistency(repaired) == []

    def test_projection_preserved(self):
        sg = figure1_sg()
        high = {s for s in sg.states() if isinstance(s, str) and s.endswith("/f")}
        high |= {"111/r"}
        repaired = insert_state_signal(sg, high, name="z")
        # the old signals' codes still change one at a time except for z
        z = repaired.signal_index("z")
        for s in repaired.states():
            for t, d in repaired.successors(s):
                if t.signal != z:
                    old_bits = (1 << z) - 1
                    assert bin((repaired.code(s) ^ repaired.code(d)) & old_bits).count("1") == 1

    def test_name_collision_rejected(self):
        sg = figure1_sg()
        import pytest
        from repro.sg import SGError

        with pytest.raises(SGError):
            insert_state_signal(sg, set(), name="c")

    def test_auto_name(self):
        sg = figure1_sg()
        out = insert_state_signal(sg, {"111/r"})
        assert "csc0" in out.signals
