"""Edge cases of the hazard census (:mod:`repro.sim.hazards`).

The glitch classification feeds both the verification oracle and the
fault campaign's detected/undetected split, so its boundary behaviour
matters: empty traces must not crash, a pulse exactly at the width
threshold is *not* a glitch (strict ``<``, matching the MHS ω
comparison), and multiple violations on one observable net must all be
counted.
"""

from repro.sim.hazards import analyze_hazards
from repro.sim.waveform import TraceSet, Waveform


def wave_from(net: str, changes) -> Waveform:
    w = Waveform(net)
    for t, v in changes:
        w.record(t, v)
    return w


def traces_from(**nets) -> TraceSet:
    ts = TraceSet()
    for net, changes in nets.items():
        for t, v in changes:
            ts.record(net, t, v)
    return ts


class TestZeroLengthTraces:
    def test_empty_trace_set(self):
        report = analyze_hazards(TraceSet(), observable_nets=["q"])
        assert report.internal_total == 0
        assert report.observable_total == 0
        assert report.externally_hazard_free
        # a net that never recorded anything has no entry at all
        assert "q" not in report.observable_glitches

    def test_single_sample_wave(self):
        """Only the initial value recorded: no pulses, no glitches."""
        ts = traces_from(q=[(0.0, 0)])
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.observable_glitches == {"q": 0}
        assert report.externally_hazard_free

    def test_empty_waveform_object(self):
        w = Waveform("n")
        assert w.glitch_pulses(1.0) == []
        assert w.pulses() == []
        assert w.changes == []
        assert w.value_at(0.0) == 0


class TestOmegaBoundary:
    def test_pulse_exactly_at_width_is_not_a_glitch(self):
        """Strict ``<``: a pulse of exactly the threshold width passes,
        mirroring the MHS rule that ω-wide pulses are *not* filtered."""
        ts = traces_from(
            q=[(0.0, 0), (5.0, 1), (6.0, 0), (20.0, 1)]
        )  # the 1-level is held exactly 1.0
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.observable_glitches["q"] == 0
        assert report.externally_hazard_free

    def test_pulse_just_under_width_is_a_glitch(self):
        ts = traces_from(
            q=[(0.0, 0), (5.0, 1), (5.999, 0), (20.0, 1)]
        )
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.observable_glitches["q"] == 1
        assert not report.externally_hazard_free

    def test_initial_and_final_levels_never_glitch(self):
        """A short-lived initial level and the (unbounded) final level
        are excluded — only interior runt pulses count."""
        ts = traces_from(q=[(0.0, 0), (0.1, 1), (50.0, 0)])
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.observable_glitches["q"] == 0


class TestObservablePartition:
    def test_multiple_violations_all_counted(self):
        ts = traces_from(
            q=[(0.0, 0), (5.0, 1), (5.2, 0), (9.0, 1), (9.3, 0),
               (12.0, 1), (12.4, 0), (30.0, 1)]
        )
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.observable_glitches["q"] == 3
        assert report.observable_total == 3
        assert not report.externally_hazard_free

    def test_internal_glitches_are_tolerated(self):
        """The same pulse stream is a violation on an observable net but
        mere bookkeeping on an internal (SOP plane) net."""
        stream = [(0.0, 0), (5.0, 1), (5.2, 0), (9.0, 1), (9.3, 0), (30.0, 1)]
        ts = traces_from(set_plane=stream, q=[(0.0, 0), (10.0, 1)])
        report = analyze_hazards(
            ts, observable_nets=["q"], internal_nets=["set_plane"],
        )
        assert report.internal_glitches == {"set_plane": 2}
        assert report.internal_total == 2
        assert report.observable_glitches == {"q": 0}
        assert report.externally_hazard_free  # internal noise is fine

    def test_observable_wins_over_internal(self):
        """A net listed in both partitions is judged as observable."""
        stream = [(0.0, 0), (5.0, 1), (5.2, 0), (30.0, 1)]
        ts = traces_from(q=stream)
        report = analyze_hazards(
            ts, observable_nets=["q"], internal_nets=["q"],
        )
        assert report.observable_glitches == {"q": 1}
        assert "q" not in report.internal_glitches
        assert not report.externally_hazard_free

    def test_default_internal_universe_is_all_traced_nets(self):
        stream = [(0.0, 0), (5.0, 1), (5.2, 0), (30.0, 1)]
        ts = traces_from(noisy=stream, q=[(0.0, 0), (10.0, 1)])
        report = analyze_hazards(ts, observable_nets=["q"])
        assert report.internal_glitches == {"noisy": 1}
        assert report.observable_glitches == {"q": 0}
