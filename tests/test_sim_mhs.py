"""Tests for the MHS flip-flop behavioural model (Figures 4 and 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import MhsParams, MhsState, celement_response, mhs_response

OMEGA, TAU = 0.4, 1.2
P = MhsParams(OMEGA, TAU)


class TestParams:
    def test_omega_must_be_below_tau(self):
        with pytest.raises(ValueError):
            MhsParams(omega=2.0, tau=1.0)

    def test_defaults_valid(self):
        assert MhsParams().omega < MhsParams().tau


class TestPulseResponse:
    """Figure 4: pulses < ω absorbed; ≥ ω translated forward by τ."""

    def test_narrow_pulse_absorbed(self):
        assert mhs_response([(1.0, 1.3)], P) == []

    def test_wide_pulse_fires_once(self):
        events = mhs_response([(1.0, 2.0)], P)
        assert events == [(1.0 + TAU, 1)]

    def test_threshold_pulse_fires(self):
        events = mhs_response([(1.0, 1.0 + OMEGA)], P)
        assert events == [(1.0 + TAU, 1)]

    def test_just_below_threshold_absorbed(self):
        assert mhs_response([(1.0, 1.0 + OMEGA - 0.01)], P) == []

    def test_stream_to_single_transition(self):
        """Property 3: a pulse stream produces exactly one transition."""
        train = [(0.5, 0.6), (1.0, 1.1), (1.5, 2.5), (3.0, 3.1), (4.0, 5.0)]
        events = mhs_response(train, P)
        assert len(events) == 1
        assert events[0] == (1.5 + TAU, 1)

    def test_all_runts_no_transition(self):
        train = [(k * 1.0, k * 1.0 + 0.2) for k in range(1, 6)]
        assert mhs_response(train, P) == []

    def test_already_set_ignores_pulses(self):
        # the first pulse sets q; the second finds it set and does nothing
        assert mhs_response([(1.0, 3.0), (5.0, 7.0)], P) == [(1.0 + P.tau, 1)]

    def test_bad_pulse_rejected(self):
        with pytest.raises(ValueError):
            mhs_response([(2.0, 1.0)], P)

    @given(st.lists(st.tuples(st.floats(0.01, 50), st.floats(0.01, 3)), max_size=8))
    def test_at_most_one_transition(self, raw):
        t = 0.0
        train = []
        for gap, width in raw:
            start = t + gap
            train.append((start, start + width))
            t = start + width
        events = mhs_response(train, P)
        assert len(events) <= 1
        if events:
            # the transition is τ after the leading edge of some pulse
            assert any(abs(events[0][0] - (s + TAU)) < 1e-9 for s, _ in train)

    def test_celement_fires_on_runt(self):
        """The ablation contrast: a C-element commits on any pulse."""
        train = [(1.0, 1.05)]
        assert mhs_response(train, P) == []
        assert celement_response(train, TAU) == [(1.0 + TAU, 1)]


class TestOverlapHandling:
    def test_transient_overlap_tolerated(self):
        st_ = MhsState(params=P, q=0)
        # stale reset still high while set rises (one ack-gate delay)
        st_.on_reset_edge(0.0, 1)
        st_.on_set_edge(0.1, 1)
        st_.on_reset_edge(0.6, 0)   # resolves 0.5 later
        assert st_.overlaps == [(0.1, 0.6)]
        assert st_.violations == []
        # the set window opened when reset released
        commits = st_.check_windows(0.6 + P.omega)
        assert commits == [(0.6 + P.tau, 1)]

    def test_persistent_overlap_flagged(self):
        st_ = MhsState(params=P, q=0, overlap_tolerance=1.0)
        st_.on_set_edge(0.0, 1)
        st_.on_reset_edge(0.1, 1)
        st_.on_reset_edge(5.0, 0)
        assert st_.violations

    def test_conflict_interrupts_window(self):
        st_ = MhsState(params=P, q=0)
        st_.on_set_edge(0.0, 1)
        st_.on_reset_edge(0.1, 1)  # conflict before ω elapsed
        assert st_.check_windows(10.0) == []

    def test_apply_commit_changes_q(self):
        st_ = MhsState(params=P, q=0)
        st_.on_set_edge(0.0, 1)
        commits = st_.check_windows(P.omega)
        assert commits == [(P.tau, 1)]
        assert st_.apply_commit(P.tau, 1)
        assert st_.q == 1
        assert not st_.apply_commit(P.tau, 1)  # idempotent

    def test_reset_side_symmetric(self):
        st_ = MhsState(params=P, q=1)
        st_.on_reset_edge(2.0, 1)
        commits = st_.check_windows(2.0 + P.omega)
        assert commits == [(2.0 + P.tau, 0)]

    def test_window_deadline(self):
        st_ = MhsState(params=P, q=0)
        assert st_.window_deadline() is None
        st_.on_set_edge(3.0, 1)
        assert st_.window_deadline() == pytest.approx(3.0 + P.omega)
