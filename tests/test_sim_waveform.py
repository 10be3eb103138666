"""TraceSet / Waveform edge cases and the ω-margin helper."""

import pytest

from repro.sim.hazards import omega_margins
from repro.sim.waveform import TraceSet, Waveform


class TestEmptyWaveform:
    """A net that never changed must degrade gracefully everywhere."""

    def test_defaults(self):
        w = Waveform("idle")
        assert w.changes == []
        assert w.value_at(0.0) == 0 and w.value_at(1e9) == 0

    def test_pulses_empty(self):
        w = Waveform("idle")
        assert w.pulses() == []
        assert w.glitch_pulses(1.0) == []

    def test_value_at(self):
        assert Waveform("idle").value_at(5.0) == 0

    def test_render(self):
        assert "(no data)" in Waveform("idle").render()


class TestOutOfOrderEvents:
    def test_record_rejects_time_travel(self):
        w = Waveform("n")
        w.record(0.0, 0)
        w.record(2.0, 1)
        with pytest.raises(ValueError, match="non-monotonic"):
            w.record(1.0, 0)

    def test_traceset_record_rejects_time_travel(self):
        ts = TraceSet()
        ts.record("n", 3.0, 1)
        with pytest.raises(ValueError, match="non-monotonic"):
            ts.record("n", 2.0, 0)

    def test_equal_time_is_fine(self):
        """Zero-delay glitches land at the same timestamp legally."""
        w = Waveform("n")
        w.record(1.0, 0)
        w.record(1.0, 1)
        assert len(w.changes[1:]) == 1

    def test_redundant_value_ignored(self):
        w = Waveform("n")
        w.record(0.0, 1)
        w.record(5.0, 1)
        assert w.changes == [(0.0, 1)]


class TestUnknownNet:
    def test_get_returns_none(self):
        assert TraceSet().get("ghost") is None

    def test_getitem_raises(self):
        with pytest.raises(KeyError):
            TraceSet()["ghost"]

    def test_contains(self):
        ts = TraceSet()
        ts.record("real", 0.0, 0)
        assert "real" in ts
        assert "ghost" not in ts

    def test_nets_iterates(self):
        ts = TraceSet()
        ts.record("a", 0.0, 0)
        ts.record("b", 0.0, 1)
        assert sorted(ts.nets()) == ["a", "b"]


class TestOmegaMargins:
    """The two distances to the Theorem 2 threshold."""

    def test_both_populations(self):
        m = omega_margins([0.1, 0.3], [0.9, 0.6], omega=0.4)
        assert m["filtered"] == pytest.approx(0.1)   # 0.4 - 0.3
        assert m["surviving"] == pytest.approx(0.2)  # 0.6 - 0.4
        assert m["min"] == pytest.approx(0.1)

    def test_only_surviving(self):
        m = omega_margins([], [1.0], omega=0.4)
        assert m["filtered"] is None
        assert m["surviving"] == pytest.approx(0.6)
        assert m["min"] == pytest.approx(0.6)

    def test_only_filtered(self):
        m = omega_margins([0.35], [], omega=0.4)
        assert m["surviving"] is None
        assert m["min"] == pytest.approx(0.05)

    def test_empty(self):
        m = omega_margins([], [], omega=0.4)
        assert m == {"surviving": None, "filtered": None, "min": None}
