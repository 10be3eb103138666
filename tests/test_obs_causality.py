"""The causal flight recorder and its `repro explain` engine.

The acceptance property: for a paper-suite circuit, the recorder must
reproduce a causal chain from an MHS-filtered pulse back to a specific
environment input transition — organically under the stress ladder
where the physics allows it, via the causally-anchored probe where the
SOP planes are exactly the trigger cubes and can never shed a runt.
"""

import pytest

from repro.bench.runner import sg_of
from repro.core import synthesize, verify_hazard_freeness
from repro.obs.causality import (
    CAUSALITY_SCHEMA,
    CausalChain,
    FlightRecorder,
    RecordedEvent,
    find_filtered_chain,
    _probe_chain,
)


def _ev(seq, cause=None, *, kind="net", net="a", value=1, time=1.0, gate=None):
    return RecordedEvent(
        seq=seq, time=time, kind=kind, net=net, value=value,
        cause=cause, gate=gate,
    )


# ----------------------------------------------------------------------
# dataclass behavior
# ----------------------------------------------------------------------
class TestRecordedEvent:
    def test_describe_net(self):
        s = _ev(1, gate="set_c_g1").describe()
        assert "a -> 1" in s and "set_c_g1" in s

    def test_describe_filtered(self):
        ev = RecordedEvent(
            seq=-1, time=2.0, kind="mhs-filtered",
            cause=5, gate="mhs_c", width=0.2,
        )
        assert "ω-filtered" in ev.describe()
        assert "0.200" in ev.describe()

    def test_to_dict_drops_net_fields_for_derived(self):
        ev = RecordedEvent(
            seq=-1, time=2.0, kind="mhs-filtered",
            cause=5, gate="mhs_c", width=0.2,
        )
        d = ev.to_dict()
        assert "net" not in d
        assert d["width"] == pytest.approx(0.2)


class TestCausalChain:
    def _chain(self, inputs=("a",), truncated=False):
        events = [_ev(1, net="a"), _ev(2, cause=1, net="c", gate="g")]
        return CausalChain(
            target=events[-1], events=events,
            truncated=truncated, inputs=frozenset(inputs),
        )

    def test_environment_rooted(self):
        assert self._chain().environment_rooted
        # same root net, but not a primary input of this netlist
        assert not self._chain(inputs=("x",)).environment_rooted
        # a truncated walk cannot claim its root is the true origin
        assert not self._chain(truncated=True).environment_rooted

    def test_origin_naming(self):
        doc = self._chain().to_json_doc()
        assert doc["schema"] == CAUSALITY_SCHEMA
        assert doc["origin"] == "environment input transition a -> 1"
        assert doc["depth"] == 2
        assert [e["seq"] for e in doc["chain"]] == [1, 2]

    def test_render_truncation_flag(self):
        text = self._chain(truncated=True).render_text()
        assert "TRUNCATED" in text
        assert "history evicted" in text

    def test_render_elides_long_chains(self):
        events = [_ev(1)] + [_ev(i, cause=i - 1) for i in range(2, 101)]
        chain = CausalChain(
            target=events[-1], events=events, inputs=frozenset("a")
        )
        text = chain.render_text(max_steps=10)
        assert "90 intermediate event(s) elided" in text
        assert text.count("\n") < 20  # capped, not 100 lines


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_minimum_budget(self):
        with pytest.raises(ValueError):
            FlightRecorder(budget=4)

    def _chained(self, rec, n):
        rec.on_event(0, 0.0, "net", "a", 1, None, None)
        for seq in range(1, n):
            rec.on_event(seq, float(seq), "net", "c", seq % 2, seq - 1, "g")

    def test_explain_walks_to_root(self):
        rec = FlightRecorder(budget=64)
        self._chained(rec, 10)
        chain = rec.explain(9)
        assert chain.depth == 10
        assert chain.root.seq == 0
        assert not chain.truncated

    def test_eviction_counts_and_truncates(self):
        rec = FlightRecorder(budget=16)
        self._chained(rec, 40)  # 24 oldest evicted
        assert len(rec) == 16
        assert rec.dropped == 24
        chain = rec.explain(39)
        assert chain.truncated
        assert chain.dropped == 24
        assert chain.root.seq == 24  # the oldest survivor

    def test_explain_unknown_seq_raises(self):
        rec = FlightRecorder(budget=16)
        with pytest.raises(KeyError):
            rec.explain(999)

    def test_filtered_pulse_bookkeeping(self):
        rec = FlightRecorder(budget=16)
        self._chained(rec, 5)
        rec.on_filtered(5.0, gate="mhs_c", width=0.1, cause=4)
        (pulse,) = rec.filtered_pulses()
        assert pulse.seq < 0  # derived events never collide with queue seqs
        chain = rec.explain_last_filtered()
        assert chain.target is pulse
        assert chain.root.seq == 0

    def test_evicted_filtered_pulse_forgotten(self):
        rec = FlightRecorder(budget=16)
        rec.on_filtered(0.0, gate="mhs_c", width=0.1, cause=None)
        self._chained(rec, 20)  # pushes the derived event out
        assert rec.filtered_pulses() == []
        assert rec.explain_last_filtered() is None

    def test_find_net_event_nearest_in_time(self):
        rec = FlightRecorder(budget=16)
        rec.on_event(0, 1.0, "net", "c", 1, None, None)
        rec.on_event(1, 9.0, "net", "c", 0, 0, None)
        assert rec.find_net_event("c").seq == 1  # latest by default
        assert rec.find_net_event("c", at=2.0).seq == 0
        assert rec.find_net_event("c", value=1).seq == 0
        assert rec.find_net_event("nope") is None


# ----------------------------------------------------------------------
# against the real simulator
# ----------------------------------------------------------------------
class TestRecorderWiring:
    def test_verify_records_environment_rooted_dag(self, celem_sg):
        circuit = synthesize(celem_sg, name="celem", delay_spread=0.0)
        rec = FlightRecorder()
        summary = verify_hazard_freeness(circuit, runs=1, recorder=rec)
        assert summary.ok
        nets = [ev for ev in rec._events.values() if ev.kind == "net"]
        assert nets, "a closed-loop run must record net events"
        roots = [ev for ev in nets if ev.cause is None]
        assert roots and all(ev.net in ("a", "b") for ev in roots)
        # any derived-net change must explain back to an input transition
        derived = [ev for ev in nets if ev.net not in ("a", "b")]
        assert derived
        assert rec.explain(derived[-1]).environment_rooted

    def test_clean_run_has_no_causes(self, celem_sg):
        circuit = synthesize(celem_sg, name="celem", delay_spread=0.0)
        summary = verify_hazard_freeness(
            circuit, runs=1, recorder=FlightRecorder()
        )
        assert all(r.causes == [] for r in summary.runs)


class TestFindFilteredChain:
    def test_organic_chain_on_converta(self):
        """The stress ladder catches a real runt being absorbed."""
        circuit = synthesize(sg_of("converta"), name="converta",
                             delay_spread=0.0)
        chain, info = find_filtered_chain(circuit, seeds=8)
        assert chain is not None
        assert info["mode"] == "organic"
        assert chain.environment_rooted
        assert chain.target.kind == "mhs-filtered"
        assert 0.0 < chain.target.width < 0.4  # sub-ω by construction

    def test_probe_chain_is_causally_anchored(self, celem_sg):
        """The probe rides an input event, so the injected runt's chain
        genuinely roots at that environment transition."""
        circuit = synthesize(celem_sg, name="celem", delay_spread=0.0)
        chain, info = _probe_chain(circuit)
        assert chain is not None
        assert info["mode"] == "probe"
        assert chain.environment_rooted
        assert chain.root.net in ("a", "b")
        assert chain.target.kind == "mhs-filtered"
        assert chain.target.width == pytest.approx(info["runt_width"])

    def test_empty_sweep_falls_back_to_probe(self, handshake_sg):
        # chu133-class physics: planes are exactly the trigger cubes,
        # so the sweep comes back empty-handed and the probe answers
        circuit = synthesize(handshake_sg, name="hs", delay_spread=0.0)
        chain, info = find_filtered_chain(circuit, seeds=2)
        assert chain is not None and chain.environment_rooted
        assert info["mode"] in ("organic", "probe")


@pytest.mark.slow
class TestPaperSuiteAcceptance:
    def test_every_circuit_explains_a_filtered_pulse(self):
        """ISSUE acceptance: every paper-suite circuit reproduces a
        causal chain from an MHS-filtered pulse back to a specific
        environment input transition."""
        from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS

        for name in DISTRIBUTIVE_BENCHMARKS:
            circuit = synthesize(sg_of(name), name=name, delay_spread=0.0)
            chain, info = find_filtered_chain(circuit, seeds=16)
            assert chain is not None, f"{name}: no chain found"
            assert chain.environment_rooted, f"{name}: {info}"
            assert "environment input transition" in chain.to_json_doc()[
                "origin"
            ], name
