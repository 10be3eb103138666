"""The dense view of a state graph and its round trip through pickle.

:meth:`StateGraph.dense` numbers states ``0..N-1`` in insertion order;
a region's :meth:`~repro.sg.regions.Region.bits` are a bitset over
those numbers, kept for the view that built them and recomputed for
any other.  The view is memoized on the graph, dropped by every mutator
and never pickled, so a graph loaded from the artifact store rebuilds
it with the same numbering and equal region bitsets, and regions read
against a differently numbered graph still name the right states.
"""

import pickle

from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS, muller_pipeline
from repro.core.sop_derivation import derive_sop_spec
from repro.sg.graph import DenseGraph, StateGraph, Transition
from repro.sg.regions import (
    check_output_trapping,
    quiescent_region_of,
    signal_regions,
    trigger_region_reachable_from_all,
    trigger_regions,
)
from repro.stg import elaborate


def _regions(sg) -> dict:
    return {a: signal_regions(sg, a) for a in sg.non_inputs}


class TestDenseView:
    def test_numbering_follows_insertion_order(self, celem_sg):
        view = celem_sg.dense()
        assert view.ids == list(celem_sg.states())
        assert view.codes == [celem_sg.code(s) for s in view.ids]
        for i, s in enumerate(view.ids):
            want = [(t.signal, t.direction, view.ids.index(d)) for t, d in celem_sg.successors(s)]
            assert list(view.succ[i]) == want
            for a, direction, j in view.succ[i]:
                assert view.nxt[i * celem_sg.num_signals + a] == j
                assert (view.up if direction == 1 else view.down)[i] >> a & 1
                assert i in view.pred[j]

    def test_memoized_and_dropped_by_every_mutator(self, celem_sg):
        view = celem_sg.dense()
        assert celem_sg.dense() is view
        celem_sg.set_initial(celem_sg.initial)
        assert celem_sg.dense() is not view
        view = celem_sg.dense()
        celem_sg.add_state("extra", 0)
        assert celem_sg.dense() is not view and len(celem_sg.dense()) == len(view) + 1
        view = celem_sg.dense()
        c = celem_sg.signal_index("c")
        celem_sg.add_arc("extra", Transition(c, 1), next(
            s for s in celem_sg.states() if celem_sg.code(s) == 1 << c
        ))
        assert celem_sg.dense() is not view

    def test_bitset_round_trip(self, celem_sg):
        view = celem_sg.dense()
        for numbers in ([], [0], [1, 3], list(range(len(view)))):
            bits = view.bitset(numbers)
            assert bits == sum(1 << i for i in numbers)
            assert view.numbers(bits) == numbers
            assert view.states_of(bits) == frozenset(view.ids[i] for i in numbers)
            assert view.codes_of(bits) == {view.codes[i] for i in numbers}

    def test_region_bits_match_states(self):
        sg = elaborate(DISTRIBUTIVE_BENCHMARKS["chu150"][0]())
        view = sg.dense()
        for sr in _regions(sg).values():
            for r in sr.excitation + sr.quiescent + [t for ts in sr.triggers for t in ts]:
                assert view.states_of(r.bits(view)) == r.states

    def test_regions_listed_by_lowest_state_number(self):
        sg = elaborate(muller_pipeline(4))
        view = sg.dense()
        for sr in _regions(sg).values():
            for direction in (1, -1):
                firsts = [min(view.numbers(r.bits(view))) for r in sr.excitation if r.direction == direction]
                assert firsts == sorted(firsts)
            assert [r.direction for r in sr.excitation] == sorted(
                (r.direction for r in sr.excitation), reverse=True
            )
            for trs in sr.triggers:
                firsts = [min(view.numbers(t.bits(view))) for t in trs]
                assert firsts == sorted(firsts)


class TestPickle:
    def test_dense_view_is_not_pickled_and_is_rebuilt(self):
        sg = elaborate(muller_pipeline(5))
        regions = _regions(sg)
        assert isinstance(sg._dense, DenseGraph)
        blob = pickle.dumps(sg)
        assert b"DenseGraph" not in blob
        loaded = pickle.loads(blob)
        assert loaded._dense is None
        assert "_dense" not in loaded.__dict__
        # the region memo travels with the graph, without its bitsets ...
        assert loaded._regions == regions
        assert all(
            "_bits_in" not in r.__dict__
            for sr in loaded._regions.values()
            for r in sr.excitation + sr.quiescent
        )
        # ... and the rebuilt view numbers states as before, so the
        # recomputed bitsets are equal
        view, old = loaded.dense(), sg.dense()
        assert view.ids == old.ids
        assert view.succ == old.succ
        for a, sr in regions.items():
            for r, q in zip(sr.excitation + sr.quiescent,
                            loaded._regions[a].excitation + loaded._regions[a].quiescent):
                assert q.bits(view) == r.bits(old)

    def test_regions_recomputed_after_loading_are_equal(self):
        sg = elaborate(muller_pipeline(5))
        regions = _regions(sg)
        loaded = pickle.loads(pickle.dumps(sg))
        loaded._regions = None
        assert _regions(loaded) == regions
        for a, sr in regions.items():
            assert [r.bits(loaded.dense()) for r in loaded._regions[a].excitation] == [
                r.bits(sg.dense()) for r in sr.excitation
            ]

    def test_regions_artifact_round_trip(self):
        sg = elaborate(muller_pipeline(4))
        regions = _regions(sg)
        assert pickle.loads(pickle.dumps(regions)) == regions


class TestForeignNumbering:
    """Regions computed on a copy of a graph whose states were inserted
    in another order (as when a reordered spec file rebuilds the graph
    while the regions come from the store)."""

    @staticmethod
    def _reordered(sg: StateGraph) -> StateGraph:
        copy = StateGraph(sg.signals, sg.input_names)
        states = list(sg.states())[::-1]
        for s in states:
            copy.add_state(s, sg.code(s))
        for s in states:
            for t, d in sg.successors(s)[::-1]:
                copy.add_arc(s, t, d)
        copy.set_initial(sg.initial)
        return copy

    def test_region_walks_read_the_states_not_foreign_bits(self):
        sg = elaborate(muller_pipeline(4))
        copy = self._reordered(sg)
        assert copy.dense().ids != sg.dense().ids
        view = sg.dense()
        for a, sr in _regions(copy).items():
            ours = signal_regions(sg, a)
            assert set(sr.excitation) == set(ours.excitation)
            for er in sr.excitation:
                assert view.states_of(er.bits(view)) == er.states
                assert quiescent_region_of(sg, er) == ours.quiescent_after(er)
                assert set(trigger_regions(sg, er)) == set(
                    ours.triggers[ours.excitation.index(er)]
                )
                assert check_output_trapping(sg, er) == []
                assert trigger_region_reachable_from_all(sg, er)

    def test_sop_spec_from_foreign_regions(self):
        sg = elaborate(muller_pipeline(4))
        theirs = _regions(self._reordered(sg))

        def covers(spec):
            return [
                (f.signal, f.kind, f.on.cubes, f.dc.cubes, f.off.cubes)
                for f in spec.functions
            ]

        assert covers(derive_sop_spec(sg, regions=theirs)) == covers(derive_sop_spec(sg))
