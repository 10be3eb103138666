"""The storage of a state graph and its round trip through pickle.

:meth:`StateGraph.dense` returns the :class:`DenseGraph` the graph is
stored in: states numbered ``0..N-1`` in insertion order, which the
mutators extend in place.  The arcs are one flat table, in insertion
order; the per-state ``succ``/``pred`` lists are derived from it on
first read, and the code-space paths never read them.  A region's
:attr:`~repro.sg.regions.Region.bits` are a bitset over the numbers of
the storage it was computed on.  A pickle carries the ids (or markings),
codes and arc table; the index tables are rebuilt on loading, with the
same numbering, so a region pickles as its bitset and a reference to
the storage, and still names the same states after loading.
"""

import gc
import pickle
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.analysis.certify import certify_circuit
from repro.bench.circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    muller_pipeline,
)
from repro.bench.runner import sg_of
from repro.core import synthesize
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.pipeline import ArtifactStore, PipelineRun
from repro.sg.graph import DenseGraph, SGError, StateGraph, Transition
from repro.sg.regions import Region, signal_regions
from repro.sg.sgformat import parse_sg
from repro.stg import elaborate

from tests import sg_reference as ref
from tests.conftest import legacy_pickle
from tests.test_elaborate_reference import state_machine_stg

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "fuzz-corpus"


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

    def test_is_the_storage_and_mutators_extend_it_in_place(self, celem_sg):
        view = celem_sg.dense()
        assert celem_sg.dense() is view
        ns, n = celem_sg.num_signals, len(view)
        c = celem_sg.signal_index("c")
        er = signal_regions(celem_sg, c).excitation[0]
        bits, states = er.bits, er.states
        celem_sg.set_initial(celem_sg.initial)
        assert celem_sg.dense() is view and celem_sg._regions is None
        celem_sg.add_state("extra", 0)
        assert celem_sg.dense() is view and len(view) == n + 1
        assert (view.ids[n], view.codes[n], view.number["extra"]) == ("extra", 0, n)
        assert view.succ[n] == [] and view.pred[n] == []
        assert view.up[n] == view.down[n] == 0
        assert view.nxt[n * ns:] == [-1] * ns
        # numbers never change, so a region's bitset stays valid
        assert er.bits == bits == view.bitset(map(view.number.__getitem__, states))
        signal_regions(celem_sg, c)
        dst = next(s for s in celem_sg.states() if celem_sg.code(s) == 1 << c)
        j = view.number[dst]
        celem_sg.add_arc("extra", Transition(c, 1), dst)
        assert celem_sg.dense() is view and celem_sg._regions is None
        assert view.succ[n] == [(c, 1, j)] and view.pred[j][-1] == n
        assert view.up[n] == 1 << c and view.nxt[n * ns + c] == j
        # one Transition object per (signal, direction)
        (t, _d), = celem_sg.successors("extra")
        assert celem_sg.enabled("extra")[0] is t is celem_sg.excitation("extra", c)

    def test_bitset_round_trip(self, celem_sg):
        view = celem_sg.dense()
        for numbers in ([], [0], [1, 3], list(range(len(view)))):
            bits = view.bitset(numbers)
            assert bits == sum(1 << i for i in numbers)
            assert view.numbers(bits) == numbers
            assert list(view.labels(bits)) == [view.ids[i] for i in numbers]
            assert view.codes_of(bits) == {view.codes[i] for i in numbers}

    def test_region_bits_match_states(self):
        sg = elaborate(DISTRIBUTIVE_BENCHMARKS["chu150"][0]())
        view = sg.dense()
        for sr in _regions(sg).values():
            for r in sr.excitation + sr.quiescent + [t for ts in sr.triggers for t in ts]:
                assert set(view.labels(r.bits)) == r.states

    def test_regions_listed_by_lowest_state_number(self):
        sg = elaborate(muller_pipeline(4))
        view = sg.dense()
        for sr in _regions(sg).values():
            for direction in (1, -1):
                firsts = [min(view.numbers(r.bits)) for r in sr.excitation if r.direction == direction]
                assert firsts == sorted(firsts)
            assert [r.direction for r in sr.excitation] == sorted(
                (r.direction for r in sr.excitation), reverse=True
            )
            for trs in sr.triggers:
                firsts = [min(view.numbers(t.bits)) for t in trs]
                assert firsts == sorted(firsts)


class TestPickle:
    def test_pickle_carries_markings_codes_and_arcs_and_rebuilds_the_tables(self):
        sg = elaborate(muller_pipeline(5))
        regions = _regions(sg)
        old = sg.dense()
        state = sg.__getstate__()
        # the memoized analyses stay behind: a stored graph does not
        # depend on what was asked of it before
        assert set(state) == {"signals", "inputs", "_initial", "_dense"}
        assert state["_dense"] is old and state["_initial"] == 0
        ns, markings, codes, srcs, signals, dsts, places = old.__getstate__()
        assert (ns, markings, codes, places) == (5 + 2, old.markings, old.codes, old.places)
        # per arc, in insertion order: its source, its signal with the
        # direction in bit 0, and its destination
        assert list(srcs) == list(old.arc_src)
        assert [(a, d) for a, d in zip(signals, dsts)] == [
            (a << 1 | (direction == -1), d)
            for s, a in zip(old.arc_src, old.arc_signal)
            for b, direction, d in old.succ[s]
            if b == a
        ]
        blob = pickle.dumps(sg)
        assert b"Marking" not in blob and b"succ" not in blob
        loaded = pickle.loads(blob)
        again = pickle.loads(pickle.dumps(loaded))
        assert loaded._regions is None and loaded.dense()._succ is None
        # the rebuilt tables equal the originals, predecessors in arc
        # insertion order (which is not state order here), so the
        # bitsets name the same states
        assert any(p != sorted(p) for p in old.pred)
        for copy in (loaded, again):
            view = copy.dense()
            for name in (
                "places", "markings", "codes", "arc_src", "arc_signal",
                "up", "down", "nxt", "succ", "pred",
            ):
                assert getattr(view, name) == getattr(old, name), name
            # the ids are built on first read, equal to the originals
            assert view._ids is None and view._number is None
            for name in ("ids", "number"):
                assert getattr(view, name) == getattr(old, name), name
            assert copy.initial == sg.initial
            assert _regions(copy) == regions

    def test_graphs_with_id_lists_pickle_their_ids(self, celem_sg):
        view = celem_sg.dense()
        celem_sg.add_state("extra", 0)
        # a mutator turns an elaborated graph's labels into its id list
        assert view.places is view.markings is None
        _ns, ids, *_rest, places = view.__getstate__()
        assert ids == view.ids and places is None
        loaded = pickle.loads(pickle.dumps(celem_sg))
        assert loaded.dense().ids == view.ids and loaded.initial == celem_sg.initial

    def test_a_2_14_state_graph_pickles_in_under_600_kb(self):
        # 1.21 MB when every arc pickled as a tuple in a per-state list
        sg = elaborate(muller_pipeline(12))
        assert sg.num_states == 2 ** 14
        assert len(pickle.dumps(sg, pickle.HIGHEST_PROTOCOL)) <= 600_000

    def test_older_layout_is_refused(self):
        sg = elaborate(muller_pipeline(3))
        for layout in ("dicts", "ids", "lists"):
            with pytest.raises(SGError, match="older layout"):
                pickle.loads(legacy_pickle(sg, layout))

    def test_regions_recomputed_after_loading_are_equal(self):
        sg = elaborate(muller_pipeline(5))
        regions = _regions(sg)
        loaded = pickle.loads(pickle.dumps(sg))
        loaded._regions = None
        assert _regions(loaded) == regions
        for a, sr in regions.items():
            assert [r.bits for r in loaded._regions[a].excitation] == [
                r.bits for r in sr.excitation
            ]

    def test_regions_artifact_round_trip(self):
        sg = elaborate(muller_pipeline(4))
        regions = _regions(sg)
        loaded = pickle.loads(pickle.dumps(regions))
        assert loaded == regions
        # a region pickles its bitset and its graph's storage, which the
        # regions of one pickle share
        graphs = {id(r.graph) for sr in loaded.values() for r in sr.excitation + sr.quiescent}
        assert len(graphs) == 1
        for sr in regions.values():
            for r in sr.excitation + sr.quiescent:
                assert r.__getstate__() == (r.signal, r.direction, r.kind, sg.dense(), r.bits)

    def test_region_in_an_older_layout_is_refused(self, celem_sg):
        er = signal_regions(celem_sg, celem_sg.signal_index("c")).excitation[0]
        with pytest.raises(SGError, match="older layout"):
            Region.__new__(Region).__setstate__(
                {"signal": er.signal, "direction": er.direction, "kind": er.kind, "_ids": er.ids}
            )

    def test_stored_spec_and_circuit_hold_no_state_ids(self, tmp_path):
        """The ``sop-derivation`` payload and the circuit bytes inside
        the ``delays`` payload hold the graph once and its regions as
        bitsets, so no ``(Marking, code)`` id is pickled, and the
        regions read back name the same states."""
        store = ArtifactStore(str(tmp_path / "cache"))
        run = PipelineRun.from_sg(elaborate(muller_pipeline(4)), name="m4", store=store)
        circuit = run.synthesize()
        spec = circuit.spec

        def payload(stage):
            with open(store._payload_path(run.key_of(stage)), "rb") as f:
                return f.read()

        sop = payload("sop-derivation")
        blob = pickle.loads(payload("delays")).__getstate__()["circuit"]
        assert b"Marking" not in sop and b"Marking" not in blob
        for loaded in (pickle.loads(sop), pickle.loads(blob).spec):
            assert loaded.regions.keys() == spec.regions.keys()
            for a, sr in spec.regions.items():
                mine, theirs = loaded.regions[a], sr
                for r, q in zip(
                    theirs.excitation + theirs.quiescent + sum(theirs.triggers, []),
                    mine.excitation + mine.quiescent + sum(mine.triggers, []),
                ):
                    assert q.graph is loaded.sg.dense() and q.states == r.states


class TestCopies:
    """``restrict_to_reachable``, ``subgraph`` and ``without_arc`` keep
    the states, each state's arcs and each state's predecessors in their
    insertion order."""

    def test_copies_keep_insertion_order(self):
        sg = elaborate(DISTRIBUTIVE_BENCHMARKS["chu133"][0]())
        states = list(sg.states())
        for copy in (sg.restrict_to_reachable(), sg.subgraph(states)):
            assert list(copy.states()) == states and copy.initial == sg.initial
            for s in states:
                assert copy.successors(s) == sg.successors(s)
                assert copy.predecessors(s) == sg.predecessors(s)

    def test_subgraph_keeps_the_arcs_among_kept_states(self):
        sg = elaborate(DISTRIBUTIVE_BENCHMARKS["chu133"][0]())
        kept = list(sg.states())[1:-2]
        sub = sg.subgraph(reversed(kept))
        assert list(sub.states()) == kept
        # the initial state is dropped, so the first kept state is initial
        assert sub.initial == kept[0]
        for s in kept:
            assert sub.successors(s) == [(t, d) for t, d in sg.successors(s) if d in kept]
            assert sub.predecessors(s) == [(p, t) for p, t in sg.predecessors(s) if p in kept]

    def test_without_arc_drops_one_arc(self):
        sg = elaborate(muller_pipeline(4))
        src = list(sg.states())[5]
        (t, dst), *rest = sg.successors(src)
        copy = sg.without_arc(src, t)
        assert copy.successors(src) == rest and copy.succ(src, t) is None
        assert copy.predecessors(dst) == [(p, u) for p, u in sg.predecessors(dst) if p != src]
        assert sum(len(copy.successors(s)) for s in copy.states()) == sum(
            len(sg.successors(s)) for s in sg.states()
        ) - 1
        # an arc that is not there leaves an equal copy
        assert sg.without_arc(src, t.opposite()).describe() == sg.describe()


class TestLabelsOnDemand:
    """An elaborated graph keeps each marking as a place bitmask and
    builds a state's ``(Marking, code)`` id only where one is read."""

    def test_an_elaborated_graph_keeps_under_a_kilobyte_per_state(self):
        stg = muller_pipeline(10)
        elaborate(muller_pipeline(3))  # first-call imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sg = elaborate(stg)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert sg.num_states == 2 ** 12
        # with an id and an index entry per state it was ~1,500 B/state,
        # with a list per state and a tuple per arc ~680 B/state
        assert kept / sg.num_states <= 500

    def test_synthesis_and_certification_build_only_the_rendered_labels(self, monkeypatch):
        built = []
        label = DenseGraph.label
        monkeypatch.setattr(
            DenseGraph, "label", lambda view, i: built.append(i) or label(view, i)
        )
        sg = elaborate(muller_pipeline(6))
        cert = certify_circuit(synthesize(sg, name="pipe"))
        assert cert.fully_proved
        view = sg.dense()
        assert view._ids is None and view._number is None
        # the HZ001 witnesses render the states of every trigger region
        rendered = [
            i
            for sr in sg._regions.values()
            for trs in sr.triggers
            for tr in trs
            for i in view.numbers(tr.bits)
        ]
        assert rendered and sorted(built) == sorted(rendered)
        # the labels are the ids the id-keyed API reads
        assert [view.label(i) for i in range(len(view))] == view.ids


def _stgs() -> list:
    """The STGs the arc-table checks elaborate: the 25 Table 2 specs
    (the non-distributive ones, built as state graphs, through a
    state-machine STG), the fuzz corpus, Muller pipelines 2-8 and
    generated 6- and 8-signal specs."""
    out = [(n, lambda b=b: b()) for n, (b, *_r) in DISTRIBUTIVE_BENCHMARKS.items()]
    out += [
        (n, lambda b=b: state_machine_stg(b())) for n, (b, *_r) in NONDISTRIBUTIVE_BENCHMARKS.items()
    ]
    out += [
        (p.stem, lambda p=p: state_machine_stg(parse_sg(p.read_text())))
        for p in sorted(CORPUS.glob("*.g"))
    ]
    out += [(f"muller{k}", lambda k=k: muller_pipeline(k)) for k in range(2, 9)]
    for signals, seeds in ((6, 10), (8, 3)):
        out += [
            (
                f"{knobs.short()}{signals}-{i}",
                lambda knobs=knobs, i=i: state_machine_stg(
                    generate_spec(derive_seed(11, i), knobs).sg
                ),
            )
            for knobs in knob_combinations(signals=signals)
            for i in range(seeds)
        ]
    return out


STGS = _stgs()


class TestArcTable:
    """The flat arc table against an independent reading: the tables
    an elaborated graph derives from it (``succ``, ``pred``) and keeps
    (``up``, ``down``, ``nxt``), and its arc count, equal those computed
    straight from the reference token game's arc list, and those of a
    graph built from that list by ``add_state``/``add_arc``.  The error
    texts of broken nets are pinned in ``test_elaborate_reference.py``."""

    @pytest.mark.parametrize("build", [b for _, b in STGS], ids=[n for n, _ in STGS])
    def test_tables_match_an_add_arc_build(self, build):
        stg = build()
        states, code, arcs = ref.elaborate(stg)
        sg = elaborate(stg)
        built = StateGraph(sg.signals, sg.inputs)
        for s in states:
            built.add_state(s, code[s])
        for src, a, direction, dst in arcs:
            built.add_arc(src, Transition(a, direction), dst)
        number = {s: i for i, s in enumerate(states)}
        n, ns = len(states), sg.num_signals
        succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
        up, down, nxt = [0] * n, [0] * n, [-1] * (n * ns)
        for src, a, direction, dst in arcs:
            i, j = number[src], number[dst]
            succ[i].append((a, direction, j))
            pred[j].append(i)
            (up if direction == 1 else down)[i] |= 1 << a
            nxt[i * ns + a] = j
        want = (code, succ, pred, up, down, nxt, len(arcs))
        for graph in (sg, built, pickle.loads(pickle.dumps(sg))):
            view = graph.dense()
            got = (
                {s: view.codes[i] for s, i in number.items()},
                view.succ, view.pred, view.up, view.down, view.nxt, len(view.arc_src),
            )
            assert got == want
            assert view.ids == states

    def test_synthesis_and_certification_build_no_arc_lists(self, monkeypatch):
        """On a graph with a code space, synthesis and certification
        read the codes and ``up``/``down``/``nxt`` alone."""
        reads = []
        for name in ("succ", "pred"):
            table = getattr(DenseGraph, name)
            monkeypatch.setattr(
                DenseGraph,
                name,
                property(lambda view, t=table, n=name: reads.append(n) or t.fget(view)),
            )
        sg = elaborate(muller_pipeline(6))
        cert = certify_circuit(synthesize(sg, name="pipe"))
        assert cert.fully_proved and reads == []
        assert sg.dense()._succ is None and sg.dense()._pred is None
        # the id-keyed API derives them on first read
        small = elaborate(muller_pipeline(2))
        assert small.successors(small.initial) and small.predecessors(small.initial)
        assert set(reads) == {"succ", "pred"}
        assert small.dense()._succ is not None and small.dense()._pred is not None

    def test_a_synthesized_graph_is_freed_without_the_cyclic_gc(self):
        """The regions memoized on a graph reference its storage, not
        the graph, so dropping the last reference frees it at once."""
        sg = sg_of("chu150")
        gc.collect()
        gc.disable()
        try:
            circuit = synthesize(sg, name="chu150")
            memoized = bool(sg._regions)
            alive = weakref.ref(sg)
            del sg, circuit
            freed = alive() is None
        finally:
            gc.enable()
        assert memoized and freed
