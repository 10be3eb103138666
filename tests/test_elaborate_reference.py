"""Differential test: ``repro.stg.elaborate`` against the reference token game.

:func:`tests.sg_reference.elaborate` fires STG transitions on frozenset
markings and infers initial values from first polarities, sharing no
code with :mod:`repro.stg` (which compiles the net to place bitmasks).
Both must produce the same state ids ``(marking, code)`` in the same
order, the same codes and the same arcs, and must reject the same
broken nets with the matching exception type.  The whole id-keyed API
(successors and predecessors in firing order, ``succ``, ``enabled``,
the excitation queries) and the index tables are checked against the
reference arcs, before and after a pickle round trip.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS, muller_pipeline
from repro.fuzz.generator import derive_seed, generate_spec, knob_combinations
from repro.sg.graph import SGError, Transition
from repro.sg.sgformat import parse_sg
from repro.stg import ElaborationError, Stg, StgError, StgTransition, elaborate
from repro.stg import reachability

from tests import sg_reference as ref

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "fuzz-corpus"


def state_machine_stg(sg) -> Stg:
    """An STG whose token game walks ``sg``: one place per state, one
    transition instance per arc, one token on the initial state."""
    stg = Stg(
        [sg.signals[i] for i in sorted(sg.inputs)],
        [sg.signals[i] for i in sg.non_inputs],
        name="state-machine",
    )
    place = {s: stg.add_place(f"s{i}") for i, s in enumerate(sg.states())}
    count: dict = {}
    for s in sg.states():
        for t, d in sg.successors(s):
            count[t] = count.get(t, 0) + 1
            label = StgTransition(sg.signals[t.signal], t.direction, count[t])
            stg.arc_pt(place[s], label)
            stg.arc_tp(label, place[d])
    stg.mark(place[sg.initial])
    return stg


def assert_same_graph(stg: Stg) -> None:
    states, code, arcs = ref.elaborate(stg)
    sg = elaborate(stg)
    assert_matches(sg, states, code, arcs)
    assert_matches(pickle.loads(pickle.dumps(sg)), states, code, arcs)


def assert_matches(sg, states: list, code: dict, arcs: list) -> None:
    """``sg`` is the reference graph, through its whole id-keyed API
    and its index tables."""
    assert list(sg.states()) == states
    assert sg.initial == states[0]
    assert {s: sg.code(s) for s in sg.states()} == code
    want_succ: dict = {s: [] for s in states}
    want_pred: dict = {s: [] for s in states}
    for src, signal, direction, dst in arcs:
        want_succ[src].append((signal, direction, dst))
        want_pred[dst].append((src, signal, direction))
    got = {s: [(t.signal, t.direction, d) for t, d in sg.successors(s)] for s in sg.states()}
    assert got == want_succ
    got = {s: [(p, t.signal, t.direction) for p, t in sg.predecessors(s)] for s in sg.states()}
    assert got == want_pred
    for s in states:
        fired = {(a, d): dst for a, d, dst in want_succ[s]}
        assert [(t.signal, t.direction) for t in sg.enabled(s)] == list(fired)
        for a in range(len(sg.signals)):
            for d in (1, -1):
                assert sg.succ(s, Transition(a, d)) == fired.get((a, d))
            (t,) = [Transition(a, d) for b, d in fired if b == a] or [None]
            assert sg.excitation(s, a) == t
    # the index tables, recomputed from the reference arcs
    view = sg.dense()
    number = {s: i for i, s in enumerate(states)}
    ns = len(sg.signals)
    up, down, nxt = [0] * len(states), [0] * len(states), [-1] * (len(states) * ns)
    for src, signal, direction, dst in arcs:
        (up if direction == 1 else down)[number[src]] |= 1 << signal
        nxt[number[src] * ns + signal] = number[dst]
    assert view.number == number
    assert view.pred == [[number[p] for p, _a, _d in want_pred[s]] for s in states]
    assert (view.up, view.down, view.nxt) == (up, down, nxt)


@pytest.mark.parametrize(
    "build", [b for b, *_r in DISTRIBUTIVE_BENCHMARKS.values()], ids=list(DISTRIBUTIVE_BENCHMARKS)
)
def test_table2_suite(build):
    assert_same_graph(build())


@pytest.mark.parametrize("n", range(4, 9))
def test_muller_pipelines(n):
    assert_same_graph(muller_pipeline(n))


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.g")), ids=lambda p: p.stem)
def test_fuzz_corpus(path):
    assert_same_graph(state_machine_stg(parse_sg(path.read_text())))


@pytest.mark.parametrize("knobs", knob_combinations(signals=6), ids=lambda k: k.short())
def test_generated_specs(knobs):
    for i in range(10):
        assert_same_graph(state_machine_stg(generate_spec(derive_seed(11, i), knobs).sg))


def _net(arcs: list[tuple[str, str, str]], marked: list[str]) -> Stg:
    """A net over input ``a`` and output ``b`` from (place, transition,
    place) triples."""
    stg = Stg(["a"], ["b"])
    for pre, t, post in arcs:
        stg.arc_pt(pre, t)
        stg.arc_tp(t, post)
    stg.mark(*marked)
    return stg


BROKEN = {
    # a+ first on one branch of a choice, a- first on the other
    "mixed-polarity": (
        _net([("p0", "a+", "p1"), ("p0", "a-", "p2")], ["p0"]),
        ElaborationError,
        "signal 'a' has mixed first-transition polarity; declare its initial value explicitly",
    ),
    # a+ puts a token on the already marked p1
    "unsafe": (
        _net([("p0", "a+", "p1"), ("p1", "b+", "p2")], ["p0", "p1"]),
        StgError,
        "net not safe: firing a+ double-marks ['p1']",
    ),
    # a+ twice in a row
    "inconsistent": (
        _net([("p0", "a+/1", "p1"), ("p1", "a+/2", "p0")], ["p0"]),
        ElaborationError,
        "inconsistent STG: a+/2 enabled while a=1",
    ),
    # two instances of a+ from one state reach different states
    "nondeterministic": (
        _net([("p0", "a+/1", "p1"), ("p0", "a+/2", "p2"), ("p1", "a-/1", "p0"), ("p2", "a-/2", "p0")], ["p0"]),
        SGError,
        "transition +a not deterministic at (frozenset({'p0'}), 0)",
    ),
}

#: nets broken in two ways at once: (net, reference kind, error, message).
#: The unsafe firing wins over the mixed polarity of ``a``.
DOUBLY_BROKEN = {
    "unsafe-and-mixed-polarity": (
        _net([("p0", "a+", "p1"), ("p0", "a-", "p2"), ("p2", "b+", "p3")], ["p0", "p3"]),
        "unsafe",
        StgError,
        "net not safe: firing b+ double-marks ['p3']",
    ),
}


@pytest.mark.parametrize("kind", list(BROKEN))
def test_broken_nets_rejected_alike(kind):
    stg, error, message = BROKEN[kind]
    with pytest.raises(ref.Unelaboratable) as want:
        ref.elaborate(stg)
    assert want.value.kind == kind
    with pytest.raises(error) as got:
        elaborate(stg)
    assert type(got.value) is error
    assert str(got.value) == message


@pytest.mark.parametrize("name", list(DOUBLY_BROKEN))
def test_error_precedence_pinned(name):
    stg, kind, error, message = DOUBLY_BROKEN[name]
    with pytest.raises(ref.Unelaboratable) as want:
        ref.elaborate(stg)
    assert want.value.kind == kind
    with pytest.raises(error) as got:
        elaborate(stg)
    assert type(got.value) is error
    assert str(got.value) == message


def test_max_states_rejected_alike(monkeypatch):
    with pytest.raises(ref.Unelaboratable) as want:
        ref.elaborate(muller_pipeline(4), max_states=10)
    assert want.value.kind == "max-states"
    monkeypatch.setattr(reachability, "MAX_STATES", 10)
    with pytest.raises(ElaborationError) as got:
        elaborate(muller_pipeline(4))
    assert type(got.value) is ElaborationError
    assert str(got.value) == "state graph exceeded max_states"
    # the bound is exact in both
    n = len(ref.elaborate(muller_pipeline(4))[0])
    monkeypatch.setattr(reachability, "MAX_STATES", n)
    assert elaborate(muller_pipeline(4)).num_states == n
    monkeypatch.setattr(reachability, "MAX_STATES", n - 1)
    with pytest.raises(ElaborationError, match="^state graph exceeded max_states$"):
        elaborate(muller_pipeline(4))


def test_equal_instances_firing_alike_make_one_arc():
    # a+/1 and a+/2 are both enabled in {p0} and both lead to {p1}
    stg = _net([("p0", "a+/1", "p1"), ("p0", "a+/2", "p1"), ("p1", "a-", "p0")], ["p0"])
    assert_same_graph(stg)
    sg = elaborate(stg)
    assert [len(sg.successors(s)) for s in sg.states()] == [1, 1]
