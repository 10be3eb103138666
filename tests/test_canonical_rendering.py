"""Certificate text does not depend on how the state graphs arrived.

Elaborated state ids hold frozensets of STG place names.  Their
iteration order depends on the hash seed and on how the set was built,
so an SG unpickled from the artifact store can iterate differently from
a freshly elaborated one.  Every witness renders states through
:func:`repro.sg.graph.render_state` (place sets sorted), and regions
are listed by dense state number, so the suite certificate must be
byte-identical across hash seeds and between a storeless run and a run
against a store that ``repro table2`` filled.  The graph's own text
forms, ``StateGraph.describe`` and the DOT export, are seed-independent
too, and so are the baselines' static-1 pairs and covers and the arc
order of a graph's copies.  Store entries are byte-identical across hash
seeds as well: a pickled state id carries its place set sorted
(:class:`repro.sg.graph.Marking`) and a pickled region its ids in
state-number order.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.sg.graph import Marking, render_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CERTIFY = ["certify", "--suite", "--format", "json", "--spread", "0.4"]


def _repro(args: list[str], seed: int, cwd: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(seed)
    env.pop("REPRO_CACHE_DIR", None)
    out = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=True,
    )
    return out.stdout


def test_certify_suite_is_byte_identical_across_seeds_and_stores(tmp_path):
    storeless = [_repro([*CERTIFY, "--no-cache"], seed, str(tmp_path)) for seed in (0, 1, 2)]
    assert storeless[0] == storeless[1] == storeless[2]
    assert '"witness"' in storeless[0]

    store = str(tmp_path / "store")
    _repro(["table2", "--cache-dir", store], 1, str(tmp_path))
    cached = _repro([*CERTIFY, "--cache-dir", store], 2, str(tmp_path))
    assert cached == storeless[0]


def _payload_digests(store: Path) -> dict[str, tuple[str, str]]:
    """Per entry key: (stage, sha256 of the pickled payload)."""
    out = {}
    for meta in store.glob("objects/*/*.json"):
        stage = json.loads(meta.read_text())["stage"]
        out[meta.stem] = (stage, hashlib.sha256(meta.with_suffix(".pkl").read_bytes()).hexdigest())
    return out


def test_store_entries_are_byte_identical_across_seeds(tmp_path):
    specs = ["chu133", "hybridf", "wrdatab"]
    digests = []
    for seed in (0, 1):
        store = tmp_path / f"store{seed}"
        _repro(["table2", *specs, "--cache-dir", str(store)], seed, str(tmp_path))
        digests.append(_payload_digests(store))
    assert digests[0].keys() == digests[1].keys()
    # the signal regions are checked inside the sop-derivation entry
    stages = {"sg-build", "sop-derivation", "delays"}
    checked = {key: entry for key, entry in digests[0].items() if entry[0] in stages}
    assert len(checked) == len(stages) * len(specs)
    for key, entry in checked.items():
        assert digests[1][key] == entry, entry[0]


def test_marking_pickles_sorted_and_equals_its_frozenset():
    places = [f"p{i}" for i in range(40)]
    m = Marking(places[::-1])
    assert m == frozenset(places) and hash(m) == hash(frozenset(places))
    assert repr(m) == repr(frozenset(m))
    assert pickle.dumps(m) == pickle.dumps(Marking(places))
    loaded = pickle.loads(pickle.dumps((m, 3)))
    assert loaded == (frozenset(places), 3) and type(loaded[0]) is Marking


def test_sg_exports_are_byte_identical_across_seeds(tmp_path):
    code = (
        "from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS\n"
        "from repro.sg import sg_to_dot, signal_regions\n"
        "from repro.stg import elaborate\n"
        "sg = elaborate(DISTRIBUTIVE_BENCHMARKS['chu150'][0]())\n"
        "sr = signal_regions(sg, sg.non_inputs[0])\n"
        "print(sg_to_dot(sg, sr.excitation + sr.quiescent))\n"
        "print(sg.describe())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    texts = set()
    for seed in (0, 1, 2):
        env["PYTHONHASHSEED"] = str(seed)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=str(tmp_path), check=True,
        )
        texts.add(out.stdout)
    assert len(texts) == 1


def test_baseline_pairs_and_covers_are_identical_across_seeds(tmp_path):
    """Lavagno's static-1 pairs are listed, and tried, by dense state
    number, so neither their order nor the covers the repair builds
    from them depend on the hash seed."""
    code = (
        "from repro.baselines import next_state_function\n"
        "from repro.baselines.hazard_free_sop import _static_one_arcs\n"
        "from repro.baselines import synthesize_lavagno\n"
        "from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS\n"
        "from repro.bench.circuits.handshakes import muller_pipeline\n"
        "from repro.sg.graph import render_state\n"
        "from repro.stg import elaborate\n"
        "for stg in (muller_pipeline(3), DISTRIBUTIVE_BENCHMARKS['chu133'][0]()):\n"
        "    sg = elaborate(stg)\n"
        "    for a in sg.non_inputs:\n"
        "        label = sg.dense().label\n"
        "        arcs = _static_one_arcs(sg, next_state_function(sg, a))\n"
        "        print(a, [(render_state(label(s)), render_state(label(d))) for s, _b, d in arcs])\n"
        "    for a, cover in synthesize_lavagno(sg).covers.items():\n"
        "        print(a, [c.input_string() for c in cover.cubes])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    texts = set()
    for seed in (0, 1):
        env["PYTHONHASHSEED"] = str(seed)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=str(tmp_path), check=True,
        )
        texts.add(out.stdout)
    assert len(texts) == 1
    assert "frozenset" in texts.pop()


def test_graph_copies_are_identical_across_seeds(tmp_path):
    """Copies list states, arcs and predecessors in insertion order, so
    a copy's ``predecessors()`` order does not depend on the hash seed."""
    code = (
        "from repro.bench.circuits import DISTRIBUTIVE_BENCHMARKS, NONDISTRIBUTIVE_BENCHMARKS\n"
        "from repro.sg.graph import render_state\n"
        "from repro.stg import elaborate\n"
        "sg = elaborate(DISTRIBUTIVE_BENCHMARKS['chu133'][0]())\n"
        "first = next(sg.states())\n"
        "copies = [sg.restrict_to_reachable(), sg.subgraph(list(sg.states())[:-2]),\n"
        "          sg.without_arc(first, sg.enabled(first)[0]),\n"
        "          NONDISTRIBUTIVE_BENCHMARKS['pmcm1'][0]()]\n"
        "for copy in copies:\n"
        "    for s in copy.states():\n"
        "        print(render_state(s), [(render_state(p), str(t)) for p, t in copy.predecessors(s)])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    texts = set()
    for seed in (0, 1):
        env["PYTHONHASHSEED"] = str(seed)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=str(tmp_path), check=True,
        )
        texts.add(out.stdout)
    assert len(texts) == 1
    assert "frozenset" in texts.pop()


class TestRenderState:
    def test_place_sets_render_sorted(self):
        a = frozenset(["<b+,c+>", "<a+,c+>", "p9"])
        assert render_state((a, 5)) == "(frozenset({'<a+,c+>', '<b+,c+>', 'p9'}), 5)"

    def test_matches_repr_when_already_ordered(self):
        for state in ("s0", 3, ("twin", 4), (frozenset(), 0), (1,), None, frozenset({"x"})):
            assert render_state(state) == repr(state)

    def test_nested_ids_render_recursively(self):
        inner = (frozenset(["q", "p"]), 2)
        assert render_state(("twin", inner)) == "('twin', (frozenset({'p', 'q'}), 2))"
