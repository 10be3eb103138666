"""The content-addressed DAG: key derivation, demand-driven
resolution, and — the property the whole design exists for —
invalidation of *exactly* the downstream cone.

``PipelineRun.executed`` records the stages actually computed (cache
misses) in order; the invalidation tests spy on it to prove what re-ran
and, just as important, what did not.
"""

import pytest

from repro.core.synthesizer import SynthesisError, synthesize
from repro.pipeline import (
    STAGES,
    STAGE_VERSIONS,
    ArtifactStore,
    PipelineRun,
    resolve_store,
)
from repro.sg.sgformat import parse_sg, write_sg

CELEM_G = """
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
"""

#: every stage a cold synthesize()+verify() computes, in order
FULL_CONE = [
    "sg-build", "classify", "sop-derivation", "covers", "delays", "verify",
]


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "cache"))


def run_all(store, text=CELEM_G, **kw) -> PipelineRun:
    """One full cold-or-warm pass: synthesize then verify."""
    run = PipelineRun(text, name="celem", store=store, **kw)
    run.synthesize()
    run.verify(runs=2)
    return run


class TestKeys:
    def test_key_is_deterministic(self, store):
        a = PipelineRun(CELEM_G, name="celem")
        b = PipelineRun(CELEM_G, name="celem")
        for stage in STAGES:
            assert a.key_of(stage) == b.key_of(stage)

    def test_all_stage_keys_distinct(self):
        run = PipelineRun(CELEM_G, name="celem")
        keys = [run.key_of(s) for s in STAGES]
        assert len(set(keys)) == len(keys)

    def test_param_scoping(self):
        """A parameter reaches only the stages that declare it: the
        minimizer method feeds ``covers`` but not ``sop-derivation``."""
        esp = PipelineRun(CELEM_G, name="celem", method="espresso")
        qm = PipelineRun(CELEM_G, name="celem", method="qm")
        assert esp.key_of("sop-derivation") == qm.key_of("sop-derivation")
        assert esp.key_of("covers") != qm.key_of("covers")
        # and the change propagates through the downstream cone
        assert esp.key_of("delays") != qm.key_of("delays")

    def test_cosmetic_edit_preserves_keys(self):
        cosmetic = CELEM_G.replace(".graph", "# a comment\n.graph")
        a = PipelineRun(CELEM_G, name="celem")
        b = PipelineRun(cosmetic, name="celem")
        assert a.key_of("delays") == b.key_of("delays")

    def test_from_sg_matches_serialized_text(self):
        sg = parse_sg(write_sg(parse_sg(write_sg(
            _celem_sg(), "celem")), "celem"))
        by_sg = PipelineRun.from_sg(sg, name="celem")
        by_text = PipelineRun(write_sg(sg, "celem"), name="celem")
        assert by_sg.root_digest == by_text.root_digest

    def test_storeless_from_sg_never_renders_the_spec(self, monkeypatch):
        """Without a store nothing needs a key, so the SG is never
        serialized, canonicalized or hashed, and nothing pickles the
        ``delays`` artifact, so its printout is never rendered."""
        import repro.pipeline.dag as dag
        import repro.sg.sgformat as sgformat
        from repro.pipeline import SynthesisResult

        def refuse(*_a, **_kw):
            raise AssertionError("spec rendered without a store")

        sg = _celem_sg()
        monkeypatch.setattr(sgformat, "write_sg", refuse)
        monkeypatch.setattr(dag, "spec_digest", refuse)
        monkeypatch.setattr(dag, "default_env_digest", refuse)
        monkeypatch.setattr(SynthesisResult, "_rendered", refuse)
        run = PipelineRun.from_sg(sg, name="celem")
        run.synthesize()
        run.certify()
        run.verify(runs=1)
        assert run.executed[0] == "sg-build"

    def test_env_digest_is_stable_and_spawns_no_process(self, monkeypatch):
        import subprocess

        import repro.pipeline.dag as dag

        def refuse(*_a, **_kw):
            raise AssertionError("the env digest spawned a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(dag, "_ENV_DIGEST", None)
        first = dag.default_env_digest()
        monkeypatch.setattr(dag, "_ENV_DIGEST", None)
        assert dag.default_env_digest() == first
        assert len(first) == 12 and int(first, 16) >= 0


class TestCatalog:
    def test_no_stage_passes_through(self):
        """A stage read by exactly one other stage, whose key
        parameters that reader declares too, is never read on its own:
        its work belongs inside the reader."""
        readers = {name: [] for name in STAGES}
        for sdef in STAGES.values():
            for dep in sdef.deps:
                readers[dep].append(sdef)
        passing = [
            name
            for name, sdef in STAGES.items()
            if len(readers[name]) == 1
            and set(sdef.params) <= set(readers[name][0].params)
        ]
        assert passing == []

    def test_versions_name_exactly_the_stages(self):
        assert set(STAGE_VERSIONS) == set(STAGES)


def _celem_sg():
    from repro.stg import elaborate, parse_g

    return elaborate(parse_g(CELEM_G))


class TestResolution:
    def test_cold_run_computes_full_cone_in_order(self, store):
        run = run_all(store)
        assert run.executed == FULL_CONE
        rep = run.report()
        assert rep["misses"] == len(FULL_CONE) and rep["hits"] == 0

    def test_warm_run_computes_nothing(self, store):
        run_all(store)
        warm = run_all(store)
        assert warm.executed == []
        rep = warm.report()
        assert rep["misses"] == 0 and rep["hits"] > 0
        # demand-driven: a hit on a downstream stage never even asks
        # for its upstream inputs
        assert set(rep["stages"]) == {"classify", "delays", "verify"}

    def test_warm_circuit_is_equivalent(self, store):
        cold = run_all(store).circuit()
        warm = run_all(store).circuit()
        assert warm.describe() == cold.describe()
        from repro.netlist import write_verilog

        assert write_verilog(warm.netlist) == write_verilog(cold.netlist)
        assert (warm.stats().area, warm.stats().delay) == (
            cold.stats().area, cold.stats().delay
        )

    def test_storeless_run_matches_direct_synthesis(self):
        run = PipelineRun(CELEM_G, name="celem")
        direct = synthesize(_celem_sg(), name="celem")
        assert run.synthesize().describe() == direct.describe()

    def test_memoized_single_resolution(self, store):
        run = PipelineRun(CELEM_G, name="celem", store=store)
        assert run.sg() is run.sg()
        assert run.executed.count("sg-build") == 1

    def test_classification_gate(self, store):
        from repro.bench.circuits import figure1_sg

        bad = write_sg(figure1_sg(), name="figure1")  # CSC conflict
        run = PipelineRun(bad, name="figure1", store=store)
        with pytest.raises(SynthesisError) as exc:
            run.synthesize()
        assert "Theorem 2" in str(exc.value)
        # the verdict itself is cached: a warm run raises from a hit
        warm = PipelineRun(bad, name="figure1", store=store)
        with pytest.raises(SynthesisError):
            warm.synthesize()
        assert warm.executed == []


class TestInvalidation:
    """Version bumps, env changes and spec edits re-run exactly the
    downstream cone — never anything upstream."""

    def test_version_bump_reruns_exactly_downstream_cone(
        self, store, monkeypatch
    ):
        run_all(store)
        monkeypatch.setitem(STAGE_VERSIONS, "covers", 2)
        warm = run_all(store)
        assert warm.executed == ["covers", "delays", "verify"]
        # upstream stages were served from cache, not recomputed
        for stage in ("sg-build", "classify", "sop-derivation"):
            assert stage not in warm.executed
        # covers and delays read the graph off the SOP spec: sg-build
        # is not even looked up
        assert "sg-build" not in warm.report()["stages"]

    def test_spread_change_reruns_delays_on_the_spec_graph(self, store, tmp_path):
        # a store filled at spread 0, then a run at spread 0.4 (the
        # table2 then certify --spread 0.4 pair): only delays re-runs,
        # on the graph the stored SOP spec holds, so the circuit holds
        # one graph, and sg-build is never read
        path = tmp_path / "celem.g"
        path.write_text(CELEM_G)
        PipelineRun.from_file(str(path), store=store).circuit()
        run = PipelineRun.from_file(str(path), store=store, delay_spread=0.4)
        circuit = run.circuit()
        assert circuit.sg is circuit.spec.sg
        assert run.executed == ["delays"]
        assert "sg-build" not in run.report()["stages"]
        warm = PipelineRun.from_file(str(path), store=store, delay_spread=0.4)
        circuit = warm.circuit()
        assert warm.executed == [] and circuit.sg is circuit.spec.sg

    def test_sop_derivation_bump_reruns_exactly_downstream_cone(
        self, store, monkeypatch
    ):
        # the sop-derivation entry carries the signal regions; one
        # written by a previous sop-derivation stage (its SignalRegions
        # in a stale layout) must never be unpickled again
        from repro.sg.regions import Region

        with monkeypatch.context() as old:
            old.setitem(
                STAGE_VERSIONS, "sop-derivation", STAGE_VERSIONS["sop-derivation"] - 1
            )
            run_all(store)
        loaded = []

        def spy(self, state):
            loaded.append(state)
            self.__dict__.update(state)

        monkeypatch.setattr(Region, "__setstate__", spy, raising=False)
        warm = run_all(store)
        assert warm.executed == ["sop-derivation", "covers", "delays", "verify"]
        assert loaded == []
        assert all(
            len(sr.triggers) == len(sr.excitation)
            for sr in warm.sop().regions.values()
        )
        # the spy does see a region that is read back from the store
        assert run_all(store).circuit().spec.regions and loaded

    def test_sg_build_entry_carrying_a_region_memo(self, store):
        # synthesizing a graph whose regions were already analysed (as
        # ``repro table2`` does after its baselines) stores the same
        # sg-build payload as a fresh graph: the memo stays behind.  An
        # entry under the same key in the layout earlier code wrote
        # (per-state arc lists) is quarantined and recomputed, never
        # loaded as a broken graph.
        import json
        from hashlib import sha256

        from repro.sg.regions import signal_regions

        from tests.conftest import legacy_pickle

        def analysed():
            sg = _celem_sg()
            for a in sg.non_inputs:
                signal_regions(sg, a)
            return sg

        def payload(key):
            with open(store._payload_path(key), "rb") as f:
                return f.read()

        fresh = PipelineRun.from_sg(_celem_sg(), name="celem", store=store)
        fresh.sg()
        key = fresh.key_of("sg-build")
        want_payload = payload(key)
        blob = legacy_pickle(analysed(), "lists")
        with open(store._payload_path(key), "wb") as f:
            f.write(blob)
        meta = json.load(open(store._meta_path(key)))
        meta["payload_sha256"] = sha256(blob).hexdigest()
        json.dump(meta, open(store._meta_path(key), "w"))

        want = synthesize(_celem_sg(), name="celem").describe()
        run = PipelineRun.from_sg(analysed(), name="celem", store=store)
        assert run.synthesize().describe() == want
        assert "sg-build" in run.executed and store.quarantined == 1
        assert payload(key) == want_payload
        found, stored = store.get(key)
        assert found and stored._regions is None
        assert synthesize(stored, name="celem").describe() == want

    def test_sg_build_payload_does_not_depend_on_the_baselines(self, tmp_path):
        # ``repro table2`` runs the baselines on a graph before it
        # synthesizes it; its sg-build payload is the storeless synth's
        from hashlib import sha256

        from repro.bench.runner import run_benchmark, sg_of

        digests = []
        for baselines_first in (True, False):
            store = ArtifactStore(str(tmp_path / str(baselines_first)))
            if baselines_first:
                run_benchmark("chu150", cache=store)
            else:
                synthesize(sg_of("chu150"), name="chu150", cache=store)
            key = PipelineRun.from_sg(sg_of("chu150"), name="chu150").key_of("sg-build")
            with open(store._payload_path(key), "rb") as f:
                digests.append(sha256(f.read()).hexdigest())
        assert digests[0] == digests[1]

    def test_leaf_stage_bump_reruns_only_itself(self, store, monkeypatch):
        run_all(store)
        monkeypatch.setitem(STAGE_VERSIONS, "verify", 2)
        warm = run_all(store)
        assert warm.executed == ["verify"]

    def test_root_stage_bump_reruns_everything(self, store, monkeypatch):
        run_all(store)
        monkeypatch.setitem(
            STAGE_VERSIONS, "sg-build", STAGE_VERSIONS["sg-build"] + 1
        )
        warm = run_all(store)
        assert warm.executed == FULL_CONE  # sg-build is the root

    def test_env_change_invalidates_everything(self, store):
        run_all(store, env_digest="machine-a")
        warm = run_all(store, env_digest="machine-b")
        assert warm.executed == FULL_CONE
        # and machine-a's artifacts are still there untouched
        back = run_all(store, env_digest="machine-a")
        assert back.executed == []

    def test_semantic_spec_edit_invalidates_everything(self, store):
        run_all(store)
        edited = CELEM_G.replace(".model celem", ".model renamed")
        warm = run_all(store, text=edited)
        assert warm.executed == FULL_CONE

    def test_cosmetic_spec_edit_invalidates_nothing(self, store):
        run_all(store)
        cosmetic = CELEM_G.replace(
            "a+ c+\nb+ c+", "  b+   c+\n# noise\na+ c+"
        )
        warm = run_all(store, text=cosmetic)
        assert warm.executed == []

    def test_verify_params_are_part_of_the_key(self, store):
        run_all(store)  # cached verify used runs=2
        warm = PipelineRun(CELEM_G, name="celem", store=store)
        warm.synthesize()
        warm.verify(runs=3)
        assert warm.executed == ["verify"]


class TestBypass:
    def test_probe_laden_verify_bypasses_cache(self, store):
        run = run_all(store)
        before = ArtifactStore(store.root).stats()["by_stage"]
        summary = run.verify(runs=2, keep_traces=True)
        assert summary.traces  # the probe produced run-local data
        after = ArtifactStore(store.root).stats()["by_stage"]
        assert after == before  # no new verify artifacts cached


class TestResolveStore:
    def test_no_cache_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_store(str(tmp_path / "cli"), no_cache=True) is None

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        st = resolve_store(str(tmp_path / "cli"))
        assert st is not None and st.root == str(tmp_path / "cli")

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        st = resolve_store(None)
        assert st is not None and st.root == str(tmp_path / "env")

    def test_default_is_hermetic(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_store(None) is None
