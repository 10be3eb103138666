"""The pipeline cache's CLI surface: ``--cache-dir``/``--no-cache`` on
the synthesis commands, the ``repro cache`` maintenance subcommands,
and the fuzzer's cache-bypass guarantee.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.pipeline.maintenance import entries
from repro.obs import get_tracer
from repro.obs.trace import Tracer, set_tracer
from repro.pipeline import ArtifactStore

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE_SPECS = sorted((ROOT / "examples" / "specs").glob("*.g"))
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


@pytest.fixture()
def gfile(tmp_path) -> pathlib.Path:
    p = tmp_path / "celem.g"
    p.write_text(CELEM_G)
    return p


@pytest.fixture()
def cache_dir(tmp_path) -> str:
    return str(tmp_path / "cache")


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """No ambient cache leaks into (or out of) these tests."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestSynthCaching:
    def test_warm_synth_output_is_identical(self, gfile, cache_dir, capsys):
        assert main(["synth", str(gfile), "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["synth", str(gfile), "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert "N-SHOT circuit" in warm

    def test_cache_dir_is_populated(self, gfile, cache_dir, capsys):
        main(["synth", str(gfile), "--cache-dir", cache_dir])
        stats = ArtifactStore(cache_dir).stats()
        assert stats["entries"] > 0
        assert "delays" in stats["by_stage"]

    def test_no_cache_flag_stays_hermetic(self, gfile, cache_dir,
                                          monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["synth", str(gfile), "--no-cache"]) == 0
        assert ArtifactStore(cache_dir).stats()["entries"] == 0

    def test_env_var_default(self, gfile, cache_dir, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["synth", str(gfile)]) == 0
        assert ArtifactStore(cache_dir).stats()["entries"] > 0

    def test_cached_and_uncached_output_match(self, gfile, cache_dir, capsys):
        assert main(["synth", str(gfile)]) == 0
        plain = capsys.readouterr().out
        main(["synth", str(gfile), "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["synth", str(gfile), "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == plain


def _sg_spec(tmp_path, name="combuf1") -> pathlib.Path:
    from repro.bench import sg_of
    from repro.sg.sgformat import write_sg

    spec = tmp_path / f"{name}.sg"
    spec.write_text(write_sg(sg_of(name), name=name))
    return spec


@pytest.mark.parametrize(
    "spec", [*EXAMPLE_SPECS, "combuf1.sg"], ids=lambda p: pathlib.Path(p).name
)
def test_warm_synth_files_match_cold_and_storeless(spec, tmp_path, cache_dir,
                                                   capsys):
    """stdout, ``--pla`` and ``-o`` Verilog of a warm synth are the
    bytes of the cold and the storeless run, for .g and .sg specs."""
    if spec == "combuf1.sg":
        spec = _sg_spec(tmp_path)
    pla, verilog = tmp_path / "out.pla", tmp_path / "out.v"

    def synth(*store_args):
        argv = ["synth", str(spec), "--pla", str(pla), "-o", str(verilog)]
        assert main([*argv, *store_args]) == 0
        return capsys.readouterr().out, pla.read_bytes(), verilog.read_bytes()

    storeless = synth("--no-cache")
    cold = synth("--cache-dir", cache_dir)
    warm = synth("--cache-dir", cache_dir)
    assert "N-SHOT circuit" in warm[0]
    assert warm == cold == storeless


@pytest.mark.parametrize(
    "spec", [*EXAMPLE_SPECS, "combuf1.sg"], ids=lambda p: pathlib.Path(p).name
)
def test_store_filled_through_the_library_serves_synth(spec, tmp_path,
                                                       cache_dir, capsys):
    """A store filled only by ``PipelineRun`` pulls of the SG, the
    classification and the circuit (the perfbench ``cli-hit`` set-up)
    serves ``repro synth --pla -o`` without writing an entry, and the
    run prints and writes the bytes of a storeless run."""
    from repro.pipeline import PipelineRun

    if spec == "combuf1.sg":
        spec = _sg_spec(tmp_path)
    run = PipelineRun.from_file(
        str(spec), store=ArtifactStore(cache_dir), method="espresso",
        delay_spread=0.0,
    )
    run.sg()
    run.classification()
    run.circuit()
    pla, verilog = tmp_path / "out.pla", tmp_path / "out.v"

    def synth(*store_args):
        argv = ["synth", str(spec), "--pla", str(pla), "-o", str(verilog)]
        assert main([*argv, *store_args]) == 0
        return capsys.readouterr().out, pla.read_bytes(), verilog.read_bytes()

    storeless = synth("--no-cache")
    entries = ArtifactStore(cache_dir).stats()["entries"]
    warm = synth("--cache-dir", cache_dir)
    assert ArtifactStore(cache_dir).stats()["entries"] == entries
    assert warm == storeless


def test_undecodable_circuit_bytes_are_quarantined(tmp_path, gfile, cache_dir,
                                                    capsys):
    """A ``delays`` entry whose envelope and checksum are sound but
    whose circuit bytes do not unpickle costs a recompute when the
    circuit is first needed: the entry is quarantined, never a
    traceback."""
    import pickle
    from hashlib import sha256

    verilog = tmp_path / "out.v"
    argv = ["synth", str(gfile), "--cache-dir", cache_dir, "-o", str(verilog)]
    assert main(argv) == 0
    cold = capsys.readouterr(), verilog.read_bytes()
    store = ArtifactStore(cache_dir)
    (entry,) = [e for e in entries(store) if e.stage == "delays"]
    payload = pathlib.Path(store._payload_path(entry.key))
    result = pickle.loads(payload.read_bytes())
    result._blob = b"\x80\x05garbage-not-a-pickle"
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    payload.write_bytes(blob)
    meta_path = pathlib.Path(store._meta_path(entry.key))
    meta = json.loads(meta_path.read_text())
    meta["payload_sha256"] = sha256(blob).hexdigest()
    meta_path.write_text(json.dumps(meta))

    assert main(argv) == 0
    assert (capsys.readouterr(), verilog.read_bytes()) == cold
    assert len(list((pathlib.Path(cache_dir) / "quarantine").iterdir())) == 2
    # the recomputed entry replaced the bad one and decodes
    assert main(argv) == 0
    assert (capsys.readouterr(), verilog.read_bytes()) == cold
    assert len(list((pathlib.Path(cache_dir) / "quarantine").iterdir())) == 2


class TestCompareSpans:
    def _spans(self, argv):
        """Run the CLI under an enabled ambient tracer; return spans."""
        old = get_tracer()
        tr = set_tracer(Tracer(enabled=True))
        try:
            assert main(argv) == 0
        finally:
            set_tracer(old)
        return tr.spans()

    def test_compare_builds_the_sg_exactly_once(self, gfile, capsys):
        """Six flows, one run object: the SG-build stage, which parses
        and elaborates the spec, resolves once and every flow reuses the
        memoized artifact."""
        spans = self._spans(["compare", str(gfile)])
        builds = [
            s for s in spans
            if s.name == "pipeline.stage" and s.attrs.get("stage") == "sg-build"
        ]
        assert len(builds) == 1
        assert [s.name for s in spans].count("reachability") == 1

    def test_synth_stage_spans_carry_outcomes(self, gfile, cache_dir, capsys):
        cold = self._spans(["synth", str(gfile), "--cache-dir", cache_dir])
        outcomes = {
            s.attrs["stage"]: s.attrs["outcome"]
            for s in cold if s.name == "pipeline.stage"
        }
        assert outcomes and set(outcomes.values()) == {"miss"}
        warm = self._spans(["synth", str(gfile), "--cache-dir", cache_dir])
        reads = [
            (s.attrs["stage"], s.attrs["outcome"])
            for s in warm if s.name == "pipeline.stage"
        ]
        # the circuit carries its SG: a warm synth reads no sg-build entry
        assert sorted(reads) == [("classify", "hit"), ("delays", "hit")]
        assert {s.name for s in warm} == {"pipeline.stage", "synthesize"}


class TestCacheSubcommand:
    def _populate(self, gfile, cache_dir, capsys):
        main(["synth", str(gfile), "--cache-dir", cache_dir])
        capsys.readouterr()

    def test_no_directory_is_an_error(self, capsys):
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_stats_text(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        assert main(["cache", "--cache-dir", cache_dir, "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "delays" in out

    def test_stats_json(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        assert main(["cache", "--cache-dir", cache_dir, "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] > 0
        assert "by_stage" in doc and "session" in doc

    def test_stats_honours_env_var(self, gfile, cache_dir, monkeypatch, capsys):
        self._populate(gfile, cache_dir, capsys)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] > 0

    def test_ls(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        assert main(["cache", "--cache-dir", cache_dir, "ls"]) == 0
        out = capsys.readouterr().out
        assert "sg-build" in out and "celem" in out

    def test_ls_empty(self, cache_dir, capsys):
        assert main(["cache", "--cache-dir", cache_dir, "ls"]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_gc_requires_a_bound(self, cache_dir, capsys):
        assert main(["cache", "--cache-dir", cache_dir, "gc"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_size_bound_then_warm_run_still_works(
        self, gfile, cache_dir, capsys
    ):
        """The acceptance property: gc enforces the bound and a
        subsequent run repopulates and reproduces identical output."""
        self._populate(gfile, cache_dir, capsys)
        baseline = None
        assert main(["synth", str(gfile), "--cache-dir", cache_dir]) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["cache", "--cache-dir", cache_dir, "gc", "--max-bytes", "1"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        assert ArtifactStore(cache_dir).stats()["entries"] == 0
        assert main(["synth", str(gfile), "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == baseline

    def test_gc_json(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        assert main(
            ["cache", "--cache-dir", cache_dir, "gc", "--max-bytes", "1",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evicted"] > 0 and doc["kept"] == 0

    def test_gc_age_bound_keeps_fresh_entries(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        before = ArtifactStore(cache_dir).stats()["entries"]
        assert main(
            ["cache", "--cache-dir", cache_dir, "gc", "--max-age", "7d"]
        ) == 0
        assert ArtifactStore(cache_dir).stats()["entries"] == before

    def test_clear(self, gfile, cache_dir, capsys):
        self._populate(gfile, cache_dir, capsys)
        assert main(["cache", "--cache-dir", cache_dir, "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert ArtifactStore(cache_dir).stats()["entries"] == 0


class TestCompareAndLintCaching:
    def test_warm_compare_output_is_identical(self, gfile, cache_dir, capsys):
        assert main(["compare", str(gfile), "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["compare", str(gfile), "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == cold

    def test_warm_lint_output_is_identical(self, gfile, cache_dir, capsys):
        assert main(["lint", str(gfile), "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["lint", str(gfile), "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == cold
        assert ArtifactStore(cache_dir).stats()["entries"] > 0


class TestBenchCaching:
    def test_bench_reports_cache_block(self, cache_dir, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "chu172", "--quick", "--cache-dir", cache_dir,
             "--no-history", "-o", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["cache"]["dir"] == str(pathlib.Path(cache_dir).resolve())
        assert doc["cache"]["misses"] > 0
        entry = doc["circuits"][0]
        assert entry["cache"]["misses"] >= 0
        # warm: the second document is nearly all hits
        assert main(
            ["bench", "chu172", "--quick", "--cache-dir", cache_dir,
             "--no-history", "-o", str(out)]
        ) == 0
        warm = json.loads(out.read_text())
        assert warm["cache"]["hit_rate"] >= 0.9

    def test_bench_without_store_has_no_cache_block(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert main(
            ["bench", "chu172", "--quick", "--no-history", "-o", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert "cache" not in doc
        assert "cache" not in doc["circuits"][0]


class TestFuzzBypass:
    def test_run_flow_leaves_ambient_cache_empty(
        self, cache_dir, monkeypatch
    ):
        """Even with REPRO_CACHE_DIR set, a fuzz flow writes nothing."""
        from repro.fuzz.differential import run_flow
        from repro.stg import elaborate, parse_g

        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        sg = elaborate(parse_g(CELEM_G))
        assert run_flow("nshot", sg, name="celem").status == "ok"
        assert ArtifactStore(cache_dir).stats()["entries"] == 0
