"""Contracts of the lazy package surface.

* **lazy imports** — ``import repro`` loads no subpackage, and a warm
  ``repro synth --cache-dir --pla`` prints and writes from the stored
  text of the ``delays`` entry without decoding its circuit, so it
  loads none of the engine: no ``core``, ``logic`` or ``analysis``
  module, no state graph, regions or netlist container, no simulator,
  baseline, bench, STG front-end, fuzzer, heavy observability module or
  other command's CLI module, and neither ``subprocess``, ``platform``
  nor ``uuid``; a cold synth loads no certifier, simulator (MHS model),
  exact minimizer, tautology or complement, and of the lint rules only
  the module that holds the preflight's;
* **public surface** — every ``__all__`` name of ``repro`` and of each
  subpackage resolves, is listed by ``dir()`` and star-imports;
* **rule catalogue** — the built-in lint rules register on the first
  ``default_registry()`` call, without importing ``repro.analysis``.
"""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CELEM = os.path.join(ROOT, "examples", "specs", "celem.g")

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.analysis.certify",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.fuzz",
    "repro.logic",
    "repro.netlist",
    "repro.obs",
    "repro.pipeline",
    "repro.sg",
    "repro.sim",
    "repro.stg",
]

#: modules a warm synth must not load (a trailing dot bans a package)
NOT_ON_WARM_SYNTH = (
    "repro.sim.",
    "repro.baselines.",
    "repro.bench.",
    "repro.stg.",
    "repro.fuzz.",
    "repro.core.",
    "repro.logic.",
    "repro.analysis.",
    "repro.sg.graph",
    "repro.sg.regions",
    "repro.netlist.netlist",
    "repro.obs.profiling",
    "repro.obs.harness",
    "repro.obs.regress",
    "repro.obs.analytics",
    "repro.obs.telemetry",
    "repro.obs.coverage",
    "repro.sg.codespace",
)

#: modules a cold synth must not load: the certifier, the MHS model and
#: the rest of the simulator, the exact minimizer, the unate-recursive
#: tautology and complement (ESPRESSO works on code bitmaps and is given
#: its OFF-set), and the lint rules the preflight does not run
NOT_ON_COLD_SYNTH = (
    "repro.analysis.certify.",
    "repro.sim.",
    "repro.logic.exact",
    "repro.logic.tautology",
    "repro.logic.complement",
    "repro.analysis.rules_trigger",
    "repro.analysis.rules_netlist",
    "repro.analysis.rules_hazard",
)

#: `repro lint --list-rules`, the built-in catalogue
RULE_IDS = [
    "DL001",
    *(f"HZ00{i}" for i in range(1, 6)),
    *(f"NL00{i}" for i in range(1, 7)),
    *(f"SG00{i}" for i in range(1, 7)),
    "TR001",
    "TR002",
    "TR003",
]


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_CACHE_DIR", None)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    return out.stdout


def _loaded_after(statements: str, prefix: str = "repro") -> set[str]:
    code = (
        f"import sys\n{statements}\n"
        f"print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))\n"
    )
    return set(_run(code).splitlines()[-1].split())


def _banned(loaded: set[str], prefixes: tuple[str, ...]) -> list[str]:
    """``loaded`` modules under ``prefixes`` (a trailing dot bans a
    package)."""
    return sorted(m for m in loaded if (m + ".").startswith(prefixes))


def test_import_repro_loads_no_subpackage():
    assert _loaded_after("import repro") <= {"repro", "repro._lazy"}


def test_warm_synth_loads_only_what_it_unpickles(tmp_path):
    store, pla = tmp_path / "store", tmp_path / "celem.pla"
    argv = ["synth", CELEM, "--cache-dir", str(store), "--pla", str(pla)]
    call = f"from repro.cli import main\nassert main({argv!r}) == 0"
    _run(call)  # fills the store
    entries = sorted(p.name for p in store.rglob("*") if p.is_file())
    loaded = _loaded_after(call, prefix="")
    assert _banned(loaded, NOT_ON_WARM_SYNTH) == []
    assert {"subprocess", "platform", "uuid"}.isdisjoint(loaded)
    assert _banned(loaded, ("repro.cli",)) == ["repro.cli", "repro.cli.synth"]
    assert sorted(p.name for p in store.rglob("*") if p.is_file()) == entries


def test_cold_synth_loads_no_certifier_simulator_or_exact_minimizer(tmp_path):
    argv = ["synth", CELEM, "--cache-dir", str(tmp_path / "store")]
    loaded = _loaded_after(f"from repro.cli import main\nassert main({argv!r}) == 0")
    assert "repro.analysis.rules_sg" in loaded  # the preflight rules did register
    assert _banned(loaded, NOT_ON_COLD_SYNTH) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    for attr in pkg.__all__:
        assert getattr(pkg, attr) is not None, f"{name}.{attr}"
        assert attr in listed, f"{name}.{attr} missing from dir()"
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")


def test_star_import():
    ns: dict = {}
    exec("from repro import *", ns)
    import repro

    assert set(repro.__all__) <= set(ns)


def test_reexport_shadows_same_named_submodule():
    """``repro.logic.minimize`` is the function even once the
    ``repro.logic.minimize`` module has been imported."""
    assert _run(
        "import repro.logic.minimize, repro.logic.espresso\n"
        "from repro.logic import espresso, minimize\n"
        "print(callable(minimize) and callable(espresso))\n"
    ).split() == ["True"]


def test_rule_catalogue_registers_on_first_use(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == RULE_IDS
    out = _run(
        "import sys\n"
        "from repro.analysis.registry import default_registry\n"
        "print(' '.join(default_registry().ids()))\n"
        "print('repro.analysis.engine' in sys.modules)\n"
    ).splitlines()
    assert out == [" ".join(RULE_IDS), "False"]
