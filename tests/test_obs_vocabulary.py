"""Contracts of the observability surface every layer shares.

* **lazy package** — importing the CLI or the synthesis core loads only
  the tracer and the metrics registry from ``repro.obs``, never the
  profiler, harness, regress gate or analytics;
* **frozen stage vocabulary** — every span label the bench and the
  profiler produce is listed in the "Instrumented phases" table of
  docs/OBSERVABILITY.md, so a refactor cannot silently rename a stage
  and break the history series keyed on it.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.obs.harness import bench_circuit
from repro.obs.profiling import UNATTRIBUTED, profile_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(ROOT, "docs", "OBSERVABILITY.md")

HEAVY = (
    "repro.obs.profiling",
    "repro.obs.harness",
    "repro.obs.regress",
    "repro.obs.analytics",
)


@pytest.mark.parametrize("module", ["repro.cli", "repro.core"])
def test_import_leaves_heavy_obs_modules_unloaded(module):
    code = (
        f"import sys, {module}\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == ""


def _documented_labels() -> set[str]:
    """Backticked names in the first column of the phases table."""
    with open(DOC) as f:
        text = f.read()
    section = text.split("### Instrumented phases", 1)[1]
    labels: set[str] = set()
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if not line.startswith("|") or line.startswith("|---"):
            continue
        first = line.split("|")[1]
        labels.update(re.findall(r"`([^`]+)`", first))
    return labels


def test_bench_and_profile_labels_are_documented():
    documented = _documented_labels()
    entry = bench_circuit("converta", runs=1, verify_runs=1)
    doc = profile_suite(circuits=["converta"])
    produced = set(entry["phases"]) | (set(doc["stages"]) - {UNATTRIBUTED})
    assert produced, "no span labels recorded"
    assert produced <= documented, sorted(produced - documented)
