"""Print what a cold and a warm ``repro synth`` load.

A fresh ``repro synth`` process is mostly import: every module it loads
is compiled from source (no bytecode cache under
``PYTHONDONTWRITEBYTECODE=1``) and every dataclass it defines is built
at import time.  This script synthesizes ``examples/specs/celem.g``
twice through one artifact store, each time in a new interpreter: first
on an empty store (cold: the whole engine runs) and then on the store
the first run filled (warm: the stored text is printed).  For each it
prints the ``repro`` modules loaded, their source lines and the
dataclasses they define::

    python tools/census.py

Run it from anywhere.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: run in the child: one synth, then count what it loaded
_CHILD = """
import dataclasses, sys
from repro.cli import main
assert main(sys.argv[1:]) == 0
mods = sorted(m for m in sys.modules if m.startswith("repro"))
lines = 0
for m in mods:
    with open(sys.modules[m].__file__) as f:
        lines += len(f.read().splitlines())
classes = sum(
    1
    for m in mods
    for v in vars(sys.modules[m]).values()
    if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == m
)
print(len(mods), lines, classes)
"""


def main() -> int:
    spec = os.path.join(ROOT, "examples", "specs", "celem.g")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("REPRO_CACHE_DIR", None)
    work = tempfile.mkdtemp(prefix="census-")
    try:
        for leg in ("cold", "warm"):
            argv = ["synth", spec, "--cache-dir", "store", "--pla", f"{leg}.pla"]
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, *argv],
                cwd=work,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            modules, lines, classes = proc.stdout.split()[-3:]
            print(f"{leg} synth: {modules} modules, {lines} lines, {classes} dataclasses")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
