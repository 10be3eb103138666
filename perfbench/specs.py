"""The benchmark's inputs: which specifications each workload runs.

Inputs come from repro's own generators.  The seed only permutes the
job order within a pass, so every seed measures the same work; each
call to :func:`workload_specs` builds fresh objects, so a memo stored on
an input object by one pass cannot speed up the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.circuits import (
    DISTRIBUTIVE_BENCHMARKS,
    NONDISTRIBUTIVE_BENCHMARKS,
    muller_pipeline,
)
from repro.sg.sgformat import write_sg
from repro.stg import write_g

IN_PROCESS = ("table2", "muller-scale")
CLI = ("cli-miss", "cli-hit")
WORKLOADS = IN_PROCESS + CLI

#: Muller pipeline stages n; the elaborated SG has 2^(n+2) states, so
#: the sweep runs from 2^6 to 2^14 states.
MULLER_STAGES = range(4, 13)

#: Baselines are timed in the traced run of muller-scale only up to this
#: many states: Lavagno alone takes about 16 s at 2^14 states.
BASELINE_MAX_STATES = 4096


@dataclass
class Spec:
    """One job's input: an STG (``kind == "stg"``) or an SG (``"sg"``)."""

    name: str
    kind: str
    obj: object
    #: closed-form state count, where the generator has one
    expected_states: int | None = None

    def file_text(self) -> tuple[str, str]:
        """(file name, text) of the spec as the CLI reads it."""
        if self.kind == "stg":
            return f"{self.name}.g", write_g(self.obj)
        return f"{self.name}.sg", write_sg(self.obj, self.name)


def _table2_specs() -> list[Spec]:
    specs = [
        Spec(name, "stg", build())
        for name, (build, *_rest) in DISTRIBUTIVE_BENCHMARKS.items()
    ]
    specs += [
        Spec(name, "sg", build())
        for name, (build, *_rest) in NONDISTRIBUTIVE_BENCHMARKS.items()
    ]
    return specs


def _muller_specs() -> list[Spec]:
    return [
        Spec(f"muller{n}", "stg", muller_pipeline(n, name=f"muller{n}"), 2 ** (n + 2))
        for n in MULLER_STAGES
    ]


def workload_specs(workload: str) -> list[Spec]:
    """Fresh input objects for one pass of ``workload``, in a fixed order."""
    if workload == "muller-scale":
        return _muller_specs()
    if workload in WORKLOADS:
        return _table2_specs()
    raise ValueError(f"unknown workload {workload!r}")


def warmup_name(workload: str) -> str:
    """The smallest input of a workload, used for the untimed warm-up job."""
    if workload == "muller-scale":
        return f"muller{MULLER_STAGES[0]}"
    return min(DISTRIBUTIVE_BENCHMARKS, key=lambda n: DISTRIBUTIVE_BENCHMARKS[n][1])


def pass_order(names: list[str], seed: int, pass_index: int) -> list[str]:
    """The seed's job order for one pass."""
    order = list(names)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order
