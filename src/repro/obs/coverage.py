"""SG state-space coverage maps for the verification oracle.

Theorems 1–2 argue over structures of the specification state graph —
excitation regions (Definition 5), trigger regions and the single
cubes that must cover them (Definition 7, Theorem 1).  The Monte-Carlo
oracle samples random delay corners, so a "HAZARD-FREE" verdict is
only as strong as the slice of the state space the runs actually
exercised.  A :class:`CoverageMap` measures that slice:

* **states visited** — SG states the environment tracked the circuit
  through, against the reachable universe;
* **excitation-region traversals** — entries, exits, and *completed*
  traversals (the region's own transition firing from inside it) per
  excitation region; a region never traversed means its trigger cube
  was never proven to fire dynamically;
* **trigger cubes fired** — which cube of each set/reset SOP column
  actually asserted for a fired transition (the cube containing the
  pre-state's minterm), against the full cover.

Build with :meth:`CoverageMap.for_circuit`, attach to any number of
:class:`~repro.sim.environment.SGEnvironment` instances (samples
accumulate across a sweep), then read :meth:`report`.  Reports
serialize as ``repro-coverage/1`` and always carry the uncovered-item
listings in full — coverage gaps are the report's entire point and are
never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.synthesizer import NShotCircuit
    from ..sim.environment import SGEnvironment

__all__ = [
    "COVERAGE_SCHEMA",
    "RegionCoverage",
    "CoverageReport",
    "CoverageMap",
]

COVERAGE_SCHEMA = "repro-coverage/1"


def _pct(hit: int, total: int) -> float:
    return 100.0 if total == 0 else round(100.0 * hit / total, 2)


@dataclass
class RegionCoverage:
    """Observed dynamics of one excitation region."""

    label: str
    states: int
    entries: int = 0
    exits: int = 0
    traversals: int = 0

    @property
    def traversed(self) -> bool:
        return self.traversals > 0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "states": self.states,
            "entries": self.entries,
            "exits": self.exits,
            "traversals": self.traversals,
        }


@dataclass
class CoverageReport:
    """Aggregated coverage of one circuit over one or more runs."""

    circuit: str
    runs: int
    states_total: int
    states_visited: int
    uncovered_states: list[str]
    regions: list[RegionCoverage]
    cubes_total: int
    cubes_fired: int
    uncovered_cubes: list[str]

    @property
    def regions_total(self) -> int:
        return len(self.regions)

    @property
    def regions_traversed(self) -> int:
        return sum(1 for r in self.regions if r.traversed)

    @property
    def uncovered_regions(self) -> list[str]:
        return [r.label for r in self.regions if not r.traversed]

    @property
    def states_pct(self) -> float:
        return _pct(self.states_visited, self.states_total)

    @property
    def regions_pct(self) -> float:
        return _pct(self.regions_traversed, self.regions_total)

    @property
    def cubes_pct(self) -> float:
        return _pct(self.cubes_fired, self.cubes_total)

    def to_json(self) -> dict:
        """The full ``repro-coverage/1`` document (uncovered listings
        complete, never truncated)."""
        return {
            "schema": COVERAGE_SCHEMA,
            "circuit": self.circuit,
            "runs": self.runs,
            "states": {
                "total": self.states_total,
                "visited": self.states_visited,
                "pct": self.states_pct,
                "uncovered": list(self.uncovered_states),
            },
            "regions": {
                "total": self.regions_total,
                "traversed": self.regions_traversed,
                "pct": self.regions_pct,
                "uncovered": list(self.uncovered_regions),
                "detail": [r.to_dict() for r in self.regions],
            },
            "trigger_cubes": {
                "total": self.cubes_total,
                "fired": self.cubes_fired,
                "pct": self.cubes_pct,
                "uncovered": list(self.uncovered_cubes),
            },
        }

    def totals(self) -> dict:
        """Compact block for bench entries."""
        return {
            "states_pct": self.states_pct,
            "regions_pct": self.regions_pct,
            "cubes_pct": self.cubes_pct,
            "states_visited": self.states_visited,
            "states_total": self.states_total,
            "regions_traversed": self.regions_traversed,
            "regions_total": self.regions_total,
            "cubes_fired": self.cubes_fired,
            "cubes_total": self.cubes_total,
        }

    def render_text(self, list_cap: int = 8) -> str:
        """Human-readable summary; long uncovered listings are capped
        with an explicit remainder count (the JSON keeps them all)."""

        def listing(items: list[str]) -> str:
            if not items:
                return ""
            shown = items[:list_cap]
            more = len(items) - len(shown)
            tail = f" (+{more} more)" if more else ""
            return "  uncovered: " + ", ".join(shown) + tail

        lines = [
            f"coverage ({self.circuit}, {self.runs} run(s)):",
            f"  states          {self.states_visited}/{self.states_total}"
            f"  ({self.states_pct:.1f}%)" + listing(self.uncovered_states),
            f"  regions         {self.regions_traversed}/{self.regions_total}"
            f"  ({self.regions_pct:.1f}%)" + listing(self.uncovered_regions),
            f"  trigger cubes   {self.cubes_fired}/{self.cubes_total}"
            f"  ({self.cubes_pct:.1f}%)" + listing(self.uncovered_cubes),
        ]
        return "\n".join(lines)


class CoverageMap:
    """Collects SG coverage through the environment's observer hook.

    One map accumulates over every environment it is attached to, so a
    Monte-Carlo sweep produces a single aggregate picture.  Collection
    is strictly observational: the hook only reads the (pre, transition,
    post) advances the environment already computes.
    """

    def __init__(self, circuit: "NShotCircuit") -> None:
        sg = circuit.sg
        self.circuit_name = circuit.netlist.name
        self.sg = sg
        self.runs = 0
        self.visited: set = set()
        self.universe = frozenset(sg.reachable())
        # excitation regions (from the synthesis-time decomposition)
        self._regions = []  # parallel to self.region_cov
        self.region_cov: list[RegionCoverage] = []
        membership: dict = {s: [] for s in self.universe}
        for a in sg.non_inputs:
            for er in circuit.spec.regions[a].excitation:
                idx = len(self._regions)
                self._regions.append(er)
                self.region_cov.append(
                    RegionCoverage(label=er.label(sg), states=len(er.states))
                )
                for s in er.states:
                    if s in membership:
                        membership[s].append(idx)
        self._membership = {
            s: frozenset(idxs) for s, idxs in membership.items()
        }
        self._empty: frozenset = frozenset()
        # trigger-cube universe: the cover's set/reset columns
        self._columns: dict[tuple[int, int], list[tuple[int, object]]] = {}
        self._cube_ids: list[str] = []
        self.fired_cubes: set[int] = set()
        spec = circuit.spec
        for a in sg.non_inputs:
            for direction, kind in ((1, "set"), (-1, "reset")):
                o = spec.output_index(a, kind)
                bit = 1 << o
                col = []
                for cube in circuit.cover.cubes:
                    if cube.outputs & bit:
                        cube_id = len(self._cube_ids)
                        self._cube_ids.append(
                            f"{kind}_{sg.signals[a]}/"
                            f"{cube.to_expression(sg.signals)}"
                        )
                        col.append((cube_id, cube))
                self._columns[(a, direction)] = col

    # ------------------------------------------------------------------
    @classmethod
    def for_circuit(cls, circuit: "NShotCircuit") -> "CoverageMap":
        return cls(circuit)

    def attach(self, env: "SGEnvironment") -> None:
        """Register the observer on one environment (counts as a run)."""
        self.runs += 1
        self.visited.add(env.state)  # the initial state is exercised
        env.add_observer(self._observe)

    def _observe(self, pre, t, post, time: float) -> None:
        self.visited.add(pre)
        self.visited.add(post)
        pre_m = self._membership.get(pre, self._empty)
        post_m = self._membership.get(post, self._empty)
        for idx in post_m - pre_m:
            self.region_cov[idx].entries += 1
        for idx in pre_m - post_m:
            self.region_cov[idx].exits += 1
        if self.sg.is_input(t.signal):
            return
        for idx in pre_m:
            er = self._regions[idx]
            if er.signal == t.signal and er.direction == t.direction:
                # the region's own transition fired from inside it:
                # one completed excitation-region traversal
                self.region_cov[idx].traversals += 1
        minterm = self.sg.code(pre)
        for cube_id, cube in self._columns.get((t.signal, t.direction), ()):
            if cube.contains_minterm(minterm):
                self.fired_cubes.add(cube_id)

    # ------------------------------------------------------------------
    def report(self) -> CoverageReport:
        uncovered_states = sorted(
            self.sg.state_label(s) for s in self.universe - self.visited
        )
        uncovered_cubes = [
            self._cube_ids[i]
            for i in range(len(self._cube_ids))
            if i not in self.fired_cubes
        ]
        return CoverageReport(
            circuit=self.circuit_name,
            runs=self.runs,
            states_total=len(self.universe),
            states_visited=len(self.visited & self.universe),
            uncovered_states=uncovered_states,
            regions=list(self.region_cov),
            cubes_total=len(self._cube_ids),
            cubes_fired=len(self.fired_cubes),
            uncovered_cubes=uncovered_cubes,
        )

    def summary(self) -> dict:
        return self.report().to_json()

    def totals(self) -> dict:
        return self.report().totals()

