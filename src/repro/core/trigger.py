"""Trigger requirement — Theorem 1 and its enforcement.

Requirement 1 demands that for every transition ``*a`` a pulse exists
that reliably fires the MHS flip-flop.  Theorem 1 reduces this to a
purely combinational condition: **every trigger region must be covered
by a single cube** of the corresponding SOP (a *trigger cube*).
Because a trigger region traps the system until ``*a`` fires, its
trigger cube stays asserted long enough to commit the master latch no
matter how fast the region's states are traversed.

For *single-traversal* SGs (Definition 9 — every trigger region is one
state) the requirement holds for free: a singleton region is an ON-set
minterm, and any cover contains a cube over it (Corollary 1).  For
non-single-traversal SGs, :func:`enforce_trigger_cubes` repairs a
minimized cover by inserting the supercube of each uncovered trigger
region, expanded to a prime against the OFF-set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover, Cube, supercube_of
from ..logic.espresso import expand as espresso_expand
from ..sg.graph import StateGraph, render_state
from ..sg.regions import Region
from .sop_derivation import SopSpec

__all__ = [
    "TriggerCheck",
    "check_trigger_cubes",
    "enforce_trigger_cubes",
    "trigger_infeasibilities",
    "TriggerRequirementError",
]


class TriggerRequirementError(ValueError):
    """The SG cannot satisfy the trigger requirement with this cover.

    Raised when a trigger region's supercube intersects the function's
    OFF-set — no single cube can cover the region, so by Theorem 1 no
    hazard-free N-SHOT implementation exists without transforming the
    SG (e.g. inserting state signals).
    """


@dataclass
class TriggerCheck:
    """Outcome of a trigger-cube audit for one function."""

    signal: int
    kind: str  # "set" / "reset"
    regions_checked: int = 0
    uncovered: list[Region] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.uncovered


def _region_supercube(sg: StateGraph, region: Region) -> Cube:
    sc = supercube_of(
        Cube.from_minterm(c, sg.num_signals) for c in region.codes()
    )
    assert sc is not None
    return sc


def _cube_covers_region(sg: StateGraph, cube: Cube, region: Region) -> bool:
    return all(cube.contains_minterm(c) for c in region.codes())


def check_trigger_cubes(
    spec: SopSpec, cover: Cover
) -> list[TriggerCheck]:
    """Audit Theorem 1 on a minimized multi-output cover.

    For every non-input signal and every trigger region of each of its
    excitation regions, verify some cube of the corresponding output
    column covers the whole region.
    """
    sg = spec.sg
    out: list[TriggerCheck] = []
    for signal in sg.non_inputs:
        sr = spec.regions[signal]
        for kind in ("set", "reset"):
            o = spec.output_index(signal, kind)
            bit = 1 << o
            col = [c for c in cover.cubes if c.outputs & bit]
            chk = TriggerCheck(signal, kind)
            direction = 1 if kind == "set" else -1
            for er, trs in zip(sr.excitation, sr.triggers):
                if er.direction != direction:
                    continue
                for tr in trs:
                    chk.regions_checked += 1
                    if not any(_cube_covers_region(sg, c, tr) for c in col):
                        chk.uncovered.append(tr)
            out.append(chk)
    return out


def trigger_infeasibilities(spec: SopSpec) -> list[tuple[int, str, Region]]:
    """Trigger regions that can never satisfy Theorem 1, cover-independent.

    Returns ``(signal, kind, region)`` triples whose state-set
    supercube intersects the corresponding OFF-set: by Theorem 1 no
    single cube can cover such a region, so no hazard-free N-SHOT
    implementation exists without transforming the SG.  This predicate
    is shared by :func:`enforce_trigger_cubes` (which raises on it) and
    the static-analysis rule ``TR001`` (which reports it).
    """
    sg = spec.sg
    out: list[tuple[int, str, Region]] = []
    for signal in sg.non_inputs:
        sr = spec.regions[signal]
        for er, trs in zip(sr.excitation, sr.triggers):
            kind = "set" if er.rising else "reset"
            o = spec.output_index(signal, kind)
            bit = 1 << o
            off_col = spec.off.restrict_outputs(bit)
            for tr in trs:
                sc = _region_supercube(sg, tr).with_outputs(bit)
                if off_col.intersects_cube(sc):
                    out.append((signal, kind, tr))
    return out


def enforce_trigger_cubes(spec: SopSpec, cover: Cover) -> tuple[Cover, int]:
    """Repair a cover so every trigger region has a trigger cube.

    Returns the repaired cover and the number of cubes added.  Each
    uncovered trigger region contributes its state-set supercube
    (checked against the OFF-set, then expanded to a prime).  Raises
    :class:`TriggerRequirementError` when a supercube overlaps the
    OFF-set — the Theorem 1 "no implementation" case.
    """
    sg = spec.sg
    added = 0
    work = cover.copy()
    for chk in check_trigger_cubes(spec, work):
        for tr in chk.uncovered:
            o = spec.output_index(chk.signal, chk.kind)
            bit = 1 << o
            sc = _region_supercube(sg, tr).with_outputs(bit)
            off_col = spec.off.restrict_outputs(bit)
            if off_col.intersects_cube(sc):
                raise TriggerRequirementError(
                    f"trigger region of {chk.kind}({sg.signals[chk.signal]}) "
                    f"spans OFF-set points; no trigger cube exists "
                    f"(states {sorted(map(render_state, tr.states))[:4]}…)"
                )
            # expand the supercube into a prime against the OFF-set so
            # the repair costs as few literals as possible
            prime = espresso_expand(
                Cover(sg.num_signals, cover.num_outputs, [sc]), spec.off
            ).cubes[0]
            work.add(prime)
            added += 1
    if added:
        work = work.single_cube_containment()
    return work, added
