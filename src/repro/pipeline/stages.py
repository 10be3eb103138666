"""The stage catalog of the synthesis pipeline DAG.

Each :class:`StageDef` names one step of the paper's flow (Section IV:
semi-modular SG → excitation regions → hazard-free covers → MHS
netlist → delay check), declares its upstream dependencies and which
run parameters feed its cache key, and provides the function that
computes the stage artifact from a :class:`~repro.pipeline.dag.PipelineRun`.

Versions live in the module-level :data:`STAGE_VERSIONS` dict, *not*
inside the defs, so tests (and maintainers bumping a stage after a
code change) have one obvious switchboard.  Bumping a version changes
that stage's cache key and therefore the keys of its whole downstream
cone — the content-addressed equivalent of "rebuild from here".

The DAG::

    parse ──► sg-build ──► classify          (lint gate; off the synthesis cone)
                 │
                 ├──► regions ──► sop-derivation ──► covers ──► netlist
                 │                     │                │          │
                 └─────────────────────┴────────────────┴──────────┴─► delays ─► verify
                                                                          └────► certify
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..netlist import Library
from ..obs import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import Diagnostic
    from ..logic import Cover
    from ..sg.graph import StateGraph
    from ..sg.regions import SignalRegions
    from .dag import PipelineRun

__all__ = [
    "STAGES",
    "STAGE_VERSIONS",
    "Classification",
    "CoverBundle",
    "StageDef",
]


#: Stage-code versions.  Bump a stage's number whenever its code (or the
#: code it calls) changes meaning; the bump invalidates exactly that
#: stage and its downstream cone in every cache.
STAGE_VERSIONS: dict[str, int] = {
    "parse": 1,
    "sg-build": 2,
    "classify": 3,
    "regions": 3,
    "sop-derivation": 3,
    "covers": 1,
    "netlist": 1,
    "delays": 2,
    "verify": 1,
    "certify": 1,
}


@dataclass(frozen=True)
class Classification:
    """The ``classify`` stage artifact: the Theorem-2 preflight verdict."""

    ok: bool
    #: the :class:`~repro.core.synthesizer.SynthesisError` message
    message: str
    diagnostics: "list[Diagnostic]" = field(default_factory=list)
    num_states: int = 0


@dataclass(frozen=True)
class CoverBundle:
    """The ``covers`` stage artifact.

    ``minimized`` is the raw two-level minimizer output (what lint's
    cover-scope rules inspect); ``cover`` is the final cover after
    Theorem 1 trigger-cube enforcement (what the netlist is built from).
    """

    minimized: "Cover"
    cover: "Cover"
    single_traversal: bool
    trigger_cubes_added: int


@dataclass(frozen=True)
class StageDef:
    """One node of the DAG: dependencies, key parameters, compute fn."""

    name: str
    deps: tuple[str, ...]
    #: names of :attr:`PipelineRun.params` entries hashed into the key
    params: tuple[str, ...]
    fn: Callable[["PipelineRun"], Any]


def _stage_parse(run: "PipelineRun") -> dict:
    return {
        "dialect": run.dialect,
        "canonical": run.canonical_text,
        "digest": run.root_digest,
    }


def _stage_sg_build(run: "PipelineRun") -> "StateGraph":
    if run.source_sg is not None:
        return run.source_sg
    run.artifact("parse")
    if run.dialect == "sg":
        from ..sg.sgformat import parse_sg

        return parse_sg(run.root_text)
    from ..stg import elaborate, parse_g

    return elaborate(parse_g(run.root_text))


def _stage_classify(run: "PipelineRun") -> Classification:
    from ..analysis.engine import run_preflight

    sg = run.artifact("sg-build")
    with trace_span("validate"):
        preflight = run_preflight(sg, name=run.name)
    message = ""
    if not preflight.ok:
        detail = "; ".join(
            f"[{rid}] {len(ds)} finding(s), e.g. {ds[0].message}"
            for rid, ds in preflight.by_rule().items()
        )
        message = f"SG fails the Theorem 2 preconditions: {detail}"
    return Classification(
        ok=preflight.ok,
        message=message,
        diagnostics=list(preflight.diagnostics),
        num_states=sg.num_states,
    )


def _stage_regions(run: "PipelineRun") -> "dict[int, SignalRegions]":
    from ..sg.regions import signal_regions

    sg = run.artifact("sg-build")
    return {a: signal_regions(sg, a) for a in sg.non_inputs}


def _stage_sop(run: "PipelineRun"):
    from ..core.sop_derivation import derive_sop_spec

    sg = run.artifact("sg-build")
    return derive_sop_spec(sg, regions=run.artifact("regions"))


def _stage_covers(run: "PipelineRun") -> CoverBundle:
    from ..core.synthesizer import apply_trigger_requirement, minimize_cover

    sg = run.artifact("sg-build")
    spec = run.artifact("sop-derivation")
    minimized = minimize_cover(
        spec,
        method=run.params["method"],
        share_products=run.params["share_products"],
        name=run.name,
    )
    cover, single, added = apply_trigger_requirement(sg, spec, minimized)
    return CoverBundle(
        minimized=minimized,
        cover=cover,
        single_traversal=single,
        trigger_cubes_added=added,
    )


def _stage_netlist(run: "PipelineRun"):
    from ..core.synthesizer import build_architecture

    spec = run.artifact("sop-derivation")
    bundle: CoverBundle = run.artifact("covers")
    return build_architecture(spec, bundle.cover, name=run.name)


def _stage_delays(run: "PipelineRun"):
    from ..core.synthesizer import finalize_circuit

    sg = run.artifact("sg-build")
    spec = run.artifact("sop-derivation")
    bundle: CoverBundle = run.artifact("covers")
    arch = run.artifact("netlist")
    lib = run.params["library"]
    return finalize_circuit(
        sg,
        spec,
        bundle.cover,
        arch,
        name=run.name,
        method=run.params["method"],
        library=Library(
            level_delay=lib["level_delay"], pair_area=lib["pair_area"]
        ),
        mhs_tau=run.params["mhs_tau"],
        delay_spread=run.params["spread"],
        single_traversal=bundle.single_traversal,
        trigger_cubes_added=bundle.trigger_cubes_added,
    )


def _stage_verify(run: "PipelineRun"):
    from ..core.verify import verify_hazard_freeness

    circuit = run.artifact("delays")
    params = dict(run.verify_params or {})
    params["input_delay"] = tuple(params.get("input_delay", (0.1, 6.0)))
    return verify_hazard_freeness(circuit, **params)


def _stage_certify(run: "PipelineRun"):
    from ..analysis.certify import certify_circuit

    circuit = run.artifact("delays")
    lib = run.params["library"]
    return certify_circuit(
        circuit,
        library=Library(
            level_delay=lib["level_delay"], pair_area=lib["pair_area"]
        ),
        name=run.name,
    )


#: The catalog, in topological order.
STAGES: dict[str, StageDef] = {
    s.name: s
    for s in (
        StageDef("parse", (), (), _stage_parse),
        StageDef("sg-build", ("parse",), (), _stage_sg_build),
        StageDef("classify", ("sg-build",), ("name",), _stage_classify),
        StageDef("regions", ("sg-build",), (), _stage_regions),
        StageDef(
            "sop-derivation", ("sg-build", "regions"), (), _stage_sop
        ),
        StageDef(
            "covers",
            ("sg-build", "sop-derivation"),
            ("method", "share_products"),
            _stage_covers,
        ),
        StageDef(
            "netlist", ("sop-derivation", "covers"), ("name",), _stage_netlist
        ),
        StageDef(
            "delays",
            ("sg-build", "sop-derivation", "covers", "netlist"),
            ("name", "method", "spread", "mhs_tau", "library"),
            _stage_delays,
        ),
        StageDef("verify", ("delays",), (), _stage_verify),
        StageDef(
            "certify",
            ("covers", "delays"),
            ("name", "method", "spread", "mhs_tau", "library"),
            _stage_certify,
        ),
    )
}
