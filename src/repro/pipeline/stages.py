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

No stage passes through: work that only one stage reads, keyed on
nothing that reader's key lacks, runs inside that reader instead of
being stored apart (the regions inside ``sop-derivation``, the
netlist inside ``delays``).

The DAG (``covers`` also reads ``sg-build``)::

    sg-build ──► classify          (lint gate; off the synthesis cone)
       │
       ├──► sop-derivation ──► covers
       │          │              │
       └──────────┴──────────────┴──► delays ──► verify
                                 │      │
                                 └──────┴──► certify
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
    "sg-build": 5,
    "classify": 3,
    "sop-derivation": 3,
    "covers": 1,
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
    #: ``fn(run)``, or ``fn(run, extra)`` for a stage resolved with
    #: per-request key parameters (``verify``)
    fn: Callable[..., Any]


def _stage_sg_build(run: "PipelineRun") -> "StateGraph":
    if run.source_sg is not None:
        return run.source_sg
    if run.dialect == "sg":
        from ..sg.sgformat import parse_sg

        return parse_sg(run.root_text)
    from ..stg import elaborate, parse_g

    return elaborate(parse_g(run.root_text))


def _stage_classify(run: "PipelineRun") -> Classification:
    from ..analysis.engine import preflight_failure

    sg = run.artifact("sg-build")
    with trace_span("validate"):
        failure = preflight_failure(sg, run.name)
    message, diagnostics = failure or ("", [])
    return Classification(
        ok=failure is None,
        message=message,
        diagnostics=list(diagnostics),
        num_states=sg.num_states,
    )


def _stage_sop(run: "PipelineRun"):
    from ..core.sop_derivation import derive_sop_spec
    from ..sg.regions import signal_regions

    sg = run.artifact("sg-build")
    # outside derive_sop_spec's own span, so that ``regions`` and
    # ``sop-derivation`` time the two steps apart
    regions = {a: signal_regions(sg, a) for a in sg.non_inputs}
    return derive_sop_spec(sg, regions)


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


def _stage_delays(run: "PipelineRun"):
    from ..core.synthesizer import build_architecture, finalize_circuit

    sg = run.artifact("sg-build")
    spec = run.artifact("sop-derivation")
    bundle: CoverBundle = run.artifact("covers")
    arch = build_architecture(spec, bundle.cover, name=run.name)
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


def _stage_verify(run: "PipelineRun", params: dict[str, Any]):
    from ..core.verify import verify_hazard_freeness

    return verify_hazard_freeness(
        run.artifact("delays"),
        runs=params["runs"],
        max_transitions=params["max_transitions"],
    )


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
        StageDef("sg-build", (), (), _stage_sg_build),
        StageDef("classify", ("sg-build",), ("name",), _stage_classify),
        StageDef("sop-derivation", ("sg-build",), (), _stage_sop),
        StageDef(
            "covers",
            ("sg-build", "sop-derivation"),
            ("method", "share_products"),
            _stage_covers,
        ),
        StageDef(
            "delays",
            ("sg-build", "sop-derivation", "covers"),
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
