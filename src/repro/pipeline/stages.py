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

The ``delays`` artifact is a :class:`SynthesisResult`: the circuit plus
the text ``repro synth`` prints of it.  Stored, the circuit is pickled
bytes inside it, decoded the first time :attr:`SynthesisResult.circuit`
is read, so a warm synth prints without importing the engine.

The DAG (``delays`` also reads ``sop-derivation``)::

    sg-build ──► classify          (lint gate; off the synthesis cone)
       │
       └──► sop-derivation ──► covers ──► delays ──► verify
                  │              │          ▲ │
                  └──────────────┼──────────┘ │
                                 └────────────┴──► certify

``covers`` and ``delays`` read the graph as ``spec.sg``, the one the
``sop-derivation`` artifact holds its regions over, so a circuit holds
one graph (``circuit.sg is circuit.spec.sg``) however warm the run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..obs import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import Diagnostic
    from ..core.synthesizer import NShotCircuit
    from ..logic import Cover
    from ..netlist import Library
    from ..sg.graph import StateGraph
    from .dag import PipelineRun

__all__ = [
    "STAGES",
    "STAGE_VERSIONS",
    "Classification",
    "CoverBundle",
    "StageDef",
    "SynthesisResult",
]


#: Stage-code versions.  Bump a stage's number whenever its code (or the
#: code it calls) changes meaning; the bump invalidates exactly that
#: stage and its downstream cone in every cache.
STAGE_VERSIONS: dict[str, int] = {
    "sg-build": 6,
    "classify": 3,
    "sop-derivation": 5,
    "covers": 1,
    "delays": 4,
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


class SynthesisResult:
    """The ``delays`` stage artifact: the N-SHOT circuit, plus what
    ``repro synth`` prints of it.

    A computed result holds the live circuit and renders its text
    (:attr:`description`, :attr:`pla`) on first use, so a storeless
    caller never renders it.  Pickled, it becomes the text, the counts
    the ``synthesize`` span reports, and the circuit as pickled bytes;
    a result read back decodes those bytes only when :attr:`circuit` is
    first read, so printing it imports none of the engine.
    """

    def __init__(self, circuit: "NShotCircuit") -> None:
        self._circuit: "NShotCircuit | None" = circuit
        self._blob: bytes | None = None
        self._text: tuple[str, str] | None = None
        self.states = circuit.sg.num_states
        self.cubes = len(circuit.cover)
        self.gates = len(circuit.netlist.gates)
        #: set by the run that read this result from a store: resolves
        #: the stage again when the circuit bytes fail to decode
        self.recompute: "Callable[[], SynthesisResult] | None" = None

    @property
    def circuit(self) -> "NShotCircuit":
        if self._circuit is None:
            try:
                self._circuit = pickle.loads(self._blob)
            except Exception:
                if self.recompute is None:
                    raise
                self._circuit = self.recompute().circuit
            self._blob = None
        return self._circuit

    @property
    def description(self) -> str:
        """:meth:`NShotCircuit.describe`."""
        return self._rendered()[0]

    @property
    def pla(self) -> str:
        """The final cover as PLA text."""
        return self._rendered()[1]

    def _rendered(self) -> tuple[str, str]:
        if self._text is None:
            from ..logic.pla import write_pla

            c = self.circuit
            names = [c.spec.output_name(o) for o in range(c.spec.num_outputs)]
            self._text = (
                c.describe(),
                write_pla(c.cover, input_names=c.sg.signals, output_names=names),
            )
        return self._text

    def __getstate__(self) -> dict[str, Any]:
        blob = self._blob
        if blob is None:
            blob = pickle.dumps(self._circuit, protocol=pickle.HIGHEST_PROTOCOL)
        return {
            "text": self._rendered(),
            "counts": (self.states, self.cubes, self.gates),
            "circuit": blob,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._circuit = None
        self._blob = state["circuit"]
        self._text = state["text"]
        self.states, self.cubes, self.gates = state["counts"]
        self.recompute = None


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

    spec = run.artifact("sop-derivation")
    minimized = minimize_cover(
        spec,
        method=run.params["method"],
        share_products=run.params["share_products"],
        name=run.name,
    )
    cover, single, added = apply_trigger_requirement(spec.sg, spec, minimized)
    return CoverBundle(
        minimized=minimized,
        cover=cover,
        single_traversal=single,
        trigger_cubes_added=added,
    )


def _library(run: "PipelineRun") -> "Library":
    from ..netlist import Library

    lib = run.params["library"]
    return Library(level_delay=lib["level_delay"], pair_area=lib["pair_area"])


def _stage_delays(run: "PipelineRun") -> SynthesisResult:
    from ..core.synthesizer import build_architecture, finalize_circuit

    spec = run.artifact("sop-derivation")
    bundle: CoverBundle = run.artifact("covers")
    arch = build_architecture(spec, bundle.cover, name=run.name)
    circuit = finalize_circuit(
        spec.sg,
        spec,
        bundle.cover,
        arch,
        name=run.name,
        method=run.params["method"],
        library=_library(run),
        mhs_tau=run.params["mhs_tau"],
        delay_spread=run.params["spread"],
        single_traversal=bundle.single_traversal,
        trigger_cubes_added=bundle.trigger_cubes_added,
    )
    return SynthesisResult(circuit)


def _stage_verify(run: "PipelineRun", params: dict[str, Any]):
    from ..core.verify import verify_hazard_freeness

    return verify_hazard_freeness(
        run.artifact("delays").circuit,
        runs=params["runs"],
        max_transitions=params["max_transitions"],
    )


def _stage_certify(run: "PipelineRun"):
    from ..analysis.certify import certify_circuit

    return certify_circuit(
        run.artifact("delays").circuit, library=_library(run), name=run.name
    )


#: The catalog, in topological order.
STAGES: dict[str, StageDef] = {
    s.name: s
    for s in (
        StageDef("sg-build", (), (), _stage_sg_build),
        StageDef("classify", ("sg-build",), ("name",), _stage_classify),
        StageDef("sop-derivation", ("sg-build",), (), _stage_sop),
        StageDef(
            "covers", ("sop-derivation",), ("method", "share_products"), _stage_covers
        ),
        StageDef(
            "delays",
            ("sop-derivation", "covers"),
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
