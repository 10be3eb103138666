"""Top-level N-SHOT synthesis — the ASSASSIN flow of the paper.

:func:`synthesize` runs the full Section IV-E procedure as one
:class:`~repro.pipeline.dag.PipelineRun`, whose stages
(:mod:`repro.pipeline.stages`) call the step functions defined here:

1. validate the SG (consistency, CSC, semi-modularity with input
   choices) — the Theorem 2 preconditions;
2. derive the multi-output (F, D, R) from the excitation/quiescent
   regions (Section IV-A);
3. minimize with a conventional two-level minimizer — heuristic
   ESPRESSO loop or exact, entirely unconstrained by hazards;
4. audit/enforce the trigger requirement (Theorem 1; automatic for
   single-traversal SGs per Corollary 1);
5. evaluate the delay requirement, Equation (1);
6. map into the N-SHOT netlist (Figure 3) and analyze flip-flop
   initialization (Section IV-F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..logic import Cover
from ..netlist import DEFAULT_LIBRARY, Library, Netlist, NetlistStats
from ..obs import trace_span
from ..sg.graph import StateGraph
from .architecture import ArchitectureResult, build_nshot_netlist
from .delays import DelayRequirement, compute_delay_requirement
from .initialization import InitDecision, analyze_initialization
from .sop_derivation import SopSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import Diagnostic
    from ..pipeline.store import ArtifactStore

__all__ = [
    "NShotCircuit",
    "SynthesisError",
    "apply_trigger_requirement",
    "build_architecture",
    "finalize_circuit",
    "minimize_cover",
    "synthesize",
]


class SynthesisError(ValueError):
    """Raised when an SG violates the Theorem 2 preconditions.

    When raised by the pre-flight pass, ``diagnostics`` carries the
    structured findings of the static-analysis rule engine (the same
    objects ``repro lint`` reports), so callers can render rule ids,
    locations and hints instead of one opaque string.
    """

    def __init__(
        self, message: str, diagnostics: "list[Diagnostic] | None" = None
    ) -> None:
        super().__init__(message)
        self.diagnostics: "list[Diagnostic]" = diagnostics or []


@dataclass
class NShotCircuit:
    """The complete synthesis result for one specification."""

    sg: StateGraph
    spec: SopSpec
    cover: Cover
    netlist: Netlist
    architecture: ArchitectureResult
    delay_requirements: dict[int, DelayRequirement]
    initialization: dict[int, InitDecision]
    single_traversal: bool
    trigger_cubes_added: int
    method: str
    #: relative gate-delay uncertainty Equation (1) was evaluated for
    designed_spread: float = 0.0

    def stats(self, library: Library = DEFAULT_LIBRARY) -> NetlistStats:
        """Area/delay summary — one Table 2 row."""
        return self.netlist.stats(library)

    @property
    def compensation_required(self) -> bool:
        """True when any signal needs the Equation (1) delay line."""
        return any(r.compensation_required for r in self.delay_requirements.values())

    def describe(self) -> str:
        s = self.stats()
        lines = [
            f"N-SHOT circuit for {self.netlist.name}: "
            f"{self.sg.num_states} states, {len(self.sg.non_inputs)} non-input signals",
            f"  method: {self.method}, cover: {len(self.cover)} cubes / "
            f"{self.cover.num_literals()} literals",
            f"  single traversal: {self.single_traversal}, "
            f"trigger cubes added: {self.trigger_cubes_added}",
            f"  area {s.area:.0f}, delay {s.delay:.1f} ns, {s.num_gates} gates",
        ]
        for r in self.delay_requirements.values():
            lines.append("  delay req: " + r.describe())
        for d in self.initialization.values():
            lines.append("  init: " + d.describe())
        return "\n".join(lines)


def minimize_cover(
    spec: SopSpec,
    method: str = "espresso",
    share_products: bool = True,
    name: str = "nshot",
) -> Cover:
    """Step 3: unconstrained two-level minimization of (F, D, R), plus
    the soundness audit of the result."""
    from ..logic.minimize import minimize, verify_cover

    if share_products:
        cover = minimize(spec.on, spec.dc, spec.off, method=method)
    else:
        # per-function minimization: no multi-output term sharing
        cover = Cover.empty(spec.sg.num_signals, spec.num_outputs)
        for o in range(spec.num_outputs):
            sub = minimize(
                spec.on.projection(o),
                spec.dc.projection(o),
                spec.off.projection(o),
                method=method,
            )
            for c in sub.cubes:
                cover.add(c.with_outputs(1 << o))
    with trace_span("cover-audit"):
        check = verify_cover(cover, spec.on, spec.dc, spec.off)
    if not check.ok:
        raise SynthesisError(
            f"minimizer produced an unsound cover for {name}: {check}"
        )
    return cover


def apply_trigger_requirement(
    sg: StateGraph, spec: SopSpec, cover: Cover
) -> tuple[Cover, bool, int]:
    """Step 4 (Theorem 1): returns ``(cover, single_traversal, added)``."""
    from .trigger import check_trigger_cubes, enforce_trigger_cubes

    with trace_span("trigger-enforcement") as sp_t:
        single = all(sr.single_traversal for sr in spec.regions.values())
        added = 0
        if not single:
            cover, added = enforce_trigger_cubes(spec, cover)
        else:
            # Corollary 1: nothing to do, but assert it for defence in depth
            audits = check_trigger_cubes(spec, cover)
            bad = [a for a in audits if not a.ok]
            if bad:  # pragma: no cover - Corollary 1 guarantees this branch is dead
                raise SynthesisError("single-traversal SG failed trigger audit")
        sp_t.set(single_traversal=single, cubes_added=added)
    return cover, single, added


def build_architecture(
    spec: SopSpec, cover: Cover, name: str = "nshot"
) -> ArchitectureResult:
    """First-pass N-SHOT netlist (Figure 3), before Equation (1)."""
    with trace_span("netlist-build"):
        return build_nshot_netlist(spec, cover, name=name)


def finalize_circuit(
    sg: StateGraph,
    spec: SopSpec,
    cover: Cover,
    arch: ArchitectureResult,
    *,
    name: str = "nshot",
    method: str = "espresso",
    library: Library = DEFAULT_LIBRARY,
    mhs_tau: float = 1.2,
    delay_spread: float = 0.0,
    single_traversal: bool = True,
    trigger_cubes_added: int = 0,
) -> NShotCircuit:
    """Steps 5–6: evaluate Equation (1) per signal, analyze flip-flop
    initialization, rebuild the netlist if compensation is required,
    and assemble the :class:`NShotCircuit`."""
    with trace_span("delay-eval", spread=delay_spread) as sp_d:
        reqs: dict[int, DelayRequirement] = {}
        for a in sg.non_inputs:
            reqs[a] = compute_delay_requirement(
                sg.signals[a],
                arch.set_timing[a],
                arch.reset_timing[a],
                library=library,
                mhs_tau=mhs_tau,
                spread=delay_spread,
            )
        sp_d.set(
            compensated=sum(1 for r in reqs.values() if r.compensation_required)
        )
    with trace_span("initialization"):
        init = analyze_initialization(spec, cover)
    if any(r.compensation_required for r in reqs.values()):
        with trace_span("netlist-build", rebuild=True):
            arch = build_nshot_netlist(
                spec,
                cover,
                delay_requirements=reqs,
                init_values={a: d.initial_value for a, d in init.items()},
                name=name,
            )
    problems = arch.netlist.validate()
    if problems:  # pragma: no cover - structural invariant of the builder
        raise SynthesisError(f"malformed netlist for {name}: {problems[:3]}")
    return NShotCircuit(
        sg=sg,
        spec=spec,
        cover=cover,
        netlist=arch.netlist,
        architecture=arch,
        delay_requirements=reqs,
        initialization=init,
        single_traversal=single_traversal,
        trigger_cubes_added=trigger_cubes_added,
        method=method,
        designed_spread=delay_spread,
    )


def synthesize(
    sg: StateGraph,
    name: str = "nshot",
    method: str = "espresso",
    library: Library = DEFAULT_LIBRARY,
    mhs_tau: float = 1.2,
    delay_spread: float = 0.0,
    share_products: bool = True,
    validate: bool = True,
    cache: "ArtifactStore | None" = None,
) -> NShotCircuit:
    """Synthesize an SG into an externally hazard-free N-SHOT circuit.

    Parameters
    ----------
    sg:
        The specification; must be consistent, CSC and semi-modular
        with input choices (checked unless ``validate=False``).
    method:
        ``"espresso"`` or ``"exact"`` two-level minimization.
    delay_spread:
        Assumed relative gate-delay uncertainty (±40% → 0.4) fed into
        Equation (1); determines whether a local delay line is needed
        and how long it must be.  0 = the nominal equal-delay bound.
    share_products:
        When True (default, the paper's setting) all set/reset
        functions are minimized together as one multi-output problem so
        AND gates can be shared between functions; False minimizes each
        function separately (the ablation knob).
    cache:
        An optional :class:`~repro.pipeline.store.ArtifactStore` that
        serves and records the stage artifacts.  With or without one
        the flow is the same :class:`~repro.pipeline.dag.PipelineRun`;
        ``None`` (the default) keeps every artifact in memory only.

    Raises
    ------
    SynthesisError
        When validation fails.
    TriggerRequirementError
        When a non-single-traversal SG cannot satisfy Theorem 1.
    """
    from ..pipeline import PipelineRun

    return PipelineRun.from_sg(
        sg,
        name=name,
        store=cache,
        method=method,
        library=library,
        mhs_tau=mhs_tau,
        delay_spread=delay_spread,
        share_products=share_products,
    ).synthesize(validate=validate)
