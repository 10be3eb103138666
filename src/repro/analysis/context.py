"""Analysis context: the inputs a lint run works over.

A :class:`LintContext` wraps the specification (state graph) and/or a
netlist plus the derived products the deeper rule scopes need — the
SOP spec, the minimized cover, and the mapped N-SHOT circuit.  All
derivations are lazy pulls through one pipeline run, so an SG-scope-only
run (the synthesizer pre-flight) never builds one or pays for
minimization, and tests can inject a hand-built cover or netlist to
seed violations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..netlist.netlist import Netlist
from ..sg.graph import StateGraph
from .diagnostics import Location

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..core.sop_derivation import SopSpec
    from ..core.synthesizer import NShotCircuit
    from ..logic.cover import Cover
    from ..pipeline.dag import PipelineRun
    from .certify.obligations import Certificate

__all__ = ["LintContext"]


class LintContext:
    """Everything one analysis run may look at.

    Parameters
    ----------
    sg:
        The specification state graph (None for netlist-only lints).
    netlist:
        A pre-built netlist to analyze; when None and ``sg`` is given,
        the netlist scope synthesizes one on demand.
    name:
        Circuit name used in messages and synthesized netlists.
    source:
        Path of the spec file the SG came from (drives SARIF physical
        locations); None for programmatic graphs.
    spread / method:
        Synthesis knobs of the on-demand pipeline (Equation (1) is
        evaluated at ``spread``).
    cover:
        Optional pre-minimized cover (tests seed fragmented covers
        here); when None the context minimizes on demand.
    pipeline:
        The :class:`~repro.pipeline.dag.PipelineRun` the lazy
        derivations pull stage artifacts through (constructed with
        matching knobs; a store-backed one lets a warm cache serve lint
        without re-minimizing or re-mapping anything).  When None, a
        storeless run over ``sg`` is built on first use.
    """

    def __init__(
        self,
        sg: StateGraph | None = None,
        netlist: Netlist | None = None,
        *,
        name: str = "spec",
        source: str | None = None,
        spread: float = 0.0,
        method: str = "espresso",
        cover: "Cover | None" = None,
        pipeline: "PipelineRun | None" = None,
    ) -> None:
        if sg is None and netlist is None:
            raise ValueError("LintContext needs a state graph or a netlist")
        self.sg = sg
        self.name = name
        self.source = source
        self.spread = spread
        self.method = method
        self._pipeline = pipeline
        self._netlist = netlist
        self._cover: "Cover | None" = cover
        self._injected_cover = cover is not None

    # ------------------------------------------------------------------
    # lazy derived products
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> "PipelineRun":
        if self._pipeline is None:
            from ..pipeline.dag import PipelineRun

            self._pipeline = PipelineRun.from_sg(
                self.require_sg(),
                name=self.name,
                method=self.method,
                delay_spread=self.spread,
            )
        return self._pipeline

    def require_sg(self) -> StateGraph:
        if self.sg is None:
            raise ValueError("rule needs a state graph but none was provided")
        return self.sg

    def require_spec(self) -> "SopSpec":
        """The derived multi-output (F, D, R) problem (Section IV-A)."""
        return self.pipeline.sop()

    def require_cover(self) -> "Cover":
        """A minimized cover for the spec (unconstrained by hazards):
        the raw minimizer output, before Theorem 1 enforcement."""
        if self._cover is None:
            self._cover = self.pipeline.covers().minimized
        return self._cover

    def require_circuit(self) -> "NShotCircuit":
        """The fully synthesized N-SHOT circuit (validation skipped —
        the engine has already run the pre-flight rules by the time a
        netlist-scope rule asks for this)."""
        return self.pipeline.circuit()

    def require_certificate(self) -> "Certificate":
        """The circuit's hazard certificate (the HZ rules' substrate),
        discharged once by the ``certify`` stage and shared across all
        five rule bodies."""
        return self.pipeline.certify()

    def require_netlist(self) -> Netlist:
        if self._netlist is None:
            self._netlist = self.require_circuit().netlist
        return self._netlist

    @property
    def has_own_netlist(self) -> bool:
        """True when the context was created over a pre-built netlist."""
        return self._netlist is not None

    @property
    def has_own_cover(self) -> bool:
        """True when a pre-minimized cover was injected at construction
        (tests seed fragmented/mutated covers this way); the hazard
        rules then certify that cover instead of the synthesized one."""
        return self._injected_cover

    # ------------------------------------------------------------------
    # location helpers
    # ------------------------------------------------------------------
    def location(self, kind: str, detail: str) -> Location:
        return Location(kind=kind, detail=detail, path=self.source)

    def graph_location(self) -> Location:
        return self.location("graph", self.name)
