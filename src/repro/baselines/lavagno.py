"""SIS/Lavagno-style bounded-delay baseline flow ([5] in the paper).

Algorithmic model of the flow Table 2's ``SIS`` column came from:

1. **Restricted to distributive SGs** — non-distributive inputs are
   rejected with the paper's failure code ``(1)``.
2. Each non-input signal is implemented as a *combinational* next-state
   function with feedback (no storage element — the function covers
   ``ER(+a) ∪ QR(+a)`` and includes the signal's own literal where
   the cover needs it), minimized by ESPRESSO.
3. The cover is then made **hazard-free**: every static-1 transition
   pair gets a single-cube cover (extra consensus cubes → area).
4. Remaining *function* hazards (multi-signal concurrency across the
   function) cannot be fixed combinationally; the bounded-delay method
   masks them by **inserting delay lines** into the feedback path —
   the delay padding that "lengthen[s] the critical path" in the
   paper's discussion of Table 2.

The result mirrors the observed shape: competitive or smaller area on
simple sequential circuits (no latch cells at all), but slower on
concurrent circuits because of the inserted delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic import Cover, minimize
from ..netlist import Gate, GateType, Netlist, Pin
from ..sg.distributivity import non_distributive_signals
from ..sg.graph import StateGraph
from .errors import BaselineRefusal, refusal_diagnostic, require_valid_spec
from .hazard_free_sop import (
    _function_hazards,
    add_hazard_cover_cubes,
    next_state_function,
    sop_plane,
)

#: gate levels of each inserted delay line (the bounded-delay analysis
#: would compute this from the longest combinational path; two levels —
#: one AND, one OR — is the plane depth being masked, plus margin)
PAD_LEVELS = 3

__all__ = ["LavagnoResult", "NotDistributiveError", "synthesize_lavagno"]


class NotDistributiveError(BaselineRefusal):
    """Table 2 failure code (1): the flow handles only distributive SGs."""

    code = "(1)"


def require_distributive(sg: StateGraph, name: str, flow: str) -> None:
    """Refuse a non-distributive SG with failure code (1)."""
    detonant = non_distributive_signals(sg)
    if detonant:
        bad = ", ".join(sg.signals[a] for a in detonant)
        raise NotDistributiveError(
            f"(1) non-distributive SG: {flow} flow not applicable",
            diagnostics=refusal_diagnostic(
                "BL001",
                f"detonant (OR-caused) signals: {bad}",
                name,
                hint="only the N-SHOT/complex-gate/Q-module flows accept "
                "non-distributive specifications",
            ),
        )


@dataclass
class LavagnoResult:
    """Outcome of the SIS-style flow."""

    sg: StateGraph
    netlist: Netlist
    covers: dict[int, Cover]
    hazard_cubes_added: int
    delay_lines_inserted: int
    padded_signals: list[str] = field(default_factory=list)

    def stats(self):
        return self.netlist.stats()


def synthesize_lavagno(sg: StateGraph, name: str = "sis") -> LavagnoResult:
    """Run the bounded-delay hazard-free flow on a distributive SG."""
    require_valid_spec(sg, name)
    require_distributive(sg, name, "SIS/Lavagno")

    nl = Netlist(name)
    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])
    for a in sg.non_inputs:
        nl.add_output(sg.signals[a])

    covers: dict[int, Cover] = {}
    hazard_added = 0
    delay_lines = 0
    padded: list[str] = []

    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        cover = minimize(spec.on, spec.dc, spec.off)
        cover, added = add_hazard_cover_cubes(sg, spec, cover)
        hazard_added += added
        covers[a] = cover
        sig = sg.signals[a]

        plane = sop_plane(nl, cover, sg.signals, sig)

        if next(_function_hazards(sg, spec), None) is not None:
            # mask function hazards with a delay line in the output path
            delay_lines += 1
            padded.append(sig)
            nl.add(
                Gate(
                    f"pad_{sig}",
                    GateType.DELAY,
                    [Pin(plane)],
                    sig,
                    delay=PAD_LEVELS * 1.2,
                    attrs={"cut": True},
                )
            )
        else:
            nl.add(
                Gate(
                    f"out_{sig}",
                    GateType.BUF,
                    [Pin(plane)],
                    sig,
                    attrs={"cut": True},
                )
            )

    return LavagnoResult(
        sg=sg,
        netlist=nl,
        covers=covers,
        hazard_cubes_added=hazard_added,
        delay_lines_inserted=delay_lines,
        padded_signals=padded,
    )
