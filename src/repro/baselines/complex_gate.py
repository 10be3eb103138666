"""Single-complex-gate baseline ([2, 17] in the related work).

The earliest speed-independent methods assume every non-input signal
can be realized as *one* hazard-free complex gate computing the
next-state function with internal feedback.  The assumption sidesteps
the hazard problem entirely (a single gate has no internal races by
fiat) but is unrealistic for large fan-in functions — which is exactly
why the SOP-based architectures (SYN, N-SHOT) exist.

Provided for the related-work comparison bench: it gives the area a
method would report if arbitrarily complex AOI cells were available.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic import Cover, minimize
from ..netlist import Gate, GateType, Netlist, Pin
from ..sg.graph import StateGraph
from .errors import require_valid_spec
from .hazard_free_sop import next_state_function

__all__ = ["ComplexGateResult", "synthesize_complex_gate"]


@dataclass
class ComplexGateResult:
    """Outcome of the complex-gate flow."""

    sg: StateGraph
    netlist: Netlist
    covers: dict[int, Cover]
    max_fanin: int

    def stats(self):
        return self.netlist.stats()


def synthesize_complex_gate(
    sg: StateGraph,
    name: str = "cg",
) -> ComplexGateResult:
    """One complex gate per non-input signal (next-state function).

    The gate is modelled as a single AND-OR-invert style cell whose
    area is the series-transistor count of the SOP (literals + cubes)
    and whose delay is one level regardless of complexity — the
    complex-gate assumption taken at face value.
    """
    require_valid_spec(sg, name)

    nl = Netlist(name)
    for i in sorted(sg.inputs):
        nl.add_input(sg.signals[i])
    for a in sg.non_inputs:
        nl.add_output(sg.signals[a])

    covers: dict[int, Cover] = {}
    worst_fanin = 0
    for a in sg.non_inputs:
        spec = next_state_function(sg, a)
        cover = minimize(spec.on, spec.dc, spec.off)
        covers[a] = cover
        sig = sg.signals[a]
        pins = []
        seen: set[tuple[str, bool]] = set()
        for cube in cover.cubes:
            for var in cube.fixed_vars():
                positive = cube.literal(var) == 0b10
                key = (sg.signals[var], not positive)
                if key not in seen:
                    seen.add(key)
                    pins.append(Pin(*key))
        worst_fanin = max(worst_fanin, len(pins))
        if not pins:
            # constant next-state function (a tautological cover is
            # constant 1, an empty one constant 0): no cell inputs
            nl.add(
                Gate(
                    f"cplx_{sig}",
                    GateType.CONST,
                    [],
                    sig,
                    attrs={
                        "cut": True,
                        "complex": True,
                        "value": 1 if cover.cubes else 0,
                    },
                )
            )
            continue
        # single complex cell: modelled as one wide AND for area/delay
        # accounting (area ≈ literal count, delay = 1 level); marked as
        # a cut since it latches through internal feedback
        nl.add(
            Gate(
                f"cplx_{sig}",
                GateType.AND,
                pins,
                sig,
                attrs={"cut": True, "complex": True, "cubes": len(cover.cubes)},
            )
        )
    return ComplexGateResult(sg=sg, netlist=nl, covers=covers, max_fanin=worst_fanin)
