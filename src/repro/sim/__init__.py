"""Pure-delay event simulation: gates, MHS flip-flop, SG environment.

Substitutes for the authors' VERILOG/SPICE validation: a gate-level
event-driven simulator under the pure delay model, a behavioural MHS
flip-flop with ω/τ electrical parameters, and an SG-driven environment
with conformance checking for closed-loop hazard-freeness runs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".waveform": "Waveform Pulse TraceSet",
        ".mhs": "MhsParams MhsState mhs_response celement_response",
        ".simulator": (
            "Simulator SimConfig SimulationError SimulationLimitError"
        ),
        ".environment": "SGEnvironment ConformanceReport",
        ".hazards": "HazardReport analyze_hazards",
        ".vcd": "write_vcd",
        ".performance": "PerformanceReport measure_performance",
    },
)
