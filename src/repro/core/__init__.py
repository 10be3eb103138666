"""The N-SHOT architecture synthesis flow (the paper's contribution).

``synthesize()`` turns a validated state graph into an externally
hazard-free gate-level circuit: region-derived set/reset SOPs minimized
without hazard constraints, trigger-cube enforcement (Theorem 1), the
Equation (1) delay requirement, the Figure 3 architecture with MHS
flip-flops, and Section IV-F initialization analysis.
``verify_hazard_freeness()`` closes the loop in simulation.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".sop_derivation": "SopSpec derive_sop_spec region_mode_table ModeRow",
        ".trigger": (
            "TriggerCheck check_trigger_cubes enforce_trigger_cubes "
            "TriggerRequirementError"
        ),
        ".delays": "PlaneTiming DelayRequirement compute_delay_requirement",
        ".architecture": "ArchitectureResult build_nshot_netlist",
        ".initialization": "InitDecision analyze_initialization",
        ".synthesizer": "NShotCircuit SynthesisError synthesize",
        ".verify": (
            "OracleVerdict VerificationRun VerificationSummary run_oracle "
            "verify_hazard_freeness"
        ),
        ".report": "format_mode_table format_results_table",
    },
)
