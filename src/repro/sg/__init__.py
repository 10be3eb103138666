"""State graph model and analyses (Section III of the paper).

Provides the SG automaton with consistent binary coding, the CSC and
semi-modularity checks, distributivity classification via detonant
states, the excitation/quiescent/trigger region machinery that drives
SOP derivation, and helpers bridging SG state sets to Boolean covers.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".graph": "StateGraph Transition SGError",
        ".builder": "SGBuilder",
        ".properties": (
            "check_consistency csc_violations satisfies_csc "
            "usc_violations semimodularity_violations "
            "is_semimodular_with_input_choices SemimodularityViolation "
            "validate_for_synthesis SGValidationReport"
        ),
        ".distributivity": (
            "DetonantState detonant_states is_distributive "
            "non_distributive_signals"
        ),
        ".regions": (
            "Region SignalRegions excitation_regions quiescent_region_of "
            "signal_regions trigger_regions check_output_trapping "
            "trigger_region_reachable_from_all is_single_traversal"
        ),
        ".encoding": (
            "reachable_codes unreachable_cover"
        ),
        ".csc": "CscConflict csc_report insert_state_signal",
        ".dot": "sg_to_dot netlist_to_dot",
        ".sgformat": "canonicalize_spec parse_sg spec_digest write_sg",
    },
)
