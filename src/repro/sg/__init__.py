"""State graph model and analyses (Section III of the paper).

Provides the SG automaton with consistent binary coding, the CSC and
semi-modularity checks, distributivity classification via detonant
states, the excitation/quiescent/trigger region machinery that drives
SOP derivation, and helpers bridging SG state sets to Boolean covers.
"""

from .graph import StateGraph, Transition, SGError
from .builder import SGBuilder, sg_from_trace_spec
from .properties import (
    check_consistency,
    csc_violations,
    satisfies_csc,
    usc_violations,
    semimodularity_violations,
    is_semimodular_with_input_choices,
    SemimodularityViolation,
    validate_for_synthesis,
    SGValidationReport,
)
from .distributivity import (
    DetonantState,
    detonant_states,
    is_distributive_for,
    is_distributive,
    non_distributive_signals,
)
from .regions import (
    Region,
    SignalRegions,
    excitation_regions,
    quiescent_region_of,
    signal_regions,
    trigger_regions,
    check_output_trapping,
    trigger_region_reachable_from_all,
    is_single_traversal,
)
from .encoding import (
    state_cube,
    states_to_cover,
    reachable_codes,
    unreachable_cover,
    code_partition_check,
)
from .csc import CscConflict, csc_report, insert_state_signal
from .dot import sg_to_dot, netlist_to_dot
from .sgformat import canonicalize_spec, parse_sg, spec_digest, write_sg

__all__ = [
    "StateGraph",
    "Transition",
    "SGError",
    "SGBuilder",
    "sg_from_trace_spec",
    "check_consistency",
    "csc_violations",
    "satisfies_csc",
    "usc_violations",
    "semimodularity_violations",
    "is_semimodular_with_input_choices",
    "SemimodularityViolation",
    "validate_for_synthesis",
    "SGValidationReport",
    "DetonantState",
    "detonant_states",
    "is_distributive_for",
    "is_distributive",
    "non_distributive_signals",
    "Region",
    "SignalRegions",
    "excitation_regions",
    "quiescent_region_of",
    "signal_regions",
    "trigger_regions",
    "check_output_trapping",
    "trigger_region_reachable_from_all",
    "is_single_traversal",
    "state_cube",
    "states_to_cover",
    "reachable_codes",
    "unreachable_cover",
    "code_partition_check",
    "CscConflict",
    "csc_report",
    "insert_state_signal",
    "sg_to_dot",
    "netlist_to_dot",
    "canonicalize_spec",
    "parse_sg",
    "spec_digest",
    "write_sg",
]
