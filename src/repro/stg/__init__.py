"""Signal Transition Graph front-end.

STGs (labelled safe Petri nets) are the high-level formalism the
benchmark circuits are specified in; token-flow reachability produces
the state graphs the N-SHOT synthesizer consumes.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".petrinet": "Stg StgTransition StgError",
        ".parser": "parse_g write_g",
        ".reachability": "elaborate infer_initial_values ElaborationError",
        ".analysis": (
            "StgReport is_live is_safe free_choice_conflicts classify"
        ),
    },
)
