"""Differential fuzzing subsystem.

Property-controlled spec generation (:mod:`~repro.fuzz.generator`),
crash-contained cross-synthesis (:mod:`~repro.fuzz.differential`) over
the shared watchdog-guarded pool (:mod:`~repro.fuzz.executor`),
delta-debugging minimization (:mod:`~repro.fuzz.shrink`) and the
reproducer corpus (:mod:`~repro.fuzz.corpus`).  Entry point:
:func:`run_fuzz` / the ``repro fuzz`` CLI.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".corpus": "CorpusEntry archive_reproducer load_corpus",
        ".differential": (
            "DISAGREEMENT_KINDS FLOW_NAMES Disagreement FlowOutcome "
            "FuzzConfig SpecResult judge run_flow run_fuzz"
        ),
        ".executor": (
            "ExecutorPolicy ExecutorReport TaskResult WallClockTimeout "
            "run_tasks wall_clock_guard"
        ),
        ".generator": (
            "GeneratedSpec GenerationError SpecKnobs SpecLabels classify "
            "derive_seed generate_spec knob_combinations"
        ),
        ".report": "SCHEMA FuzzReport",
        ".shrink": "disagreement_predicate shrink_disagreement shrink_sg",
    },
)
