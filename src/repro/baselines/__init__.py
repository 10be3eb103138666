"""Baseline synthesis flows the paper compares against in Table 2.

* :mod:`repro.baselines.lavagno` — SIS bounded-delay hazard-free flow
  ([5]): hazard-free covers plus delay padding; distributive only.
* :mod:`repro.baselines.beerel` — SYN speed-independent flow ([1]):
  monotonous-cover set/reset planes into latches with explicit
  acknowledgement hardware; distributive only.
* :mod:`repro.baselines.complex_gate` — one-complex-gate-per-signal
  methods ([2, 17]); related-work reference point.
* :mod:`repro.baselines.qflop` — the locally-clocked Q-module approach
  ([9]): Q-flop synchronizers on every input and feedback signal, an
  N-way C-element rendezvous and a worst-case-delay local clock; the
  cost structure Section II argues against.
* :mod:`repro.baselines.hazard_free_sop` — shared hazard-aware SOP
  machinery, plus the purely combinational hazard-free SOP flow (the
  strictest baseline: refuses anything with function hazards).

All flows refuse bad input with a structured
:class:`~repro.core.synthesizer.SynthesisError` carrying machine-
readable diagnostics — :class:`~repro.baselines.errors.BaselineRefusal`
subclasses for the method-specific restrictions, so the differential
fuzzer (and callers generally) can tell a principled refusal from a
crash.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".errors": "BaselineRefusal require_valid_spec",
        ".hazard_free_sop": (
            "NextStateSpec next_state_function "
            "add_hazard_cover_cubes function_hazard_states "
            "HazardFreeSopResult UnmaskableHazardError "
            "synthesize_hazard_free_sop"
        ),
        ".lavagno": "LavagnoResult NotDistributiveError synthesize_lavagno",
        ".beerel": "BeerelResult StateSignalsRequiredError synthesize_beerel",
        ".complex_gate": "ComplexGateResult synthesize_complex_gate",
        ".qflop": "QModuleResult synthesize_qmodule",
    },
)
