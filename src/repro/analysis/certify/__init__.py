"""Symbolic hazard certifier: static proofs of external hazard-freeness.

Public surface:

* :func:`certify_circuit` — discharge every obligation family over a
  synthesized circuit, returning a :class:`Certificate`.
* The per-family obligation functions (``trigger_obligations`` …) for
  obligation-level testing and the HZ lint rules.
* The differential soundness harness (:func:`cross_check`,
  :func:`differential_suite`, :func:`differential_corpus`).
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".obligations": (
            "CERT_SCHEMA PROVED REFUTED UNKNOWN Certificate Obligation"
        ),
        ".differential": (
            "DifferentialOutcome SoundnessError archive_soundness_failure "
            "cross_check differential_corpus differential_suite"
        ),
        ".engine": (
            "certify_circuit certify_cover coverage_obligations "
            "delay_obligations disjointness_obligations omega_obligations "
            "trigger_obligations"
        ),
    },
)
