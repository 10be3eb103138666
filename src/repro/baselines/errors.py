"""Uniform structured error surfacing for the baseline flows.

Every baseline flow refuses specifications in two ways, and the
differential fuzzing harness must tell them apart from genuine
crashes:

* **invalid specification** — the Theorem-2 preconditions (consistency,
  CSC, semi-modularity) fail: :func:`require_valid_spec` raises
  :class:`~repro.core.synthesizer.SynthesisError` carrying the
  pre-flight rule engine's structured diagnostics, exactly like the
  N-SHOT synthesizer does;
* **refused by design** — the spec is valid but outside the flow's
  documented power (Table 2's failure codes): the flow raises a
  :class:`BaselineRefusal` subclass with a ``code`` and a diagnostic
  anchored at the offending signal/region.

Both are :class:`ValueError` subclasses (via ``SynthesisError``), so
pre-existing ``except ValueError`` callers keep working.
"""

from __future__ import annotations

from ..analysis.diagnostics import Diagnostic, Location, Severity
from ..core.synthesizer import SynthesisError
from ..sg.graph import StateGraph

__all__ = ["BaselineRefusal", "refusal_diagnostic", "require_valid_spec"]


class BaselineRefusal(SynthesisError):
    """A baseline flow declining a valid spec, by documented design.

    ``code`` is the flow's failure label (Table 2 uses ``(1)`` for
    "not distributive" and ``(2)`` for "state signals required").
    """

    code: str = ""


def refusal_diagnostic(
    rule_id: str, message: str, detail: str, hint: str | None = None
) -> list[Diagnostic]:
    """One structured finding for a refusal (``BL``-namespace ids)."""
    return [
        Diagnostic(
            rule_id=rule_id,
            severity=Severity.ERROR,
            message=message,
            location=Location("graph", detail),
            hint=hint,
        )
    ]


def require_valid_spec(sg: StateGraph, name: str) -> None:
    """Gate a baseline flow on the Theorem-2 precondition rules.

    Raises :class:`SynthesisError` with the pre-flight diagnostics
    attached — the same structured surface the N-SHOT synthesizer
    presents, so campaign harnesses see one error shape everywhere.
    """
    from ..sg.properties import preconditions_hold

    if preconditions_hold(sg):
        return
    from ..analysis.engine import preflight_failure

    failure = preflight_failure(sg, name)
    if failure is not None:
        raise SynthesisError(failure[0], diagnostics=failure[1])
