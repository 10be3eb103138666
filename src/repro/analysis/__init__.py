"""Static analysis: the N-SHOT lint engine.

Theorem 2 reduces hazard-freeness of an N-SHOT implementation to
statically checkable preconditions — semi-modularity with input
choices, CSC, the single-cube trigger requirement (Theorem 1) and the
delay requirement (Equation (1)).  This package turns those checks
(plus netlist-level structural audits) into a first-class diagnostics
engine:

* :mod:`repro.analysis.diagnostics` — :class:`Diagnostic` /
  :class:`Severity` / :class:`Location`;
* :mod:`repro.analysis.registry` — the ``@rule(...)`` registry;
* :mod:`repro.analysis.rules_sg` / ``rules_trigger`` /
  ``rules_netlist`` / ``rules_hazard`` — the built-in rule catalog
  (see docs/ANALYSIS.md);
* :mod:`repro.analysis.certify` — the symbolic hazard certifier the
  HZ rules surface (proof obligations, ``repro-certificate/1``
  documents, differential soundness harness);
* :mod:`repro.analysis.engine` — phased execution
  (:func:`run_rules`, :func:`analyze`, :func:`run_preflight`);
* :mod:`repro.analysis.export` — text / ``repro-lint/1`` JSON /
  SARIF 2.1.0 renderers;
* :mod:`repro.analysis.baseline` — baseline suppression files.

The synthesizer's pre-flight validation and the ``repro lint`` CLI
both consume this engine — there is no second validation path.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".diagnostics": "Diagnostic Location Severity",
        ".registry": "Rule RuleMeta RuleRegistry Scope rule default_registry",
        ".context": "LintContext",
        ".engine": "AnalysisResult analyze run_rules run_preflight",
        ".export": "LINT_SCHEMA render_text render_json render_sarif",
        ".baseline": (
            "BASELINE_SCHEMA build_baseline load_baseline apply_baseline"
        ),
    },
)
