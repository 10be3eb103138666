"""repro — Externally Hazard-Free Implementations of Asynchronous Circuits.

A from-scratch Python reproduction of Sawasaki, Ykman-Couvreur & Lin
(DAC 1995): the **N-SHOT architecture** and the ASSASSIN-style
synthesis flow that implements any semi-modular state graph with input
choices satisfying CSC — distributive or not — as a gate-level circuit
whose combinational SOP planes may glitch freely while every externally
observable non-input signal stays hazard-free.

Typical use::

    from repro import parse_g, elaborate, synthesize, verify_hazard_freeness

    sg = elaborate(parse_g(open("ctrl.g").read()))
    circuit = synthesize(sg, name="ctrl")
    print(circuit.describe())
    print(verify_hazard_freeness(circuit).summary())

Package map:

* :mod:`repro.logic` — two-level minimization (ESPRESSO-style + exact);
* :mod:`repro.sg` — state graphs, CSC/semi-modularity/distributivity,
  excitation/quiescent/trigger regions;
* :mod:`repro.stg` — Signal Transition Graph front-end (``.g`` format);
* :mod:`repro.netlist` — gates, SIS-style area/delay library, netlists;
* :mod:`repro.sim` — pure-delay event simulation, the MHS flip-flop
  model, SG-driven environment, hazard analysis;
* :mod:`repro.core` — the N-SHOT synthesis flow (the contribution);
* :mod:`repro.baselines` — SIS/Lavagno, SYN/Beerel and complex-gate
  comparison flows;
* :mod:`repro.analysis` — the static-analysis rule engine behind
  ``repro lint`` and the synthesizer's pre-flight validation;
* :mod:`repro.bench` — Table 2 benchmark reconstructions and runner.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".logic": "Cover Cube espresso exact_minimize minimize",
        ".sg": (
            "SGBuilder StateGraph Transition is_distributive "
            "is_semimodular_with_input_choices is_single_traversal "
            "satisfies_csc signal_regions validate_for_synthesis"
        ),
        ".stg": "Stg elaborate parse_g write_g",
        ".netlist": "Netlist write_verilog",
        ".sim": "SGEnvironment SimConfig Simulator analyze_hazards mhs_response",
        ".core": (
            "NShotCircuit SynthesisError TriggerRequirementError synthesize "
            "verify_hazard_freeness"
        ),
        ".baselines": (
            "NotDistributiveError StateSignalsRequiredError synthesize_beerel "
            "synthesize_complex_gate synthesize_lavagno"
        ),
        ".bench": "run_benchmark run_table2",
        ".analysis": (
            "AnalysisResult Diagnostic Severity analyze render_sarif "
            "run_preflight"
        ),
    },
)
__all__.append("__version__")
