"""``repro info``, ``compare``, ``table2`` and ``explain``: one spec
or the paper suite through the analysis and every synthesis flow."""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    _add_cache_args,
    _add_coverage_args,
    _add_profile_args,
    _add_report_args,
    _emit_coverage,
    _emit_report,
    _lint_gate,
    _pipeline_run,
    _store_from,
    _write_vcd_file,
)


def _load_sg(path: str):
    """Load a specification: ``.sg`` state graphs or ``.g`` STGs."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".sg") or ".state graph" in text:
        from ..sg import parse_sg

        sg = parse_sg(text)
        return _SgSpec(path, sg), sg
    from ..stg import elaborate, parse_g

    stg = parse_g(text)
    return stg, elaborate(stg)


class _SgSpec:
    """Adapter so .sg files share the STG code paths in the CLI."""

    def __init__(self, path: str, sg) -> None:
        self.name = os.path.splitext(os.path.basename(path))[0]
        self._sg = sg

    def describe(self) -> str:
        return self._sg.describe()


def cmd_info(args: argparse.Namespace) -> int:
    from ..sg import (
        is_single_traversal,
        non_distributive_signals,
        signal_regions,
        validate_for_synthesis,
    )

    stg, sg = _load_sg(args.file)
    print(stg.describe())
    print()
    if not isinstance(stg, _SgSpec):
        from ..stg import classify

        print(classify(stg).summary())
    print(f"state graph: {sg.num_states} states")
    report = validate_for_synthesis(sg)
    print(report.summary())
    nd = non_distributive_signals(sg)
    detail = f" (detonant signals: {', '.join(sg.signals[a] for a in nd)})" if nd else ""
    print(f"distributive: {not nd}{detail}")
    print(f"single traversal: {is_single_traversal(sg)}")
    for a in sg.non_inputs:
        sr = signal_regions(sg, a)
        parts = ", ".join(
            f"{er.label(sg)}:{len(er)}" for er in sr.excitation
        )
        print(f"  {sg.signals[a]}: {parts}")
    return 0 if report.ok else 1


def _parser_info(sub: "argparse._SubParsersAction") -> None:
    p_info = sub.add_parser("info", help="analyze an STG file")
    p_info.add_argument("file", help=".g STG file")
    p_info.set_defaults(func=cmd_info)


def cmd_compare(args: argparse.Namespace) -> int:
    from ..baselines import (
        NotDistributiveError,
        StateSignalsRequiredError,
        synthesize_beerel,
        synthesize_lavagno,
        synthesize_qmodule,
    )

    # one PipelineRun serves every flow: the spec is parsed and the SG
    # built exactly once (one `pipeline.stage` span for sg-build),
    # where each flow used to re-derive it
    run = _pipeline_run(args, args.file)
    sg = run.sg()
    if _lint_gate(args, run):
        return 1
    rows = []
    for label, flow in (
        ("SIS/Lavagno", synthesize_lavagno),
        ("SYN/Beerel", synthesize_beerel),
        ("Q-module", synthesize_qmodule),
    ):
        try:
            rows.append((label, flow(sg).stats().row()))
        except NotDistributiveError:
            rows.append((label, "(1) non-distributive"))
        except StateSignalsRequiredError:
            rows.append((label, "(2) state signals required"))
    # preflight already ran in the lint gate (or the user opted out)
    nshot = run.circuit()
    rows.append(("N-SHOT", nshot.stats().row()))
    width = max(len(r[0]) for r in rows)
    for label, cell in rows:
        print(f"{label:<{width}}  {cell}")
    if args.vcd or args.coverage:
        from ..core.verify import verify_hazard_freeness

        cov = None
        if args.coverage:
            from ..obs.coverage import CoverageMap

            cov = CoverageMap.for_circuit(nshot)
        summary = verify_hazard_freeness(
            nshot,
            runs=5 if args.coverage else 1,
            keep_traces=bool(args.vcd),
            coverage=cov,
        )
        if args.vcd:
            _write_vcd_file(args.vcd, summary.traces)
        if cov is not None:
            print()
            _emit_coverage(cov, args.coverage_out)
    return 0


def _parser_compare(sub: "argparse._SubParsersAction") -> None:
    p_cmp = sub.add_parser("compare", help="run every flow on one STG")
    p_cmp.add_argument("file", help=".g STG file")
    p_cmp.add_argument(
        "--vcd",
        metavar="PATH",
        help="dump an N-SHOT verification run's waveforms as VCD",
    )
    _add_profile_args(p_cmp, out=True)
    p_cmp.add_argument(
        "--lint",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="pre-flight the Theorem-2 lint rules before synthesis "
        "(--no-lint skips the gate)",
    )
    _add_coverage_args(p_cmp)
    _add_cache_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)


def cmd_table2(args: argparse.Namespace) -> int:
    from ..bench import run_table2
    from ..core.report import format_results_table

    rows = run_table2(args.circuits or None, cache=_store_from(args))
    print(format_results_table([r.cells() for r in rows]))
    comp = [r.name for r in rows if r.compensation_required]
    print()
    print(
        "delay compensation required: "
        + (", ".join(comp) if comp else "never (paper's Section V claim)")
    )
    return 0


def _parser_table2(sub: "argparse._SubParsersAction") -> None:
    p_t2 = sub.add_parser("table2", help="regenerate Table 2")
    p_t2.add_argument("circuits", nargs="*", help="subset of benchmark names")
    _add_cache_args(p_t2)
    p_t2.set_defaults(func=cmd_table2)


def cmd_explain(args: argparse.Namespace) -> int:
    """Demonstrate MHS ω-filtering causally on one circuit.

    Synthesizes the target with ``delay_spread=0.0`` (the tightest
    designed bounds, so stress jitter actually exceeds them), sweeps
    stress corners until the flight recorder catches the flip-flop
    absorbing a sub-ω pulse, and prints the causal chain from that
    pulse back to the environment input transition that started it.
    """
    import json as json_mod

    from ..core import synthesize as _synthesize
    from ..obs.causality import find_filtered_chain

    target = args.target
    if os.path.exists(target):
        stg, sg = _load_sg(target)
        name = stg.name
    else:
        from ..bench import sg_of

        try:
            sg = sg_of(target)
        except KeyError:
            print(
                f"error: {target!r} is neither a spec file nor a paper-suite "
                "circuit name (see `repro table2` for names)",
                file=sys.stderr,
            )
            return 1
        name = target
    circuit = _synthesize(sg, name=name, delay_spread=0.0)
    chain, info = find_filtered_chain(circuit, seeds=args.seeds)
    if chain is None:
        print(
            f"error: no ω-filtered pulse could be demonstrated on {name} "
            f"({args.seeds} seeds per stress corner)",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        doc = chain.to_json_doc()
        doc["circuit"] = name
        doc["sweep"] = info
        rendered = json_mod.dumps(doc, indent=2)
    else:
        mode = info.get("mode")
        how = (
            f"organic (jitter ±{info['jitter']:g}, seed {info['seed']})"
            if mode == "organic"
            else f"probe runt injection (width {info['runt_width']:g})"
        )
        rendered = f"{name}: ω-filtered pulse via {how}\n" + chain.render_text()
    _emit_report(args, rendered, args.format == "text")
    return 0


def _parser_explain(sub: "argparse._SubParsersAction") -> None:
    p_x = sub.add_parser(
        "explain",
        help="causal chain of an ω-filtered pulse (flight recorder)",
    )
    p_x.add_argument(
        "target", help=".g/.sg spec file or a paper-suite circuit name"
    )
    p_x.add_argument(
        "--seeds",
        type=int,
        default=16,
        help="Monte-Carlo seeds per stress corner (default 16)",
    )
    _add_report_args(
        p_x,
        ("text", "json"),
        "output format (json = repro-causality/1)",
        output="write the chain to a file",
    )
    _add_profile_args(p_x)
    p_x.set_defaults(func=cmd_explain)
