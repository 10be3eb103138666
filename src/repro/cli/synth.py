"""``repro synth``: one spec through the N-SHOT flow.

The command perfbench's ``cli-hit``/``cli-miss`` workloads time.  It
prints the report and writes ``--pla`` from the ``delays`` artifact's
text alone, so a warm run imports none of the engine: the circuit is
decoded only for ``-o``, ``--verify``, ``--vcd`` and ``--coverage``."""

from __future__ import annotations

import argparse

from . import (
    _add_cache_args,
    _add_coverage_args,
    _add_profile_args,
    _add_synthesis_args,
    _emit_coverage,
    _lint_gate,
    _pipeline_run,
    _write_vcd_file,
)


def cmd_synth(args: argparse.Namespace) -> int:
    run = _pipeline_run(args, args.file)
    if _lint_gate(args, run):
        return 1
    # the gate already ran the preflight rules (or the user opted out);
    # the delays entry carries the report, so a warm run reads no
    # sg-build entry
    result = run.synthesis_result(validate=False)
    print(result.description)
    if args.pla:
        with open(args.pla, "w") as f:
            f.write(result.pla)
        print(f"wrote {args.pla}")
    if args.output:
        from ..netlist import write_verilog

        with open(args.output, "w") as f:
            f.write(write_verilog(result.circuit.netlist))
        print(f"wrote {args.output}")
    if args.verify and args.static_first and not (args.vcd or args.coverage):
        # certificate first: a fully-proved circuit skips the
        # Monte-Carlo sweep entirely (waveforms/coverage need traces,
        # so those flags keep the simulating path below)
        summary = run.verify(runs=args.runs, static_first=True)
        print(summary.summary())
        if not summary.static_skip and summary.certificate:
            counts = summary.certificate["counts"]
            print(
                f"certificate: {counts['proved']} proved, "
                f"{counts['refuted']} refuted, {counts['unknown']} unknown "
                "— fell back to Monte-Carlo"
            )
        return 0 if summary.ok else 2
    if args.verify or args.vcd or args.coverage:
        from ..core.verify import verify_hazard_freeness
        from ..obs.telemetry import HazardTelemetry

        # telemetry and coverage ride the verify sweep; a bare --vcd
        # still needs one oracle run to have traces to dump
        circuit = result.circuit
        tele = HazardTelemetry.for_circuit(circuit) if args.verify else None
        cov = None
        if args.coverage:
            from ..obs.coverage import CoverageMap

            cov = CoverageMap.for_circuit(circuit)
        summary = verify_hazard_freeness(
            circuit,
            runs=args.runs if (args.verify or args.coverage) else 1,
            telemetry=tele,
            keep_traces=bool(args.vcd),
            coverage=cov,
        )
        if args.vcd:
            _write_vcd_file(args.vcd, summary.traces)
        if cov is not None:
            _emit_coverage(cov, args.coverage_out)
        if args.verify:
            print(summary.summary())
            if tele is not None:
                print(tele.render_text())
            return 0 if summary.ok else 2
    return 0


def _parser_synth(sub: "argparse._SubParsersAction") -> None:
    p_synth = sub.add_parser("synth", help="synthesize an STG into N-SHOT")
    p_synth.add_argument("file", help=".g STG file")
    p_synth.add_argument("-o", "--output", help="write structural Verilog here")
    p_synth.add_argument("--pla", help="write the minimized cover as PLA text")
    _add_synthesis_args(
        p_synth,
        "assumed relative gate-delay uncertainty for Equation (1)",
        method_first=True,
    )
    p_synth.add_argument(
        "--verify", action="store_true", help="run Monte-Carlo verification"
    )
    p_synth.add_argument(
        "--static-first",
        action="store_true",
        help="with --verify: certify symbolically first and skip the "
        "Monte-Carlo sweep when every obligation is proved",
    )
    p_synth.add_argument("--runs", type=int, default=5)
    p_synth.add_argument(
        "--vcd",
        metavar="PATH",
        help="dump the verification run's waveforms (internal SOP nets "
        "included) as VCD",
    )
    _add_profile_args(p_synth, out=True)
    p_synth.add_argument(
        "--lint",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="pre-flight the Theorem-2 lint rules before synthesis "
        "(--no-lint skips the gate)",
    )
    _add_coverage_args(p_synth)
    _add_cache_args(p_synth)
    p_synth.set_defaults(func=cmd_synth)
