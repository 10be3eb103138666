"""``repro faults`` and ``repro fuzz``: fault-injection and
differential-fuzzing campaigns."""

from __future__ import annotations

import argparse
import os
import sys

from . import _add_report_args, _emit_report


def cmd_faults(args: argparse.Namespace) -> int:
    from ..bench import fault_circuit_names
    from ..faults import FaultCampaign, WatchdogLimits

    if args.list:
        for name in fault_circuit_names():
            print(name)
        return 0
    circuits = args.circuit or fault_circuit_names()
    from ..bench import fault_circuit

    try:
        for name in circuits:
            fault_circuit(name)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 1
    campaign = FaultCampaign(
        circuits=circuits,
        seeds=args.seeds,
        jitter=args.jitter,
        limits=WatchdogLimits(
            max_events=args.max_events, max_time=args.max_time
        ),
        collect_telemetry=args.telemetry,
        collect_coverage=args.coverage,
    )
    result = campaign.run(jobs=args.jobs)
    rendered = result.render_text() if args.text else result.render_json()
    _emit_report(args, rendered, args.text)
    if not result.baseline_ok:
        return 2  # golden runs flagged: the oracle itself is suspect
    return 0


def _parser_faults(sub: "argparse._SubParsersAction") -> None:
    p_f = sub.add_parser(
        "faults", help="run a fault-injection campaign (JSON report)"
    )
    p_f.add_argument(
        "--circuit",
        action="append",
        help="fault-suite circuit name (repeatable; default: whole suite)",
    )
    p_f.add_argument(
        "--seeds", type=int, default=8, help="Monte-Carlo seeds per fault"
    )
    p_f.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep"
    )
    p_f.add_argument(
        "--jitter",
        type=float,
        default=0.3,
        help="relative delay spread (circuits are synthesized for it)",
    )
    p_f.add_argument(
        "--max-events",
        type=int,
        default=100_000,
        help="per-point simulator event budget (livelock watchdog)",
    )
    p_f.add_argument(
        "--max-time",
        type=float,
        default=1200.0,
        help="per-point simulated-time budget in ns",
    )
    p_f.add_argument(
        "--telemetry",
        action="store_true",
        help="attach hazard telemetry (ω-margin, delay slack) per point",
    )
    p_f.add_argument(
        "--coverage",
        action="store_true",
        help="attach SG coverage per point; faulty points carry "
        "coverage_delta vs the golden exploration ceiling",
    )
    p_f.add_argument(
        "--text", action="store_true", help="human-readable report instead of JSON"
    )
    p_f.add_argument("-o", "--output", help="write the report to a file")
    p_f.add_argument(
        "--list", action="store_true", help="list fault-suite circuit names"
    )
    p_f.set_defaults(func=cmd_faults)


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json as json_mod

    from ..fuzz import FuzzConfig, archive_reproducer, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        signals=args.signals,
        csc=args.csc,
        distributive=args.distributive,
        traversal=args.traversal,
        jobs=args.jobs,
        flow_timeout=args.flow_timeout if args.flow_timeout > 0 else None,
        retries=args.retries,
        oracle_runs=args.oracle_runs,
        minimize=not args.no_minimize,
        shrink_evals=args.shrink_evals,
    )
    try:
        config.combinations()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report = run_fuzz(config)
    except Exception as e:  # an uncontained crash is the harness's own bug
        print(
            f"error: fuzz harness failed: {type(e).__name__}: {e}",
            file=sys.stderr,
        )
        return 2

    archived = []
    if args.archive:
        for d in report.unique_disagreements():
            path = archive_reproducer(d, args.corpus)
            if path is not None:
                archived.append(str(path))

    if args.format == "json":
        rendered = json_mod.dumps(report.to_json(), indent=2)
    else:
        rendered = report.render_text()
        if archived:
            rendered += "\n  archived: " + ", ".join(archived)
    _emit_report(args, rendered, args.format == "text")
    return 0 if report.clean else 1


def _parser_fuzz(sub: "argparse._SubParsersAction") -> None:
    p_fz = sub.add_parser(
        "fuzz",
        help="differential fuzz campaign over every synthesis flow",
    )
    p_fz.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_fz.add_argument(
        "--budget", type=int, default=100, help="number of generated specs"
    )
    p_fz.add_argument(
        "--signals",
        type=int,
        default=8,
        help="target signal count per generated spec",
    )
    p_fz.add_argument(
        "--csc",
        choices=("both", "on", "off"),
        default="both",
        help="generate CSC-satisfying specs, violating ones, or both",
    )
    p_fz.add_argument(
        "--distributive",
        choices=("both", "on", "off"),
        default="both",
        help="generate distributive specs, OR-causal ones, or both",
    )
    p_fz.add_argument(
        "--traversal",
        choices=("both", "single", "multi"),
        default="both",
        help="single-traversal specs, multi-traversal (free-running clock), or both",
    )
    p_fz.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep"
    )
    p_fz.add_argument(
        "--flow-timeout",
        type=float,
        default=20.0,
        help="wall-clock seconds per flow per spec (0 disables)",
    )
    p_fz.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per sample after a crash (pool mode)",
    )
    p_fz.add_argument(
        "--oracle-runs",
        type=int,
        default=2,
        help="Monte-Carlo oracle runs per successful N-SHOT circuit (0 disables)",
    )
    p_fz.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta-debugging of disagreements",
    )
    p_fz.add_argument(
        "--shrink-evals",
        type=int,
        default=200,
        help="evaluation budget per minimized disagreement",
    )
    p_fz.add_argument(
        "--archive",
        action="store_true",
        help="write minimized reproducers into the corpus directory",
    )
    p_fz.add_argument(
        "--corpus",
        default=os.path.join("examples", "fuzz-corpus"),
        help="reproducer corpus directory (with --archive)",
    )
    _add_report_args(
        p_fz, ("text", "json"), "text summary or the repro-fuzz/1 JSON document"
    )
    p_fz.add_argument(
        "--profile",
        action="store_true",
        help="print the span profile to stderr when done",
    )
    p_fz.set_defaults(func=cmd_fuzz)
