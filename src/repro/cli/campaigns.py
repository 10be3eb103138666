"""``repro fuzz``: the differential-fuzzing campaign."""

from __future__ import annotations

import argparse
import os
import sys

from . import _add_report_args, _emit_report


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
        oracle_runs=args.oracle_runs,
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
        "--oracle-runs",
        type=int,
        default=2,
        help="Monte-Carlo oracle runs per successful N-SHOT circuit (0 disables)",
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
