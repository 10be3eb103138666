"""Command-line interface: the ASSASSIN-style flow as a tool.

Mirrors how the paper's compiler was driven::

    python -m repro info ctrl.g                 # properties + regions
    python -m repro synth ctrl.g -o ctrl.v      # N-SHOT synthesis
    python -m repro synth ctrl.g --verify       # + Monte-Carlo check
    python -m repro compare ctrl.g              # all flows, one circuit
    python -m repro table2 [circuit ...]        # regenerate Table 2
    python -m repro bench --quick               # machine-readable benchmark
    python -m repro regress --baseline BENCH_2026-10-18.json  # perf gate
    python -m repro synth ctrl.g --verify --vcd ctrl.vcd      # waveform dump
    python -m repro synth ctrl.g --profile      # per-phase timing to stderr
    python -m repro lint ctrl.g --suite         # static-analysis rule catalog
    python -m repro lint --suite --format sarif # SARIF 2.1.0 for CI uploads
    python -m repro certify --suite             # symbolic hazard certificates
    python -m repro certify --differential      # certifier-vs-oracle soundness
    python -m repro synth ctrl.g --verify --static-first  # skip MC when proved
    python -m repro explain converta            # causal chain of an ω-filtered pulse
    python -m repro synth ctrl.g --verify --coverage  # SG state-space coverage

Each command's parser and handler live in one submodule (``synth``;
``flows``: info/compare/table2/explain; ``static``: lint/certify;
``campaigns``: fuzz; ``measure``: bench/profile/regress/report/
history; ``cache``).  :func:`main` imports only the module of the
invoked command, so a run compiles no other command's code.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

__all__ = ["build_parser", "main"]

#: subcommand → the module holding its ``cmd_<name>`` handler and
#: ``_parser_<name>`` builder, in `repro --help` order
_SUBCOMMANDS = {
    "info": "flows",
    "synth": "synth",
    "compare": "flows",
    "lint": "static",
    "certify": "static",
    "table2": "flows",
    "fuzz": "campaigns",
    "explain": "flows",
    "bench": "measure",
    "profile": "measure",
    "regress": "measure",
    "report": "measure",
    "history": "measure",
    "cache": "cache",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; given ``command``, only that subcommand is
    declared (``main`` builds one parser instead of all of them)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="N-SHOT asynchronous synthesis (DAC'95 reproduction)",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        # the usage line of a one-command build still lists every command
        metavar=None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}",
    )
    for name, module in _SUBCOMMANDS.items():
        if command in (None, name):
            mod = import_module(f".{module}", __name__)
            getattr(mod, f"_parser_{name}")(sub)
    return parser


# ----------------------------------------------------------------------
# options shared by several subcommands
# ----------------------------------------------------------------------
def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed artifact cache directory "
        "(default: $REPRO_CACHE_DIR when set, else no cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="run without an artifact store, ignoring --cache-dir and REPRO_CACHE_DIR",
    )


def _add_synthesis_args(
    p: argparse.ArgumentParser, spread_help: str, method_first: bool = False
) -> None:
    """``--spread`` (``spread_help`` says what it is assumed for) and
    ``--method``; ``method_first`` keeps synth's declaration order."""
    pair = [
        ("--spread", dict(type=float, default=0.0, help=spread_help)),
        ("--method", dict(choices=["espresso", "exact"], default="espresso")),
    ]
    for flag, kw in reversed(pair) if method_first else pair:
        p.add_argument(flag, **kw)


def _add_report_args(
    p: argparse.ArgumentParser,
    choices: tuple[str, ...],
    help: str,
    output: str = "write the report to a file",
) -> None:
    """``--format`` (default ``text``) and ``-o/--output``."""
    p.add_argument("--format", choices=choices, default="text", help=help)
    p.add_argument("-o", "--output", help=output)


def _add_profile_args(p: argparse.ArgumentParser, out: bool = False) -> None:
    """``--profile`` (span tree to stderr), plus ``--profile-out`` on
    the subcommands that persist the tree (``out``)."""
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    if out:
        p.add_argument(
            "--profile-out",
            metavar="PATH",
            help="persist the span tree as a repro-trace/1 JSON artifact "
            "(implies tracing; combine with --profile for the stderr table)",
        )


def _add_coverage_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--coverage",
        action="store_true",
        help="collect SG state/region/trigger-cube coverage over the "
        "verification sweep and print the report",
    )
    p.add_argument(
        "--coverage-out",
        metavar="FILE",
        help="also write the full repro-coverage/1 JSON document",
    )


def _add_history_args(p: argparse.ArgumentParser) -> None:
    from ..obs.registry import DEFAULT_HISTORY_DIR

    p.add_argument(
        "--history-dir",
        default=DEFAULT_HISTORY_DIR,
        help=f"run-history registry directory (default {DEFAULT_HISTORY_DIR})",
    )
    p.add_argument(
        "--history",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="append this run to the run-history registry "
        "(--no-history to skip)",
    )


# ----------------------------------------------------------------------
# run helpers shared by several subcommands
# ----------------------------------------------------------------------
def _store_from(args: argparse.Namespace):
    """Resolve the artifact store of the ``--cache-dir``/``--no-cache``
    flags (``REPRO_CACHE_DIR`` is the flagless default)."""
    from ..pipeline import resolve_store

    return resolve_store(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )


def _pipeline_run(args: argparse.Namespace, path: str):
    """A content-addressed :class:`~repro.pipeline.dag.PipelineRun` over
    one spec file, carrying the command's synthesis knobs."""
    from ..pipeline import PipelineRun

    return PipelineRun.from_file(
        path,
        store=_store_from(args),
        method=getattr(args, "method", "espresso"),
        delay_spread=getattr(args, "spread", 0.0),
    )


def _with_profile(args: argparse.Namespace, body) -> int:
    """Run ``body()`` — every command's handler — under an enabled
    tracer when its ``--profile`` or ``--profile-out`` is set: print the span tree to stderr
    (``--profile``) and/or persist it as a diffable ``repro-trace/1``
    JSON artifact (``--profile-out PATH``).

    There is no second timing path: the profile table *is* the tracer's
    span tree, the same spans the bench harness aggregates.
    """
    profile_out = getattr(args, "profile_out", None)
    if not getattr(args, "profile", False) and not profile_out:
        return body()
    from ..obs import Tracer, tracing

    with tracing(Tracer()) as tracer:
        code = body()
    if profile_out:
        import json as json_mod

        with open(profile_out, "w") as f:
            json_mod.dump(tracer.to_json(), f, indent=2)
            f.write("\n")
        print(f"wrote {profile_out} (repro-trace/1)", file=sys.stderr)
    if getattr(args, "profile", False):
        print("\n── profile (spans, wall-clock) ──", file=sys.stderr)
        print(tracer.render_tree(), file=sys.stderr)
    return code


def _lint_gate(args: argparse.Namespace, run) -> int:
    """Pre-flight lint gate for synth/compare (``--lint``, the default).

    Returns 0 to proceed; on error-severity findings prints the
    diagnostic list — rule ids, locations, hints — instead of letting
    :class:`SynthesisError` escape as a raw exception, and returns 1.
    The verdict is the pipeline's ``classify`` stage artifact, so a
    warm cache answers without re-running the Theorem-2 rules.
    """
    if not args.lint:
        return 0
    cls = run.classification()
    if cls.ok:
        return 0
    errors = sum(1 for d in cls.diagnostics if d.severity.value == "error")
    print(
        f"error: {run.name} fails the Theorem 2 preconditions "
        f"({errors} finding(s)):",
        file=sys.stderr,
    )
    for d in sorted(
        cls.diagnostics, key=lambda d: (-d.severity.rank, d.rule_id)
    ):
        print("  " + d.render(), file=sys.stderr)
    print(
        "hint: `repro lint` runs the full rule catalog; "
        "--no-lint skips this gate",
        file=sys.stderr,
    )
    return 1


def _emit_coverage(cov, out_path: str | None) -> None:
    """Print a coverage map's text report; optionally write the full
    ``repro-coverage/1`` JSON document (the CI artifact path)."""
    report = cov.report()
    print(report.render_text())
    if out_path:
        import json as json_mod

        with open(out_path, "w") as f:
            json_mod.dump(report.to_json(), f, indent=2)
            f.write("\n")
        print(f"wrote {out_path}")


def _emit_report(
    args: argparse.Namespace, rendered: str, text: bool, note: str = ""
) -> None:
    """Print a command's report, or write it to ``-o`` and say so
    (``wrote PATH`` + ``note``); a ``text`` report prints either way."""
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}{note}")
    if text or not args.output:
        print(rendered)


def _write_vcd_file(path: str, traces) -> None:
    """Dump a verification run's TraceSet (internal SOP nets included)."""
    from ..sim.vcd import write_vcd

    with open(path, "w") as f:
        f.write(write_vcd(traces))
    print(f"wrote {path} ({len(list(traces.nets()))} nets)")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _with_profile(args, lambda: args.func(args))
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro fuzz | head`
        return 0
