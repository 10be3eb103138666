"""``repro bench``, ``profile``, ``regress``, ``report`` and
``history``: measurement, the perf gate and the run-history ledger."""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    _add_cache_args,
    _add_history_args,
    _add_report_args,
    _emit_report,
    _store_from,
)


def cmd_bench(args: argparse.Namespace) -> int:
    from ..obs.harness import run_bench, validate_bench, write_bench

    def progress(name: str, entry: dict) -> None:
        total = entry["total"]["median_s"]
        print(
            f"  {name}: {total * 1e3:8.1f} ms median over {entry['runs']} "
            f"run(s) ({entry['states']} states)",
            file=sys.stderr,
        )

    store = _store_from(args)
    try:
        doc = run_bench(
            circuits=args.circuits or None,
            quick=args.quick,
            runs=args.runs,
            telemetry=args.telemetry,
            progress=progress,
            store=store,
            static_first=args.static_first,
        )
    except KeyError as e:
        print(f"error: unknown benchmark circuit {e.args[0]!r}", file=sys.stderr)
        return 1
    problems = validate_bench(doc)
    if problems:  # pragma: no cover - harness emits what it validates
        print("error: bench document failed schema validation:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    path = write_bench(doc, args.output)
    print(
        f"wrote {path}: {doc['totals']['circuits']} circuits in "
        f"{doc['totals']['wall_s']:.1f}s ({doc['schema']})"
    )
    if "cache" in doc:
        c = doc["cache"]
        print(
            f"cache: {c['hits']} hit(s), {c['misses']} miss(es) "
            f"({c['hit_rate']:.0%} hit rate) in {c['dir']}"
        )
    if "static_first" in doc:
        s = doc["static_first"]
        print(
            f"static-first: Monte-Carlo skipped on "
            f"{s['mc_skipped']}/{s['circuits']} certified circuit(s)"
        )
    if args.history:
        from ..obs.registry import RunHistory

        entry = RunHistory(args.history_dir).append("bench", doc)
        print(f"history: {entry.describe()}")
    return 0


def _parser_bench(sub: "argparse._SubParsersAction") -> None:
    p_b = sub.add_parser(
        "bench",
        help="run the benchmark harness, write BENCH_<UTC-date>.json",
    )
    p_b.add_argument(
        "circuits", nargs="*", help="subset of benchmark names (default: suite)"
    )
    p_b.add_argument(
        "--quick",
        action="store_true",
        help="small circuit subset, one run each (CI smoke)",
    )
    p_b.add_argument(
        "--runs",
        type=int,
        default=None,
        help="measured runs per circuit (default 3, 1 with --quick)",
    )
    p_b.add_argument(
        "-o",
        "--output",
        help="output path (default BENCH_<UTC-date>.json; default-named "
        "documents never overwrite — same-day collisions step to a "
        "deterministic -2/-3 suffix)",
    )
    p_b.add_argument(
        "--telemetry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="collect hazard telemetry per circuit on an extra untimed "
        "sweep (--no-telemetry to skip)",
    )
    p_b.add_argument(
        "--static-first",
        action="store_true",
        help="verify through the symbolic certifier, skipping Monte-Carlo "
        "on fully-proved certificates (adds per-entry `static` blocks)",
    )
    _add_history_args(p_b)
    _add_cache_args(p_b)
    p_b.set_defaults(func=cmd_bench)


def cmd_profile(args: argparse.Namespace) -> int:
    import json as json_mod

    from ..obs import profiling

    if args.diff:
        try:
            a = profiling.load_profile_document(
                args.diff[0], history_dir=args.history_dir
            )
            b = profiling.load_profile_document(
                args.diff[1], history_dir=args.history_dir
            )
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        diff = profiling.diff_profiles(a, b, top=args.top)
        rendered = profiling.render_diff_text(diff, top=args.top).rstrip()
        _emit_report(args, rendered, False)
        return 0 if diff["empty"] else 1

    def progress(name: str) -> None:
        print(f"  {name}", file=sys.stderr)

    # default workload is the quick subset; --suite asks for all 25
    quick = args.quick or (not args.suite and not args.circuits)
    try:
        doc = profiling.profile_suite(
            circuits=args.circuits or None,
            quick=quick,
            runs=args.runs,
            interval=args.interval,
            top=args.top,
            progress=progress,
        )
    except KeyError as e:
        print(f"error: unknown benchmark circuit {e.args[0]!r}", file=sys.stderr)
        return 1
    problems = profiling.validate_profile(doc)
    if problems:  # pragma: no cover - session emits what it validates
        print("error: profile document failed schema validation:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as f:
            json_mod.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {args.output} ({doc['schema']})")
    if args.folded:
        with open(args.folded, "w") as f:
            f.write(profiling.to_collapsed(doc))
        print(f"wrote {args.folded} (collapsed stacks)")
    if args.speedscope:
        with open(args.speedscope, "w") as f:
            json_mod.dump(profiling.to_speedscope(doc), f, indent=2)
            f.write("\n")
        print(f"wrote {args.speedscope} (speedscope)")
    print(profiling.render_profile_text(doc, top=args.top).rstrip())
    if args.history:
        from ..obs.registry import RunHistory

        entry = RunHistory(args.history_dir).append("profile", doc)
        print(f"history: {entry.describe()}")
    return 0


def _parser_profile(sub: "argparse._SubParsersAction") -> None:
    p_p = sub.add_parser(
        "profile",
        help="stage-scoped hotspot profile of the benchmark pipeline",
    )
    p_p.add_argument(
        "circuits",
        nargs="*",
        help="benchmark circuit names (default: the quick subset)",
    )
    p_p.add_argument(
        "--suite",
        action="store_true",
        help="profile the full 25-circuit paper suite",
    )
    p_p.add_argument(
        "--quick",
        action="store_true",
        help="profile the quick circuit subset (the default workload)",
    )
    p_p.add_argument(
        "--runs",
        type=int,
        default=1,
        help="passes over each circuit (default 1; raise for more samples "
        "on small circuits)",
    )
    p_p.add_argument(
        "--interval",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="sampling interval for the sampler engine (default 0.002)",
    )
    p_p.add_argument(
        "--top",
        type=int,
        default=15,
        help="functions listed per table (default 15)",
    )
    p_p.add_argument(
        "-o",
        "--output",
        help="write the full repro-profile/1 JSON document here "
        "(with --diff: the diff report)",
    )
    p_p.add_argument(
        "--folded",
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    p_p.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write a speedscope JSON profile (open at speedscope.app)",
    )
    p_p.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="differential profile B − A between two repro-profile/1 "
        "files or run-history entries (per-function self-time deltas, "
        "new/vanished frames); exit 0 when nothing moved, 1 when "
        "something did",
    )
    _add_history_args(p_p)
    p_p.set_defaults(func=cmd_profile)


def _resolve_threshold_policy(args: argparse.Namespace):
    """The ``--thresholds`` config, else the committed one when present,
    else the built-in default band."""
    from ..obs.regress import (
        DEFAULT_THRESHOLDS_PATH,
        ThresholdPolicy,
        load_threshold_config,
    )

    config_path = args.thresholds
    if config_path is None and os.path.exists(DEFAULT_THRESHOLDS_PATH):
        config_path = DEFAULT_THRESHOLDS_PATH
    policy = load_threshold_config(config_path) if config_path else ThresholdPolicy()
    return policy, config_path


def _cmd_regress_ratchet(args: argparse.Namespace, policy, config_path) -> int:
    import json as json_mod

    from ..obs import analytics
    from ..obs.regress import DEFAULT_THRESHOLDS_PATH, save_threshold_config

    if args.apply_ratchet:
        with open(args.apply_ratchet) as f:
            proposal = json_mod.load(f)
        try:
            new_policy = analytics.apply_ratchet(proposal, policy)
        except analytics.RatchetError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except ValueError as e:
            print(f"error: {args.apply_ratchet}: {e}", file=sys.stderr)
            return 2
        out = args.thresholds or config_path or DEFAULT_THRESHOLDS_PATH
        save_threshold_config(
            new_policy,
            out,
            provenance={
                "proposal_created_utc": proposal.get("updated_utc"),
                "proposal_git_sha": (proposal.get("provenance") or {}).get(
                    "git_sha"
                ),
            },
        )
        changed = {
            p: t
            for p, t in new_policy.phases.items()
            if policy.for_phase(p) != t
        }
        print(
            f"wrote {out}: {len(new_policy.phases)} phase override(s), "
            f"{len(changed)} changed"
        )
        for phase, t in sorted(changed.items()):
            old = policy.for_phase(phase)
            print(
                f"  {phase}: rel {old.rel:g} -> {t.rel:g}, "
                f"abs {old.abs_s:g}s -> {t.abs_s:g}s"
            )
        return 0

    proposal = analytics.propose_ratchet(args.history_dir, policy)
    rendered = json_mod.dumps(proposal, indent=2)
    _emit_report(args, rendered, False, f" ({proposal['schema']})")
    evidence = proposal["evidence"]
    tightened = sum(1 for e in evidence.values() if e["action"] == "tighten")
    print(
        f"ratchet: {len(evidence)} phase(s) with evidence, "
        f"{tightened} tighten, {len(proposal['stale'])} stale",
        file=sys.stderr,
    )
    for phase, row in proposal["stale"].items():
        print(
            f"  stale: {phase} current rel {row['rel']:g} vs measured floor "
            f"{row['floor_rel']:g} (proposed {row['proposed_rel']:g})",
            file=sys.stderr,
        )
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    from ..obs.regress import load_baseline, run_regress

    try:
        policy, config_path = _resolve_threshold_policy(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.propose_ratchet or args.apply_ratchet:
        return _cmd_regress_ratchet(args, policy, config_path)
    if not args.baseline:
        print(
            "error: --baseline is required (unless proposing or applying "
            "a ratchet)",
            file=sys.stderr,
        )
        return 2

    def progress(name: str, entry: dict) -> None:
        total = entry["total"]["median_s"]
        print(f"  {name}: {total * 1e3:8.1f} ms median", file=sys.stderr)

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report = run_regress(
            baseline,
            circuits=args.circuits or None,
            quick=args.quick,
            thresholds=policy,
            remeasure=args.remeasure,
            progress=progress,
            hotspots=args.hotspots,
        )
    except (KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json as json_mod

        rendered = json_mod.dumps(report.to_json_doc(), indent=2)
    else:
        rendered = report.render_text()
    _emit_report(args, rendered, args.format == "text")
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(report.render_markdown() + "\n")
        print(f"wrote {args.markdown}")
    if args.history:
        from ..obs.registry import RunHistory

        entry = RunHistory(args.history_dir).append(
            "regress", report.to_json_doc()
        )
        print(f"history: {entry.describe()}")
    return report.exit_code()


def _parser_regress(sub: "argparse._SubParsersAction") -> None:
    p_r = sub.add_parser(
        "regress",
        help="benchmark now and compare against a committed baseline",
    )
    p_r.add_argument(
        "circuits", nargs="*", help="subset of baseline circuits (default: all)"
    )
    p_r.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline bench document (e.g. BENCH_2026-10-18.json); "
        "required except with --propose-ratchet / --apply-ratchet",
    )
    p_r.add_argument(
        "--quick",
        action="store_true",
        help="only the quick circuit subset present in the baseline",
    )
    p_r.add_argument(
        "--thresholds",
        metavar="FILE",
        help="repro-thresholds/1 config with the default band and "
        "ratcheted per-phase overrides (default: "
        "benchmarks/regress-thresholds.json when present)",
    )
    p_r.add_argument(
        "--propose-ratchet",
        action="store_true",
        help="derive tightened per-phase bands (5 x the MAD noise floor "
        "over the last 10 clean runs per circuit) from the run history "
        "and emit them as a repro-thresholds/1 document with evidence "
        "and stale blocks (no benchmark runs; -o writes the document)",
    )
    p_r.add_argument(
        "--apply-ratchet",
        metavar="PROPOSAL",
        help="install a --propose-ratchet document as the threshold "
        "config (refuses any band looser than the committed one)",
    )
    p_r.add_argument(
        "--remeasure",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-measure suspects and judge on the minimum "
        "(--no-remeasure convicts on the first reading)",
    )
    _add_report_args(
        p_r, ("text", "json"), "report format (json = repro-regress/1)"
    )
    p_r.add_argument(
        "--markdown",
        metavar="FILE",
        help="also write a markdown report (CI artifact: deltas + "
        "ω-margin / delay-slack + hotspot-attribution tables)",
    )
    p_r.add_argument(
        "--hotspots",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-profile convicted circuits under the stage-scoped "
        "sampler and attach the top 5 hotspot functions per regressed "
        "phase to the report (--no-hotspots to skip)",
    )
    _add_history_args(p_r)
    p_r.set_defaults(func=cmd_regress)


def cmd_report(args: argparse.Namespace) -> int:
    import json as json_mod

    from ..obs import analytics
    from ..obs.report import render_analytics_text, render_html

    try:
        doc = analytics.analyze(args.history_dir)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not doc["ledger"]["runs"]:
        print(
            f"error: no runs recorded in {args.history_dir} "
            "(run `repro bench` with history enabled first)",
            file=sys.stderr,
        )
        return 2
    if args.html:
        with open(args.html, "w") as f:
            f.write(render_html(doc) + "\n")
        print(f"wrote {args.html} (self-contained observatory dashboard)")
    if args.format == "json":
        rendered = json_mod.dumps(doc, indent=2)
    else:
        rendered = render_analytics_text(doc)
    _emit_report(
        args, rendered, args.format == "text", f" ({doc['schema']})"
    )
    return 0


def _parser_report(sub: "argparse._SubParsersAction") -> None:
    from ..obs.registry import DEFAULT_HISTORY_DIR

    p_rep = sub.add_parser(
        "report",
        help="cross-run analytics over the run-history ledger "
        "(trends, changepoints, observatory dashboard)",
    )
    p_rep.add_argument(
        "--history-dir",
        default=DEFAULT_HISTORY_DIR,
        help=f"run-history registry directory (default {DEFAULT_HISTORY_DIR})",
    )
    p_rep.add_argument(
        "--html",
        metavar="PATH",
        help="write the self-contained HTML observatory dashboard "
        "(inline CSS/SVG, no external fetches)",
    )
    _add_report_args(
        p_rep,
        ("text", "json"),
        "report format (json = the full repro-analytics/1 document)",
    )
    p_rep.set_defaults(func=cmd_report)


def _history_show(history, args) -> int:
    import json as json_mod

    entries = history.entries(args.kind)
    if args.entry in (None, "latest"):
        if not entries:
            print("error: the ledger is empty", file=sys.stderr)
            return 2
        entry = entries[-1]
    else:
        matches = [e for e in entries if e.file.startswith(args.entry)]
        if not matches:
            print(
                f"error: no ledger entry matching {args.entry!r} "
                "(see `repro history ls`)",
                file=sys.stderr,
            )
            return 2
        entry = matches[-1]
    try:
        envelope = history.load(entry)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(envelope, indent=2))
        return 0
    doc = envelope.get("doc") or {}
    schema = str(doc.get("schema") or "")
    print(entry.file)
    print(
        f"  {entry.kind} ({schema or 'no schema'}) at "
        f"{(entry.git_sha or 'nosha')[:7]} on {entry.created_utc}, "
        f"env {entry.env_digest}"
    )
    if schema.startswith("repro-bench/"):
        circuits = doc.get("circuits", [])
        totals = doc.get("totals", {})
        print(
            f"  {len(circuits)} circuit(s) in {totals.get('wall_s', 0):.1f}s"
            f" (quick={doc.get('quick')}, runs={doc.get('runs_per_circuit')})"
        )
        slowest = sorted(
            circuits, key=lambda c: -c.get("total", {}).get("median_s", 0.0)
        )
        for c in slowest[:5]:
            print(
                f"    {c['name']}: {c['total']['median_s'] * 1e3:8.1f} ms "
                f"median ({c.get('states', '?')} states)"
            )
    elif schema.startswith("repro-profile/"):
        print(
            f"  engine {doc.get('engine')}, wall {doc.get('wall_s', 0):.1f}s,"
            f" {doc.get('attributed_pct', 0):.1f}% attributed"
        )
        for fn in (doc.get("functions") or [])[:5]:
            print(
                f"    {fn['self_s'] * 1e3:8.1f} ms  {fn['func']}"
                f"  [{fn.get('stage', '?')}]"
            )
    elif schema.startswith("repro-regress/"):
        verdict = "OK" if doc.get("ok", True) else "REGRESSION"
        base = doc.get("baseline") or {}
        print(
            f"  {verdict}: {doc.get('regressions', 0)} regression(s), "
            f"{doc.get('cleared', 0)} cleared, baseline "
            f"{base.get('created_utc')} at {(base.get('git_sha') or 'nosha')[:7]}"
        )
    else:
        print(f"  (no pretty-printer for {schema!r}; use --json for the raw envelope)")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from ..obs.registry import RunHistory

    history = RunHistory(args.history_dir)

    if args.history_command == "ls":
        entries, torn = history.scan(args.kind)
        if args.sha:
            entries = [
                e
                for e in entries
                if e.git_sha is not None and e.git_sha.startswith(args.sha)
            ]
        if args.since:
            entries = [e for e in entries if e.created_utc >= args.since]
        if args.until:
            entries = [e for e in entries if e.created_utc <= args.until]
        for e in entries:
            print(e.describe())
        if not entries:
            print("(empty)")
        if torn:
            print(
                f"warning: {torn} torn index line(s) skipped",
                file=sys.stderr,
            )
        return 0

    return _history_show(history, args)


def _parser_history(sub: "argparse._SubParsersAction") -> None:
    from ..obs.registry import DEFAULT_HISTORY_DIR

    p_h = sub.add_parser("history", help="inspect the run-history ledger")
    p_h.add_argument(
        "--history-dir",
        default=DEFAULT_HISTORY_DIR,
        help=f"run-history registry directory (default {DEFAULT_HISTORY_DIR})",
    )
    hist_sub = p_h.add_subparsers(dest="history_command", required=True)
    p_hl = hist_sub.add_parser("ls", help="list ledger entries, oldest first")
    p_hl.add_argument("--kind", help="only this document kind (bench, ...)")
    p_hl.add_argument("--sha", metavar="PREFIX", help="only this git SHA prefix")
    p_hl.add_argument(
        "--since", metavar="UTC", help="only entries created at/after this"
    )
    p_hl.add_argument(
        "--until", metavar="UTC", help="only entries created at/before this"
    )
    p_hs = hist_sub.add_parser(
        "show", help="pretty-print one stored run by its schema"
    )
    p_hs.add_argument(
        "entry",
        nargs="?",
        default="latest",
        help="ledger filename (prefix ok) or 'latest' (the default)",
    )
    p_hs.add_argument("--kind", help="with 'latest': latest of this kind")
    p_hs.add_argument(
        "--json", action="store_true", help="dump the raw stored envelope"
    )
    p_h.set_defaults(func=cmd_history)
