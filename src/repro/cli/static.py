"""``repro lint`` and ``repro certify``: the static-analysis rule
catalog and the symbolic hazard certifier over specs or the suite."""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    _add_cache_args,
    _add_profile_args,
    _add_report_args,
    _add_synthesis_args,
    _emit_report,
    _store_from,
)


def _target_run(args: argparse.Namespace, store, name: str, source: str | None):
    """The :class:`~repro.pipeline.dag.PipelineRun` of one lint/certify
    target — a spec file, or a suite circuit when ``source`` is None —
    with its SG built; None after printing the error when it will not
    load."""
    from ..pipeline import PipelineRun

    kw = dict(
        name=name, store=store, method=args.method, delay_spread=args.spread
    )
    try:
        if source is not None:
            run = PipelineRun.from_file(source, **kw)
        else:
            from ..bench import sg_of

            run = PipelineRun.from_sg(sg_of(name), **kw)
        run.sg()
    except FileNotFoundError:
        raise
    except Exception as exc:
        # a spec the front-end cannot even elaborate is an internal
        # failure of the run, not a finding
        print(f"error: failed to load {source or name}: {exc}", file=sys.stderr)
        return None
    return run


def _targets(args: argparse.Namespace) -> list[tuple[str, str | None]]:
    """``(name, file)`` per spec file, then ``(name, None)`` per suite
    circuit under ``--suite``."""
    targets: list[tuple[str, str | None]] = [
        (os.path.splitext(os.path.basename(p))[0], p) for p in args.files
    ]
    if args.suite:
        from ..bench import TABLE2_CIRCUITS

        targets.extend((bname, None) for bname in TABLE2_CIRCUITS)
    return targets


def cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod

    from ..analysis import (
        analyze,
        apply_baseline,
        build_baseline,
        default_registry,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        rules = default_registry().all()
        width = max(len(r.meta.id) for r in rules)
        for r in rules:
            pre = " [preflight]" if r.meta.preflight else ""
            print(
                f"{r.meta.id:<{width}}  {r.meta.severity.value:<7} "
                f"{r.meta.scope.value:<7}{pre}  {r.meta.title}"
            )
        return 0

    targets = _targets(args)
    if not targets:
        print(
            "error: no lint targets (pass .g/.sg files and/or --suite)",
            file=sys.stderr,
        )
        return 2

    select = set(args.select.split(",")) if args.select else None
    ignore = set(args.ignore.split(",")) if args.ignore else None
    known = set(default_registry().ids())
    unknown = ((select or set()) | (ignore or set())) - known
    if unknown:
        print(
            f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2

    store = _store_from(args)
    results = []
    for name, source in targets:
        run = _target_run(args, store, name, source)
        if run is None:
            return 2
        results.append(
            analyze(
                run.sg(),
                name=name,
                source=source,
                spread=args.spread,
                method=args.method,
                select=select,
                ignore=ignore,
                pipeline=run,
            )
        )

    if args.write_baseline:
        doc = build_baseline(results)
        with open(args.write_baseline, "w") as f:
            json_mod.dump(doc, f, indent=2)
            f.write("\n")
        print(
            f"wrote {args.write_baseline}: "
            f"{len(doc['entries'])} finding(s) baselined"
        )
        return 0

    if args.baseline:
        results = apply_baseline(results, load_baseline(args.baseline))

    if args.format == "json":
        rendered = render_json(results)
    elif args.format == "sarif":
        rendered = render_sarif(results)
    else:
        rendered = render_text(results)

    _emit_report(args, rendered, args.format == "text")

    return max(r.exit_code(strict=args.strict) for r in results)


def _parser_lint(sub: "argparse._SubParsersAction") -> None:
    p_lint = sub.add_parser(
        "lint", help="run the static-analysis rule catalog over specs"
    )
    p_lint.add_argument(
        "files", nargs="*", help=".g STG / .sg state-graph files"
    )
    p_lint.add_argument(
        "--suite",
        action="store_true",
        help="also lint every paper benchmark circuit",
    )
    _add_report_args(
        p_lint,
        ("text", "json", "sarif"),
        "report format (json = repro-lint/1, sarif = SARIF 2.1.0)",
    )
    p_lint.add_argument(
        "--baseline", help="suppress findings recorded in this baseline file"
    )
    p_lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings as the baseline and exit",
    )
    p_lint.add_argument(
        "--select", help="comma-separated rule ids to run (default: all)"
    )
    p_lint.add_argument("--ignore", help="comma-separated rule ids to skip")
    p_lint.add_argument(
        "--strict", action="store_true", help="exit 1 on warnings too"
    )
    _add_synthesis_args(
        p_lint, "delay spread assumed by the Equation (1) rule (DL001)"
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalog and exit",
    )
    _add_profile_args(p_lint)
    _add_cache_args(p_lint)
    p_lint.set_defaults(func=cmd_lint)


def cmd_certify(args: argparse.Namespace) -> int:
    """``repro certify``: static proof obligations instead of simulation.

    Exit contract matches ``repro lint``: 0 = every obligation proved,
    1 = refuted obligations (with ``--strict``, ``unknown`` ones too),
    2 = a spec failed to load or synthesize.
    """
    import json as json_mod

    if args.differential:
        return _certify_differential(args)

    targets = _targets(args)
    if not targets:
        print(
            "error: no certify targets (pass .g/.sg files and/or --suite)",
            file=sys.stderr,
        )
        return 2

    store = _store_from(args)
    if args.format == "sarif":
        # route through the lint engine so the HZ findings ship in the
        # same SARIF 2.1.0 shape CI already uploads for `repro lint`
        from ..analysis import analyze, default_registry, render_sarif

        hz_ids = {r for r in default_registry().ids() if r.startswith("HZ")}
        results = []
        for name, source in targets:
            run = _target_run(args, store, name, source)
            if run is None:
                return 2
            results.append(
                analyze(
                    run.sg(),
                    name=name,
                    source=source,
                    spread=args.spread,
                    method=args.method,
                    select=hz_ids,
                    pipeline=run,
                )
            )
        rendered = render_sarif(results)
        code = max(r.exit_code(strict=args.strict) for r in results)
    else:
        certs = []
        for name, source in targets:
            run = _target_run(args, store, name, source)
            if run is None:
                return 2
            try:
                run.ensure_valid()
                cert = run.certify()
            except Exception as exc:
                print(
                    f"error: failed to certify {source or name}: {exc}",
                    file=sys.stderr,
                )
                return 2
            certs.append(cert)
        if args.format == "json":
            from ..analysis.certify import CERT_SCHEMA

            rendered = json_mod.dumps(
                {
                    "schema": CERT_SCHEMA,
                    "certificates": [c.to_json() for c in certs],
                },
                indent=2,
            )
        else:
            lines = []
            for cert in certs:
                lines.append(cert.summary())
                for ob in (*cert.refuted(), *cert.undecided()):
                    lines.append("  " + ob.describe())
            certified = sum(1 for c in certs if c.fully_proved)
            lines.append(
                f"{certified}/{len(certs)} target(s) fully certified"
            )
            rendered = "\n".join(lines)
        code = 0
        for cert in certs:
            counts = cert.counts
            if counts["refuted"] or (args.strict and counts["unknown"]):
                code = 1

    _emit_report(args, rendered, args.format == "text")
    return code


def _certify_differential(args: argparse.Namespace) -> int:
    """Certifier-vs-oracle soundness sweep: the paper suite plus the
    committed fuzz corpus.  Any ``proved``-but-violated spec is a hard
    failure (exit 2) and is archived as a corpus reproducer."""
    from ..analysis.certify import (
        archive_soundness_failure,
        differential_corpus,
        differential_suite,
    )
    from ..fuzz.corpus import DEFAULT_CORPUS, load_corpus

    names = [t[0] for t in _targets(args) if t[1] is None]
    outcomes = differential_suite(names or None)
    corpus_entries = load_corpus(DEFAULT_CORPUS)
    outcomes += differential_corpus()
    unsound = [o for o in outcomes if not o.sound]
    for o in outcomes:
        if o.status != "ok":
            print("  " + o.describe())
    for o in unsound:
        spec_text = next(
            (e.text for e in corpus_entries if e.path.stem == o.name), None
        )
        if spec_text is None:
            from ..bench import sg_of
            from ..sg.sgformat import write_sg

            spec_text = write_sg(sg_of(o.name), name=o.name)
        path = archive_soundness_failure(o, spec_text)
        if path is not None:
            print(f"archived reproducer: {path}", file=sys.stderr)
    ok = len(outcomes) - len(unsound)
    print(
        f"differential: {ok}/{len(outcomes)} sound "
        f"({len(corpus_entries)} corpus replay(s))"
    )
    if unsound:
        print(
            f"error: {len(unsound)} soundness failure(s) — the certifier "
            "proved a circuit the oracle violates",
            file=sys.stderr,
        )
        return 2
    return 0


def _parser_certify(sub: "argparse._SubParsersAction") -> None:
    p_cert = sub.add_parser(
        "certify",
        help="statically certify external hazard-freeness (no simulation)",
    )
    p_cert.add_argument(
        "files", nargs="*", help=".g STG / .sg state-graph files"
    )
    p_cert.add_argument(
        "--suite",
        action="store_true",
        help="also certify every paper benchmark circuit",
    )
    _add_report_args(
        p_cert,
        ("text", "json", "sarif"),
        "report format (json = repro-certificate/1, "
        "sarif = SARIF 2.1.0 over the HZ rules)",
    )
    p_cert.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on undecided (unknown) obligations too",
    )
    p_cert.add_argument(
        "--differential",
        action="store_true",
        help="cross-check certifier vs Monte-Carlo oracle over the suite "
        "and the fuzz corpus; soundness failures exit 2 and are archived",
    )
    _add_synthesis_args(
        p_cert, "delay spread assumed by the Equation (1)/Theorem 2 obligations"
    )
    _add_profile_args(p_cert)
    _add_cache_args(p_cert)
    p_cert.set_defaults(func=cmd_certify)
