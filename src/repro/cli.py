"""Command-line interface: the ASSASSIN-style flow as a tool.

Mirrors how the paper's compiler was driven::

    python -m repro info ctrl.g                 # properties + regions
    python -m repro synth ctrl.g -o ctrl.v      # N-SHOT synthesis
    python -m repro synth ctrl.g --verify       # + Monte-Carlo check
    python -m repro compare ctrl.g              # all flows, one circuit
    python -m repro table2 [circuit ...]        # regenerate Table 2
    python -m repro faults --circuit c_element  # fault-injection campaign
    python -m repro bench --quick               # machine-readable benchmark
    python -m repro regress --baseline BENCH_2026-08-07.json  # perf gate
    python -m repro synth ctrl.g --verify --vcd ctrl.vcd      # waveform dump
    python -m repro synth ctrl.g --profile      # per-phase timing to stderr
    python -m repro lint ctrl.g --suite         # static-analysis rule catalog
    python -m repro lint --suite --format sarif # SARIF 2.1.0 for CI uploads
    python -m repro certify --suite             # symbolic hazard certificates
    python -m repro certify --differential      # certifier-vs-oracle soundness
    python -m repro synth ctrl.g --verify --static-first  # skip MC when proved
    python -m repro explain converta            # causal chain of an ω-filtered pulse
    python -m repro synth ctrl.g --verify --coverage  # SG state-space coverage
"""

from __future__ import annotations

import argparse
import os
import sys

from .baselines import (
    NotDistributiveError,
    StateSignalsRequiredError,
    synthesize_beerel,
    synthesize_lavagno,
    synthesize_qmodule,
)
from .core import verify_hazard_freeness
from .core.report import format_results_table
from .logic import write_pla
from .sg import (
    is_distributive,
    is_single_traversal,
    non_distributive_signals,
    signal_regions,
    validate_for_synthesis,
)
from .stg import elaborate, parse_g

__all__ = ["main"]


def _load_sg(path: str):
    """Load a specification: ``.sg`` state graphs or ``.g`` STGs."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".sg") or ".state graph" in text:
        from .sg import parse_sg

        sg = parse_sg(text)
        return _SgSpec(path, sg), sg
    stg = parse_g(text)
    return stg, elaborate(stg)


def _store_from(args: argparse.Namespace):
    """Resolve the artifact store of the ``--cache-dir``/``--no-cache``
    flags (``REPRO_CACHE_DIR`` is the flagless default)."""
    from .pipeline import resolve_store

    return resolve_store(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )


def _pipeline_run(args: argparse.Namespace, path: str):
    """A content-addressed :class:`~repro.pipeline.dag.PipelineRun` over
    one spec file, carrying the command's synthesis knobs."""
    from .pipeline import PipelineRun

    return PipelineRun.from_file(
        path,
        store=_store_from(args),
        method=getattr(args, "method", "espresso"),
        delay_spread=getattr(args, "spread", 0.0),
    )


def _target_run(args: argparse.Namespace, store, name: str, source: str | None):
    """The :class:`~repro.pipeline.dag.PipelineRun` of one lint/certify
    target — a spec file, or a suite circuit when ``source`` is None —
    with its SG built; None after printing the error when it will not
    load."""
    from .pipeline import PipelineRun

    kw = dict(
        name=name, store=store, method=args.method, delay_spread=args.spread
    )
    try:
        if source is not None:
            run = PipelineRun.from_file(source, **kw)
        else:
            from .bench import sg_of

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


class _SgSpec:
    """Adapter so .sg files share the STG code paths in the CLI."""

    def __init__(self, path: str, sg) -> None:
        import os

        self.name = os.path.splitext(os.path.basename(path))[0]
        self._sg = sg

    def describe(self) -> str:
        return self._sg.describe()


def cmd_info(args: argparse.Namespace) -> int:
    stg, sg = _load_sg(args.file)
    print(stg.describe())
    print()
    if not isinstance(stg, _SgSpec):
        from .stg import classify

        print(classify(stg).summary())
    print(f"state graph: {sg.num_states} states")
    report = validate_for_synthesis(sg)
    print(report.summary())
    print(f"distributive: {is_distributive(sg)}", end="")
    nd = non_distributive_signals(sg)
    if nd:
        print(f" (detonant signals: {', '.join(sg.signals[a] for a in nd)})")
    else:
        print()
    print(f"single traversal: {is_single_traversal(sg)}")
    for a in sg.non_inputs:
        sr = signal_regions(sg, a)
        parts = ", ".join(
            f"{er.label(sg)}:{len(er.states)}" for er in sr.excitation
        )
        print(f"  {sg.signals[a]}: {parts}")
    return 0 if report.ok else 1


def _with_profile(args: argparse.Namespace, body) -> int:
    """Run ``body()`` under an enabled tracer when ``--profile`` or
    ``--profile-out`` is set: print the span tree to stderr
    (``--profile``) and/or persist it as a diffable ``repro-trace/1``
    JSON artifact (``--profile-out PATH``).

    There is no second timing path: the profile table *is* the tracer's
    span tree, the same spans the bench harness aggregates.
    """
    profile_out = getattr(args, "profile_out", None)
    if not getattr(args, "profile", False) and not profile_out:
        return body()
    from .obs import Tracer, tracing

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


def cmd_synth(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _synth_body(args))


def _synth_body(args: argparse.Namespace) -> int:
    run = _pipeline_run(args, args.file)
    sg = run.sg()
    if _lint_gate(args, run):
        return 1
    # the gate already ran the preflight rules (or the user opted out)
    circuit = run.circuit()
    print(circuit.describe())
    if args.pla:
        spec = circuit.spec
        names = [spec.output_name(o) for o in range(spec.num_outputs)]
        with open(args.pla, "w") as f:
            f.write(write_pla(circuit.cover, input_names=sg.signals, output_names=names))
        print(f"wrote {args.pla}")
    if args.output:
        from .netlist import write_verilog

        with open(args.output, "w") as f:
            f.write(write_verilog(circuit.netlist))
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
        from .obs.telemetry import HazardTelemetry

        # telemetry and coverage ride the verify sweep; a bare --vcd
        # still needs one oracle run to have traces to dump
        tele = HazardTelemetry.for_circuit(circuit) if args.verify else None
        cov = None
        if args.coverage:
            from .obs.coverage import CoverageMap

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


def _write_vcd_file(path: str, traces) -> None:
    """Dump a verification run's TraceSet (internal SOP nets included)."""
    from .sim.vcd import write_vcd

    with open(path, "w") as f:
        f.write(write_vcd(traces))
    print(f"wrote {path} ({len(list(traces.nets()))} nets)")


def cmd_compare(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _compare_body(args))


def _compare_body(args: argparse.Namespace) -> int:
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
        cov = None
        if args.coverage:
            from .obs.coverage import CoverageMap

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


def cmd_lint(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _lint_body(args))


def _lint_body(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from .analysis import (
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

    targets: list[tuple[str, str | None]] = [
        (os.path.splitext(os.path.basename(p))[0], p) for p in args.files
    ]
    if args.suite:
        from .bench import DISTRIBUTIVE_BENCHMARKS, NONDISTRIBUTIVE_BENCHMARKS

        targets.extend(
            (bname, None)
            for bname in (*DISTRIBUTIVE_BENCHMARKS, *NONDISTRIBUTIVE_BENCHMARKS)
        )
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
        rendered = render_text(results, verbose=args.verbose)

    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)

    return max(r.exit_code(strict=args.strict) for r in results)


def cmd_certify(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _certify_body(args))


def _certify_targets(args: argparse.Namespace) -> list[tuple[str, str | None]]:
    import os

    targets: list[tuple[str, str | None]] = [
        (os.path.splitext(os.path.basename(p))[0], p) for p in args.files
    ]
    if args.suite:
        from .bench import DISTRIBUTIVE_BENCHMARKS, NONDISTRIBUTIVE_BENCHMARKS

        targets.extend(
            (bname, None)
            for bname in (*DISTRIBUTIVE_BENCHMARKS, *NONDISTRIBUTIVE_BENCHMARKS)
        )
    return targets


def _certify_body(args: argparse.Namespace) -> int:
    """``repro certify``: static proof obligations instead of simulation.

    Exit contract matches ``repro lint``: 0 = every obligation proved,
    1 = refuted obligations (with ``--strict``, ``unknown`` ones too),
    2 = a spec failed to load or synthesize.
    """
    import json as json_mod

    if args.differential:
        return _certify_differential(args)

    targets = _certify_targets(args)
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
        from .analysis import analyze, default_registry, render_sarif

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
            from .analysis.certify import CERT_SCHEMA

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

    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)
    return code


def _certify_differential(args: argparse.Namespace) -> int:
    """Certifier-vs-oracle soundness sweep: the paper suite plus the
    committed fuzz corpus.  Any ``proved``-but-violated spec is a hard
    failure (exit 2) and is archived as a corpus reproducer."""
    from .analysis.certify import (
        archive_soundness_failure,
        differential_corpus,
        differential_suite,
    )
    from .fuzz.corpus import DEFAULT_CORPUS, load_corpus

    names = [t[0] for t in _certify_targets(args) if t[1] is None]
    outcomes = differential_suite(names or None)
    corpus_entries = load_corpus(DEFAULT_CORPUS)
    outcomes += differential_corpus()
    unsound = [o for o in outcomes if not o.sound]
    for o in outcomes:
        if args.verbose or o.status != "ok":
            print("  " + o.describe())
    for o in unsound:
        spec_text = next(
            (e.text for e in corpus_entries if e.path.stem == o.name), None
        )
        if spec_text is None:
            from .bench import sg_of
            from .sg.sgformat import write_sg

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


def cmd_table2(args: argparse.Namespace) -> int:
    from .bench import run_table2

    rows = run_table2(args.circuits or None, cache=_store_from(args))
    print(format_results_table([r.cells() for r in rows]))
    comp = [r.name for r in rows if r.compensation_required]
    print()
    print(
        "delay compensation required: "
        + (", ".join(comp) if comp else "never (paper's Section V claim)")
    )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from .bench import fault_circuit_names
    from .faults import FaultCampaign, WatchdogLimits

    if args.list:
        for name in fault_circuit_names():
            print(name)
        return 0
    circuits = args.circuit or fault_circuit_names()
    from .bench import fault_circuit

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
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.text:
            print(rendered)
    else:
        print(rendered)
    if not result.baseline_ok:
        return 2  # golden runs flagged: the oracle itself is suspect
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _fuzz_body(args))


def _fuzz_body(args: argparse.Namespace) -> int:
    import json as json_mod

    from .fuzz import FuzzConfig, archive_reproducer, run_fuzz

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
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)
    return 0 if report.clean else 1


def cmd_explain(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _explain_body(args))


def _explain_body(args: argparse.Namespace) -> int:
    """Demonstrate MHS ω-filtering causally on one circuit.

    Synthesizes the target with ``delay_spread=0.0`` (the tightest
    designed bounds, so stress jitter actually exceeds them), sweeps
    stress corners until the flight recorder catches the flip-flop
    absorbing a sub-ω pulse, and prints the causal chain from that
    pulse back to the environment input transition that started it.
    """
    import json as json_mod
    import os

    from .core import synthesize as _synthesize
    from .obs.causality import find_filtered_chain

    target = args.target
    if os.path.exists(target):
        stg, sg = _load_sg(target)
        name = stg.name
    else:
        from .bench import sg_of

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
    chain, info = find_filtered_chain(
        circuit, seeds=args.seeds, probe=args.probe
    )
    if chain is None:
        print(
            f"error: no ω-filtered pulse could be demonstrated on {name} "
            f"({args.seeds} seeds per stress corner"
            + ("" if args.probe else ", probe injection disabled")
            + ")",
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
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .obs.harness import run_bench, validate_bench, write_bench

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
            chrome_trace=args.chrome_trace,
            telemetry=args.telemetry,
            progress=progress,
            store=store,
            static_first=args.static_first,
            profile_doc=args.profile_doc,
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
    try:
        path = write_bench(doc, args.output, tag=args.tag)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.chrome_trace:
        print(f"wrote {args.chrome_trace} (Chrome trace_event)")
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
    if "profile" in doc:
        p = doc["profile"]
        print(
            f"profile: wrote {args.profile_doc} ({p['schema']}, "
            f"{p['attributed_pct']:.1f}% attributed)"
        )
    if args.history:
        from .obs.registry import RunHistory

        history = RunHistory(args.history_dir)
        entry = history.append("bench", doc)
        print(f"history: {entry.describe()}")
        if args.profile_doc:
            import json as json_mod

            with open(args.profile_doc) as f:
                pentry = history.append("profile", json_mod.load(f))
            print(f"history: {pentry.describe()}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json as json_mod

    from .obs import profiling

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
        if args.format == "json":
            rendered = json_mod.dumps(diff, indent=2)
        else:
            rendered = profiling.render_diff_text(diff, top=args.top).rstrip()
        if args.output:
            with open(args.output, "w") as f:
                f.write(rendered + "\n")
            print(f"wrote {args.output} ({diff['schema']})")
        else:
            print(rendered)
        return 0

    def progress(name: str) -> None:
        print(f"  {name}", file=sys.stderr)

    # default workload is the quick subset; --suite asks for all 25
    quick = args.quick or (not args.suite and not args.circuits)
    try:
        doc = profiling.profile_suite(
            circuits=args.circuits or None,
            quick=quick,
            runs=args.runs,
            engine=args.engine,
            interval=args.interval,
            memory=args.memory,
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
        from .obs.registry import RunHistory

        entry = RunHistory(args.history_dir).append("profile", doc)
        print(f"history: {entry.describe()}")
    return 0


def _resolve_threshold_policy(args: argparse.Namespace):
    """Committed config (when present) + explicit CLI flag overrides."""
    from .obs.regress import (
        DEFAULT_THRESHOLDS_PATH,
        ThresholdPolicy,
        Thresholds,
        load_threshold_config,
    )

    config_path = args.thresholds
    if config_path is None and os.path.exists(DEFAULT_THRESHOLDS_PATH):
        config_path = DEFAULT_THRESHOLDS_PATH
    policy = load_threshold_config(config_path) if config_path else ThresholdPolicy()
    if (args.rel, args.abs_s, args.confirm) != (None, None, None):
        base = policy.default
        policy = ThresholdPolicy(
            default=Thresholds(
                rel=args.rel if args.rel is not None else base.rel,
                abs_s=args.abs_s if args.abs_s is not None else base.abs_s,
                confirm_runs=args.confirm
                if args.confirm is not None
                else base.confirm_runs,
            ),
            phases=policy.phases,
        )
    return policy, config_path


def _cmd_regress_ratchet(args: argparse.Namespace, policy, config_path) -> int:
    import json as json_mod

    from .obs import analytics
    from .obs.regress import DEFAULT_THRESHOLDS_PATH, save_threshold_config

    if args.apply_ratchet:
        with open(args.apply_ratchet) as f:
            proposal = json_mod.load(f)
        try:
            new_policy = analytics.apply_ratchet(
                proposal, policy, allow_loosen=args.allow_loosen
            )
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
                "proposal_created_utc": proposal.get("created_utc"),
                "proposal_git_sha": proposal.get("git_sha"),
                "allow_loosen": bool(args.allow_loosen),
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

    proposal = analytics.propose_ratchet(
        args.history_dir,
        policy,
        k=args.ratchet_k,
        last_n=args.ratchet_last_n,
    )
    rendered = json_mod.dumps(proposal, indent=2)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output} ({proposal['schema']})")
    else:
        print(rendered)
    summary = (
        f"ratchet: {len(proposal['phases'])} phase(s) with evidence, "
        f"{proposal['tightened']} tighten, "
        f"{len(proposal['stale_phases'])} stale"
    )
    print(summary, file=sys.stderr)
    for row in proposal["phases"]:
        if row["stale"]:
            print(
                f"  stale: {row['phase']} current rel "
                f"{row['current']['rel']:g} vs measured floor "
                f"{row['floor_rel']:g} (proposed {row['proposed']['rel']:g})",
                file=sys.stderr,
            )
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    from .obs.regress import load_baseline, run_regress

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
            hotspot_top=args.hotspot_top,
            history_dir=args.history_dir,
        )
    except (KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json as json_mod

        rendered = json_mod.dumps(report.to_json_doc(), indent=2)
    else:
        rendered = report.render_text()
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output}")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(report.render_markdown() + "\n")
        print(f"wrote {args.markdown}")
    if args.history:
        from .obs.registry import RunHistory

        entry = RunHistory(args.history_dir).append(
            "regress", report.to_json_doc()
        )
        print(f"history: {entry.describe()}")
    return report.exit_code()


def cmd_report(args: argparse.Namespace) -> int:
    import json as json_mod

    from .obs import analytics
    from .obs.report import render_analytics_text, render_html

    try:
        doc = analytics.analyze(
            args.history_dir,
            window=args.window,
            k=args.k,
            min_rel=args.min_rel,
            hotspot_top=args.top,
        )
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
        rendered = render_analytics_text(doc, top=args.top)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        print(f"wrote {args.output} ({doc['schema']})")
        if args.format == "text":
            print(rendered)
    else:
        print(rendered)
    return 0


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
    from .obs.registry import RunHistory

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

    if args.history_command == "show":
        return _history_show(history, args)

    if args.history_command == "prune":
        try:
            report = history.prune(
                args.keep_last, kind=args.kind, dry_run=args.dry_run
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(report.describe())
        verb = "would remove" if report.dry_run else "removed"
        for name in report.removed:
            print(f"  {verb} {name}")
        for name in report.protected:
            print(f"  protected {name} (referenced as a baseline)")
        return 0

    print("error: unknown history command", file=sys.stderr)  # pragma: no cover
    return 2  # pragma: no cover


def cmd_cache(args: argparse.Namespace) -> int:
    import json as json_mod

    from .pipeline import ArtifactStore, parse_age, parse_size

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print(
            "error: no cache directory (pass --cache-dir or set "
            "REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore(root)

    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(json_mod.dumps(stats, indent=2))
            return 0
        print(f"cache {stats['root']}")
        print(f"  entries: {stats['entries']} ({stats['bytes']} bytes)")
        for stage, agg in sorted(stats["by_stage"].items()):
            print(f"    {stage:<14} {agg['count']:>4} entr(ies)  {agg['bytes']:>8}B")
        if stats["quarantine_files"]:
            print(f"  quarantined files: {stats['quarantine_files']}")
        if stats["entries"]:
            print(f"  age span: {stats['age_span_s']:.0f}s")
        return 0

    if args.cache_command == "ls":
        count = 0
        for entry in sorted(store.entries(), key=lambda e: e.mtime):
            print(entry.describe())
            count += 1
        if count == 0:
            print("(empty)")
        return 0

    if args.cache_command == "gc":
        max_bytes = parse_size(args.max_bytes) if args.max_bytes else None
        max_age_s = parse_age(args.max_age) if args.max_age else None
        if max_bytes is None and max_age_s is None:
            print(
                "error: gc needs --max-bytes and/or --max-age",
                file=sys.stderr,
            )
            return 2
        report = store.gc(max_bytes=max_bytes, max_age_s=max_age_s)
        if args.json:
            print(json_mod.dumps(report.to_json(), indent=2))
        else:
            print(
                f"gc: evicted {report.evicted} entr(ies) "
                f"({report.evicted_bytes} bytes), kept {report.kept} "
                f"({report.kept_bytes} bytes)"
            )
        return 0

    if args.cache_command == "clear":
        removed = store.clear()
        print(f"cleared {removed} entr(ies) from {store.root}")
        return 0

    print("error: unknown cache command", file=sys.stderr)  # pragma: no cover
    return 2  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="N-SHOT asynchronous synthesis (DAC'95 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="analyze an STG file")
    p_info.add_argument("file", help=".g STG file")
    p_info.set_defaults(func=cmd_info)

    p_synth = sub.add_parser("synth", help="synthesize an STG into N-SHOT")
    p_synth.add_argument("file", help=".g STG file")
    p_synth.add_argument("-o", "--output", help="write structural Verilog here")
    p_synth.add_argument("--pla", help="write the minimized cover as PLA text")
    p_synth.add_argument(
        "--method", choices=["espresso", "exact"], default="espresso"
    )
    p_synth.add_argument(
        "--spread",
        type=float,
        default=0.0,
        help="assumed relative gate-delay uncertainty for Equation (1)",
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
    p_synth.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    p_synth.add_argument(
        "--profile-out",
        metavar="PATH",
        help="persist the span tree as a repro-trace/1 JSON artifact "
        "(implies tracing; combine with --profile for the stderr table)",
    )
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

    p_cmp = sub.add_parser("compare", help="run every flow on one STG")
    p_cmp.add_argument("file", help=".g STG file")
    p_cmp.add_argument(
        "--vcd",
        metavar="PATH",
        help="dump an N-SHOT verification run's waveforms as VCD",
    )
    p_cmp.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    p_cmp.add_argument(
        "--profile-out",
        metavar="PATH",
        help="persist the span tree as a repro-trace/1 JSON artifact "
        "(implies tracing; combine with --profile for the stderr table)",
    )
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
    p_lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json = repro-lint/1, sarif = SARIF 2.1.0)",
    )
    p_lint.add_argument("-o", "--output", help="write the report to a file")
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
    p_lint.add_argument(
        "--spread",
        type=float,
        default=0.0,
        help="delay spread assumed by the Equation (1) rule (DL001)",
    )
    p_lint.add_argument(
        "--method", choices=["espresso", "exact"], default="espresso"
    )
    p_lint.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="list clean targets in the text report too",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalog and exit",
    )
    p_lint.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    _add_cache_args(p_lint)
    p_lint.set_defaults(func=cmd_lint)

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
    p_cert.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json = repro-certificate/1, "
        "sarif = SARIF 2.1.0 over the HZ rules)",
    )
    p_cert.add_argument("-o", "--output", help="write the report to a file")
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
    p_cert.add_argument(
        "--spread",
        type=float,
        default=0.0,
        help="delay spread assumed by the Equation (1)/Theorem 2 obligations",
    )
    p_cert.add_argument(
        "--method", choices=["espresso", "exact"], default="espresso"
    )
    p_cert.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="with --differential: list sound outcomes too",
    )
    p_cert.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    _add_cache_args(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2")
    p_t2.add_argument("circuits", nargs="*", help="subset of benchmark names")
    _add_cache_args(p_t2)
    p_t2.set_defaults(func=cmd_table2)

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
    p_fz.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text summary or the repro-fuzz/1 JSON document",
    )
    p_fz.add_argument("-o", "--output", help="write the report to a file")
    p_fz.add_argument(
        "--profile",
        action="store_true",
        help="print the span profile to stderr when done",
    )
    p_fz.set_defaults(func=cmd_fuzz)

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
    p_x.add_argument(
        "--probe",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fall back to a causally-anchored runt injection when no "
        "organic hazard pulse forms (--no-probe for organic only)",
    )
    p_x.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json = repro-causality/1)",
    )
    p_x.add_argument("-o", "--output", help="write the chain to a file")
    p_x.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase span tree (timings + metrics) to stderr",
    )
    p_x.set_defaults(func=cmd_explain)

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
        "-o", "--output", help="output path (default BENCH_<UTC-date>.json)"
    )
    p_b.add_argument(
        "--tag",
        metavar="NAME",
        help="suffix the default filename (BENCH_<UTC-date>-NAME.json); "
        "default-named documents never overwrite — same-day collisions "
        "step to a deterministic -2/-3 suffix",
    )
    p_b.add_argument(
        "--chrome-trace",
        help="also write the last run's spans as Chrome trace_event JSON",
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
    p_b.add_argument(
        "--profile-doc",
        metavar="PATH",
        help="also run one untimed stage-scoped profiling sweep: write "
        "the repro-profile/1 document here and embed per-phase hotspot "
        "summaries into the bench entries",
    )
    _add_history_args(p_b)
    _add_cache_args(p_b)
    p_b.set_defaults(func=cmd_bench)

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
        "--engine",
        choices=["sampler", "cprofile"],
        default="sampler",
        help="sampler = low-overhead wall-clock sampling (default); "
        "cprofile = deterministic per-stage cProfile with call counts",
    )
    p_p.add_argument(
        "--interval",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="sampling interval for the sampler engine (default 0.002)",
    )
    p_p.add_argument(
        "--memory",
        action="store_true",
        help="also track per-stage tracemalloc allocation deltas",
    )
    p_p.add_argument(
        "--top",
        type=int,
        default=15,
        help="functions listed per table (default 15)",
    )
    p_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="--diff report format (json = repro-profile-diff/1)",
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
        "new/vanished frames)",
    )
    _add_history_args(p_p)
    p_p.set_defaults(func=cmd_profile)

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
        help="baseline bench document (e.g. BENCH_2026-08-07.json); "
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
        "--rel",
        type=float,
        default=None,
        help="relative slowdown band before a phase is suspect "
        "(overrides the config default; built-in default 0.25)",
    )
    p_r.add_argument(
        "--abs",
        dest="abs_s",
        type=float,
        default=None,
        help="absolute noise floor in seconds on top of the band "
        "(overrides the config default; built-in default 0.005)",
    )
    p_r.add_argument(
        "--confirm",
        type=int,
        default=None,
        help="re-measure runs per suspect circuit before conviction "
        "(overrides the config default; built-in default 3)",
    )
    p_r.add_argument(
        "--propose-ratchet",
        action="store_true",
        help="derive tightened per-phase thresholds from the run-history "
        "noise floor and emit a repro-ratchet/1 proposal (no benchmark "
        "runs; -o writes the proposal JSON)",
    )
    p_r.add_argument(
        "--apply-ratchet",
        metavar="PROPOSAL",
        help="fold a repro-ratchet/1 proposal into the committed "
        "threshold config (refuses to loosen without --allow-loosen)",
    )
    p_r.add_argument(
        "--allow-loosen",
        action="store_true",
        help="let --apply-ratchet accept rows that loosen a threshold",
    )
    p_r.add_argument(
        "--ratchet-k",
        type=float,
        default=5.0,
        help="proposed band = k x the measured MAD noise floor (default 5)",
    )
    p_r.add_argument(
        "--ratchet-last-n",
        type=int,
        default=10,
        metavar="N",
        help="clean runs per circuit the floor is measured over (default 10)",
    )
    p_r.add_argument(
        "--remeasure",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-measure suspects and judge on the minimum "
        "(--no-remeasure convicts on the first reading)",
    )
    p_r.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json = repro-regress/1)",
    )
    p_r.add_argument("-o", "--output", help="write the report to a file")
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
        "sampler and attach top-N hotspot functions to the report "
        "(--no-hotspots to skip)",
    )
    p_r.add_argument(
        "--hotspot-top",
        type=int,
        default=5,
        help="hotspot functions reported per regressed phase (default 5)",
    )
    _add_history_args(p_r)
    p_r.set_defaults(func=cmd_regress)

    from .obs.registry import DEFAULT_HISTORY_DIR

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
    p_rep.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json = the full repro-analytics/1 document)",
    )
    p_rep.add_argument("-o", "--output", help="write the report to a file")
    p_rep.add_argument(
        "--window",
        type=int,
        default=3,
        help="changepoint detector window, runs per side (default 3)",
    )
    p_rep.add_argument(
        "--k",
        type=float,
        default=4.0,
        help="changepoint sensitivity: shift > k x MAD (default 4)",
    )
    p_rep.add_argument(
        "--min-rel",
        type=float,
        default=0.2,
        dest="min_rel",
        help="minimum relative shift a changepoint must clear (default 0.2)",
    )
    p_rep.add_argument(
        "--top",
        type=int,
        default=10,
        help="hotspot functions tracked across profile documents (default 10)",
    )
    p_rep.set_defaults(func=cmd_report)

    p_h = sub.add_parser(
        "history", help="inspect and compact the run-history ledger"
    )
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
    p_hp = hist_sub.add_parser(
        "prune",
        help="compact to the last N runs per kind "
        "(referenced baselines always survive)",
    )
    p_hp.add_argument(
        "--keep-last",
        type=int,
        required=True,
        metavar="N",
        help="runs to keep per kind",
    )
    p_hp.add_argument("--kind", help="only prune this document kind")
    p_hp.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without touching the ledger",
    )
    p_h.set_defaults(func=cmd_history)

    p_c = sub.add_parser(
        "cache", help="inspect and maintain the pipeline artifact cache"
    )
    p_c.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache_sub = p_c.add_subparsers(dest="cache_command", required=True)
    p_cs = cache_sub.add_parser("stats", help="entry/byte totals per stage")
    p_cs.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_sub.add_parser("ls", help="list entries, oldest first")
    p_cg = cache_sub.add_parser(
        "gc", help="evict expired entries, then oldest-first to a size bound"
    )
    p_cg.add_argument(
        "--max-bytes",
        metavar="SIZE",
        help="size bound after collection (e.g. 500M, 2G, plain bytes)",
    )
    p_cg.add_argument(
        "--max-age",
        metavar="AGE",
        help="evict entries older than this (e.g. 7d, 12h, plain seconds)",
    )
    p_cg.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_sub.add_parser("clear", help="remove every entry")
    p_c.set_defaults(func=cmd_cache)
    return parser


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
    from .obs.registry import DEFAULT_HISTORY_DIR

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro faults | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
