"""The benchmark's workload process: runs repro in-process and times it.

``run.py`` starts this file once per set-up sample and once per run;
it prints ``READY`` on stdout when set-up is done (the first timed job
comes next) and writes its results as JSON to ``--out``.  Modes:

``setup``
    set up and exit (an extra set-up sample);
``passes``
    set up, then time whole passes over the workload's jobs;
``trace``
    set up, time one pass, then time one pass decomposed into calls to
    each layer's public functions, plus the pipeline and baseline
    probes (per-layer numbers);
``files``
    write the workload's specs as ``.g``/``.sg`` files into ``--dir``
    and, with ``--store``, fill that artifact store the way
    ``repro synth --cache-dir`` would.

Output checks are not made here: ``run.py`` makes them, outside every
timed interval.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import contextmanager

from repro.analysis.certify import certify_circuit
from repro.analysis.engine import run_preflight
from repro.baselines import (
    NotDistributiveError,
    StateSignalsRequiredError,
    synthesize_beerel,
    synthesize_lavagno,
)
from repro.core import synthesize
from repro.core.sop_derivation import derive_sop_spec
from repro.core.synthesizer import (
    apply_trigger_requirement,
    build_architecture,
    finalize_circuit,
)
from repro.logic import minimize, verify_cover, write_pla
from repro.pipeline import ArtifactStore, PipelineRun
from repro.sg.regions import signal_regions, trigger_regions
from repro.stg import elaborate

import calibrate
from specs import BASELINE_MAX_STATES, pass_order, warmup_name, workload_specs

now = time.perf_counter


def _pla(circuit) -> str:
    spec = circuit.spec
    names = [spec.output_name(o) for o in range(spec.num_outputs)]
    return write_pla(circuit.cover, input_names=circuit.sg.signals, output_names=names)


def _baseline_cell(flow, sg, name: str) -> str:
    """A Table 2 cell: the flow's area/delay, or the paper's failure code."""
    try:
        return flow(sg, name=name).stats().row()
    except NotDistributiveError:
        return "(1)"
    except StateSignalsRequiredError:
        return "(2)"


def _outcome(spec, seconds: float, circuit=None, cert=None, cells=None, error=None) -> dict:
    out = {"name": spec.name, "seconds": seconds, "error": error}
    if circuit is not None:
        stats = circuit.stats()
        out.update(
            states=circuit.sg.num_states,
            pla=_pla(circuit),
            area=stats.area,
            delay=stats.delay,
            proved=cert.fully_proved,
            cells=cells,
        )
    return out


def run_job(spec, baselines: bool) -> dict:
    """One timed job: elaborate, synthesize, certify, and on Table 2
    specs both baselines — one row of ``repro table2``."""
    t0 = now()
    try:
        sg = elaborate(spec.obj) if spec.kind == "stg" else spec.obj
        circuit = synthesize(sg, name=spec.name)
        cert = certify_circuit(circuit)
        cells = {}
        if baselines:
            cells["lavagno"] = _baseline_cell(synthesize_lavagno, sg, f"sis_{spec.name}")
            cells["beerel"] = _baseline_cell(synthesize_beerel, sg, f"syn_{spec.name}")
    except Exception as e:  # a crash is one failed job, not a failed run
        return _outcome(spec, now() - t0, error=f"{type(e).__name__}: {e}")
    return _outcome(spec, now() - t0, circuit, cert, cells)


def run_pass(workload: str, seed: int, index: int) -> dict:
    """One pass, with a calibration sample before each job and after the last."""
    specs = {s.name: s for s in workload_specs(workload)}
    jobs, cal = [], [calibrate.sample()]
    for name in pass_order(list(specs), seed, index):
        # the previous job's cyclic garbage is freed here, untimed, so the
        # seed's job order cannot move collection cost between jobs
        gc.collect()
        jobs.append(run_job(specs[name], baselines=workload != "muller-scale"))
        cal.append(calibrate.sample())
    return {"seconds": sum(j["seconds"] for j in jobs), "jobs": jobs, "cal": cal}


class Spans:
    """Spans kept in memory: (job, layer, start, end)."""

    def __init__(self) -> None:
        self.records: list[tuple[str, str, float, float]] = []

    @contextmanager
    def __call__(self, job: str, layer: str):
        t0 = now()
        try:
            yield
        finally:
            self.records.append((job, layer, t0, now()))


def traced_job(spec, baselines: bool, span: Spans) -> tuple[dict, dict]:
    """The job of :func:`run_job`, split into the calls ``synthesize``
    makes, in its order; returns (outcome, work counts)."""
    job = spec.name
    with span(job, "job"):
        if spec.kind == "stg":
            with span(job, "stg.elaborate"):
                sg = elaborate(spec.obj)
        else:
            sg = spec.obj
        with span(job, "analysis.preflight"):
            preflight = run_preflight(sg, name=job)
        if not preflight.ok:
            raise RuntimeError(f"{job}: preflight failed")
        with span(job, "sg.regions"):
            regions = {a: signal_regions(sg, a) for a in sg.non_inputs}
        with span(job, "core.sop"):
            sop = derive_sop_spec(sg, regions)
        with span(job, "logic.minimize"):
            cover = minimize(sop.on, sop.dc, sop.off, method="espresso")
        with span(job, "logic.verify_cover"):
            check = verify_cover(cover, sop.on, sop.dc, sop.off)
        if not check.ok:
            raise RuntimeError(f"{job}: unsound cover")
        with span(job, "core.trigger"):
            cover, single, added = apply_trigger_requirement(sg, sop, cover)
        with span(job, "netlist.build"):
            arch = build_architecture(sop, cover, name=job)
        with span(job, "core.finalize"):
            circuit = finalize_circuit(
                sg, sop, cover, arch, name=job,
                single_traversal=single, trigger_cubes_added=added,
            )
        with span(job, "analysis.certify"):
            cert = certify_circuit(circuit)
        if baselines:
            with span(job, "baselines.lavagno"):
                _baseline_cell(synthesize_lavagno, sg, f"sis_{job}")
            with span(job, "baselines.beerel"):
                _baseline_cell(synthesize_beerel, sg, f"syn_{job}")
    counts = {
        "stg.states": sg.num_states,
        "stg.arcs": sum(len(sg.successors(s)) for s in sg.states()),
        "sg.excitation_regions": sum(len(r.excitation) for r in regions.values()),
        "sg.trigger_regions": sum(
            len(trigger_regions(sg, er)) for r in regions.values() for er in r.excitation
        ),
        "logic.cubes": len(circuit.cover),
        "logic.literals": circuit.cover.num_literals(),
        "core.trigger_cubes_added": added,
        "netlist.gates": len(circuit.netlist.gates),
        "analysis.obligations": len(cert.obligations),
    }
    return _outcome(spec, 0.0, circuit, cert), counts


def write_spec_files(workload: str, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for spec in workload_specs(workload):
        name, text = spec.file_text()
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths


def fill_store(paths: list[str], store_dir: str) -> None:
    """Pull every artifact ``repro synth --cache-dir`` pulls."""
    store = ArtifactStore(store_dir)
    for path in paths:
        run = PipelineRun.from_file(path, store=store, method="espresso", delay_spread=0.0)
        run.sg()
        run.classification()
        run.circuit()


def pipeline_probe(paths: list[str], store_dir: str, span: Spans) -> dict:
    """``PipelineRun.from_file(...).circuit()`` on an empty store (miss
    leg), then on the store that leg filled (hit leg)."""
    legs = {}
    for leg in ("miss", "hit"):
        store = ArtifactStore(store_dir)
        before = store.stats()
        for path in paths:
            job = os.path.splitext(os.path.basename(path))[0]
            with span(job, "pipeline.open"):
                run = PipelineRun.from_file(path, store=store)
            with span(job, f"pipeline.{leg}"):
                run.circuit()
        after = store.stats()
        legs[leg] = {
            "entries": after["entries"] - before["entries"],
            "bytes": after["bytes"] - before["bytes"],
        }
    return legs


def baseline_probe(workload: str, span: Spans) -> None:
    """Time the baselines on inputs whose timed jobs skip them, up to
    :data:`BASELINE_MAX_STATES` states."""
    for spec in workload_specs(workload):
        sg = elaborate(spec.obj) if spec.kind == "stg" else spec.obj
        if sg.num_states > BASELINE_MAX_STATES:
            continue
        with span(spec.name, "baselines.lavagno"):
            _baseline_cell(synthesize_lavagno, sg, f"sis_{spec.name}")
        with span(spec.name, "baselines.beerel"):
            _baseline_cell(synthesize_beerel, sg, f"syn_{spec.name}")


def trace(workload: str, seed: int, directory: str) -> dict:
    baselines = workload != "muller-scale"
    untraced = run_pass(workload, seed, 0)
    span = Spans()
    specs = {s.name: s for s in workload_specs(workload)}
    traced, counts = [], {}
    for name in pass_order(list(specs), seed, 1):
        gc.collect()  # as in run_pass, so trace.overhead compares like with like
        try:
            outcome, counts[name] = traced_job(specs[name], baselines, span)
        except Exception as e:
            outcome = {"name": name, "error": f"{type(e).__name__}: {e}"}
        traced.append(outcome)
    # probes run outside the traced pass, so they stay out of its coverage
    probe = Spans()
    if not baselines:
        baseline_probe(workload, probe)
    paths = write_spec_files(workload, os.path.join(directory, "specs"))
    legs = pipeline_probe(paths, os.path.join(directory, "store"), probe)
    return {
        "passes": [untraced],
        "traced": traced,
        "counts": counts,
        "spans": span.records,
        "probe_spans": probe.records,
        "pipeline": legs,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "passes", "trace", "files"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out")
    ap.add_argument("--dir")
    ap.add_argument("--store")
    args = ap.parse_args(argv)

    if args.mode == "files":
        paths = write_spec_files(args.workload, args.dir)
        if args.store:
            fill_store(paths, args.store)
        return 0

    # set-up: imports above, input generation and one warm-up job on the
    # smallest input, so lazy imports and first-call costs land here
    warm = {s.name: s for s in workload_specs(args.workload)}[warmup_name(args.workload)]
    run_job(warm, baselines=args.workload != "muller-scale")
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "trace":
        result = trace(args.workload, args.seed, args.dir)
    else:
        passes = []
        start = now()
        while True:
            passes.append(run_pass(args.workload, args.seed, len(passes)))
            # start another pass only if it should end within the budget
            if now() - start + passes[-1]["seconds"] > args.seconds:
                break
        result = {"passes": passes}
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
