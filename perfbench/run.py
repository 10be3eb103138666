"""End-to-end and per-layer benchmark of the N-SHOT synthesis flow.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones; ``--workload all`` runs every workload
both ways, each in its own process.  One closed-loop client: at most
one child process runs at a time.  Every job's output is checked by
``reference.py`` outside the timed intervals; the last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when any check failed.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from math import log
from statistics import median

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("table2", "muller-scale", "cli-miss", "cli-hit")
#: set-up is repeated this many times per run and its median reported
SETUP_SAMPLES = 3
#: every child is killed after this many seconds of the run have passed
RUN_LIMIT_S = 170.0
#: layers whose job time is fitted against state count (``*_exp``) and
#: reported per state at the workload's largest input
SCALING_LAYERS = (
    "stg.elaborate",
    "analysis.preflight",
    "sg.regions",
    "core.sop",
    "core.trigger",
    "analysis.certify",
)
#: layers timed inside each traced job (the pipeline probes are not)
FLOW_LAYERS = (
    "stg.elaborate",
    "analysis.preflight",
    "sg.regions",
    "core.sop",
    "logic.minimize",
    "logic.verify_cover",
    "core.trigger",
    "netlist.build",
    "core.finalize",
    "analysis.certify",
    "baselines.lavagno",
    "baselines.beerel",
)
COUNTS = (
    "stg.states",
    "stg.arcs",
    "sg.excitation_regions",
    "sg.trigger_regions",
    "logic.cubes",
    "logic.literals",
    "core.trigger_cubes_added",
    "netlist.gates",
    "analysis.obligations",
)

now = time.perf_counter


@dataclass
class Child:
    """Wall time, READY time, exit code and peak RSS of a finished child."""

    seconds: float
    ready: float | None
    code: int
    maxrss_kb: int


def run_child(cmd, env, deadline: float, stdout_path: str, watch_ready: bool = False) -> Child:
    """Run one child to completion and reap it with ``wait4`` so its own
    peak RSS is known.  ``watch_ready`` records when it prints READY."""
    stderr_path = stdout_path + ".err"
    with open(stderr_path, "w") as err:
        out = subprocess.PIPE if watch_ready else open(stdout_path, "w")
        t0 = now()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - now(), 0.0), proc.kill)
        killer.start()
        ready = None
        try:
            if watch_ready:
                with open(stdout_path, "wb") as log_out:
                    for line in proc.stdout:
                        if ready is None and line.strip() == b"READY":
                            ready = now() - t0
                        log_out.write(line)
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = now() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            if not watch_ready:
                out.close()
    return Child(seconds, ready, proc.returncode, usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)  # hermetic unless a store is named
    return env


def tail(xs) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(xs)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(log(x), log(y)) for x, y in points if x > 0 and y > 0]
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def drifted(traced: dict, untraced: dict | None) -> bool:
    """True when a decomposed job's PLA text or area differs from what
    ``synthesize()`` produced for the same input (or either failed)."""
    return (
        bool(traced.get("error"))
        or untraced is None
        or traced["pla"] != untraced["pla"]
        or traced["area"] != untraced["area"]
    )


class Run:
    """One workload run: its children, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = now() + RUN_LIMIT_S
        self.env = child_env()
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}")
        os.makedirs(self.work)
        from reference import Checker

        self.checker = Checker(workload)
        self.metrics: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, samples)
        self.details: list[str] = []

    # -- children -----------------------------------------------------
    def worker(self, mode: str, tag: str, **opts) -> tuple[Child, dict | None]:
        out = os.path.join(self.work, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--out", out]
        for k, v in opts.items():
            cmd += [f"--{k}", v]
        child = run_child(cmd, self.env, self.deadline, os.path.join(self.work, tag + ".log"),
                          watch_ready=mode != "files")
        if child.code != 0:
            with open(os.path.join(self.work, tag + ".log.err")) as f:
                raise RuntimeError(f"worker {mode} exited {child.code}:\n{f.read()[-2000:]}")
        result = None
        if mode in ("passes", "trace"):
            with open(out) as f:
                result = json.load(f)
        return child, result

    def cli_job(self, path: str, store: str, tag: str) -> tuple[dict, Child]:
        pla = os.path.join(self.work, tag + ".pla")
        log_path = os.path.join(self.work, tag + ".log")
        cmd = [sys.executable, "-m", "repro", "synth", path, "--cache-dir", store, "--pla", pla]
        child = run_child(cmd, self.env, self.deadline, log_path)
        name = os.path.splitext(os.path.basename(path))[0]
        outcome = {"name": name, "seconds": child.seconds, "error": None}
        with open(log_path) as f:
            text = f.read()
        m_states = re.search(r"N-SHOT circuit for \S+: (\d+) states", text)
        m_area = re.search(r"area ([\d.]+), delay ([\d.]+) ns", text)
        if child.code != 0 or not (m_states and m_area and os.path.exists(pla)):
            outcome["error"] = f"repro synth exited {child.code}"
            return outcome, child
        with open(pla) as f:
            outcome.update(
                states=int(m_states.group(1)),
                area=float(m_area.group(1)),
                delay=float(m_area.group(2)),
                pla=f.read(),
                proved=None,  # synth issues no certificate
            )
        os.remove(pla)
        return outcome, child

    # -- workloads ----------------------------------------------------
    def in_process(self) -> None:
        setups, rss = [], []
        for i in range(SETUP_SAMPLES):
            before = calibrate.sample()
            child, _ = self.worker("setup", f"setup{i}")
            setups.append(calibrate.normalize(child.ready, [before, calibrate.sample()]))
            rss.append(child.maxrss_kb)
        child, result = self.worker("passes", "passes")
        rss.append(child.maxrss_kb)
        self.summarize(result["passes"], setups, max(rss))

    def cli(self) -> None:
        from repro.pipeline import ArtifactStore
        from specs import pass_order, warmup_name

        hit = self.workload == "cli-hit"
        setups = []
        for i in range(SETUP_SAMPLES):
            base = os.path.join(self.work, f"setup{i}")
            specs_dir, store = os.path.join(base, "specs"), os.path.join(base, "store")
            before = calibrate.sample()
            t0 = now()
            self.worker("files", f"setup{i}", dir=specs_dir, **({"store": store} if hit else {}))
            paths = {os.path.splitext(p)[0]: os.path.join(specs_dir, p) for p in os.listdir(specs_dir)}
            warm_store = store if hit else os.path.join(base, "warmup-store")
            self.cli_job(paths[warmup_name(self.workload)], warm_store, f"warmup{i}")
            setups.append(calibrate.normalize(now() - t0, [before, calibrate.sample()]))
            if i:
                shutil.rmtree(os.path.join(self.work, f"setup{i - 1}"))
        legs, rss = [], []
        start = now()
        while True:
            leg = len(legs)
            leg_store = store if hit else os.path.join(self.work, f"store{leg}")
            cache = ArtifactStore(leg_store)
            jobs, cal = [], [calibrate.sample()]
            for name in pass_order(sorted(paths), self.seed, leg):
                before = cache.stats()["entries"]
                outcome, child = self.cli_job(paths[name], leg_store, f"job{leg}-{name}")
                written = cache.stats()["entries"] - before
                cal.append(calibrate.sample())
                if not outcome["error"] and hit and written:
                    outcome["error"] = f"hit job wrote {written} store entries"
                if not outcome["error"] and not hit and not written:
                    outcome["error"] = "miss job wrote no store entries"
                jobs.append(outcome)
                rss.append(child.maxrss_kb)
            legs.append({"seconds": sum(j["seconds"] for j in jobs), "jobs": jobs, "cal": cal})
            if not hit:
                shutil.rmtree(leg_store)
            if now() - start + legs[-1]["seconds"] > self.seconds:
                break
        self.summarize(legs, setups, max(rss))

    def summarize(self, passes: list[dict], setups: list[float], maxrss_kb: int) -> None:
        """Check every job, then compute the end-to-end metrics from job
        times at the reference speed (see ``calibrate.py``)."""
        totals, raw, p50s, tails, areas, delays = [], [], [], [], [], []
        for p in passes:
            ok = [j for j in p["jobs"] if self.checker.check(j)]
            secs = [calibrate.normalize(j["seconds"], p["cal"]) for j in p["jobs"]]
            totals.append(sum(secs))
            raw.append(p["seconds"])
            p50s.append(median(secs))
            tails.append(tail(secs))
            areas.append(sum(j["area"] for j in ok))
            delays.append(sum(j["delay"] for j in ok))
        n_jobs = len(passes[0]["jobs"])
        n = len(passes)
        pct = tails[0][1]
        self.put("setup_s", median(setups), "s", f"median of {len(setups)} set-ups")
        self.put("pass_s", median(totals), "s",
                 f"median of {n} pass(es) of {n_jobs} jobs; raw {median(raw):.4g} s")
        self.put("job_p50_s", median(p50s), "s", f"per-pass median of {n_jobs} jobs, median of {n}")
        self.put("job_tail_s", median(t[0] for t in tails), "s", f"per-pass p{pct:.0f} of {n_jobs} jobs, median of {n}")
        self.put("peak_rss_mb", maxrss_kb / 1024.0, "MB", "max over the workload's processes")
        self.put("area_total", median(areas), "lib_area", f"sum over {n_jobs} jobs")
        self.put("delay_total", median(delays), "lib_ns", f"sum over {n_jobs} jobs (library delay model)")

    def traced(self) -> None:
        """Per-layer metrics from one decomposed pass and the probes."""
        _, result = self.worker("trace", "trace", dir=os.path.join(self.work, "trace"))
        untraced = result["passes"][0]
        by_name = {j["name"]: j for j in untraced["jobs"] if self.checker.check(j)}
        for t in result["traced"]:
            if drifted(t, by_name.get(t["name"])):
                msg = f"{t['name']}: decomposed flow differs from synthesize()"
                print("DECOMPOSITION DRIFT: " + msg, file=sys.stderr)
                self.checker.fail(msg)
            else:
                self.checker.attempted += 1

        spans, probes = result["spans"], result["probe_spans"]
        per_job = defaultdict(lambda: defaultdict(float))
        totals = defaultdict(float)
        for job, layer, t0, t1 in spans + probes:
            per_job[job][layer] += t1 - t0
            totals[layer] += t1 - t0
        job_time = sum(t1 - t0 for _, layer, t0, t1 in spans if layer == "job")
        covered = sum(t1 - t0 for _, layer, t0, t1 in spans if layer in FLOW_LAYERS)
        counts = result["counts"]
        n_jobs = len(counts)
        for layer in FLOW_LAYERS:
            self.put(f"{layer}_s", totals[layer], "s", f"sum over {n_jobs} jobs")
        for key in COUNTS:
            self.put(key, sum(c[key] for c in counts.values()), "count", f"sum over {n_jobs} jobs")
        for layer in ("pipeline.open", "pipeline.miss", "pipeline.hit"):
            self.put(f"{layer}_s", totals[layer], "s", f"sum over {n_jobs} specs")
        legs = result["pipeline"]
        self.put("pipeline.entries_written", legs["miss"]["entries"] + legs["hit"]["entries"], "count", "miss + hit leg")
        self.put("pipeline.bytes_written", legs["miss"]["bytes"] + legs["hit"]["bytes"], "bytes", "miss + hit leg")
        self.put("pipeline.hit_ratio", 1.0 - legs["hit"]["entries"] / legs["miss"]["entries"], "ratio",
                 "1 - hit-leg entries / miss-leg entries")
        self.put("cli.import_s", self.import_probe(), "s", "median of 5, import repro.cli minus bare start")

        states = {job: c["stg.states"] for job, c in counts.items()}
        self.put("growth_exponent",
                 slope((j["states"], j["seconds"]) for j in untraced["jobs"] if "states" in j),
                 "slope", f"log job s vs log states, {len(untraced['jobs'])} jobs")
        largest = max(states, key=states.get)
        for layer in SCALING_LAYERS:
            fit = [(states[job], per_job[job][layer]) for job in states if per_job[job][layer]]
            self.put(f"{layer}_exp", slope(fit), "slope", f"{len(fit)} jobs")
            self.put(f"{layer}_us_per_state", 1e6 * per_job[largest][layer] / states[largest],
                     "us", f"at {largest} ({states[largest]} states)")
        self.put("trace.coverage", covered / job_time, "ratio", "layer spans / job spans")
        self.put("trace.overhead", job_time / untraced["seconds"] - 1.0, "ratio",
                 "traced pass / untraced pass - 1")

        self.details.append("per-state cost (us/state) by job:")
        self.details.append("  " + f"{'job':<14}{'states':>7}" + "".join(f"{l:>20}" for l in SCALING_LAYERS))
        for job in sorted(states, key=states.get):
            cells = "".join(f"{1e6 * per_job[job][l] / states[job]:>20.2f}" for l in SCALING_LAYERS)
            self.details.append(f"  {job:<14}{states[job]:>7}{cells}")
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        spans_path = os.path.join(WORK, "spans", f"{self.workload}-seed{self.seed}.json")
        with open(spans_path, "w") as f:
            json.dump({"fields": ["job", "layer", "start", "end"], "spans": spans, "probe_spans": probes}, f)
        self.details.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    def import_probe(self, repeats: int = 5) -> float:
        """Fresh ``import repro.cli`` minus a bare interpreter start."""
        times = {"import repro.cli": [], "pass": []}
        for i in range(repeats):
            for code in times:
                child = run_child([sys.executable, "-c", code], self.env, self.deadline,
                                  os.path.join(self.work, f"import{i}.log"))
                if child.code != 0:
                    raise RuntimeError(f"python -c {code!r} exited {child.code}")
                times[code].append(child.seconds)
        return median(times["import repro.cli"]) - median(times["pass"])

    def put(self, name: str, value: float, unit: str, samples: str) -> None:
        self.metrics[name] = (float(value), unit, samples)


def load_metric_names(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    names = load_metric_names(bool(args.trace))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            run.traced()
        elif args.workload in ("cli-miss", "cli-hit"):
            run.cli()
        else:
            run.in_process()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if set(run.metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(run.metrics) ^ set(names))} disagree with BENCHMARK.json")
    checker = run.checker
    print(f"{args.workload}: seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{checker.attempted} jobs attempted, {checker.failed} failed, "
          f"fail_ratio {checker.failed / checker.attempted:.3f}")
    for p in checker.problems[:20]:
        print(f"  FAILED {p}")
    for name, (value, unit, samples) in run.metrics.items():
        print(f"  {name:<34}{value:>14.6g} {unit:<9} {samples}")
    for line in run.details:
        print(line)
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in run.metrics.items()},
    }))
    return 1 if checker.problems else 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            code = code or proc.returncode
            try:
                doc = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                summary["correct"] = False
                continue
            summary["correct"] &= doc["correct"]
            summary["attempted"] += doc["attempted"]
            summary["failed"] += doc["failed"]
            for k, v in doc["metrics"].items():
                summary["metrics"][f"{workload}/{k}"] = v
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: repro sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
