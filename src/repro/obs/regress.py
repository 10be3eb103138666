"""Noise-aware performance regression gate — the ``repro regress`` engine.

Compares a fresh benchmark run against a committed baseline
(``BENCH_<date>.json``) and flags phases that got slower *beyond what
timer noise explains*.  Wall-clock medians on sub-10ms phases jitter
hard on shared CI boxes, so a raw ``cur > base`` comparison would page
on every run.  The gate instead:

* compares per-phase **medians** against ``base * (1 + rel) + abs_s``
  — a relative band for real phases plus an absolute floor that
  swallows scheduler noise on the tiny ones;
* **re-measures suspects** before convicting: a phase over the
  threshold is re-run ``confirm_runs`` more times and judged on the
  *minimum* observed median (min-of-N is the standard noise-robust
  statistic for wall time — noise only ever adds);
* re-runs the baseline document's own ``runs_per_circuit`` /
  ``verify_runs`` so the two documents measure the same workload.

The report carries the circuit-physics telemetry of the current run
(per-circuit ω-margin and Equation (1) delay slack), so a perf
regression and a shrinking hazard margin are visible side by side.
Confirmed regressions additionally get **hotspot attribution**: the
convicted circuit is re-run under the stage-scoped sampling profiler
(:mod:`repro.obs.profiling`) and the report names the top functions by
self time inside the regressed phases — with baseline self-time deltas
when the run-history registry holds a committed profile document — so
a red number arrives with the function that caused it.  Exit contract
matches ``repro lint``: 0 clean, 1 confirmed regressions, 2 internal
error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .harness import bench_circuit, environment_fingerprint, run_bench
from .registry import fingerprint_digest

__all__ = [
    "DEFAULT_THRESHOLDS_PATH",
    "REGRESS_SCHEMA",
    "THRESHOLDS_SCHEMA",
    "PhaseDelta",
    "RegressReport",
    "ThresholdPolicy",
    "Thresholds",
    "load_baseline",
    "load_threshold_config",
    "run_regress",
    "save_threshold_config",
]

REGRESS_SCHEMA = "repro-regress/1"
THRESHOLDS_SCHEMA = "repro-thresholds/1"

#: the committed threshold config the auto-ratchet rewrites
DEFAULT_THRESHOLDS_PATH = os.path.join("benchmarks", "regress-thresholds.json")


@dataclass(frozen=True)
class Thresholds:
    """What counts as a regression.

    ``rel`` is the relative slowdown band (0.25 = +25%), ``abs_s`` an
    absolute floor in seconds added on top — a 2ms phase reading 3ms
    is timer noise, not a finding.  ``confirm_runs`` is how many
    re-measures a suspect gets before conviction.  The band is
    ratcheted down as the suite's noise floor drops: 0.30 → 0.25 with
    the 2026-08-07 re-baseline.
    """

    rel: float = 0.25
    abs_s: float = 0.005
    confirm_runs: int = 3

    def allowed(self, base_s: float) -> float:
        return base_s * (1.0 + self.rel) + self.abs_s

    def to_json(self) -> dict:
        return {"rel": self.rel, "abs_s": self.abs_s}


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-phase regression thresholds: a default band plus overrides.

    The auto-ratchet engine (:mod:`repro.obs.analytics`) tightens the
    ``phases`` overrides as the measured noise floor drops; phases the
    ledger has no evidence for fall back to ``default``.  Serialized
    as the committed ``repro-thresholds/1`` config
    (``benchmarks/regress-thresholds.json``) so the gate's bands are
    code-reviewed like any other committed baseline.
    """

    default: Thresholds = Thresholds()
    phases: Mapping[str, Thresholds] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def for_phase(self, phase: str) -> Thresholds:
        return self.phases.get(phase, self.default)

    def allowed(self, phase: str, base_s: float) -> float:
        return self.for_phase(phase).allowed(base_s)

    @property
    def confirm_runs(self) -> int:
        return self.default.confirm_runs

    def to_json(self) -> dict:
        return {
            "default": {
                "rel": self.default.rel,
                "abs_s": self.default.abs_s,
                "confirm_runs": self.default.confirm_runs,
            },
            "phases": {
                name: th.to_json() for name, th in sorted(self.phases.items())
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ThresholdPolicy":
        d = doc.get("default") or {}
        default = Thresholds(
            rel=float(d.get("rel", 0.25)),
            abs_s=float(d.get("abs_s", 0.005)),
            confirm_runs=int(d.get("confirm_runs", 3)),
        )
        phases = {
            name: Thresholds(
                rel=float(o.get("rel", default.rel)),
                abs_s=float(o.get("abs_s", default.abs_s)),
                confirm_runs=default.confirm_runs,
            )
            for name, o in (doc.get("phases") or {}).items()
        }
        return cls(default=default, phases=MappingProxyType(phases))


def load_threshold_config(path: str) -> ThresholdPolicy:
    """Read a committed ``repro-thresholds/1`` config file."""
    import json

    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != THRESHOLDS_SCHEMA:
        raise ValueError(
            f"{path}: not a {THRESHOLDS_SCHEMA} config "
            f"(got {doc.get('schema')!r})"
        )
    return ThresholdPolicy.from_json(doc)


def save_threshold_config(
    policy: ThresholdPolicy, path: str, provenance: dict | None = None
) -> str:
    """Write the threshold config (the ``--apply-ratchet`` output)."""
    import datetime
    import json

    doc = {
        "schema": THRESHOLDS_SCHEMA,
        "updated_utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        **policy.to_json(),
    }
    if provenance:
        doc["provenance"] = provenance
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


@dataclass
class PhaseDelta:
    """One (circuit, phase) comparison.

    ``status`` is ``ok`` (within the band), ``cleared`` (over the band
    once, but the re-measure minimum came back inside — noise), or
    ``regression`` (over the band even at the re-measured minimum).
    """

    circuit: str
    phase: str
    base_s: float
    cur_s: float
    allowed_s: float
    best_s: float
    status: str = "ok"

    @property
    def ratio(self) -> float:
        return self.best_s / self.base_s if self.base_s > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "phase": self.phase,
            "base_s": round(self.base_s, 6),
            "cur_s": round(self.cur_s, 6),
            "allowed_s": round(self.allowed_s, 6),
            "best_s": round(self.best_s, 6),
            "ratio": round(self.ratio, 3) if self.base_s > 0 else None,
            "status": self.status,
        }

    def render(self) -> str:
        return (
            f"{self.circuit}/{self.phase}: {self.base_s * 1e3:.1f} -> "
            f"{self.best_s * 1e3:.1f} ms (allowed {self.allowed_s * 1e3:.1f}, "
            f"x{self.ratio:.2f}) [{self.status}]"
        )


@dataclass
class RegressReport:
    """The full comparison: deltas, telemetry, and the verdict."""

    baseline_created: str
    baseline_sha: str | None
    thresholds: ThresholdPolicy
    env_match: bool
    current: dict = field(default_factory=dict)
    deltas: list[PhaseDelta] = field(default_factory=list)
    #: requested circuits the baseline document does not contain
    skipped: list[str] = field(default_factory=list)
    #: baseline circuits the current benchmark suite no longer knows
    #: (renamed or removed since the baseline was recorded) — skipped
    #: structurally instead of crashing the fresh run
    skipped_unknown: list[str] = field(default_factory=list)
    #: hotspot rows for convicted circuits: one dict per (circuit,
    #: phase, function) with self seconds, share of the phase, and —
    #: when a baseline profile document was available — the baseline
    #: self seconds and the delta
    hotspots: list[dict] = field(default_factory=list)
    #: where the baseline profile came from (history filename), if any
    profile_baseline: str | None = None

    @property
    def regressions(self) -> list[PhaseDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def cleared(self) -> list[PhaseDelta]:
        return [d for d in self.deltas if d.status == "cleared"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json_doc(self) -> dict:
        return {
            "schema": REGRESS_SCHEMA,
            "baseline": {
                "created_utc": self.baseline_created,
                "git_sha": self.baseline_sha,
            },
            "thresholds": {
                "rel": self.thresholds.default.rel,
                "abs_s": self.thresholds.default.abs_s,
                "confirm_runs": self.thresholds.default.confirm_runs,
                "phases": {
                    name: th.to_json()
                    for name, th in sorted(self.thresholds.phases.items())
                },
            },
            "env_match": self.env_match,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "cleared": len(self.cleared),
            "skipped": self.skipped,
            "skipped_unknown": self.skipped_unknown,
            "deltas": [d.to_dict() for d in self.deltas],
            "hotspots": self.hotspots,
            "profile_baseline": self.profile_baseline,
            "current": self.current,
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _verdict(self) -> str:
        if self.ok:
            return (
                f"OK: {len(self.deltas)} phase comparisons within thresholds "
                f"({len(self.cleared)} noise suspect(s) cleared by re-measure)"
            )
        worst = max(self.regressions, key=lambda d: d.ratio)
        return (
            f"REGRESSION: {len(self.regressions)} phase(s) slower than "
            f"baseline beyond thresholds; worst {worst.circuit}/{worst.phase} "
            f"x{worst.ratio:.2f}"
        )

    def render_text(self) -> str:
        lines = [
            f"baseline: {self.baseline_created} "
            f"@ {(self.baseline_sha or 'nosha')[:7]}"
            + ("" if self.env_match else "  [env mismatch: different machine]"),
        ]
        for d in self.deltas:
            if d.status != "ok":
                lines.append("  " + d.render())
        for h in self.hotspots[:10]:
            delta = h.get("delta_s")
            lines.append(
                f"  hotspot {h['circuit']}/{h['stage']}: {h['func']} "
                f"{h['self_s'] * 1e3:.1f} ms ({h['pct']:.0f}% of phase"
                + (f", {delta * 1e3:+.1f} ms vs baseline" if delta is not None else "")
                + ")"
            )
        if self.skipped:
            lines.append(
                "  skipped (not in baseline): " + ", ".join(self.skipped)
            )
        if self.skipped_unknown:
            lines.append(
                "  skipped (baseline circuit unknown to current suite): "
                + ", ".join(self.skipped_unknown)
            )
        lines.append(self._verdict())
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """CI artifact: verdict, per-phase deltas, telemetry tables."""
        out = [
            "# repro regress report",
            "",
            f"**{self._verdict()}**",
            "",
            f"- baseline: `{self.baseline_created}` at "
            f"`{(self.baseline_sha or 'nosha')[:7]}`",
            f"- thresholds: rel +{self.thresholds.default.rel * 100:.0f}%, "
            f"abs {self.thresholds.default.abs_s * 1e3:.1f} ms, "
            f"confirm {self.thresholds.default.confirm_runs} re-run(s)"
            + (
                f", {len(self.thresholds.phases)} ratcheted phase override(s)"
                if self.thresholds.phases
                else ""
            ),
            f"- environment match: {'yes' if self.env_match else 'NO'}",
            "",
        ]
        flagged = [d for d in self.deltas if d.status != "ok"]
        if flagged:
            out += [
                "## Flagged phases",
                "",
                "| circuit | phase | base (ms) | current (ms) | best (ms) "
                "| allowed (ms) | ratio | status |",
                "|---|---|--:|--:|--:|--:|--:|---|",
            ]
            for d in flagged:
                out.append(
                    f"| {d.circuit} | {d.phase} | {d.base_s * 1e3:.2f} "
                    f"| {d.cur_s * 1e3:.2f} | {d.best_s * 1e3:.2f} "
                    f"| {d.allowed_s * 1e3:.2f} | x{d.ratio:.2f} "
                    f"| {d.status} |"
                )
            out.append("")
        if self.hotspots:
            source = (
                f"baseline self-times from `{self.profile_baseline}`"
                if self.profile_baseline
                else "no committed baseline profile — deltas unavailable"
            )
            out += [
                "## Hotspot attribution",
                "",
                "Convicted circuits re-profiled under the stage-scoped "
                f"sampler; top functions by self time inside the regressed "
                f"phases ({source}).",
                "",
                "| circuit | phase | function | self (ms) | % of phase "
                "| baseline (ms) | Δ (ms) |",
                "|---|---|---|--:|--:|--:|--:|",
            ]
            for h in self.hotspots:
                base = h.get("base_s")
                delta = h.get("delta_s")
                out.append(
                    f"| {h['circuit']} | {h['stage']} | `{h['func']}` "
                    f"| {h['self_s'] * 1e3:.2f} | {h['pct']:.1f} "
                    f"| {'—' if base is None else f'{base * 1e3:.2f}'} "
                    f"| {'—' if delta is None else f'{delta * 1e3:+.2f}'} |"
                )
            out.append("")
        tele_rows = [
            (e["name"], e["telemetry"])
            for e in self.current.get("circuits", [])
            if isinstance(e.get("telemetry"), dict)
        ]
        if tele_rows:
            out += [
                "## Hazard telemetry (current run)",
                "",
                "ω-margin = distance of the tightest pulse stream to the "
                "Theorem 2 filtering threshold; delay slack = measured "
                "Equation (1) margin (negative would mean an enable rail "
                "opened onto a still-excited SOP plane).",
                "",
                "| circuit | pulses | filtered | ω-margin (min) "
                "| delay slack (min) | region glitches |",
                "|---|--:|--:|--:|--:|--:|",
            ]
            for name, t in tele_rows:
                om = t.get("min_omega_margin")
                ds = t.get("min_delay_slack")
                out.append(
                    f"| {name} | {t.get('pulses', 0)} "
                    f"| {t.get('mhs_filtered', 0)} "
                    f"| {'—' if om is None else f'{om:+.3f}'} "
                    f"| {'—' if ds is None else f'{ds:+.3f}'} "
                    f"| {t.get('region_glitches', 0)} |"
                )
            out.append("")
        if self.skipped or self.skipped_unknown:
            out += ["## Skipped", ""]
            if self.skipped:
                out += [
                    "Not present in the baseline document: "
                    + ", ".join(f"`{s}`" for s in self.skipped),
                    "",
                ]
            if self.skipped_unknown:
                out += [
                    "In the baseline but unknown to the current benchmark "
                    "suite (renamed or removed): "
                    + ", ".join(f"`{s}`" for s in self.skipped_unknown),
                    "",
                ]
        return "\n".join(out)


def load_baseline(path: str) -> dict:
    """Read and sanity-check a baseline bench document."""
    import json

    from .harness import validate_bench

    with open(path) as f:
        doc = json.load(f)
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            f"{path}: not a valid bench baseline: {problems[0]}"
            + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        )
    return doc


def _comparisons(entry: dict) -> list[tuple[str, float]]:
    """(phase, median) pairs of one bench entry, 'total' included."""
    out = [
        (phase, float(timing.get("median_s", 0.0)))
        for phase, timing in sorted(entry.get("phases", {}).items())
    ]
    out.append(("total", float(entry.get("total", {}).get("median_s", 0.0))))
    return out


def run_regress(
    baseline: dict,
    circuits: list[str] | None = None,
    quick: bool = False,
    thresholds: Thresholds | ThresholdPolicy | None = None,
    remeasure: bool = True,
    telemetry: bool = True,
    progress=None,
    hotspots: bool = True,
    hotspot_top: int = 5,
    history_dir: str | None = None,
) -> RegressReport:
    """Benchmark now, compare against ``baseline``, re-measure suspects.

    ``circuits`` / ``quick`` restrict which baseline circuits are
    checked (default: every circuit the baseline has).  Measurement
    parameters (``runs_per_circuit``, ``verify_runs``) always come from
    the baseline document so the workloads are comparable.

    ``hotspots`` (default on) re-runs each *convicted* circuit under
    the stage-scoped sampling profiler and attaches the top
    ``hotspot_top`` functions by self time within the regressed phases
    to the report; with ``history_dir`` the latest committed profile
    document supplies baseline self-times so each hotspot carries a
    delta, not just an absolute number.
    """
    thresholds = thresholds or ThresholdPolicy()
    if isinstance(thresholds, Thresholds):
        thresholds = ThresholdPolicy(default=thresholds)
    base_entries = {e["name"]: e for e in baseline.get("circuits", [])}
    if circuits is None:
        if quick:
            from .harness import quick_circuits

            circuits = [n for n in quick_circuits() if n in base_entries]
        else:
            circuits = list(base_entries)
    skipped = [n for n in circuits if n not in base_entries]
    targets = [n for n in circuits if n in base_entries]
    if not targets:
        raise ValueError("no requested circuit appears in the baseline")
    # a baseline may list circuits the suite has since renamed or
    # removed; benchmarking one would crash the fresh run, so they are
    # skipped structurally and reported
    from ..bench.circuits import TABLE2_CIRCUITS

    skipped_unknown = [n for n in targets if n not in TABLE2_CIRCUITS]
    targets = [n for n in targets if n in TABLE2_CIRCUITS]
    if not targets:
        raise ValueError(
            "no baseline circuit is known to the current benchmark suite"
        )
    runs = int(baseline.get("runs_per_circuit", 3))
    verify_runs = int(baseline.get("verify_runs", 3))
    current = run_bench(
        circuits=targets,
        runs=runs,
        verify_runs=verify_runs,
        telemetry=telemetry,
        progress=progress,
    )
    report = RegressReport(
        baseline_created=str(baseline.get("created_utc", "?")),
        baseline_sha=(baseline.get("env") or {}).get("git_sha"),
        thresholds=thresholds,
        env_match=fingerprint_digest(baseline.get("env"))
        == fingerprint_digest(environment_fingerprint()),
        current=current,
        skipped=skipped,
        skipped_unknown=skipped_unknown,
    )
    cur_entries = {e["name"]: e for e in current["circuits"]}
    suspects: dict[str, list[PhaseDelta]] = {}
    for name in targets:
        base_phases = dict(_comparisons(base_entries[name]))
        for phase, cur_s in _comparisons(cur_entries[name]):
            base_s = base_phases.get(phase)
            if base_s is None:
                continue  # phase added since the baseline: nothing to diff
            delta = PhaseDelta(
                circuit=name,
                phase=phase,
                base_s=base_s,
                cur_s=cur_s,
                allowed_s=thresholds.allowed(phase, base_s),
                best_s=cur_s,
            )
            if cur_s > delta.allowed_s:
                delta.status = "regression"  # provisional, pending re-measure
                suspects.setdefault(name, []).append(delta)
            report.deltas.append(delta)
    if remeasure and suspects:
        for name, deltas in suspects.items():
            # min-of-N over whole-circuit re-measures: one extra bench run
            # re-times every suspect phase of that circuit at once
            for _ in range(max(1, thresholds.confirm_runs)):
                entry, _tracer = bench_circuit(
                    name, runs=1, verify_runs=verify_runs
                )
                timed = dict(_comparisons(entry))
                for d in deltas:
                    again = timed.get(d.phase)
                    if again is not None and again < d.best_s:
                        d.best_s = again
            for d in deltas:
                if d.best_s <= d.allowed_s:
                    d.status = "cleared"
    if hotspots and report.regressions:
        _attribute_hotspots(
            report,
            verify_runs=verify_runs,
            top=hotspot_top,
            history_dir=history_dir,
        )
    return report


def _baseline_profile(history_dir: str | None) -> tuple[dict | None, str | None]:
    """The latest committed ``repro-profile/1`` document in the
    run-history registry, or (None, None) when there is none."""
    if not history_dir:
        return None, None
    from .registry import RunHistory

    history = RunHistory(history_dir)
    entry = history.latest("profile")
    if entry is None:
        return None, None
    try:
        envelope = history.load(entry)
    except (OSError, ValueError):
        return None, None
    return envelope.get("doc") or None, entry.file


def _attribute_hotspots(
    report: RegressReport,
    verify_runs: int,
    top: int,
    history_dir: str | None,
) -> None:
    """Profile each convicted circuit and fill ``report.hotspots``.

    The profile run happens *after* conviction, on the same (possibly
    still-slow) code paths, so the function responsible for the
    regression dominates its phase's sample weight.  Baseline self-
    times are matched per (stage, function) against the per-circuit
    block of the committed profile document when one exists.
    """
    from .profiling import hotspot_summary, profile_suite

    base_doc, base_file = _baseline_profile(history_dir)
    report.profile_baseline = base_file

    def base_self(circuit: str, stage: str, func: str) -> float | None:
        if base_doc is None:
            return None
        blocks = [
            (base_doc.get("per_circuit") or {}).get(circuit, {}).get("stages", {}),
            base_doc.get("stages", {}),
        ]
        for stages in blocks:
            for f in (stages.get(stage) or {}).get("functions", []):
                if f.get("func") == func:
                    return float(f.get("self_s", 0.0))
        return None

    convicted: dict[str, set[str]] = {}
    for d in report.regressions:
        convicted.setdefault(d.circuit, set()).add(d.phase)
    for circuit in sorted(convicted):
        doc = profile_suite(circuits=[circuit], verify_runs=verify_runs)
        # 'total' is not a span name; a total-only conviction means the
        # slowdown is smeared, so attribute across every sampled stage
        stages = convicted[circuit] - {"total"}
        summary = hotspot_summary(doc, stages=stages or None, top=top)
        for stage, funcs in summary.items():
            for f in funcs:
                row = {
                    "circuit": circuit,
                    "stage": stage,
                    "func": f["func"],
                    "self_s": f["self_s"],
                    "pct": f["pct"],
                }
                base = base_self(circuit, stage, f["func"])
                if base is not None:
                    row["base_s"] = base
                    row["delta_s"] = round(f["self_s"] - base, 6)
                report.hotspots.append(row)
