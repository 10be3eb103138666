"""Cross-run analytics over the run-history ledger — ``repro report``.

Everything under ``benchmarks/history/`` so far has been read one run
at a time (``repro regress`` compares *two* documents, ``repro profile
--diff`` compares two profiles).  This module is the trend layer: it
loads **every** registered document kind back out of the ledger, turns
them into per-phase / per-circuit / per-function time series keyed by
git SHA + environment fingerprint, and computes the statistics a
point measurement cannot give:

* **noise floors** — median + MAD per (circuit, phase), stratified by
  environment fingerprint so a machine change never pollutes the
  floor (MAD, not stddev: wall-clock noise is one-sided and spiky);
* **changepoints** — a windowed median-shift detector that attributes
  each sustained level shift to the commit range between the adjacent
  ledger entries, so "it got slower" arrives with the two SHAs that
  bracket the cause;
* **ratchet proposals** — tightened per-phase regress bands derived
  from ``k·MAD / median`` over the last N clean runs, emitted as a
  ``repro-thresholds/1`` document (the committed policy with each
  tightening applied, plus per-phase ``evidence`` and ``stale``
  blocks); applying one rewrites the committed threshold config and
  *refuses to loosen* — loosening is a reviewed hand edit.

The companion :mod:`repro.obs.report` renders the resulting
``repro-analytics/1`` document as text or as the self-contained HTML
observatory dashboard CI publishes on every run.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from .readout import mad, median
from .registry import RunHistory

__all__ = [
    "ANALYTICS_SCHEMA",
    "CHANGEPOINT_K",
    "CHANGEPOINT_MIN_REL",
    "CHANGEPOINT_WINDOW",
    "RATCHET_K",
    "RATCHET_LAST_N",
    "Changepoint",
    "Ledger",
    "LedgerRun",
    "RatchetError",
    "SeriesPoint",
    "analyze",
    "apply_ratchet",
    "detect_changepoints",
    "hotspot_series",
    "load_ledger",
    "panel_series",
    "phase_series",
    "propose_ratchet",
]

ANALYTICS_SCHEMA = "repro-analytics/1"

#: the changepoint detector's one parameter set: runs per side, the
#: MAD multiple and the relative shift a level change must clear (the
#: report and the ratchet's clean tails share it)
CHANGEPOINT_WINDOW = 3
CHANGEPOINT_K = 4.0
CHANGEPOINT_MIN_REL = 0.2
#: absolute shift floor, so timer noise on microsecond phases never
#: reads as drift
CHANGEPOINT_ABS_FLOOR_S = 0.0005

#: hotspot functions traced across profile documents
HOTSPOT_TOP = 10

#: a ratchet band is ``RATCHET_K`` × the MAD noise floor measured over
#: the last ``RATCHET_LAST_N`` clean runs per circuit
RATCHET_K = 5.0
RATCHET_LAST_N = 10
#: clean runs a circuit needs before its phase counts as evidence
RATCHET_MIN_RUNS = 3
#: floors of a proposed band
RATCHET_MIN_REL = 0.05
RATCHET_MIN_ABS_S = 0.0005
#: a committed ``rel`` this many times the proposed one is stale
RATCHET_STALE_FACTOR = 2.0


# ----------------------------------------------------------------------
# ledger loading
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LedgerRun:
    """One fully-loaded ledger entry: envelope metadata + document."""

    file: str
    kind: str
    created_utc: str
    git_sha: str | None
    env_digest: str
    doc: dict


@dataclass
class Ledger:
    """Every readable run in the registry, oldest first.

    Integrity problems are *counted*, never silent: ``torn_lines`` is
    the number of malformed index lines skipped, ``duplicates`` the
    number of identical (kind, created, sha, env) rows collapsed, and
    ``unreadable`` the number of indexed files that failed to load.
    """

    runs: list[LedgerRun] = field(default_factory=list)
    torn_lines: int = 0
    duplicates: int = 0
    unreadable: int = 0
    unreadable_files: list[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[LedgerRun]:
        return [r for r in self.runs if r.kind == kind]

    def strata(self) -> list[str]:
        """Environment-fingerprint digests, in first-seen order."""
        seen: list[str] = []
        for r in self.runs:
            if r.env_digest not in seen:
                seen.append(r.env_digest)
        return seen

    def current_stratum(self) -> str | None:
        """The fingerprint of the most recent run — "this machine"."""
        return self.runs[-1].env_digest if self.runs else None

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.runs:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out


def load_ledger(history: RunHistory | str) -> Ledger:
    """Load every registered run, collapsing duplicate index rows.

    Entries are ordered by creation timestamp (ISO-8601 strings sort
    chronologically) with the index append order as the tie-breaker,
    so interleaved kinds land on one shared timeline.
    """
    if isinstance(history, str):
        history = RunHistory(history)
    entries, torn = history.scan()
    ledger = Ledger(torn_lines=torn)
    seen: set[tuple] = set()
    ordered = sorted(
        enumerate(entries), key=lambda pair: (pair[1].created_utc, pair[0])
    )
    for _, entry in ordered:
        if entry.identity in seen:
            ledger.duplicates += 1
            continue
        seen.add(entry.identity)
        try:
            envelope = history.load(entry)
        except (OSError, ValueError):
            ledger.unreadable += 1
            ledger.unreadable_files.append(entry.file)
            continue
        ledger.runs.append(
            LedgerRun(
                file=entry.file,
                kind=entry.kind,
                created_utc=entry.created_utc,
                git_sha=entry.git_sha,
                env_digest=entry.env_digest,
                doc=envelope.get("doc") or {},
            )
        )
    return ledger


# ----------------------------------------------------------------------
# time-series extraction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeriesPoint:
    """One observation: when, at what commit, on which machine."""

    created_utc: str
    git_sha: str | None
    env_digest: str
    value: float
    file: str


def _point(run: LedgerRun, value: float) -> SeriesPoint:
    return SeriesPoint(
        created_utc=run.created_utc,
        git_sha=run.git_sha,
        env_digest=run.env_digest,
        value=float(value),
        file=run.file,
    )


def phase_series(ledger: Ledger) -> dict[tuple[str, str], list[SeriesPoint]]:
    """Per-(circuit, phase) wall-time medians across every bench run.

    The pseudo-phase ``total`` is included.
    """
    series: dict[tuple[str, str], list[SeriesPoint]] = {}
    for run in ledger.of_kind("bench"):
        for entry in run.doc.get("circuits", []):
            name = entry.get("name")
            if not name:
                continue
            for phase, timing in (entry.get("phases") or {}).items():
                med = timing.get("median_s")
                if isinstance(med, (int, float)):
                    series.setdefault((name, phase), []).append(
                        _point(run, med)
                    )
            total = (entry.get("total") or {}).get("median_s")
            if isinstance(total, (int, float)):
                series.setdefault((name, "total"), []).append(
                    _point(run, total)
                )
    return series


def hotspot_series(
    ledger: Ledger, env_digest: str | None = None
) -> dict[str, list[SeriesPoint]]:
    """Self-time trends of the hottest functions across profile runs.

    The function set is the top :data:`HOTSPOT_TOP` of the *latest* profile
    document (the current hotspot list is what the speed arc is
    chasing); each function's self seconds are then traced back
    through every older profile that sampled it.
    """
    profiles = [
        run
        for run in ledger.of_kind("profile")
        if env_digest is None or run.env_digest == env_digest
    ]
    if not profiles:
        return {}
    latest = profiles[-1].doc.get("functions") or []
    wanted = [f["func"] for f in latest[:HOTSPOT_TOP] if f.get("func")]
    series: dict[str, list[SeriesPoint]] = {fn: [] for fn in wanted}
    for run in profiles:
        by_func = {
            f.get("func"): f.get("self_s")
            for f in run.doc.get("functions") or []
        }
        for fn in wanted:
            val = by_func.get(fn)
            if isinstance(val, (int, float)):
                series[fn].append(_point(run, val))
    return {fn: pts for fn, pts in series.items() if pts}


def panel_series(ledger: Ledger) -> dict[str, list[SeriesPoint]]:
    """Document-level health panels across bench runs.

    * ``min_omega_margin`` — suite-wide minimum ω-margin (distance of
      the tightest pulse stream to the Theorem 2 threshold);
    * ``min_delay_slack`` — suite-wide minimum Equation (1) slack;
    * ``coverage_pct`` — mean SG state coverage over the suite;
    * ``certified`` — circuits whose static certificate fully proved
      (``--static-first`` runs; 0 when no static blocks were recorded).
    """
    panels: dict[str, list[SeriesPoint]] = {}
    for run in ledger.of_kind("bench"):
        omegas: list[float] = []
        slacks: list[float] = []
        coverages: list[float] = []
        certified = 0
        saw_static = False
        for entry in run.doc.get("circuits", []):
            tele = entry.get("telemetry") or {}
            if isinstance(tele.get("min_omega_margin"), (int, float)):
                omegas.append(float(tele["min_omega_margin"]))
            if isinstance(tele.get("min_delay_slack"), (int, float)):
                slacks.append(float(tele["min_delay_slack"]))
            cov = entry.get("coverage") or {}
            if isinstance(cov.get("states_pct"), (int, float)):
                coverages.append(float(cov["states_pct"]))
            static = entry.get("static")
            if isinstance(static, dict):
                saw_static = True
                if static.get("fully_proved"):
                    certified += 1
        if omegas:
            panels.setdefault("min_omega_margin", []).append(
                _point(run, min(omegas))
            )
        if slacks:
            panels.setdefault("min_delay_slack", []).append(
                _point(run, min(slacks))
            )
        if coverages:
            panels.setdefault("coverage_pct", []).append(
                _point(run, sum(coverages) / len(coverages))
            )
        if saw_static:
            panels.setdefault("certified", []).append(_point(run, certified))
    return panels


# ----------------------------------------------------------------------
# changepoint detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Changepoint:
    """A sustained level shift between two adjacent ledger entries."""

    index: int  # series index of the first point at the new level
    before_s: float
    after_s: float
    from_sha: str | None  # last commit at the old level
    to_sha: str | None  # first commit at the new level
    from_utc: str
    to_utc: str
    env_digest: str

    @property
    def ratio(self) -> float:
        return self.after_s / self.before_s if self.before_s > 0 else float("inf")

    @property
    def direction(self) -> str:
        return "slower" if self.after_s > self.before_s else "faster"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "before_s": round(self.before_s, 6),
            "after_s": round(self.after_s, 6),
            "ratio": round(self.ratio, 3) if self.before_s > 0 else None,
            "direction": self.direction,
            "from_sha": self.from_sha,
            "to_sha": self.to_sha,
            "from_utc": self.from_utc,
            "to_utc": self.to_utc,
            "env_digest": self.env_digest,
        }

    def describe(self) -> str:
        return (
            f"{self.direction} x{self.ratio:.2f} "
            f"({self.before_s * 1e3:.2f} -> {self.after_s * 1e3:.2f} ms) "
            f"between {(self.from_sha or 'nosha')[:7]} "
            f"and {(self.to_sha or 'nosha')[:7]}"
        )


def detect_changepoints(points: list[SeriesPoint]) -> list[Changepoint]:
    """Windowed median-shift detection, one env stratum at a time.

    A boundary ``i`` is suspect when the median of the
    :data:`CHANGEPOINT_WINDOW` points after it differs from the median
    of as many points before it by more than ``max(k·MAD_before,
    min_rel·median_before, abs_floor_s)`` (:data:`CHANGEPOINT_K`, :data:`CHANGEPOINT_MIN_REL`,
    :data:`CHANGEPOINT_ABS_FLOOR_S`) — the same three-guard shape the
    regress gate uses,
    so timer noise on microsecond phases never reads as drift.
    Consecutive suspect boundaries describe *one* shift; the group is
    collapsed to the boundary with the best step fit (minimum summed
    absolute deviation from the two window medians), which pins the
    change to the exact commit range between two adjacent entries.

    Points from different machines never form one series: the input is
    partitioned by ``env_digest`` first, so swapping CI runners cannot
    masquerade as a code-caused changepoint.
    """
    window = CHANGEPOINT_WINDOW
    found: list[Changepoint] = []
    strata: dict[str, list[SeriesPoint]] = {}
    for p in points:
        strata.setdefault(p.env_digest, []).append(p)
    for env, series in strata.items():
        n = len(series)
        if n < 2 * window:
            continue
        values = [p.value for p in series]
        suspects: list[int] = []
        for i in range(window, n - window + 1):
            before = values[i - window : i]
            after = values[i : i + window]
            med_b = median(before)
            shift = abs(median(after) - med_b)
            guard = max(
                CHANGEPOINT_K * mad(before),
                CHANGEPOINT_MIN_REL * med_b,
                CHANGEPOINT_ABS_FLOOR_S,
            )
            if shift > guard:
                suspects.append(i)
        # collapse runs of consecutive suspect boundaries to the one
        # where a step function fits best
        groups: list[list[int]] = []
        for i in suspects:
            if groups and i == groups[-1][-1] + 1:
                groups[-1].append(i)
            else:
                groups.append([i])
        for group in groups:
            best = min(group, key=lambda i: _step_cost(values, i, window))
            before = values[best - window : best]
            after = values[best : best + window]
            found.append(
                Changepoint(
                    index=best,
                    before_s=median(before),
                    after_s=median(after),
                    from_sha=series[best - 1].git_sha,
                    to_sha=series[best].git_sha,
                    from_utc=series[best - 1].created_utc,
                    to_utc=series[best].created_utc,
                    env_digest=env,
                )
            )
    found.sort(key=lambda c: c.to_utc)
    return found


def _step_cost(values: list[float], i: int, window: int) -> float:
    """How badly a step at boundary ``i`` fits the two windows."""
    before = values[i - window : i]
    after = values[i : i + window]
    med_b, med_a = median(before), median(after)
    return sum(abs(v - med_b) for v in before) + sum(
        abs(v - med_a) for v in after
    )


# ----------------------------------------------------------------------
# the analytics document
# ----------------------------------------------------------------------
def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def analyze(history: RunHistory | str | Ledger) -> dict:
    """Build the full ``repro-analytics/1`` document from the ledger."""
    ledger = history if isinstance(history, Ledger) else load_ledger(history)
    stratum = ledger.current_stratum()
    phases_doc = []
    all_changepoints = []
    for (circuit, phase), pts in sorted(phase_series(ledger).items()):
        values = [p.value for p in pts]
        stratum_values = [p.value for p in pts if p.env_digest == stratum]
        cps = detect_changepoints(pts)
        row = {
            "circuit": circuit,
            "phase": phase,
            "n": len(pts),
            "latest_s": round(values[-1], 6),
            "median_s": round(median(stratum_values or values), 6),
            "mad_s": round(mad(stratum_values or values), 6),
            "values": [round(v, 6) for v in values],
            "shas": [(p.git_sha or "")[:7] for p in pts],
            "env_digests": [p.env_digest for p in pts],
            "changepoints": [c.to_dict() for c in cps],
        }
        phases_doc.append(row)
        for c in cps:
            d = c.to_dict()
            d["circuit"] = circuit
            d["phase"] = phase
            all_changepoints.append(d)
    hotspots_doc = []
    for func, pts in hotspot_series(ledger, env_digest=stratum).items():
        values = [p.value for p in pts]
        hotspots_doc.append(
            {
                "func": func,
                "n": len(pts),
                "latest_self_s": round(values[-1], 6),
                "first_self_s": round(values[0], 6),
                "delta_s": round(values[-1] - values[0], 6),
                "values": [round(v, 6) for v in values],
                "shas": [(p.git_sha or "")[:7] for p in pts],
            }
        )
    hotspots_doc.sort(key=lambda h: -h["latest_self_s"])
    panels_doc = {
        name: {
            "latest": round(pts[-1].value, 6),
            "values": [round(p.value, 6) for p in pts],
            "shas": [(p.git_sha or "")[:7] for p in pts],
        }
        for name, pts in panel_series(ledger).items()
    }
    regress_doc = None
    regress_runs = ledger.of_kind("regress")
    if regress_runs:
        last = regress_runs[-1]
        doc = last.doc
        regress_doc = {
            "created_utc": last.created_utc,
            "git_sha": last.git_sha,
            "ok": bool(doc.get("ok", True)),
            "regressions": int(doc.get("regressions", 0)),
            "cleared": int(doc.get("cleared", 0)),
            "baseline": (doc.get("baseline") or {}).get("created_utc"),
        }
    return {
        "schema": ANALYTICS_SCHEMA,
        "created_utc": _utc_now(),
        "ledger": {
            "runs": len(ledger.runs),
            "kinds": ledger.counts(),
            "torn_lines": ledger.torn_lines,
            "duplicates_collapsed": ledger.duplicates,
            "unreadable": ledger.unreadable,
            "unreadable_files": list(ledger.unreadable_files),
            "strata": ledger.strata(),
            "current_stratum": stratum,
        },
        "phases": phases_doc,
        "changepoints": all_changepoints,
        "hotspots": hotspots_doc,
        "panels": panels_doc,
        "regress": regress_doc,
    }


# ----------------------------------------------------------------------
# the auto-ratchet engine
# ----------------------------------------------------------------------
class RatchetError(ValueError):
    """A ratchet application that would loosen a committed threshold."""


def _clean_tail(pts: list[SeriesPoint], stratum: str) -> list[float]:
    """The last :data:`RATCHET_LAST_N` values of one series usable as a
    noise floor.

    "Clean" means: from the current machine stratum only, and — when a
    changepoint sits inside the tail — only the runs *after* the last
    shift, so a threshold is never derived across two performance
    levels (a freshly-landed 5× win would otherwise widen the floor by
    the size of the win itself).
    """
    series = [p for p in pts if p.env_digest == stratum]
    cps = detect_changepoints(series)
    start = cps[-1].index if cps else 0
    return [p.value for p in series[start:]][-RATCHET_LAST_N:]


def _no_looser(band, committed, medians: list[float]) -> bool:
    """Whether ``band`` allows no more than ``committed`` does: at every
    evidence median when there are any, else component-wise."""
    if medians:
        return all(band.allowed(m) <= committed.allowed(m) for m in medians)
    return band.rel <= committed.rel and band.abs_s <= committed.abs_s


def propose_ratchet(
    history: RunHistory | str | Ledger,
    policy,
) -> dict:
    """Derive tightened per-phase bands from the measured noise.

    For every phase the ledger has evidence for (≥
    :data:`RATCHET_MIN_RUNS` clean runs on the current machine for at
    least one circuit), the noise floor is the worst-case
    ``MAD/median`` across circuits and the band's ``rel`` is
    :data:`RATCHET_K` times that floor, clamped to
    :data:`RATCHET_MIN_REL`.  Its ``abs_s`` is ``RATCHET_K`` × the
    worst MAD, clamped to :data:`RATCHET_MIN_ABS_S` and raised until every evidence run passes
    ``allowed(median(tail))`` — a band never rejects the runs it was
    derived from.  Each phase's ``evidence`` row carries an ``action``:

    * ``tighten`` — the band allows no more than the committed one at
      every evidence circuit's median, so it replaces it as a whole;
    * ``keep`` — the band equals the committed one;
    * ``loosen`` — the measured noise does not support the committed
      band; it stays, since loosening is a reviewed hand edit.

    ``stale`` lists phases whose committed ``rel`` is ≥
    :data:`RATCHET_STALE_FACTOR` × the proposed one; the CI advisory check surfaces
    these so stale-loose gates become visible on every PR.

    Returns a ``repro-thresholds/1`` document: ``policy`` with every
    tightening applied, plus the ``evidence`` and ``stale`` blocks.
    """
    from .regress import THRESHOLDS_SCHEMA, ThresholdPolicy, Thresholds

    if isinstance(policy, Thresholds):
        policy = ThresholdPolicy(default=policy)
    ledger = history if isinstance(history, Ledger) else load_ledger(history)
    stratum = ledger.current_stratum()
    tails: dict[str, list[tuple[str, list[float]]]] = {}
    for (circuit, phase), pts in sorted(phase_series(ledger).items()):
        tail = _clean_tail(pts, stratum or "")
        if len(tail) >= RATCHET_MIN_RUNS:
            tails.setdefault(phase, []).append((circuit, tail))
    overrides = dict(policy.phases)
    evidence: dict[str, dict] = {}
    stale: dict[str, dict] = {}
    for phase, rows in sorted(tails.items()):
        circuits = [
            {
                "circuit": circuit,
                "n": len(tail),
                "median_s": round(median(tail), 6),
                "mad_s": round(mad(tail), 6),
                "max_s": round(max(tail), 6),
            }
            for circuit, tail in rows
        ]
        rel_floor = max(
            (r["mad_s"] / r["median_s"] for r in circuits if r["median_s"] > 0),
            default=0.0,
        )
        abs_floor = max(r["mad_s"] for r in circuits)
        rel = max(RATCHET_MIN_REL, round(RATCHET_K * rel_floor, 4))
        # the smallest abs_s under which every evidence run passes
        admit = max(max(t) - median(t) * (1.0 + rel) for _, t in rows)
        current = policy.for_phase(phase)
        band = Thresholds(
            rel=rel,
            abs_s=max(
                RATCHET_MIN_ABS_S,
                round(RATCHET_K * abs_floor, 6),
                round(admit + 1e-6, 6),
            ),
            confirm_runs=current.confirm_runs,
        )
        if band == current:
            action = "keep"
        elif _no_looser(band, current, [r["median_s"] for r in circuits]):
            action = "tighten"
            overrides[phase] = band
        else:
            action = "loosen"
        evidence[phase] = {
            "action": action,
            "floor_rel": round(rel_floor, 4),
            "floor_abs_s": round(abs_floor, 6),
            "proposed": band.to_json(),
            "circuits": circuits,
        }
        if current.rel >= RATCHET_STALE_FACTOR * rel:
            stale[phase] = {
                "rel": current.rel,
                "floor_rel": round(rel_floor, 4),
                "proposed_rel": rel,
            }
    latest = ledger.runs[-1] if ledger.runs else None
    return {
        "schema": THRESHOLDS_SCHEMA,
        "updated_utc": _utc_now(),
        **ThresholdPolicy(default=policy.default, phases=overrides).to_json(),
        "provenance": {
            "git_sha": latest.git_sha if latest else None,
            "env_digest": stratum,
            "k": RATCHET_K,
            "last_n": RATCHET_LAST_N,
        },
        "evidence": evidence,
        "stale": stale,
    }


def apply_ratchet(doc: dict, policy):
    """The policy of a ``repro-thresholds/1`` proposal, checked against
    the committed ``policy``.

    Raises :class:`RatchetError` when any band is looser than the
    committed one: a phase band at any evidence median of the
    proposal's ``evidence`` block (component-wise where there is none),
    the default band in any component.  Loosening a gate is a reviewed
    hand edit of the committed JSON, never a ratchet.
    """
    from .regress import THRESHOLDS_SCHEMA, ThresholdPolicy, Thresholds

    if doc.get("schema") != THRESHOLDS_SCHEMA:
        raise ValueError(
            f"not a {THRESHOLDS_SCHEMA} document (got {doc.get('schema')!r})"
        )
    if isinstance(policy, Thresholds):
        policy = ThresholdPolicy(default=policy)
    new = ThresholdPolicy.from_json(doc)
    old_d, new_d = policy.default, new.default
    looser = []
    if (
        new_d.rel > old_d.rel
        or new_d.abs_s > old_d.abs_s
        or new_d.confirm_runs > old_d.confirm_runs
    ):
        looser.append("default")
    evidence = doc.get("evidence") or {}
    for phase in sorted(set(new.phases) | set(policy.phases)):
        medians = [
            float(c["median_s"])
            for c in (evidence.get(phase) or {}).get("circuits", [])
        ]
        if not _no_looser(new.for_phase(phase), policy.for_phase(phase), medians):
            looser.append(phase)
    if looser:
        raise RatchetError(
            "proposal would loosen the committed band(s) for: "
            + ", ".join(looser)
            + " (loosening is a reviewed edit of the committed config)"
        )
    return new
