"""The observatory dashboard — renderers for ``repro report``.

Takes the ``repro-analytics/1`` document built by
:mod:`repro.obs.analytics` and renders it two ways:

* :func:`render_analytics_text` — the console summary;
* :func:`render_html` — a **self-contained** HTML dashboard: inline
  CSS, inline SVG sparklines, zero external fetches (no fonts, no CDN
  scripts, no images), so the file CI uploads as an artifact opens
  offline and never leaks a build's timing data to a third party.

Dashboard layout: health panels (ω-margin, delay slack, coverage,
certified count) as stat tiles with trend sparklines, the latest
regress verdict, every detected changepoint with its commit range,
per-phase trend cards (changepoint markers drawn on the line), hotspot
self-time trends from the profile documents, and a complete per-series
table — so the cards can stay selective while the table stays total.
"""

from __future__ import annotations

import html

from .analytics import CHANGEPOINT_K, CHANGEPOINT_MIN_REL, CHANGEPOINT_WINDOW

__all__ = ["render_analytics_text", "render_html"]


# ----------------------------------------------------------------------
# text renderer
# ----------------------------------------------------------------------
#: changepoints and hotspots listed by the text summary
_TEXT_TOP = 10


def render_analytics_text(doc: dict) -> str:
    led = doc.get("ledger", {})
    lines = [
        f"ledger: {led.get('runs', 0)} run(s) "
        + " ".join(
            f"{kind}={n}" for kind, n in sorted(led.get("kinds", {}).items())
        )
    ]
    integrity = []
    if led.get("torn_lines"):
        integrity.append(f"{led['torn_lines']} torn index line(s) skipped")
    if led.get("duplicates_collapsed"):
        integrity.append(
            f"{led['duplicates_collapsed']} duplicate row(s) collapsed"
        )
    if led.get("unreadable"):
        integrity.append(f"{led['unreadable']} unreadable file(s)")
    if integrity:
        lines.append("  integrity: " + "; ".join(integrity))
    strata = led.get("strata", [])
    if len(strata) > 1:
        lines.append(
            f"  environments: {len(strata)} "
            f"(current {led.get('current_stratum')})"
        )
    for name, panel in sorted((doc.get("panels") or {}).items()):
        lines.append(f"  {name}: {panel['latest']:g} (n={len(panel['values'])})")
    regress = doc.get("regress")
    if regress:
        verdict = (
            "OK"
            if regress["ok"]
            else f"REGRESSION ({regress['regressions']} phase(s))"
        )
        lines.append(
            f"  last regress: {verdict} at "
            f"{(regress.get('git_sha') or 'nosha')[:7]} "
            f"({regress['created_utc']})"
        )
    cps = doc.get("changepoints", [])
    if cps:
        lines.append(f"changepoints ({len(cps)}):")
        for c in cps[:_TEXT_TOP]:
            lines.append(
                f"  {c['circuit']}/{c['phase']}: {c['direction']} "
                f"x{c['ratio']:.2f} between {(c['from_sha'] or 'nosha')[:7]} "
                f"and {(c['to_sha'] or 'nosha')[:7]}"
            )
        if len(cps) > _TEXT_TOP:
            lines.append(f"  ... +{len(cps) - _TEXT_TOP} more")
    else:
        lines.append("changepoints: none detected")
    hot = doc.get("hotspots", [])
    if hot:
        lines.append(f"hotspot self-time trends (top {min(_TEXT_TOP, len(hot))}):")
        for h in hot[:_TEXT_TOP]:
            lines.append(
                f"  {h['func']}: {h['latest_self_s'] * 1e3:.1f} ms "
                f"({h['delta_s'] * 1e3:+.1f} ms over {h['n']} profile(s))"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# SVG sparklines
# ----------------------------------------------------------------------
_SPARK_W = 220
_SPARK_H = 44
_PAD = 4


def _scale(values: list[float]) -> list[tuple[float, float]]:
    """Map a series onto sparkline pixel coordinates."""
    n = len(values)
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    xs = (
        [_SPARK_W / 2.0]
        if n == 1
        else [
            _PAD + i * (_SPARK_W - 2 * _PAD) / (n - 1) for i in range(n)
        ]
    )
    ys = [
        _SPARK_H - _PAD - (v - lo) * (_SPARK_H - 2 * _PAD) / span
        for v in values
    ]
    return list(zip(xs, ys))


def _sparkline(
    values: list[float],
    changepoints: list[dict] | None = None,
    env_digests: list[str] | None = None,
    titles: list[str] | None = None,
    fmt: str = "{:g}",
) -> str:
    """One inline SVG trend line.

    Changepoint markers are ≥8px circles in the status palette (red =
    slower, green = faster) carrying their own ``<title>`` tooltip;
    machine-stratum boundaries draw as dashed hairlines so a runner
    swap is visually distinct from a code-caused shift.  Every point
    gets an invisible widened hover target with a native tooltip, and
    the whole figure carries an aria-label naming first/last values.
    """
    if not values:
        return '<span class="muted">no data</span>'
    pts = _scale(values)
    parts = [
        f'<svg class="spark" width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}" role="img" '
        f'aria-label="trend of {len(values)} runs, '
        f"first {fmt.format(values[0])}, "
        f'last {fmt.format(values[-1])}">'
    ]
    if env_digests:
        for i in range(1, len(env_digests)):
            if env_digests[i] != env_digests[i - 1] and i < len(pts):
                x = round((pts[i - 1][0] + pts[i][0]) / 2, 1)
                parts.append(
                    f'<line class="stratum" x1="{x}" y1="2" x2="{x}" '
                    f'y2="{_SPARK_H - 2}"><title>machine change'
                    "</title></line>"
                )
    if len(pts) > 1:
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(f'<polyline class="line" points="{path}"/>')
    # last value dot (direct label of the current level)
    lx, ly = pts[-1]
    parts.append(f'<circle class="dot" cx="{lx:.1f}" cy="{ly:.1f}" r="2.5"/>')
    for cp in changepoints or []:
        i = cp.get("index", 0)
        if not 0 <= i < len(pts):
            continue
        x, y = pts[i]
        cls = "cp-slower" if cp.get("direction") == "slower" else "cp-faster"
        label = html.escape(
            f"{cp.get('direction')} x{cp.get('ratio', 0):.2f} "
            f"at {(cp.get('to_sha') or 'nosha')[:7]}"
        )
        parts.append(
            f'<circle class="{cls}" cx="{x:.1f}" cy="{y:.1f}" r="4">'
            f"<title>{label}</title></circle>"
        )
    for i, (x, y) in enumerate(pts):
        tip = (
            titles[i]
            if titles and i < len(titles)
            else fmt.format(values[i])
        )
        parts.append(
            f'<circle class="hit" cx="{x:.1f}" cy="{y:.1f}" r="7">'
            f"<title>{html.escape(tip)}</title></circle>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _ms(v: float) -> str:
    return f"{v * 1e3:.2f} ms"


def _series_titles(row: dict) -> list[str]:
    shas = row.get("shas") or []
    values = row.get("values") or []
    out = []
    for i, v in enumerate(values):
        sha = shas[i] if i < len(shas) else "?"
        out.append(f"{sha or 'nosha'}: {_ms(v)}")
    return out


# ----------------------------------------------------------------------
# HTML dashboard
# ----------------------------------------------------------------------
_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --plane: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-warn: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --plane: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--plane); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink-1); }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.badge {
  display: inline-block; padding: 2px 10px; border-radius: 999px;
  font-weight: 600; font-size: 13px; border: 1px solid var(--border);
}
.badge.ok { color: var(--status-good); }
.badge.bad { color: var(--status-critical); }
.badge.warn { color: var(--status-serious); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 12px 16px; min-width: 250px;
}
.tile .name { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 650; margin: 2px 0 6px; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 10px 14px; width: 252px;
}
.card .name { font-size: 12px; color: var(--ink-2); overflow-wrap: anywhere; }
.card .value { font-size: 14px; font-weight: 600; margin: 1px 0 4px;
  font-variant-numeric: tabular-nums; }
.spark .line { fill: none; stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
.spark .dot { fill: var(--series-1); }
.spark .hit { fill: transparent; }
.spark .cp-slower { fill: var(--status-critical); stroke: var(--surface-1);
  stroke-width: 2; }
.spark .cp-faster { fill: var(--status-good); stroke: var(--surface-1);
  stroke-width: 2; }
.spark .stratum { stroke: var(--baseline); stroke-dasharray: 3 3; }
table { border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 10px; font-size: 13px; }
th, td { padding: 5px 12px; text-align: left; border-top: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
thead th { border-top: none; color: var(--ink-2); font-weight: 600; }
.muted { color: var(--muted); }
.up { color: var(--status-critical); }
.down { color: var(--status-good, #006300); }
.note { color: var(--ink-2); font-size: 13px; margin: 6px 0; }
"""


def _panel_tile(name: str, panel: dict, label: str, fmt: str) -> str:
    spark = _sparkline(
        panel.get("values", []),
        titles=[
            f"{sha or 'nosha'}: {fmt.format(v)}"
            for sha, v in zip(panel.get("shas", []), panel.get("values", []))
        ],
        fmt=fmt,
    )
    return (
        '<div class="tile">'
        f'<div class="name">{html.escape(label)}</div>'
        f'<div class="value">{fmt.format(panel["latest"])}</div>'
        f"{spark}</div>"
    )


_PANEL_LABELS = {
    "min_omega_margin": ("suite min ω-margin (Theorem 2)", "{:+.3f}"),
    "min_delay_slack": ("suite min delay slack (Equation 1)", "{:+.3f}"),
    "coverage_pct": ("mean SG state coverage", "{:.1f}%"),
    "certified": ("fully-certified circuits", "{:.0f}"),
}


#: trend cards drawn; the table below them lists every series
_CARDS = 48


def render_html(doc: dict) -> str:
    """The self-contained dashboard (one HTML string, no fetches)."""
    led = doc.get("ledger", {})
    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro observatory</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro observatory</h1>",
        f'<p class="sub">generated {html.escape(str(doc.get("created_utc")))}'
        f" &middot; {led.get('runs', 0)} ledger run(s): "
        + ", ".join(
            f"{n} {html.escape(kind)}"
            for kind, n in sorted(led.get("kinds", {}).items())
        )
        + f" &middot; {len(led.get('strata', []))} machine stratum(s)</p>",
    ]
    integrity = []
    if led.get("torn_lines"):
        integrity.append(f"{led['torn_lines']} torn index line(s)")
    if led.get("duplicates_collapsed"):
        integrity.append(f"{led['duplicates_collapsed']} duplicate row(s)")
    if led.get("unreadable"):
        integrity.append(
            f"{led['unreadable']} unreadable file(s): "
            + ", ".join(led.get("unreadable_files", []))
        )
    if integrity:
        out.append(
            '<p class="note"><span class="badge warn">ledger integrity</span> '
            + html.escape("; ".join(integrity))
            + "</p>"
        )

    # regress verdict banner
    regress = doc.get("regress")
    out.append("<h2>Regression gate</h2>")
    if regress:
        ok = regress.get("ok", True)
        badge = (
            '<span class="badge ok">OK</span>'
            if ok
            else '<span class="badge bad">REGRESSION</span>'
        )
        out.append(
            f'<p class="note">{badge} latest `repro regress` at '
            f"<code>{html.escape((regress.get('git_sha') or 'nosha')[:7])}</code> "
            f"({html.escape(str(regress.get('created_utc')))}): "
            f"{regress.get('regressions', 0)} regression(s), "
            f"{regress.get('cleared', 0)} noise suspect(s) cleared, baseline "
            f"{html.escape(str(regress.get('baseline')))}</p>"
        )
    else:
        out.append(
            '<p class="note muted">no regress runs recorded in the ledger</p>'
        )

    # health panels
    panels = doc.get("panels") or {}
    if panels:
        out.append("<h2>Hazard-margin &amp; certification panels</h2>")
        out.append('<div class="tiles">')
        for name in ("min_omega_margin", "min_delay_slack", "coverage_pct", "certified"):
            if name in panels:
                label, fmt = _PANEL_LABELS[name]
                out.append(_panel_tile(name, panels[name], label, fmt))
        out.append("</div>")

    # changepoints
    cps = doc.get("changepoints", [])
    out.append("<h2>Changepoints</h2>")
    if cps:
        out.append(
            "<table><thead><tr><th>circuit</th><th>phase</th>"
            '<th>direction</th><th class="num">before</th>'
            '<th class="num">after</th><th class="num">ratio</th>'
            "<th>commit range</th><th>when</th></tr></thead><tbody>"
        )
        for c in cps:
            cls = "up" if c["direction"] == "slower" else "down"
            arrow = "▲" if c["direction"] == "slower" else "▼"
            out.append(
                f"<tr><td>{html.escape(c['circuit'])}</td>"
                f"<td>{html.escape(c['phase'])}</td>"
                f'<td class="{cls}">{arrow} {c["direction"]}</td>'
                f'<td class="num">{_ms(c["before_s"])}</td>'
                f'<td class="num">{_ms(c["after_s"])}</td>'
                f'<td class="num">x{c["ratio"]:.2f}</td>'
                f"<td><code>{html.escape((c['from_sha'] or 'nosha')[:7])}"
                f"..{html.escape((c['to_sha'] or 'nosha')[:7])}</code></td>"
                f"<td>{html.escape(c['to_utc'])}</td></tr>"
            )
        out.append("</tbody></table>")
    else:
        out.append('<p class="note muted">no sustained shifts detected</p>')

    # per-phase trend cards: changepoint series first, then the
    # slowest current series; the full population lives in the table
    phases = doc.get("phases", [])
    flagged = [p for p in phases if p.get("changepoints")]
    rest = sorted(
        (p for p in phases if not p.get("changepoints")),
        key=lambda p: -p["latest_s"],
    )
    chosen = (flagged + rest)[:_CARDS]
    out.append("<h2>Per-phase trends</h2>")
    if len(phases) > len(chosen):
        out.append(
            f'<p class="note">showing {len(chosen)} of {len(phases)} series '
            "(every changepoint series, then slowest-first); the complete "
            "population is in the table below</p>"
        )
    out.append('<div class="cards">')
    for p in chosen:
        spark = _sparkline(
            p["values"],
            changepoints=p.get("changepoints"),
            env_digests=p.get("env_digests"),
            titles=_series_titles(p),
            fmt="{:.4f}",
        )
        out.append(
            '<div class="card">'
            f'<div class="name">{html.escape(p["circuit"])} / '
            f'{html.escape(p["phase"])}</div>'
            f'<div class="value">{_ms(p["latest_s"])} '
            f'<span class="muted">median {_ms(p["median_s"])} '
            f"&plusmn; {_ms(p['mad_s'])}</span></div>"
            f"{spark}</div>"
        )
    out.append("</div>")

    # hotspot trends
    hotspots = doc.get("hotspots", [])
    out.append("<h2>Hotspot self-time trends (profile documents)</h2>")
    if hotspots:
        out.append('<div class="cards">')
        for h in hotspots:
            delta = h["delta_s"]
            cls = "up" if delta > 0 else "down"
            spark = _sparkline(
                h["values"], titles=_series_titles(h), fmt="{:.4f}"
            )
            out.append(
                '<div class="card">'
                f'<div class="name"><code>{html.escape(h["func"])}</code></div>'
                f'<div class="value">{_ms(h["latest_self_s"])} '
                f'<span class="{cls}">{delta * 1e3:+.1f} ms</span></div>'
                f"{spark}</div>"
            )
        out.append("</div>")
    else:
        out.append(
            '<p class="note muted">no profile documents in the ledger</p>'
        )

    # the complete table
    out.append("<h2>All series</h2>")
    out.append(
        "<table><thead><tr><th>circuit</th><th>phase</th>"
        '<th class="num">runs</th><th class="num">latest</th>'
        '<th class="num">median</th><th class="num">MAD</th>'
        '<th class="num">changepoints</th></tr></thead><tbody>'
    )
    for p in phases:
        out.append(
            f"<tr><td>{html.escape(p['circuit'])}</td>"
            f"<td>{html.escape(p['phase'])}</td>"
            f'<td class="num">{p["n"]}</td>'
            f'<td class="num">{_ms(p["latest_s"])}</td>'
            f'<td class="num">{_ms(p["median_s"])}</td>'
            f'<td class="num">{_ms(p["mad_s"])}</td>'
            f'<td class="num">{len(p.get("changepoints", []))}</td></tr>'
        )
    out.append("</tbody></table>")
    out.append(
        f'<p class="note muted">detector: window {CHANGEPOINT_WINDOW}, '
        f"k {CHANGEPOINT_K}, min_rel {CHANGEPOINT_MIN_REL} &middot; "
        "self-contained artifact: no external fetches</p>"
    )
    out.append("</body></html>")
    return "\n".join(out)
