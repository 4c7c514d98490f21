"""Self-contained HTML run report: the dashboard ``repro report`` writes.

Renders one ``repro.run/1`` summary (see :func:`repro.obs.runs.make_summary`)
into a single HTML file with no external assets, scripts or network
fetches — inline CSS and inline SVG only, so the artifact is safe to
archive with a run and opens identically years later:

* header card — scheduler, workload, config fingerprint, headline
  :class:`RunResult` numbers;
* SLO panel — per-objective verdicts, compliance fractions, first
  violations (from the online monitors of :mod:`repro.obs.slo`);
* mode Gantt — the AES/BQ occupancy timeline;
* time series — windowed quality vs the ``Q_GE`` floor, and windowed
  total power vs the budget ``H`` (min/max band + mean line, straight
  from the :class:`repro.obs.stream.WindowSeries` rows);
* per-core utilization bars and a metrics table.

A ``repro.fleet/1`` rollup document (see
:mod:`repro.experiments.fleet`) renders through
:func:`render_fleet_report` instead — a fleet dashboard with the
rollup panel (per-scenario SLO compliance, cross-run quantiles,
throughput), a worker table and the per-run grid;
:func:`write_report` dispatches on the summary's ``schema`` tag.

Everything here is pure string building over the summary dict: no
simulation imports, no I/O except :func:`write_report`, no printing.
"""

from __future__ import annotations

from html import escape
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.runs import FLEET_SCHEMA

__all__ = ["render_fleet_report", "render_report", "write_report"]

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 62rem;
       color: #1c2330; background: #f6f7f9; }
h1 { font-size: 1.35rem; margin: 0 0 .25rem; }
h2 { font-size: 1.05rem; margin: 1.6rem 0 .5rem; }
.card { background: #fff; border: 1px solid #dde1e8; border-radius: 8px;
        padding: 1rem 1.25rem; margin-bottom: 1rem; }
.meta { color: #5b6575; font-size: .85rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #eceff3; }
th { color: #5b6575; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #186a3b; font-weight: 600; }
.viol { color: #a93226; font-weight: 600; }
.nodata { color: #8a93a3; }
svg { display: block; width: 100%; height: auto; }
.legend { font-size: .78rem; color: #5b6575; margin-top: .25rem; }
.swatch { display: inline-block; width: .7rem; height: .7rem; border-radius: 2px;
          margin: 0 .3rem 0 .9rem; vertical-align: -1px; }
"""

_AES_COLOR = "#2e86c1"
_BQ_COLOR = "#e67e22"
_BAND_COLOR = "#aed6f1"
_LINE_COLOR = "#1a5276"
_LIMIT_COLOR = "#a93226"


def _fmt(value: Any, digits: int = 6) -> str:
    if value is None:
        return "–"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return escape(str(value))


def _scale(
    lo: float, hi: float, size: float, pad: float
) -> Tuple[float, float]:
    """Affine map of [lo, hi] onto [pad, size - pad] as (offset, factor)."""
    span = hi - lo
    if span <= 0:
        span = 1.0
    factor = (size - 2 * pad) / span
    return pad - lo * factor, factor


def _series_svg(
    rows: List[Dict[str, Any]],
    *,
    limit: Optional[float] = None,
    limit_label: str = "",
    unit: str = "",
    width: int = 880,
    height: int = 180,
) -> str:
    """One windowed series as an SVG: min–max band, mean line, limit rule."""
    if not rows:
        return "<p class='nodata'>no data</p>"
    xs = [0.5 * (r["start"] + r["end"]) for r in rows]
    lo = min(r["min"] for r in rows)
    hi = max(r["max"] for r in rows)
    if limit is not None:
        lo, hi = min(lo, limit), max(hi, limit)
    x_off, x_f = _scale(min(r["start"] for r in rows),
                        max(r["end"] for r in rows), float(width), 8.0)
    y_off, y_f = _scale(lo, hi, float(height), 16.0)

    def px(x: float) -> str:
        return f"{x_off + x * x_f:.1f}"

    def py(y: float) -> str:
        # SVG y grows downward; flip.
        return f"{height - (y_off + y * y_f):.1f}"

    band = " ".join(f"{px(x)},{py(r['max'])}" for x, r in zip(xs, rows))
    band += " " + " ".join(
        f"{px(x)},{py(r['min'])}" for x, r in zip(reversed(xs), reversed(rows))
    )
    mean = " ".join(f"{px(x)},{py(r['mean'])}" for x, r in zip(xs, rows))
    parts = [
        f"<svg viewBox='0 0 {width} {height}' role='img'>",
        f"<polygon points='{band}' fill='{_BAND_COLOR}' opacity='0.6'/>",
        f"<polyline points='{mean}' fill='none' stroke='{_LINE_COLOR}' "
        "stroke-width='1.6'/>",
    ]
    if limit is not None:
        y = py(limit)
        parts.append(
            f"<line x1='0' y1='{y}' x2='{width}' y2='{y}' "
            f"stroke='{_LIMIT_COLOR}' stroke-width='1.2' stroke-dasharray='6 4'/>"
        )
        if limit_label:
            parts.append(
                f"<text x='{width - 6}' y='{float(y) - 5:.1f}' text-anchor='end' "
                f"font-size='11' fill='{_LIMIT_COLOR}'>"
                f"{escape(limit_label)} = {_fmt(limit, 4)}{escape(unit)}</text>"
            )
    for value in (lo, hi):
        parts.append(
            f"<text x='4' y='{float(py(value)) - 3:.1f}' font-size='10' "
            f"fill='#5b6575'>{_fmt(value, 3)}{escape(unit)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _gantt_svg(
    intervals: List[Dict[str, Any]],
    *,
    start: float,
    end: float,
    width: int = 880,
    height: int = 46,
) -> str:
    """The AES/BQ mode occupancy bar."""
    if not intervals:
        return "<p class='nodata'>no decisions recorded (non-GE scheduler?)</p>"
    x_off, x_f = _scale(start, max(end, start + 1e-9), float(width), 8.0)
    parts = [f"<svg viewBox='0 0 {width} {height}' role='img'>"]
    for interval in intervals:
        x0 = x_off + float(interval["start"]) * x_f
        x1 = x_off + float(interval["end"]) * x_f
        color = _BQ_COLOR if interval.get("mode") == "bq" else _AES_COLOR
        parts.append(
            f"<rect x='{x0:.1f}' y='8' width='{max(x1 - x0, 0.5):.1f}' "
            f"height='24' fill='{color}'>"
            f"<title>{escape(str(interval.get('mode', '?')))} "
            f"[{_fmt(interval['start'], 5)}, {_fmt(interval['end'], 5)}] s</title>"
            "</rect>"
        )
    for t in (start, end):
        parts.append(
            f"<text x='{x_off + t * x_f:.1f}' y='{height - 2}' font-size='10' "
            f"fill='#5b6575'>{_fmt(t, 4)}s</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _slo_table(slo: Dict[str, Any]) -> str:
    slos = slo.get("slos") or {}
    if not slos:
        return "<p class='nodata'>no SLOs evaluated</p>"
    rows = [
        "<table><tr><th>objective</th><th>kind</th><th class='num'>threshold</th>"
        "<th class='num'>compliance</th><th>verdict</th><th>first violation</th></tr>"
    ]
    for name, row in slos.items():
        if row.get("no_data"):
            verdict = "<span class='nodata'>no data</span>"
        elif row.get("compliant"):
            verdict = "<span class='ok'>compliant</span>"
        else:
            verdict = "<span class='viol'>violated</span>"
        violation = row.get("first_violation")
        first = "–"
        if violation:
            first = (f"t={_fmt(violation.get('time'), 5)}s, "
                     f"value={_fmt(violation.get('value'), 5)}")
        rows.append(
            f"<tr><td>{escape(name)}</td><td>{escape(str(row.get('kind', '')))}</td>"
            f"<td class='num'>{_fmt(row.get('threshold'), 4)}</td>"
            f"<td class='num'>{_fmt(row.get('compliance'), 4)}</td>"
            f"<td>{verdict}</td><td>{escape(first) if first == '–' else first}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _core_table(cores: Dict[str, Any]) -> str:
    if not cores:
        return "<p class='nodata'>no core telemetry</p>"
    rows = [
        "<table><tr><th>core</th><th class='num'>utilization</th>"
        "<th class='num'>busy (s)</th><th class='num'>slices</th>"
        "<th class='num'>volume</th><th class='num'>energy (J)</th><th></th></tr>"
    ]
    for core in sorted(cores, key=lambda c: int(c)):
        row = cores[core]
        util = float(row.get("utilization", 0.0))
        bar_w = max(0.0, min(1.0, util)) * 160.0
        bar = (
            f"<svg viewBox='0 0 160 10' style='width:160px'>"
            f"<rect x='0' y='0' width='160' height='10' fill='#eceff3'/>"
            f"<rect x='0' y='0' width='{bar_w:.1f}' height='10' "
            f"fill='{_AES_COLOR}'/></svg>"
        )
        rows.append(
            f"<tr><td>{escape(str(core))}</td>"
            f"<td class='num'>{util * 100:.1f}%</td>"
            f"<td class='num'>{_fmt(row.get('busy'), 5)}</td>"
            f"<td class='num'>{int(row.get('slices', 0))}</td>"
            f"<td class='num'>{_fmt(row.get('volume'), 6)}</td>"
            f"<td class='num'>{_fmt(row.get('energy'), 6)}</td>"
            f"<td>{bar}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _metrics_table(metrics: Dict[str, Any]) -> str:
    if not metrics:
        return "<p class='nodata'>no metrics</p>"
    rows = ["<table><tr><th>metric</th><th>kind</th><th>value</th></tr>"]
    for name in sorted(metrics):
        snap = metrics[name]
        kind = snap.get("kind", "?")
        if kind in ("counter", "gauge"):
            value = _fmt(snap.get("value"), 6)
        elif kind == "quantiles":
            estimates = snap.get("estimates") or {}
            value = "  ".join(
                f"{escape(label)}={_fmt(est, 4)}" for label, est in estimates.items()
            )
            value += f"  (n={snap.get('count', 0)})"
        else:  # histogram
            value = (f"n={snap.get('count', 0)} mean={_fmt(snap.get('mean'), 4)} "
                     f"min={_fmt(snap.get('min'), 4)} max={_fmt(snap.get('max'), 4)}")
            if snap.get("overflow") or snap.get("underflow"):
                value += (f" <span class='viol'>overflow={snap.get('overflow', 0)} "
                          f"underflow={snap.get('underflow', 0)}</span>")
        rows.append(
            f"<tr><td>{escape(name)}</td><td>{escape(str(kind))}</td>"
            f"<td class='num'>{value}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _chaos_table(events: List[Dict[str, Any]], dropped: int) -> str:
    """Disturbance markers (repro.chaos) as a table."""
    if not events:
        return "<p class='nodata'>no disturbances recorded</p>"
    rows = [
        "<table><tr><th class='num'>t (s)</th><th>disturbance</th>"
        "<th>details</th></tr>"
    ]
    detail_keys = ("core", "policy", "jobs", "alive", "factor", "budget_w", "edge")
    for event in events:
        details = "  ".join(
            f"{key}={_fmt(event[key], 5)}"
            for key in detail_keys
            if event.get(key) is not None
        )
        rows.append(
            f"<tr><td class='num'>{_fmt(event.get('time'), 5)}</td>"
            f"<td>{escape(str(event.get('disturbance', '?')))}</td>"
            f"<td>{details}</td></tr>"
        )
    rows.append("</table>")
    if dropped:
        rows.append(
            f"<p class='meta'>{dropped} further chaos event(s) not retained</p>"
        )
    return "".join(rows)


def _degradation_table(degradation: Dict[str, Any]) -> str:
    """The twin-run degradation analysis (see repro.experiments.chaos)."""
    if not degradation:
        return ""
    quality = degradation.get("quality") or {}
    energy = degradation.get("energy") or {}
    floor = degradation.get("floor") or {}
    post = degradation.get("post") or {}
    parts = [
        "<table><tr><th></th><th class='num'>disturbed</th>"
        "<th class='num'>undisturbed twin</th><th class='num'>delta</th></tr>",
        f"<tr><td>quality</td><td class='num'>{_fmt(quality.get('disturbed'), 6)}</td>"
        f"<td class='num'>{_fmt(quality.get('twin'), 6)}</td>"
        f"<td class='num'>{_fmt(quality.get('delta'), 4)}</td></tr>",
        f"<tr><td>energy (J)</td><td class='num'>{_fmt(energy.get('disturbed'), 6)}</td>"
        f"<td class='num'>{_fmt(energy.get('twin'), 6)}</td>"
        f"<td class='num'>{_fmt(energy.get('overhead_j'), 4)}</td></tr>",
        f"<tr><td>quality-floor violation (s)</td>"
        f"<td class='num'>{_fmt(floor.get('disturbed_violation_s'), 5)}</td>"
        f"<td class='num'>{_fmt(floor.get('twin_violation_s'), 5)}</td>"
        f"<td class='num'>{_fmt(floor.get('degradation_s'), 5)}</td></tr>",
        "</table>",
    ]
    recoveries = degradation.get("recoveries") or []
    if recoveries:
        parts.append(
            "<table><tr><th class='num'>t (s)</th><th>disturbance</th>"
            "<th class='num'>recovered at (s)</th>"
            "<th class='num'>recovery (s)</th></tr>"
        )
        for rec in recoveries:
            recovered = rec.get("recovery_s")
            cell = (
                f"<span class='viol'>never</span>" if recovered is None
                else f"{_fmt(recovered, 5)}"
            )
            parts.append(
                f"<tr><td class='num'>{_fmt(rec.get('time'), 5)}</td>"
                f"<td>{escape(str(rec.get('kind', '?')))}</td>"
                f"<td class='num'>{_fmt(rec.get('recovered_at'), 5)}</td>"
                f"<td class='num'>{cell}</td></tr>"
            )
        parts.append("</table>")
    if post:
        parts.append(
            f"<p class='meta'>post-recovery quality-floor compliance: "
            f"{_fmt(post.get('compliance'), 4)} over "
            f"{_fmt(post.get('windows'))} window(s) after "
            f"t={_fmt(post.get('after_s'), 5)}s</p>"
        )
    return "".join(parts)


def render_report(summary: Dict[str, Any]) -> str:
    """Render one run summary as a self-contained HTML document.

    ``summary`` follows the ``repro.run/1`` layout of
    :func:`repro.obs.runs.make_summary`; a raw
    :meth:`~repro.obs.stream.StreamingTracer.summary` dict (telemetry
    keys at the top level, ``meta`` inline) is accepted too.
    """
    if "telemetry" in summary:
        telemetry: Dict[str, Any] = summary.get("telemetry") or {}
        meta: Dict[str, Any] = summary.get("meta") or {}
    else:
        telemetry = summary
        meta = summary.get("meta") or {}
    result = summary.get("result") or {}
    windows = telemetry.get("windows") or {}
    start = float(meta.get("start", 0.0))
    end = float(meta.get("end", start))

    title = (f"{meta.get('scheduler', 'run')} · λ={_fmt(meta.get('arrival_rate'), 4)}/s"
             f" · seed {_fmt(meta.get('seed'))}")
    head_meta = (
        f"fingerprint {_fmt(meta.get('config_fingerprint'))} · "
        f"{_fmt(meta.get('cores'))} cores · H={_fmt(meta.get('budget'), 4)} W · "
        f"Q<sub>GE</sub>={_fmt(meta.get('q_ge'), 4)} · "
        f"span [{_fmt(start, 5)}, {_fmt(end, 5)}] s"
    )
    headline = ""
    if result:
        headline = (
            "<table><tr><th class='num'>quality</th><th class='num'>energy (J)</th>"
            "<th class='num'>jobs</th><th class='num'>mean speed</th>"
            "<th class='num'>utilization</th><th class='num'>AES fraction</th></tr>"
            f"<tr><td class='num'>{_fmt(result.get('quality'), 6)}</td>"
            f"<td class='num'>{_fmt(result.get('energy'), 6)}</td>"
            f"<td class='num'>{_fmt(result.get('jobs'))}</td>"
            f"<td class='num'>{_fmt(result.get('mean_speed'), 4)}</td>"
            f"<td class='num'>{_fmt(result.get('utilization'), 4)}</td>"
            f"<td class='num'>{_fmt(result.get('aes_fraction'), 4)}</td></tr></table>"
        )

    quality_rows = (windows.get("quality") or {}).get("rows") or []
    power_rows = (windows.get("power_total_w") or {}).get("rows") or []
    q_ge = meta.get("q_ge")
    budget = meta.get("budget")

    chaos_events = telemetry.get("chaos_events") or []
    degradation = summary.get("degradation") or {}
    chaos_card = ""
    if chaos_events or degradation:
        chaos_card = (
            "<div class='card'><h2>Disturbances (repro.chaos)</h2>"
            + _chaos_table(chaos_events, int(telemetry.get("chaos_dropped") or 0))
            + _degradation_table(degradation)
            + "</div>"
        )

    sections = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>repro report · {escape(str(meta.get('scheduler', 'run')))}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<div class='card'><h1>{title}</h1>",
        f"<p class='meta'>{head_meta}</p>{headline}</div>",
        "<div class='card'><h2>SLO compliance</h2>",
        _slo_table(telemetry.get("slo") or {}),
        "</div>",
        "<div class='card'><h2>Mode timeline (AES / BQ)</h2>",
        _gantt_svg(telemetry.get("mode_intervals") or [], start=start, end=end),
        "<p class='legend'>mode"
        f"<span class='swatch' style='background:{_AES_COLOR}'></span>AES"
        f"<span class='swatch' style='background:{_BQ_COLOR}'></span>BQ</p></div>",
        chaos_card,
        "<div class='card'><h2>Quality (windowed)</h2>",
        _series_svg(
            quality_rows,
            limit=float(q_ge) if q_ge is not None else None,
            limit_label="Q_GE",
        ),
        "</div>",
        "<div class='card'><h2>Total power (windowed)</h2>",
        _series_svg(
            power_rows,
            limit=float(budget) if budget is not None else None,
            limit_label="H",
            unit=" W",
        ),
        "<p class='legend'>band = window min–max, line = window mean</p></div>",
        "<div class='card'><h2>Per-core utilization</h2>",
        _core_table(telemetry.get("core_utilization") or {}),
        "</div>",
        "<div class='card'><h2>Metrics</h2>",
        _metrics_table(telemetry.get("metrics") or {}),
        "</div>",
        "</body></html>",
    ]
    return "".join(sections)


# ----------------------------------------------------------------------
# Fleet dashboard (repro.fleet/1)
# ----------------------------------------------------------------------
def _fleet_scenario_table(scenarios: Dict[str, Any]) -> str:
    if not scenarios:
        return "<p class='nodata'>no scenario rollups</p>"
    rows = [
        "<table><tr><th>scenario</th><th class='num'>tasks</th>"
        "<th class='num'>SLO</th><th class='num'>Q min</th>"
        "<th class='num'>Q mean</th><th class='num'>Q max</th>"
        "<th class='num'>energy (J)</th><th class='num'>events</th></tr>"
    ]
    for name in sorted(scenarios):
        row = scenarios[name]
        evaluated = int(row.get("slo_evaluated", 0))
        if evaluated:
            compliant = int(row.get("slo_compliant", 0))
            cls = "ok" if compliant == evaluated else "viol"
            slo = f"<span class='{cls}'>{compliant}/{evaluated}</span>"
        else:
            slo = "<span class='nodata'>–</span>"
        rows.append(
            f"<tr><td>{escape(name)}</td>"
            f"<td class='num'>{_fmt(row.get('tasks'))}</td>"
            f"<td class='num'>{slo}</td>"
            f"<td class='num'>{_fmt(row.get('quality_min'), 4)}</td>"
            f"<td class='num'>{_fmt(row.get('quality_mean'), 4)}</td>"
            f"<td class='num'>{_fmt(row.get('quality_max'), 4)}</td>"
            f"<td class='num'>{_fmt(row.get('energy_sum'), 6)}</td>"
            f"<td class='num'>{_fmt(row.get('events'))}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _fleet_worker_table(workers: Dict[str, Any]) -> str:
    if not workers:
        return "<p class='nodata'>no worker records</p>"
    rows = [
        "<table><tr><th>worker</th><th class='num'>pid</th>"
        "<th class='num'>done</th><th class='num'>failed</th>"
        "<th class='num'>exit</th></tr>"
    ]
    for key in sorted(workers, key=lambda k: int(k)):
        row = workers[key]
        rows.append(
            f"<tr><td>{escape(str(row.get('worker', key)))}</td>"
            f"<td class='num'>{_fmt(row.get('pid'))}</td>"
            f"<td class='num'>{_fmt(row.get('tasks_done'))}</td>"
            f"<td class='num'>{_fmt(row.get('tasks_failed'))}</td>"
            f"<td class='num'>{_fmt(row.get('exitcode'))}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _fleet_run_grid(tasks: List[Dict[str, Any]]) -> str:
    if not tasks:
        return "<p class='nodata'>no tasks</p>"
    rows = [
        "<table><tr><th>task</th><th>scenario</th><th class='num'>seed</th>"
        "<th class='num'>rate</th><th>status</th><th class='num'>quality</th>"
        "<th class='num'>energy (J)</th><th>SLO</th><th class='num'>wall (s)</th>"
        "<th>run id</th></tr>"
    ]
    for task in tasks:
        if task.get("ok"):
            status = "<span class='ok'>ok</span>"
        else:
            status = "<span class='viol'>failed</span>"
        slo = task.get("slo_compliant")
        if slo is None:
            slo_cell = "<span class='nodata'>–</span>"
        elif slo:
            slo_cell = "<span class='ok'>ok</span>"
        else:
            slo_cell = "<span class='viol'>viol</span>"
        rows.append(
            f"<tr><td>{escape(str(task.get('key', '?')))}</td>"
            f"<td>{escape(str(task.get('scenario', '?')))}</td>"
            f"<td class='num'>{_fmt(task.get('seed'))}</td>"
            f"<td class='num'>{_fmt(task.get('rate'), 4)}</td>"
            f"<td>{status}</td>"
            f"<td class='num'>{_fmt(task.get('quality'), 6)}</td>"
            f"<td class='num'>{_fmt(task.get('energy'), 6)}</td>"
            f"<td>{slo_cell}</td>"
            f"<td class='num'>{_fmt(task.get('wall_s'), 4)}</td>"
            f"<td class='meta'>{_fmt(task.get('run_id'))}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _fleet_error_cards(errors: List[Dict[str, Any]]) -> str:
    if not errors:
        return "<p class='ok'>no task failures</p>"
    parts = []
    for error in errors:
        parts.append(
            f"<p><span class='viol'>[{escape(str(error.get('kind', '?')))}]</span> "
            f"task <b>{escape(str(error.get('task', '?')))}</b> "
            f"(worker {_fmt(error.get('worker'))}): "
            f"{escape(str(error.get('exception', '')))}</p>"
        )
        if error.get("traceback"):
            parts.append(
                f"<pre style='font-size:.75rem;overflow-x:auto'>"
                f"{escape(str(error['traceback']))}</pre>"
            )
    return "".join(parts)


def render_fleet_report(summary: Dict[str, Any]) -> str:
    """Render one ``repro.fleet/1`` rollup as a self-contained dashboard."""
    meta = summary.get("meta") or {}
    rollup = summary.get("rollup") or {}
    tasks = rollup.get("tasks") or {}
    throughput = rollup.get("throughput") or {}
    quantiles = rollup.get("quantiles") or {}

    failed = int(tasks.get("failed", 0) or 0)
    verdict = (
        "<span class='ok'>all tasks succeeded</span>" if not failed else
        f"<span class='viol'>{failed} task(s) failed</span>"
    )
    headline = (
        "<table><tr><th class='num'>tasks</th><th class='num'>succeeded</th>"
        "<th class='num'>failed</th><th class='num'>events</th>"
        "<th class='num'>events/s</th><th class='num'>worker wall (s)</th></tr>"
        f"<tr><td class='num'>{_fmt(tasks.get('total'))}</td>"
        f"<td class='num'>{_fmt(tasks.get('succeeded'))}</td>"
        f"<td class='num'>{_fmt(tasks.get('failed'))}</td>"
        f"<td class='num'>{_fmt(throughput.get('events'))}</td>"
        f"<td class='num'>{_fmt(throughput.get('events_per_sec'), 6)}</td>"
        f"<td class='num'>{_fmt(throughput.get('worker_wall_s'), 4)}</td></tr>"
        "</table>"
    )
    quantile_rows = ["<table><tr><th>statistic</th><th class='num'>p50</th>"
                     "<th class='num'>p90</th></tr>"]
    for name in sorted(quantiles):
        qs = quantiles[name] or {}
        quantile_rows.append(
            f"<tr><td>{escape(name)}</td>"
            f"<td class='num'>{_fmt(qs.get('p50'), 5)}</td>"
            f"<td class='num'>{_fmt(qs.get('p90'), 5)}</td></tr>"
        )
    quantile_rows.append("</table>")
    violation_note = (
        "<p class='meta'>SLO violation events: "
        f"{_fmt(rollup.get('slo_violation_events'))}</p>"
    )

    sections = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>repro fleet · {escape(str(summary.get('run_id', '?')))}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<div class='card'><h1>fleet {escape(str(summary.get('run_id', '?')))}</h1>",
        f"<p class='meta'>mode {_fmt(meta.get('mode'))} · "
        f"{_fmt(meta.get('workers'))} worker(s) · {verdict}</p>"
        f"{headline}{violation_note}</div>",
        "<div class='card'><h2>Per-scenario rollup</h2>",
        _fleet_scenario_table(rollup.get("scenarios") or {}),
        "</div>",
        "<div class='card'><h2>Cross-run quantiles</h2>",
        "".join(quantile_rows),
        "<p class='legend'>exact quantiles over per-run scalars — "
        "P² sketch states are never merged (see docs/observability.md)</p></div>",
        "<div class='card'><h2>Workers</h2>",
        _fleet_worker_table(rollup.get("workers") or {}),
        "</div>",
        "<div class='card'><h2>Per-run grid</h2>",
        _fleet_run_grid(summary.get("tasks") or []),
        "</div>",
        "<div class='card'><h2>Failures</h2>",
        _fleet_error_cards(summary.get("errors") or []),
        "</div>",
        "</body></html>",
    ]
    return "".join(sections)


def write_report(summary: Dict[str, Any], path: Union[str, Path]) -> int:
    """Write the summary's HTML rendering to ``path``; returns byte count.

    Dispatches on the ``schema`` tag: ``repro.fleet/1`` documents get
    the fleet dashboard, everything else the single-run report.
    """
    if summary.get("schema") == FLEET_SCHEMA:
        html = render_fleet_report(summary)
    else:
        html = render_report(summary)
    data = html.encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)
