"""Snapshot, report, and plot-data writers."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .domain import FlowState
from .orchestrator import REPORT_SCHEMA_VERSION, Trajectory, mass_balance_report


def _fmt(x: float) -> str:
    # repr of a Python float is round-trip safe
    return repr(float(x))


def write_snapshot(state: FlowState, path) -> None:
    """Write one state as CSV: header x,rho,v with the time in a comment."""
    path = Path(path)
    lines = [f"# t={_fmt(state.t)}", "x,rho,v"]
    for x, r, v in zip(state.grid.centers, state.rho, state.v):
        lines.append(f"{_fmt(x)},{_fmt(r)},{_fmt(v)}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise OSError(f"cannot write snapshot to {path}: {e}") from e


def read_snapshot(path) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_snapshot; returns (t, x, rho, v)."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    t = float(lines[0].split("=", 1)[1])
    data = np.array([[float(f) for f in ln.split(",")] for ln in lines[2:]])
    return t, data[:, 0], data[:, 1], data[:, 2]


def write_report(
    traj: Optional[Trajectory],
    path,
    failed_phase: Optional[str] = None,
    error: Optional[str] = None,
    timings: Optional[dict] = None,
) -> None:
    """Write the run report (mass balance, residuals, snap shifts) as JSON."""
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "failed_phase": failed_phase}
    if error is not None:
        doc["error"] = error
    if traj is not None:
        report = mass_balance_report(traj)
        doc.update(report)
        doc["mass_closure_residual"] = abs(report["global"]["residual"])
    if timings is not None:
        doc["phase_timings_s"] = timings
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as e:
        raise OSError(f"cannot write report to {path}: {e}") from e


def _color(frac: float) -> str:
    # blue -> red ramp
    frac = min(max(frac, 0.0), 1.0)
    r = int(round(255 * frac))
    b = int(round(255 * (1.0 - frac)))
    g = int(round(80 * (1.0 - abs(2 * frac - 1.0))))
    return f"#{r:02x}{g:02x}{b:02x}"


def emit_plot(traj: Trajectory, field: str, csv_path, svg_path) -> None:
    """Write space-time heatmap data (CSV: t,x,value) and a self-contained
    SVG rendering with axis labels and the signal timeline marked."""
    if field not in ("rho", "v"):
        raise ValueError(f"field must be 'rho' or 'v', got {field!r}")
    snapshots = traj.snapshots
    if not snapshots:
        raise ValueError("trajectory has no snapshots to plot")

    rows = []
    for snap in snapshots:
        vals = getattr(snap, field)
        for x, val in zip(snap.grid.centers, vals):
            rows.append((snap.t, x, val))
    lines = ["t,x,value"] + [f"{_fmt(t)},{_fmt(x)},{_fmt(v)}" for t, x, v in rows]
    try:
        Path(csv_path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise OSError(f"cannot write plot data to {csv_path}: {e}") from e

    vmin = min(r[2] for r in rows)
    vmax = max(r[2] for r in rows)
    t_lo = min(r[0] for r in rows)
    t_hi = max(r[0] for r in rows)
    x_lo = min(r[1] for r in rows)
    x_hi = max(r[1] for r in rows)
    span_t = (t_hi - t_lo) or 1.0
    span_x = (x_hi - x_lo) or 1.0
    span_v = (vmax - vmin) or 1.0

    width, height, margin = 640, 420, 60
    pw, ph = width - 2 * margin, height - 2 * margin

    def px(t):
        return margin + pw * (t - t_lo) / span_t

    def py(x):
        return height - margin - ph * (x - x_lo) / span_x

    # one rect per sample; sized by the local snapshot spacing
    times = sorted({r[0] for r in rows})
    dt_plot = pw * (span_t / max(len(times) - 1, 1)) / span_t
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for snap in snapshots:
        xs = snap.grid.centers
        dx_plot = ph * (snap.grid.dx / span_x)
        vals = getattr(snap, field)
        for x, val in zip(xs, vals):
            c = _color((val - vmin) / span_v)
            parts.append(
                f'<rect x="{px(snap.t) - dt_plot / 2:.2f}" '
                f'y="{py(x) - dx_plot / 2:.2f}" width="{max(dt_plot, 1.0):.2f}" '
                f'height="{max(dx_plot, 1.0):.2f}" fill="{c}"/>'
            )

    tm = traj.scenario.timing
    for t_mark in (tm.t0 - tm.tau0, tm.t0, tm.t0 + tm.tau1):
        if t_lo <= t_mark <= t_hi:
            xpix = px(t_mark)
        else:
            xpix = px(min(max(t_mark, t_lo), t_hi))
        parts.append(
            f'<line class="phase-marker" x1="{xpix:.2f}" y1="{margin}" '
            f'x2="{xpix:.2f}" y2="{height - margin}" stroke="black" '
            'stroke-dasharray="4 3"/>'
        )

    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle">time t (s)</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:.0f})">position x (m)</text>'
    )
    parts.append(
        f'<text x="{width - margin}" y="20" text-anchor="end">'
        f"{field}: min={_fmt(vmin)} max={_fmt(vmax)}</text>"
    )
    parts.append("</svg>")
    try:
        Path(svg_path).write_text("\n".join(parts) + "\n")
    except OSError as e:
        raise OSError(f"cannot write plot to {svg_path}: {e}") from e
