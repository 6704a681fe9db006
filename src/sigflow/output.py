"""Snapshot, report, and plot-data writers."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .domain import FlowState
from .orchestrator import REPORT_SCHEMA_VERSION, Trajectory, mass_balance_report


def _write(path, text: str, what: str) -> None:
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as e:
        raise OSError(f"cannot write {what} to {path}: {e}") from e


def _csv(header: str, *columns: np.ndarray) -> str:
    # repr of a Python float is round-trip safe
    rows = np.column_stack(columns).tolist()
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


def write_snapshot(state: FlowState, path) -> None:
    """Write one state as CSV: header x,rho,v with the time in a comment."""
    text = f"# t={float(state.t)!r}\n" + _csv("x,rho,v", state.grid.centers,
                                              state.rho, state.v)
    _write(path, text, "snapshot")


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
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n", "report")


def emit_plot(traj: Trajectory, field: str, csv_path, svg_path) -> None:
    """Write space-time heatmap data (CSV: t,x,value, one row per snapshot
    cell) and a self-contained SVG rendering, one rect per snapshot cell,
    with axis labels and the signal timeline marked."""
    if field not in ("rho", "v"):
        raise ValueError(f"field must be 'rho' or 'v', got {field!r}")
    snapshots = traj.snapshots
    if not snapshots:
        raise ValueError("trajectory has no snapshots to plot")

    n = [snap.grid.n_cells for snap in snapshots]
    t = np.repeat([snap.t for snap in snapshots], n)
    x = np.concatenate([snap.grid.centers for snap in snapshots])
    val = np.concatenate([getattr(snap, field) for snap in snapshots])
    dx = np.repeat([snap.grid.dx for snap in snapshots], n)
    _write(csv_path, _csv("t,x,value", t, x, val), "plot data")

    # argmin/argmax return the first extreme, as min()/max() do, so the
    # sign of a zero extreme is kept in the label
    vmin, vmax = float(val[val.argmin()]), float(val[val.argmax()])
    t_lo, t_hi = t.min(), t.max()
    x_lo = x.min()
    span_t = (t_hi - t_lo) or 1.0
    span_x = (x.max() - x_lo) or 1.0
    span_v = (vmax - vmin) or 1.0

    width, height, margin = 640, 420, 60
    pw, ph = width - 2 * margin, height - 2 * margin

    def px(t):
        return margin + pw * (t - t_lo) / span_t

    # one rect per sample; the red-phase flows share their snapshot times,
    # so the width comes from the distinct times
    dt_plot = pw * (span_t / max(np.unique(t).size - 1, 1)) / span_t
    dx_plot = ph * (dx / span_x)
    rect_x = px(t) - dt_plot / 2
    rect_y = height - margin - ph * (x - x_lo) / span_x - dx_plot / 2
    rect_h = np.maximum(dx_plot, 1.0)
    # blue -> red ramp; np.rint rounds half to even, as round() does
    frac = np.clip((val - vmin) / span_v, 0.0, 1.0)
    rgb = (np.rint(255 * frac).astype(int) << 16
           | np.rint(80 * (1.0 - np.abs(2 * frac - 1.0))).astype(int) << 8
           | np.rint(255 * (1.0 - frac)).astype(int))
    rect_w = f"{max(dt_plot, 1.0):.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts += [
        f'<rect x="{rx:.2f}" y="{ry:.2f}" width="{rect_w}" height="{rh:.2f}" '
        f'fill="#{c:06x}"/>'
        for rx, ry, rh, c in zip(rect_x.tolist(), rect_y.tolist(), rect_h.tolist(),
                                 rgb.tolist())
    ]

    tm = traj.scenario.timing
    marks = np.clip([tm.t0 - tm.tau0, tm.t0, tm.t0 + tm.tau1], t_lo, t_hi)
    parts += [
        f'<line class="phase-marker" x1="{xpix:.2f}" y1="{margin}" '
        f'x2="{xpix:.2f}" y2="{height - margin}" stroke="black" '
        'stroke-dasharray="4 3"/>'
        for xpix in px(marks).tolist()
    ]

    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle">time t (s)</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:.0f})">position x (m)</text>'
    )
    parts.append(
        f'<text x="{width - margin}" y="20" text-anchor="end">'
        f"{field}: min={vmin!r} max={vmax!r}</text>"
    )
    parts.append("</svg>")
    _write(svg_path, "\n".join(parts) + "\n", "plot")
