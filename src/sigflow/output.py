"""Snapshot, report, and plot-data writers.

write_outputs writes all of a run's files; it alone formats snapshot and
plot text.  Every float in a CSV is written as its repr, which round-trips,
and is formatted once: a grid's cell centres once for every snapshot on
that grid, a snapshot's time once for all its rows, and the plotted field
once for both the snapshot and the plot files.  Its memos live for one call.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .orchestrator import REPORT_SCHEMA_VERSION, Trajectory, mass_balance_report


def _write(path, chunks, what: str) -> None:
    """Write the strings in chunks to path, in turn, through one handle."""
    path = Path(path)
    try:
        with path.open("w") as f:
            f.writelines(chunks)
    except OSError as e:
        raise OSError(f"cannot write {what} to {path}: {e}") from e


def _reprs(values: np.ndarray) -> list:
    # repr of a Python float is round-trip safe
    return list(map(repr, values.tolist()))


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
    _write(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"], "report")


def write_outputs(traj: Trajectory, out, plot: Optional[str] = None,
                  timings: Optional[dict] = None) -> None:
    """Write a run's files into the directory out: each phase's snapshots as
    <phase>_<i:04d>.csv (header x,rho,v with the time in a comment),
    report.json (with timings), and for plot 'rho' or 'v' plot_<plot>.csv
    and plot_<plot>.svg.  Each float is formatted at most once."""
    if plot not in (None, "rho", "v"):
        raise ValueError(f"field must be 'rho' or 'v', got {plot!r}")
    out = Path(out)
    centres = {}  # grid -> reprs of its cell centres
    columns = []  # (snapshot, t, x, plotted field), the last three as text
    for phase in traj.phases:
        for i, snap in enumerate(phase.snapshots):
            grid = snap.grid
            if grid not in centres:
                centres[grid] = _reprs(grid.centers)
            t, x = repr(float(snap.t)), centres[grid]
            rho, v = _reprs(snap.rho), _reprs(snap.v)
            rows = "\n".join(map(",".join, zip(x, rho, v)))
            _write(out / f"{phase.name}_{i:04d}.csv", [f"# t={t}\nx,rho,v\n{rows}\n"],
                   "snapshot")
            if plot is not None:
                columns.append((snap, t, x, rho if plot == "rho" else v))
    write_report(traj, out / "report.json", timings=timings)
    if plot is not None:
        # by time; the red-phase flows share their snapshot times, and the
        # stable sort keeps those in phase order
        columns.sort(key=lambda c: c[0].t)
        _write_plot(traj, plot, columns, out / f"plot_{plot}.csv",
                    out / f"plot_{plot}.svg")


def _write_plot(traj: Trajectory, field: str, columns: list, csv_path, svg_path) -> None:
    """Write space-time heatmap data (CSV: t,x,value, one row per snapshot
    cell) and a self-contained SVG rendering, one rect per snapshot cell,
    with axis labels and the signal timeline marked.  columns holds each
    snapshot, in time order, with the text of its t, x and field."""
    snapshots = [snap for snap, *_ in columns]

    def csv_chunks():
        yield "t,x,value\n"
        for _, t, x, val in columns:
            lead = t + ","
            yield lead + ("\n" + lead).join(map(",".join, zip(x, val))) + "\n"

    _write(csv_path, csv_chunks(), "plot data")

    n = [snap.grid.n_cells for snap in snapshots]
    times = np.array([snap.t for snap in snapshots], dtype=float)
    x = np.concatenate([snap.grid.centers for snap in snapshots])
    val = np.concatenate([getattr(snap, field) for snap in snapshots])
    dx = np.repeat([snap.grid.dx for snap in snapshots], n)

    # argmin/argmax return the first extreme, as min()/max() do, so the
    # sign of a zero extreme is kept in the label
    vmin, vmax = float(val[val.argmin()]), float(val[val.argmax()])
    t_lo, t_hi = times.min(), times.max()
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
    dt_plot = pw * (span_t / max(np.unique(times).size - 1, 1)) / span_t
    dx_plot = ph * (dx / span_x)
    rect_x = (px(times) - dt_plot / 2).tolist()
    rect_y = height - margin - ph * (x - x_lo) / span_x - dx_plot / 2
    rect_h = np.maximum(dx_plot, 1.0).tolist()
    # blue -> red ramp; np.rint rounds half to even, as round() does
    frac = np.clip((val - vmin) / span_v, 0.0, 1.0)
    rgb = (np.rint(255 * frac).astype(int) << 16
           | np.rint(80 * (1.0 - np.abs(2 * frac - 1.0))).astype(int) << 8
           | np.rint(255 * (1.0 - frac)).astype(int))
    rect_w = f"{max(dt_plot, 1.0):.2f}"

    def svg_chunks():
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
               f'<rect width="{width}" height="{height}" fill="white"/>\n')
        # a rect's y depends only on its snapshot's grid, and its x and
        # height only on the snapshot
        y_text = {}
        start = 0
        for k, snap in enumerate(snapshots):
            stop = start + n[k]
            if snap.grid not in y_text:
                y_text[snap.grid] = [f"{ry:.2f}" for ry in rect_y[start:stop].tolist()]
            cells = [None] * (2 * n[k])
            cells[::2] = y_text[snap.grid]
            cells[1::2] = rgb[start:stop].tolist()
            rect = (f'<rect x="{rect_x[k]:.2f}" y="%s" width="{rect_w}" '
                    f'height="{rect_h[start]:.2f}" fill="#%06x"/>\n')
            yield (rect * n[k]) % tuple(cells)
            start = stop

        tm = traj.scenario.timing
        marks = np.clip([tm.t0 - tm.tau0, tm.t0, tm.t0 + tm.tau1], t_lo, t_hi)
        parts = [
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
        yield "\n".join(parts) + "\n"

    _write(svg_path, svg_chunks(), "plot")
