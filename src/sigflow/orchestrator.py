"""Full signal-cycle runs: free flow, flashing-green split, red-phase dual
flows, green-light merge, and resume.

`run` holds the phase plan, which is the same for both models.  Both run
the viscous solver upstream of the light during the red phase (driver
force off); the model chooses the open-road solver of every other phase:
the hyperbolic solver for the first model, the viscous solver for the
second.  Every phase works on cells of the scenario's grid, except the
braking strip, whose cells stretch with the moving braking boundary.  The
upstream and downstream red-phase flows are independent sub-problems on
overlapping strips; the merge takes the upstream solution below the light
and the downstream solution above it, which resolves the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domain import (
    CLOSED,
    FlowState,
    RoadGrid,
    Scenario,
    default_braking_profile,
    initial_state,
)
from . import hyperbolic as hyp
from . import parabolic as par
from .hyperbolic import SolveResult
from .lagrangian import cumulative_count

REPORT_SCHEMA_VERSION = 1


class PhaseError(RuntimeError):
    """Raised when a solver fails inside a named phase."""

    def __init__(self, phase: str, cause: Exception):
        super().__init__(f"phase {phase!r} failed: {cause}")
        self.phase = phase
        self.cause = cause


@dataclass
class Trajectory:
    """All phases of one run plus the cross-phase bookkeeping."""

    scenario: Scenario
    phases: list
    compatibility_residual: Optional[float]  # |V - v| at braking onset, 0.0 by construction
    split_shift: float
    light_shift: float
    handoff_adjustments: dict

    @property
    def final(self) -> FlowState:
        return self.phases[-1].final


def split_at(state: FlowState, x_split: float) -> tuple[FlowState, FlowState, float]:
    """Split a cell state at the face nearest x_split.

    Returns (upstream, downstream, shift), where shift is the snap distance
    to the nearest cell face.  The two halves partition the cells, so their
    masses sum to the original total exactly.  A half with fewer than 4
    cells, or none, raises the ValueError of its RoadGrid.
    """
    grid = state.grid
    i = grid.face_index(x_split)
    face = grid.nearest_face(x_split)
    shift = face - x_split
    up = FlowState(
        grid=RoadGrid(grid.x_min, face, i),
        rho=state.rho[:i].copy(),
        v=state.v[:i].copy(),
        t=state.t,
    )
    down = FlowState(
        grid=RoadGrid(face, grid.x_max, grid.n_cells - i),
        rho=state.rho[i:].copy(),
        v=state.v[i:].copy(),
        t=state.t,
    )
    return up, down, shift


def merge(upstream: FlowState, downstream: FlowState, target_grid: RoadGrid) -> FlowState:
    """Merge the two red-phase flows onto one grid at their common time.

    The light is the braking (upstream) strip's right end, which must be a
    face of the target grid.  Cells below the light take the upstream flow,
    cells at or above it the downstream (released) flow; both are copied by
    index where their cells are the target's.  An upstream strip with other
    cells (the braking strip's, stretched over [x_min, x_light]) is
    remapped through its cumulative count N, which keeps its mass.  The
    downstream strip below the light is discarded.
    """
    if abs(upstream.t - downstream.t) > 1e-12:
        raise ValueError(
            f"merge time mismatch: upstream t = {upstream.t}, downstream t = {downstream.t}"
        )
    n = target_grid.n_cells
    up = upstream.grid
    i = target_grid.face_index(up.x_max)
    if up.x_min != target_grid.x_min or up.x_max != target_grid.nearest_face(up.x_max):
        raise ValueError(
            f"braking strip {up} does not run from the start of {target_grid} "
            f"to one of its faces"
        )
    down = downstream.grid
    j = target_grid.face_index(down.x_min)
    if not (j <= i and down.x_min == target_grid.nearest_face(down.x_min)
            and down.n_cells == n - j and down.x_max == target_grid.x_max):
        raise ValueError(
            f"released strip {down} does not end the target grid {target_grid} "
            f"with its cells from face {i} on"
        )
    rho = np.empty(n)
    v = np.empty(n)
    if up.n_cells == i:
        rho[:i] = upstream.rho
        v[:i] = upstream.v
    else:
        counts = np.interp(target_grid.faces[: i + 1], up.faces, cumulative_count(upstream))
        np.divide(np.diff(counts), target_grid.dx, out=rho[:i])
        v[:i] = np.interp(target_grid.centers[:i], up.centers, upstream.v)
    rho[i:] = downstream.rho[i - j :]
    v[i:] = downstream.v[i - j :]
    return FlowState(grid=target_grid, rho=rho, v=v, t=upstream.t)


def run(s: Scenario) -> Trajectory:
    """Run one signal cycle of the scenario's model.

    Free flow up to the flashing green; a split at the braking-zone start;
    the upstream braking flow and the downstream released flow through the
    red phase; a merge at the green light; free flow again up to t_end.
    """
    tm = s.timing
    x_light = s.grid.nearest_face(tm.x0)
    t_brake = tm.t0 - tm.tau0
    t_green = tm.t0 + tm.tau1

    def phase(name: str, solve, *args, **kwargs) -> SolveResult:
        """Call one phase's solver and name its result; a failure names the phase."""
        try:
            result = solve(*args, **kwargs, cfl=s.cfl, snapshot_interval=s.snapshot_interval)
        except Exception as e:  # noqa: BLE001 - annotate the failing phase
            raise PhaseError(name, e) from e
        return replace(result, name=name)

    def open_road(name: str, state: FlowState, inflow, t_end: float) -> SolveResult:
        # the model's solver, with the driver force
        if s.model == "first":
            return phase(name, hyp.solve_hyperbolic, state, inflow, s.force, t_end)
        return phase(name, par.solve_parabolic, state, inflow, s.mu, s.force, t_end)

    free = open_road("free_flow", initial_state(s), s.inflow, t_brake)
    source, released, split_shift = split_at(free.final, tm.x0 - tm.h)
    snapped = replace(tm, x0=x_light, h=x_light - source.grid.x_max)
    braking = default_braking_profile(snapped, float(source.v[-1]))
    # viscous flow against the moving braking boundary, driver force off
    upstream = phase("upstream_braking", par.solve_parabolic, source, s.inflow, s.mu, None,
                     t_green, braking=braking)
    # no traffic enters the released flow through the split point
    downstream = open_road("downstream_release", released, CLOSED, t_green)
    merged = merge(upstream.final, downstream.final, s.grid)
    resume = open_road("resume", merged, s.inflow, s.t_end)

    return Trajectory(
        scenario=s,
        phases=[free, upstream, downstream, resume],
        compatibility_residual=abs(float(braking(t_brake)[1]) - float(source.v[-1])),
        split_shift=split_shift,
        light_shift=x_light - tm.x0,
        handoff_adjustments=_adjustments(free, upstream, downstream, resume),
    )


def _adjustments(free, upstream, downstream, resume) -> dict:
    """Mass defects introduced by the split/merge resampling, measured with
    each phase's own discrete mass so the global ledger closes exactly."""
    split_adj = (
        upstream.ledger[0]["total_mass"]
        + downstream.ledger[0]["total_mass"]
        - free.ledger[-1]["total_mass"]
    )
    merge_adj = resume.ledger[0]["total_mass"] - (
        upstream.ledger[-1]["total_mass"] + downstream.ledger[-1]["total_mass"]
    )
    return {"split": split_adj, "merge": merge_adj}


def mass_balance_report(traj: Trajectory) -> dict:
    """Per-phase and global mass accounting, machine readable.

    Each phase residual compares the mass change against the integrated
    boundary fluxes (plus clamped mass); the global residual additionally
    carries the recorded handoff adjustments from splitting and merging.
    """
    phases = []
    for p in traj.phases:
        m0 = p.ledger[0]["total_mass"]
        m1 = p.ledger[-1]["total_mass"]
        residual = (m1 - m0) - (p.influx - p.outflux + p.clamped)
        phases.append(
            {
                "name": p.name,
                "solver": p.solver,
                "t_start": p.t_start,
                "t_end": p.t_end,
                "initial_mass": m0,
                "final_mass": m1,
                "influx": p.influx,
                "outflux": p.outflux,
                "clamped": p.clamped,
                "residual": residual,
            }
        )
    m_start = traj.phases[0].ledger[0]["total_mass"]
    m_end = traj.phases[-1].ledger[-1]["total_mass"]
    net_flux = sum(p["influx"] - p["outflux"] + p["clamped"] for p in phases)
    adjustments = sum(traj.handoff_adjustments.values())
    global_residual = (m_end - m_start) - net_flux - adjustments
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "phases": phases,
        "handoff_adjustments": dict(traj.handoff_adjustments),
        "global": {
            "initial_mass": m_start,
            "final_mass": m_end,
            "net_boundary_flux": net_flux,
            "handoff_adjustment": adjustments,
            "residual": global_residual,
        },
        "compatibility_residual": traj.compatibility_residual,
        "split_alignment_shift": traj.split_shift,
        "light_alignment_shift": traj.light_shift,
    }
