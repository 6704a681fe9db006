"""Full signal-cycle runs: free flow, flashing-green split, red-phase dual
flows, green-light merge, and resume.

`run` holds the phase plan, which is the same for both models.  The first
model runs the hyperbolic solver outside the braking region and the viscous
solver upstream of the light; the second model runs the viscous solver
everywhere (with the driver force switched off upstream of the light during
the red phase).  A small adapter per model supplies what differs: the
free-flow start, the handoff at the split, the released-flow solver, the
merge grid, and the open-road solver.  The upstream and downstream
red-phase flows are independent sub-problems on overlapping strips; the
merge assigns the upstream solution below the light and the downstream
solution above it, which resolves the overlap.
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
    sample_profile,
    validate_scenario,
)
from . import hyperbolic as hyp
from . import parabolic as par
from .hyperbolic import SolveResult

REPORT_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Raised when a scenario fails validation; carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


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
    compatibility_residual: Optional[float]
    split_shift: float
    light_shift: float
    handoff_adjustments: dict

    def phase(self, name: str) -> SolveResult:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def snapshots(self) -> list:
        out = []
        for p in self.phases:
            out.extend(p.snapshots)
        out.sort(key=lambda s: s.t)
        return out

    @property
    def final(self) -> FlowState:
        return self.phases[-1].final


def split_at(state: FlowState, x_split: float) -> tuple[FlowState, FlowState, float]:
    """Split a cell state at the face nearest x_split.

    Returns (upstream, downstream, shift), where shift is the snap distance
    to the nearest cell face.  The two halves partition the cells, so their
    masses sum to the original total exactly.
    """
    grid = state.grid
    i = grid.face_index(x_split)
    face = grid.nearest_face(x_split)
    shift = face - x_split
    if i < 4 or grid.n_cells - i < 4:
        raise ValueError(
            f"split at {x_split} leaves fewer than 4 cells on one side "
            f"(face index {i} of {grid.n_cells})"
        )
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


def merge(
    upstream: FlowState,
    downstream: FlowState,
    target_grid: RoadGrid,
    x_light: float,
    t_merge: float,
) -> FlowState:
    """Merge the two red-phase flows onto one grid at the green-light time.

    Cells below the light take the upstream (braking) solution, cells at or
    above it take the downstream solution; the downstream strip below the
    light is discarded.  Values are copied where sample positions coincide
    and linearly interpolated otherwise.
    """
    if abs(upstream.t - t_merge) > 1e-12 or abs(downstream.t - t_merge) > 1e-12:
        raise ValueError(
            f"merge time mismatch: upstream t = {upstream.t}, downstream t = "
            f"{downstream.t}, expected {t_merge}"
        )
    xt = target_grid.centers
    below = xt < x_light
    rho = np.empty(target_grid.n_cells)
    v = np.empty(target_grid.n_cells)
    rho[below] = _resample(xt[below], upstream.grid.centers, upstream.rho)
    v[below] = _resample(xt[below], upstream.grid.centers, upstream.v)
    rho[~below] = _resample(xt[~below], downstream.grid.centers, downstream.rho)
    v[~below] = _resample(xt[~below], downstream.grid.centers, downstream.v)
    return FlowState(grid=target_grid, rho=rho, v=v, t=t_merge)


def _resample(xt: np.ndarray, xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Linear interpolation with an exact-copy fast path when the target
    positions are a contiguous run of the source positions."""
    if len(xt) == 0:
        return np.empty(0)
    scale = max(abs(xs[0]), abs(xs[-1]), 1.0)
    j = np.searchsorted(xs, xt[0] - 1e-9 * scale)
    if j + len(xt) <= len(xs) and np.allclose(
        xs[j : j + len(xt)], xt, rtol=0.0, atol=1e-9 * scale
    ):
        return vals[j : j + len(xt)].copy()
    return np.interp(xt, xs, vals)


def run(s: Scenario) -> Trajectory:
    """Run one signal cycle of the scenario's model.

    Free flow up to the flashing green; a split at the braking-zone start;
    the upstream braking flow and the downstream released flow through the
    red phase; a merge at the green light; free flow again up to t_end.
    """
    violations = validate_scenario(s)
    if violations:
        raise ScenarioError(violations)
    tm = s.timing
    grid = s.grid
    i_split = grid.face_index(tm.x0 - tm.h)
    x_split = grid.nearest_face(tm.x0 - tm.h)
    x_light = grid.nearest_face(tm.x0)
    t_brake = tm.t0 - tm.tau0
    t_green = tm.t0 + tm.tau1
    if s.model == "second":
        model = _SecondModel(s, x_split, grid.n_cells - i_split)
    else:
        model = _FirstModel(s, x_split)

    free = _run_phase("free_flow", model.free_flow, t_brake)
    v_handoff, source, released = model.split(free.final)
    snapped = replace(tm, x0=x_light, h=x_light - x_split)
    braking = default_braking_profile(snapped, v_handoff)
    upstream = _run_phase(
        "upstream_braking", _braking_flow, s, braking, source, i_split, t_brake, t_green
    )
    downstream = _run_phase("downstream_release", model.release, released, t_green)
    merged = merge(upstream.final, downstream.final, model.merge_grid, x_light, t_green)
    resume = _run_phase("resume", model.open_road, merged, s.t_end)

    return Trajectory(
        scenario=s,
        phases=[free, upstream, downstream, resume],
        compatibility_residual=upstream.metadata.get("compatibility_residual"),
        split_shift=x_split - (tm.x0 - tm.h),
        light_shift=x_light - tm.x0,
        handoff_adjustments=_adjustments(free, upstream, downstream, resume),
    )


def _run_phase(name: str, solve, *args) -> SolveResult:
    """Call one phase's solver and name its result; a failure names the phase."""
    try:
        result = solve(*args)
    except Exception as e:  # noqa: BLE001 - annotate the failing phase
        raise PhaseError(name, e) from e
    return replace(result, name=name)


def _viscous(s: Scenario, domain, inflow, force, rho, v, t_start, t_end,
             right_v=None):
    return par.solve_parabolic(
        rho, v, domain, inflow, s.mu, force, t_start, t_end,
        dt=s.parabolic_dt, snapshot_interval=s.snapshot_interval, right_v=right_v,
        cfl=s.cfl,
    )


def _to_nodes(source: FlowState, domain: par.MovingDomain, t: float):
    nodes = domain.nodes(t)
    xs = source.grid.centers
    return _resample(nodes, xs, source.rho), _resample(nodes, xs, source.v)


def _braking_flow(s: Scenario, braking, source: FlowState, n_cells: int,
                  t_start: float, t_end: float) -> SolveResult:
    """Viscous flow upstream of the light against the moving braking
    boundary, driver force off; the same in both models."""
    domain = par.MovingDomain(left=s.grid.x_min, right_of_t=braking.gamma,
                              n_cells=n_cells)
    return _viscous(s, domain, s.inflow, None, *_to_nodes(source, domain, t_start),
                    t_start, t_end, right_v=braking.V)


class _FirstModel:
    """Hyperbolic flow on the cell grid outside the braking zone."""

    def __init__(self, s: Scenario, x_split: float):
        self.s = s
        self.x_split = x_split
        self.merge_grid = s.grid

    def _solve(self, state: FlowState, inflow, t_end: float) -> SolveResult:
        return hyp.solve_hyperbolic(
            state, inflow, self.s.force, t_end,
            cfl=self.s.cfl, snapshot_interval=self.s.snapshot_interval,
        )

    def free_flow(self, t_end: float) -> SolveResult:
        return self.open_road(initial_state(self.s), t_end)

    def split(self, free: FlowState):
        """(handoff velocity, braking-flow source, released-flow start)."""
        up, down, _ = split_at(free, self.x_split)
        return float(up.v[-1]), up, down

    def release(self, down: FlowState, t_end: float) -> SolveResult:
        # no traffic enters through the split point
        return self._solve(down, CLOSED, t_end)

    def open_road(self, state: FlowState, t_end: float) -> SolveResult:
        return self._solve(state, self.s.inflow, t_end)


class _SecondModel:
    """Viscous flow on the node grid in every phase; the released flow runs on
    the strip above the split with its upstream end sealed."""

    def __init__(self, s: Scenario, x_split: float, n_strip: int):
        g = s.grid
        self.s = s
        self.x_split = x_split
        self.merge_grid = par.node_grid(g.x_min, g.x_max, g.n_cells)
        self.road = par.MovingDomain(left=g.x_min, right_of_t=g.x_max, n_cells=g.n_cells)
        self.strip = par.MovingDomain(left=x_split, right_of_t=g.x_max, n_cells=n_strip)

    def free_flow(self, t_end: float) -> SolveResult:
        nodes = self.road.nodes(0.0)
        rho0 = sample_profile(self.s.rho0, nodes)
        v0 = sample_profile(self.s.v0, nodes)
        return _viscous(self.s, self.road, self.s.inflow, self.s.force, rho0, v0, 0.0, t_end)

    def split(self, free: FlowState):
        """(handoff velocity, braking-flow source, released-flow start)."""
        return float(np.interp(self.x_split, free.grid.centers, free.v)), free, free

    def release(self, free: FlowState, t_end: float) -> SolveResult:
        return _viscous(self.s, self.strip, CLOSED, self.s.force,
                        *_to_nodes(free, self.strip, free.t), free.t, t_end)

    def open_road(self, state: FlowState, t_end: float) -> SolveResult:
        return _viscous(self.s, self.road, self.s.inflow, self.s.force,
                        state.rho, state.v, state.t, t_end)


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
