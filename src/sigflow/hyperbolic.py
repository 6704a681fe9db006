"""First-order conservative finite-volume solver for the pressureless flow.

Conserved variables are cell mass density m = rho and momentum q = rho*v;
with a constant pressure law the flux is (rho*v, rho*v^2) and the interface
flux is Rusanov (local Lax-Friedrichs), which keeps density concentrations
bounded on the grid.  The driver force enters through Godunov splitting:
transport first, then the pointwise source q += dt*m*F(v), so spatially
uniform acceleration is integrated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domain import (
    VACUUM_RHO, BoundaryData, FlowState, ForceLaw, RoadGrid, check_flow_fields,
)

# Wave-speed floor used for the CFL step when everything is stopped.
SPEED_FLOOR = 1e-8

@dataclass(frozen=True)
class ConservedState:
    """Cell-averaged mass and momentum at one time instant, with the
    velocities v = q/m (0 in vacuum cells) computed once, when it is built."""

    grid: RoadGrid
    m: np.ndarray
    q: np.ndarray
    v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.zeros_like(self.m)
        np.divide(self.q, self.m, out=v, where=self.m > VACUUM_RHO)
        object.__setattr__(self, "v", v)

    @staticmethod
    def from_flow_state(state: FlowState) -> "ConservedState":
        m = np.array(state.rho, dtype=float)
        q = m * state.v
        q[m <= VACUUM_RHO] = 0.0
        return ConservedState(state.grid, m, q)

    def to_flow_state(self, t: float) -> FlowState:
        return FlowState(self.grid, self.m.copy(), self.v, t)


@dataclass
class StepReport:
    """Boundary mass fluxes integrated over one step, plus clamped mass."""

    inflow: float = 0.0   # veh entering through the left face
    outflow: float = 0.0  # veh leaving through the right face
    clamped: float = 0.0  # veh added when lifting negative cells to zero


@dataclass
class SolveResult:
    """Snapshots plus the mass ledger for one solver run; `name` labels the
    phase of a signal cycle the run belongs to."""

    snapshots: list
    ledger: list
    influx: float
    outflux: float
    clamped: float
    metadata: dict = field(default_factory=dict)
    name: str = ""

    @property
    def solver(self) -> str:
        return self.metadata["solver"]

    @property
    def t_start(self) -> float:
        return self.snapshots[0].t

    @property
    def t_end(self) -> float:
        return self.snapshots[-1].t

    @property
    def final(self) -> FlowState:
        return self.snapshots[-1]


def march(
    state,
    t_start: float,
    t_end: float,
    snapshot_interval: Optional[float],
    max_dt: Callable,
    advance: Callable,
    snapshot: Callable,
    metadata: dict,
) -> SolveResult:
    """Advance a solver state from t_start to t_end, recording snapshots and
    the mass ledger.

    advance(state, t, dt) returns (state, StepReport) for one step of at
    most max_dt(state, t).  Steps are shortened to land exactly on every
    snapshot time and on t_end, where snapshot(state, t) gives the
    FlowState.  Each ledger row takes its total mass from that snapshot
    and the running sums of the steps' StepReports up to its time.  The
    result's metadata adds the step count and the smallest and largest step
    taken (None when no step was taken).  A non-finite t_end, or a
    snapshot_interval that is neither None nor positive, raises ValueError
    before the first step; a step that would not advance the clock (t + dt
    rounds to t, as for a snapshot interval below the spacing of floats at
    t) raises ValueError naming t before it is taken.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < t_start:
        raise ValueError(f"t_end = {t_end} precedes t_start = {t_start}")
    if snapshot_interval is not None and not snapshot_interval > 0:
        raise ValueError(f"snapshot_interval must be positive, got {snapshot_interval}")
    snapshots, ledger = [], []
    inflow_cum = outflow_cum = clamped_cum = 0.0

    def record(t: float):
        # the current state's snapshot and ledger row, with the sums so far
        snapshots.append(snapshot(state, t))
        ledger.append({"t": t, "total_mass": snapshots[-1].total_mass,
                       "inflow_cum": inflow_cum, "outflow_cum": outflow_cum,
                       "clamped_cum": clamped_cum})

    record(t_start)
    horizon = t_end - t_start
    if snapshot_interval is None:
        snapshot_interval = horizon if horizon > 0 else 1.0

    t = t_start
    k_snap = 1
    steps, dt_min, dt_max = 0, math.inf, 0.0
    while t < t_end - 1e-13:
        t_next = t_start + k_snap * snapshot_interval
        if t_next >= t_end - 1e-13:
            t_next = t_end  # the last snapshot sits at t_end exactly
        dt = min(max_dt(state, t), t_next - t)
        if not t + dt > t:
            raise ValueError(f"a step of dt = {dt} at t = {t} does not advance the clock")
        state, report = advance(state, t, dt)
        t = t + dt
        steps += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        inflow_cum += report.inflow
        outflow_cum += report.outflow
        clamped_cum += report.clamped
        if t >= t_next - 1e-13:
            # land exactly on the snapshot time so phase handoffs compare equal
            t = t_next
            record(t)
            k_snap += 1

    return SolveResult(
        snapshots=snapshots,
        ledger=ledger,
        influx=inflow_cum,
        outflux=outflow_cum,
        clamped=clamped_cum,
        metadata=dict(metadata, steps=steps, dt_min=dt_min if steps else None,
                      dt_max=dt_max if steps else None),
    )


def numerical_flux(rho_l, v_l, rho_r, v_r):
    """Rusanov flux for the pressureless system; vectorized over faces.

    Returns (mass_flux, momentum_flux).  Consistent with the exact flux
    (rho*v, rho*v^2) and identically zero on vacuum-vacuum faces.
    """
    s = np.maximum(np.abs(v_l), np.abs(v_r))
    q_l = rho_l * v_l
    q_r = rho_r * v_r
    f_mass = 0.5 * (q_l + q_r) - 0.5 * s * (rho_r - rho_l)
    f_mom = 0.5 * (q_l * v_l + q_r * v_r) - 0.5 * s * (q_r - q_l)
    return f_mass, f_mom


def _cfl_step(dx: float, vmax: float, cfl: float) -> float:
    """cfl * dx / vmax, with vmax raised to the speed floor."""
    if not 0 < cfl <= 1:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    return cfl * dx / max(vmax, SPEED_FLOOR)


def _check_courant(number: float, t: float) -> None:
    """Raise ValueError naming t when a step's Courant number passes 1 (up
    to rounding) or is NaN."""
    if number > 1.0 + 1e-12:
        raise ValueError(f"CFL violated at t = {t}: Courant number {number:.3f} > 1")
    if math.isnan(number):
        raise ValueError(f"non-finite velocity at t = {t}")


def step(
    state: ConservedState,
    t: float,
    dt: float,
    inflow: BoundaryData,
    force: Optional[ForceLaw],
) -> tuple[ConservedState, StepReport]:
    """One first-order finite-volume update from t to t + dt: transport,
    then force source.

    The left ghost cell carries the inflow data; the right ghost copies the
    last cell (zero-gradient outflow).
    """
    grid, v = state.grid, state.v
    dx = grid.dx
    # Sampled at the step start: the interior data also represents time t
    # (the force source has already been applied), so this keeps spatially
    # uniform accelerating states exactly uniform.
    rho_lg, v_lg = float(inflow.rho_in(t)), float(inflow.v_in(t))
    rho_rg, v_rg = float(state.m[-1]), float(v[-1])

    _check_courant(max(float(np.maximum.reduce(np.abs(v))), abs(v_lg)) * dt / dx, t)

    rho_ext = np.concatenate(([rho_lg], state.m, [rho_rg]))
    v_ext = np.concatenate(([v_lg], v, [v_rg]))
    f_mass, f_mom = numerical_flux(rho_ext[:-1], v_ext[:-1], rho_ext[1:], v_ext[1:])

    m_new = state.m - (dt / dx) * (f_mass[1:] - f_mass[:-1])
    q_new = state.q - (dt / dx) * (f_mom[1:] - f_mom[:-1])

    report = StepReport(inflow=dt * float(f_mass[0]), outflow=dt * float(f_mass[-1]))

    neg = m_new < 0
    if np.logical_or.reduce(neg):
        report.clamped = float(-np.sum(m_new[neg]) * dx)
        m_new[neg] = 0.0
    vac = m_new <= VACUUM_RHO
    q_new[vac] = 0.0

    if force is not None:
        v_mid = np.zeros_like(m_new)
        np.divide(q_new, m_new, out=v_mid, where=~vac)
        q_new = q_new + dt * m_new * force(v_mid)

    return ConservedState(grid, m_new, q_new), report


def solve_hyperbolic(
    initial: FlowState,
    inflow: BoundaryData,
    force: Optional[ForceLaw],
    t_end: float,
    cfl: float = 0.5,
    snapshot_interval: Optional[float] = None,
) -> SolveResult:
    """Advance the pressureless system from initial.t to t_end.

    Snapshots are taken at the requested cadence and at t_end exactly (the
    final step is shortened to land there).  Each snapshot carries a mass
    ledger entry with cumulative boundary fluxes.
    """
    grid = initial.grid
    return march(
        ConservedState.from_flow_state(initial), initial.t, t_end, snapshot_interval,
        # the checks FlowState makes, without building one: the largest |v|
        # of the noise-clipped velocities is max(v) or below the speed floor;
        # step's CFL check also sees the inflow ghost's speed
        max_dt=lambda state, t: _cfl_step(
            grid.dx, max(check_flow_fields(state.m, state.v),
                         abs(float(inflow.v_in(t)))), cfl),
        advance=lambda state, t, dt: step(state, t, dt, inflow, force),
        snapshot=lambda state, t: state.to_flow_state(t),
        metadata={"solver": "hyperbolic", "cfl": cfl},
    )
