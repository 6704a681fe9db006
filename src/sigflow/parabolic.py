"""Semi-implicit solver for the viscous flow on a fixed or moving domain.

The physical domain [left, right(t)] is mapped to the unit interval; the
mesh motion enters the advection terms as a relative velocity, so the
discrete system keeps a fixed size.  Velocity is updated with explicit
upwind advection plus implicit diffusion (tridiagonal solve, Dirichlet
values imposed exactly at the boundary nodes); density follows with
conservative upwind advection against the freshly updated velocity, so the
discrete mass change matches the boundary-flux ledger identically.

State lives on n+1 equally spaced nodes of the unit interval.  In physical
coordinates the nodes are equally spaced too, which lets snapshots reuse
FlowState: the snapshot grid is chosen so its cell centers coincide with
the mesh nodes (the boundary values are then part of the snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import solve_banded

from .domain import BoundaryData, FlowState, ForceLaw, RoadGrid
from .hyperbolic import SolveResult, StepReport, march

# Floor applied to the density in the diffusion coefficient mu/rho only;
# a numerical guard, not a modeling choice.
RHO_COEFF_FLOOR = 1e-9


@dataclass(frozen=True)
class MovingDomain:
    """Domain [left, right_of_t(t)] discretized with n_cells intervals."""

    left: float
    right_of_t: Union[Callable[[float], float], float]
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be >= 4, got {self.n_cells}")

    def right(self, t: float) -> float:
        if callable(self.right_of_t):
            r = float(self.right_of_t(t))
        else:
            r = float(self.right_of_t)
        if r <= self.left:
            raise ValueError(
                f"right boundary {r} at t = {t} does not exceed left = {self.left}"
            )
        return r

    def nodes(self, t: float) -> np.ndarray:
        return self.left + (self.right(t) - self.left) * np.arange(
            self.n_cells + 1
        ) / self.n_cells


def node_grid(left: float, right: float, n_intervals: int) -> RoadGrid:
    """Grid whose cell centers are the n_intervals+1 mesh nodes of [left, right]."""
    s = (right - left) / n_intervals
    return RoadGrid(left - 0.5 * s, right + 0.5 * s, n_intervals + 1)


def node_state(
    domain: MovingDomain, t: float, rho: np.ndarray, v: np.ndarray
) -> FlowState:
    grid = node_grid(domain.left, domain.right(t), domain.n_cells)
    return FlowState(grid=grid, rho=np.asarray(rho, float), v=np.asarray(v, float), t=t)


def _trapezoid_mass(rho: np.ndarray, length: float, dy: float) -> float:
    w = np.full_like(rho, dy)
    w[0] = w[-1] = 0.5 * dy
    return float(length * np.sum(w * rho))


def step_viscous(
    v: np.ndarray,
    rho: np.ndarray,
    t: float,
    dt: float,
    mu: float,
    inflow: BoundaryData,
    domain: MovingDomain,
    force: Optional[ForceLaw],
    right_v: Optional[Callable[[float], float]] = None,
) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """One semi-implicit update from t to t + dt; returns (v, rho, report).

    The upstream node takes the inflow data; the downstream node takes the
    prescribed velocity right_v, or a zero-gradient closure when it is None.
    Density is extrapolated at the downstream end.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = domain.n_cells
    dy = 1.0 / n
    y = np.arange(n + 1) * dy
    L_old = domain.right(t) - domain.left
    L_new = domain.right(t + dt) - domain.left
    Ldot = (L_new - L_old) / dt

    # --- velocity: explicit upwind advection + force, implicit diffusion ---
    c = (v - y * Ldot) / L_new  # advective speed relative to the mesh, in y units
    cmax = float(np.max(np.abs(c)))
    if cmax * dt / dy > 1.0 + 1e-12:
        raise RuntimeError(
            f"advective CFL violated at t = {t}: |c| dt/dy = {cmax * dt / dy:.3f} > 1; "
            "reduce the parabolic time step"
        )
    dv_up = np.zeros_like(v)
    dv_up[1:-1] = np.where(
        c[1:-1] > 0, (v[1:-1] - v[:-2]) / dy, (v[2:] - v[1:-1]) / dy
    )
    rhs = v - dt * c * dv_up
    if force is not None:
        rhs = rhs + dt * force(np.maximum(v, 0.0))

    k = mu / np.maximum(rho, RHO_COEFF_FLOOR)
    lam = dt * k / (dy * dy * L_new * L_new)

    # Banded system rows: sub, diag, super.
    sub = np.zeros(n + 1)
    diag = np.ones(n + 1)
    sup = np.zeros(n + 1)
    b = np.array(rhs)

    diag[1:-1] = 1.0 + 2.0 * lam[1:-1]
    sub[1:-1] = -lam[1:-1]
    sup[1:-1] = -lam[1:-1]

    b[0] = float(inflow.v_in(t + dt))
    if right_v is not None:
        b[-1] = float(right_v(t + dt))
    else:
        # zero-gradient closure: v_n - v_{n-1} = 0
        sub[-1] = -1.0
        b[-1] = 0.0

    ab = np.zeros((3, n + 1))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    v_new = solve_banded((1, 1), ab, b)
    if right_v is not None:
        v_new[-1] = b[-1]  # keep the Dirichlet value exact
    v_new[0] = b[0]

    # --- density: conservative upwind advection with the new velocity ---
    y_face = (np.arange(n) + 0.5) * dy
    w_face = 0.5 * (v_new[:-1] + v_new[1:]) - y_face * Ldot
    rho_up = np.where(w_face > 0, rho[:-1], rho[1:])
    flux_mid = rho_up * w_face

    rho_new = np.empty_like(rho)
    # interior nodes own a control volume of width dy
    rho_new[1:-1] = (L_old * rho[1:-1] - (dt / dy) * np.diff(flux_mid)) / L_new
    # downstream node: half control volume; zero-gradient ghost density
    w_right = v_new[-1] - Ldot
    flux_right = rho[-1] * w_right
    rho_new[-1] = (
        L_old * rho[-1] - (dt / (0.5 * dy)) * (flux_right - flux_mid[-1])
    ) / L_new
    # upstream node: Dirichlet density; the boundary flux is the residual that
    # closes its half control volume, so the mass ledger is exact
    rho_new[0] = float(inflow.rho_in(t + dt))
    flux_left = flux_mid[0] + (0.5 * dy / dt) * (L_new * rho_new[0] - L_old * rho[0])

    clamped = 0.0
    if np.any(rho_new < 0):
        # upwinding with CFL <= 1 keeps density non-negative up to roundoff
        clamped = -_trapezoid_mass(np.minimum(rho_new, 0.0), L_new, dy)
        rho_new = np.maximum(rho_new, 0.0)

    report = StepReport(
        inflow=dt * float(flux_left), outflow=dt * float(flux_right), clamped=clamped
    )
    return v_new, rho_new, report


def solve_parabolic(
    initial_rho: np.ndarray,
    initial_v: np.ndarray,
    domain: MovingDomain,
    inflow: BoundaryData,
    mu: float,
    force: Optional[ForceLaw],
    t_start: float,
    t_end: float,
    dt: float,
    snapshot_interval: Optional[float] = None,
    right_v: Optional[Callable[[float], float]] = None,
) -> SolveResult:
    """Advance the viscous system with a fixed time step.

    Snapshots are FlowStates on the node mesh mapped back to physical
    coordinates.  right_v prescribes the downstream velocity (None: the
    zero-gradient closure); the run metadata reports the residual between
    it and the handed-off velocity there.
    """
    n = domain.n_cells
    dy = 1.0 / n
    rho = np.array(initial_rho, dtype=float)
    v = np.array(initial_v, dtype=float)
    if rho.shape != (n + 1,) or v.shape != (n + 1,):
        raise ValueError(
            f"initial fields must have {n + 1} node values, got "
            f"{rho.shape} and {v.shape}"
        )

    if right_v is not None:
        compat_residual = abs(float(right_v(t_start)) - float(v[-1]))
    else:
        compat_residual = None

    def advance(state, t: float, h: float):
        v, rho, report = step_viscous(*state, t, h, mu, inflow, domain, force, right_v)
        return (v, rho), report

    return march(
        (v, rho), t_start, t_end, snapshot_interval,
        max_dt=lambda state: dt,
        advance=advance,
        snapshot=lambda state, t: node_state(domain, t, state[1], state[0]),
        mass=lambda state, t: _trapezoid_mass(
            state[1], domain.right(t) - domain.left, dy
        ),
        metadata={
            "solver": "parabolic",
            "dt": dt,
            "compatibility_residual": compat_residual,
        },
    )
