"""Semi-implicit solver for the viscous flow on a fixed or moving domain.

The physical domain [left, right(t)] is mapped to the unit interval; the
mesh motion enters the advection terms as a relative velocity, so the
discrete system keeps a fixed size.  Velocity is updated with explicit
upwind advection plus implicit diffusion (one tridiagonal solve, a direct
call of LAPACK gtsv on the three diagonals; Dirichlet values imposed
exactly at the boundary nodes); density follows with
conservative upwind advection against the freshly updated velocity, so the
discrete mass change matches the boundary-flux ledger identically.

scipy supplies gtsv and is imported at the first solve, not with this
module, so a process that takes no viscous step (`sigflow validate`,
`sigflow verify-oracle`) never loads it.

State lives on n+1 equally spaced nodes of the unit interval.  In physical
coordinates the nodes are equally spaced too, which lets snapshots reuse
FlowState: the snapshot grid is chosen so its cell centers coincide with
the mesh nodes (the boundary values are then part of the snapshot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional, Union

import numpy as np
from numpy.linalg import LinAlgError

from .domain import BoundaryData, FlowState, ForceLaw, RoadGrid
from .hyperbolic import SolveResult, StepReport, _cfl_step, march

# Floor applied to the density in the diffusion coefficient mu/rho only;
# a numerical guard, not a modeling choice.
RHO_COEFF_FLOOR = 1e-9


@cache
def _gtsv():
    """LAPACK dgtsv, fetched from scipy at the first solve."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs("gtsv", dtype=np.float64)


def solve_banded(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with LAPACK gtsv; returns the solution.

    sub and sup are the n-1 entries below and above the n-entry main
    diagonal.  All four arrays are overwritten (the solution is stored in
    b), so pass arrays the caller no longer needs.  This is the same gtsv
    call that scipy.linalg.solve_banded((1, 1), ...) makes, without its
    input validation and band-array copies; the benchmark times it as the
    viscous step's LAPACK layer.
    """
    _, _, _, x, info = _gtsv()(sub, diag, sup, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gtsv")
    return x


@lru_cache(maxsize=8)
def _unit_mesh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only node and face coordinates of the unit interval cut into n."""
    dy = 1.0 / n
    y = np.arange(n + 1) * dy
    y_face = (np.arange(n) + 0.5) * dy
    y.flags.writeable = False
    y_face.flags.writeable = False
    return y, y_face


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
        if not r > self.left:
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
    Density is extrapolated at the downstream end.  A non-finite density or
    boundary flux raises ValueError in the step where it appears.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = domain.n_cells
    dy = 1.0 / n
    L_old = domain.right(t) - domain.left
    L_new = domain.right(t + dt) - domain.left
    Ldot = (L_new - L_old) / dt
    # On a fixed interval (and on the braking strip once it has stopped)
    # Ldot is +0.0, every mesh-velocity term y * Ldot is +0.0 and x - 0.0
    # is x, so those terms are skipped without changing a bit.
    moving = L_new != L_old

    # --- velocity: explicit upwind advection + force, implicit diffusion ---
    # advective speed relative to the mesh, in y units
    if moving:
        y, y_face = _unit_mesh(n)
        c = y * Ldot
        np.subtract(v, c, out=c)
        c /= L_new
    else:
        c = v / L_new
    cfl = float(np.maximum.reduce(np.abs(c))) * dt / dy
    if cfl > 1.0 + 1e-12:
        raise RuntimeError(
            f"advective CFL violated at t = {t}: |c| dt/dy = {cfl:.3f} > 1; "
            "reduce the parabolic time step"
        )
    if math.isnan(cfl):
        # a NaN in v[-1] reaches no finite result under the zero-gradient
        # closure with positive speeds, so it is caught here
        raise ValueError(f"non-finite velocity at t = {t}")
    # interior rows only: both boundary rows are replaced below
    dv = (v[1:] - v[:-1]) / dy  # one difference serves both upwind branches
    c_in = c[1:-1]
    # where every speed is positive (the usual case) upwind is the left side
    if np.minimum.reduce(c_in) > 0:
        upwind = dv[:-1]
    else:
        upwind = np.where(c_in > 0, dv[:-1], dv[1:])
    np.multiply(dt, c_in, out=c_in)
    c_in *= upwind
    # the right-hand side takes over c's buffer; its end rows are set below
    b = c
    np.subtract(v[1:-1], c_in, out=c_in)
    if force is not None:
        b += dt * force(np.maximum(v, 0.0))

    lam = np.maximum(rho, RHO_COEFF_FLOOR)
    np.divide(mu, lam, out=lam)
    np.multiply(dt, lam, out=lam)
    lam /= dy * dy * L_new * L_new

    # Tridiagonal rows; the first and last rows carry the boundary conditions.
    diag = 2.0 * lam
    np.add(1.0, diag, out=diag)
    diag[0] = diag[-1] = 1.0
    sup = -lam[:-1]
    sup[0] = 0.0
    sub = -lam[1:]

    v_left = float(inflow.v_in(t + dt))
    b[0] = v_left
    if right_v is not None:
        v_right = float(right_v(t + dt))
        sub[-1] = 0.0
        b[-1] = v_right
    else:
        # zero-gradient closure: v_n - v_{n-1} = 0
        sub[-1] = -1.0
        b[-1] = 0.0
    # every lam the system uses enters diag, so diag and b cover the input
    if not (np.logical_and.reduce(np.isfinite(diag))
            and np.logical_and.reduce(np.isfinite(b))):
        raise ValueError("array must not contain infs or NaNs")
    v_new = solve_banded(sub, diag, sup, b)
    if right_v is not None:
        v_new[-1] = v_right  # keep the Dirichlet value exact
    v_new[0] = v_left

    # --- density: conservative upwind advection with the new velocity ---
    w_face = v_new[:-1] + v_new[1:]
    np.multiply(0.5, w_face, out=w_face)
    if moving:
        w_face -= y_face * Ldot
    if np.minimum.reduce(w_face) > 0:
        rho_up = rho[:-1]
    else:
        rho_up = np.where(w_face > 0, rho[:-1], rho[1:])
    flux_mid = np.multiply(rho_up, w_face, out=w_face)

    # interior nodes own a control volume of width dy
    mass = flux_mid[1:] - flux_mid[:-1]
    np.multiply(dt / dy, mass, out=mass)
    np.subtract(L_old * rho[1:-1], mass, out=mass)
    rho_new = np.empty_like(rho)
    # the casting of plain assignment, should rho not hold float64
    np.divide(mass, L_new, out=rho_new[1:-1], casting="unsafe")
    # downstream node: half control volume; zero-gradient ghost density
    rho_last = rho.item(-1)
    flux_right = rho_last * (v_new.item(-1) - Ldot)
    rho_new[-1] = (
        L_old * rho_last - (dt / (0.5 * dy)) * (flux_right - flux_mid.item(-1))
    ) / L_new
    # upstream node: Dirichlet density; the boundary flux is the residual that
    # closes its half control volume, so the mass ledger is exact
    rho_new[0] = float(inflow.rho_in(t + dt))
    flux_left = flux_mid.item(0) + (0.5 * dy / dt) * (
        L_new * rho_new.item(0) - L_old * rho.item(0)
    )

    # min and max propagate NaN, so together they flag any non-finite entry
    lo = np.minimum.reduce(rho_new)
    if not (math.isfinite(lo) and math.isfinite(np.maximum.reduce(rho_new))
            and math.isfinite(flux_left) and math.isfinite(flux_right)):
        raise ValueError(f"non-finite density or boundary flux at t = {t + dt}")
    clamped = 0.0
    if lo < 0:
        # upwinding with CFL <= 1 keeps density non-negative up to roundoff
        clamped = -_trapezoid_mass(np.minimum(rho_new, 0.0), L_new, dy)
        rho_new = np.maximum(rho_new, 0.0)

    report = StepReport(inflow=dt * flux_left, outflow=dt * flux_right, clamped=clamped)
    return v_new, rho_new, report


def _finite(c_max: float, t: float) -> float:
    """c_max, unless it is not finite; NaN propagates through max|c|."""
    if not math.isfinite(c_max):
        raise ValueError(f"non-finite velocity at t = {t}")
    return c_max


def solve_parabolic(
    initial_rho: np.ndarray,
    initial_v: np.ndarray,
    domain: MovingDomain,
    inflow: BoundaryData,
    mu: float,
    force: Optional[ForceLaw],
    t_start: float,
    t_end: float,
    dt: Optional[float] = None,
    snapshot_interval: Optional[float] = None,
    right_v: Optional[Callable[[float], float]] = None,
    cfl: float = 0.5,
) -> SolveResult:
    """Advance the viscous system with steps from the advective CFL.

    The diffusion is implicit, so only the explicit upwind advection limits
    the step: each step is the largest with max|c| dt/dy <= cfl, where c is
    the mesh-relative speed of step_viscous.  dt, when given, caps every
    step.  Snapshots are FlowStates on the node mesh mapped back to physical
    coordinates.  right_v prescribes the downstream velocity (None: the
    zero-gradient closure); the run metadata reports the residual between
    it and the handed-off velocity there.
    """
    n = domain.n_cells
    dy = 1.0 / n
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    cap = math.inf if dt is None else dt
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

    moving = callable(domain.right_of_t)
    y = _unit_mesh(n)[0]

    def step_size(state, t: float) -> float:
        """At most the cap and the time left, with max|c| h/dy <= cfl."""
        v = state[0]
        L_old = domain.right(t) - domain.left
        c_max = float(np.maximum.reduce(np.abs(v))) / L_old  # mesh at rest
        # the domain is only evaluated inside the run
        h = min(cap, t_end - t, _cfl_step(dy, _finite(c_max, t), cfl))
        # on a moving mesh c depends on Ldot over the step itself: h is
        # accepted once it meets the bound at its own Ldot, and a rejected h
        # is retried 1 % below the bound so that the search ends
        while moving:
            L_new = domain.right(t + h) - domain.left
            c = np.abs(v - y * ((L_new - L_old) / h))
            h_cfl = _cfl_step(dy, _finite(float(np.maximum.reduce(c)) / L_new, t), cfl)
            if h <= h_cfl:
                break
            h = 0.99 * h_cfl
        return h

    def advance(state, t: float, h: float):
        v, rho, report = step_viscous(*state, t, h, mu, inflow, domain, force, right_v)
        return (v, rho), report

    return march(
        (v, rho), t_start, t_end, snapshot_interval,
        max_dt=step_size,
        advance=advance,
        snapshot=lambda state, t: node_state(domain, t, state[1], state[0]),
        mass=lambda state, t: _trapezoid_mass(
            state[1], domain.right(t) - domain.left, dy
        ),
        metadata={
            "solver": "parabolic",
            "cfl": cfl,
            "compatibility_residual": compat_residual,
        },
    )
