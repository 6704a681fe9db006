"""Semi-implicit solver for the viscous flow on the road or the braking strip.

The domain [x_min, right(t)] is mapped to the unit interval; the right end
stays at the grid's x_max on the open road and follows the braking boundary
gamma(t) of a BrakingProfile on the braking strip.  The mesh motion enters
the advection terms as a relative velocity, so the discrete system keeps a
fixed size.  The layout is staggered (Harlow and Welch 1965): density is a
cell average on n cells, velocity lives on the n+1 faces.  Velocity is
updated with explicit upwind advection plus implicit diffusion (one
tridiagonal solve, a direct call of LAPACK gtsv on the three diagonals);
the inflow velocity is the Dirichlet value of the upstream face, and the
downstream face holds the braking velocity V(t) or, on the open road, a
zero-gradient closure.  Density follows with conservative upwind
advection: every face flux is the upwind density times the face velocity
relative to the mesh, so the mass sum(rho) * dx changes by exactly the two
boundary fluxes of the ledger.  The diffusion being implicit, only the
explicit advection limits the step, and solve_parabolic sizes every step
from the advective CFL number alone.

scipy supplies gtsv and is imported at the first solve, not with this
module, so a process that takes no viscous step (`sigflow validate`,
`sigflow verify-oracle`) never loads it.

Snapshots are FlowStates on the domain's cells, as the finite-volume
solver's are; a cell's velocity is the mean of its two faces.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .domain import BoundaryData, BrakingProfile, FlowState, ForceLaw, RoadGrid
from .hyperbolic import SolveResult, StepReport, _cfl_step, _check_courant, _inflow, march

# Floor applied to the density in the diffusion coefficient mu/rho only;
# a numerical guard, not a modeling choice.
RHO_COEFF_FLOOR = 1e-9

# How far, in units of the strip length, gamma at the start may lie from the
# initial state's right end: the two differ only by rounding in a handover.
HANDOVER_RTOL = 4 * math.ulp(1.0)


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
def _unit_faces(n: int) -> np.ndarray:
    """Read-only face coordinates of the unit interval cut into n cells."""
    y = np.arange(n + 1) * (1.0 / n)
    y.flags.writeable = False
    return y


def _braking_end(braking: BrakingProfile, x_min: float, t: float) -> float:
    """gamma(t), which must be a finite position above x_min."""
    r = float(braking.gamma(t))
    if not x_min < r < math.inf:
        raise ValueError(
            f"braking boundary {r} at t = {t} is not a finite position above "
            f"x_min = {x_min}"
        )
    return r


def step_viscous(
    v: np.ndarray,
    rho: np.ndarray,
    t: float,
    dt: float,
    mu: float,
    inflow: BoundaryData,
    grid: RoadGrid,
    force: Optional[ForceLaw],
    braking: Optional[BrakingProfile] = None,
) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """One semi-implicit update from t to t + dt; returns (v, rho, report).

    v holds the n+1 face velocities (the benchmark's `parabolic.node_steps`
    counts len(v), so faces), rho the n cell densities, and grid is the
    state's RoadGrid at t.  The upstream face takes the inflow velocity.
    Without braking the right end stays at grid.x_max and the downstream
    face takes a zero-gradient closure; with it the right end moves to
    braking.gamma(t + dt) and the downstream face takes braking.V(t + dt).
    The inflow density is the upwind density of the upstream face; the
    downstream face's ghost density copies the last cell.  A negative
    inflow density or speed at t + dt, a step past the CFL bound, or a
    non-finite density or boundary flux raises ValueError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = grid.n_cells
    dy = 1.0 / n
    L_old = grid.x_max - grid.x_min
    if braking is None:
        L_new = L_old
    else:
        L_new = _braking_end(braking, grid.x_min, t + dt) - grid.x_min
    # the faces' mesh velocity y * Ldot, taken from every face speed below; on a
    # fixed strip (and on a stopped braking strip) it is +0.0, and x - 0.0 is x
    w_mesh = _unit_faces(n) * ((L_new - L_old) / dt)

    # --- velocity: explicit upwind advection + force, implicit diffusion ---
    # advective speed relative to the mesh, in y units
    c = v - w_mesh
    c /= L_new
    # a NaN in v[-1] reaches no finite result under the zero-gradient
    # closure with positive speeds, so it is caught here
    _check_courant(float(np.maximum.reduce(np.abs(c))) * dt / dy, t)
    # interior faces only: both boundary rows are replaced below
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
        b += dt * force(v)

    # an interior face's density is the mean of its two cells; the end
    # entries stand in for the boundary rows, which are replaced below
    lam = np.ones(n + 1)
    np.add(rho[:-1], rho[1:], out=lam[1:-1])
    lam[1:-1] *= 0.5
    np.maximum(lam, RHO_COEFF_FLOOR, out=lam)
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

    rho_left, v_left = _inflow(inflow, t + dt)
    b[0] = v_left
    if braking is not None:
        v_right = float(braking.V(t + dt))
        sub[-1] = 0.0
        b[-1] = v_right
    else:
        # zero-gradient closure: v_n - v_{n-1} = 0
        sub[-1] = -1.0
        b[-1] = 0.0
    # every interior lam enters diag, so diag sees every density
    if not np.logical_and.reduce(np.isfinite(diag)):
        raise ValueError(f"non-finite density at t = {t}")
    if not np.logical_and.reduce(np.isfinite(b)):
        raise ValueError(f"non-finite velocity or boundary data at t = {t + dt}")
    v_new = solve_banded(sub, diag, sup, b)
    if braking is not None:
        v_new[-1] = v_right  # keep the Dirichlet value exact
    v_new[0] = v_left

    # --- density: conservative upwind advection with the new velocity ---
    # face speeds relative to the mesh; the upwind density of face j is
    # rho_ext[j] or rho_ext[j + 1], with the inflow density left of the first
    # cell and the last cell copied right of the last one
    w = v_new - w_mesh
    rho_ext = np.empty(n + 2)
    rho_ext[0] = rho_left
    rho_ext[1:-1] = rho
    rho_ext[-1] = rho_ext[-2]
    flux = np.where(w > 0, rho_ext[:-1], rho_ext[1:]) * w

    rho_new = flux[1:] - flux[:-1]
    np.multiply(dt / dy, rho_new, out=rho_new)
    np.subtract(L_old * rho, rho_new, out=rho_new)
    rho_new /= L_new
    flux_left, flux_right = flux.item(0), flux.item(-1)

    # min and max propagate NaN, so together they flag any non-finite entry
    lo = np.minimum.reduce(rho_new)
    if not (math.isfinite(lo) and math.isfinite(np.maximum.reduce(rho_new))
            and math.isfinite(flux_left) and math.isfinite(flux_right)):
        raise ValueError(f"non-finite density or boundary flux at t = {t + dt}")
    clamped = 0.0
    if lo < 0:
        # upwinding with CFL <= 1 keeps density non-negative up to roundoff
        clamped = -float(np.sum(np.minimum(rho_new, 0.0)) * (L_new / n))
        rho_new = np.maximum(rho_new, 0.0)

    report = StepReport(inflow=dt * flux_left, outflow=dt * flux_right, clamped=clamped)
    return v_new, rho_new, report


def solve_parabolic(
    initial: FlowState,
    inflow: BoundaryData,
    mu: float,
    force: Optional[ForceLaw],
    t_end: float,
    snapshot_interval: Optional[float] = None,
    braking: Optional[BrakingProfile] = None,
    cfl: float = 0.5,
) -> SolveResult:
    """Advance the viscous system from initial.t to t_end with steps from
    the advective CFL.

    The solver runs on initial.grid's cells, from initial's densities; an
    interior face starts at the mean velocity of its two cells and an end
    face at its cell's velocity.  Without braking the right end stays at
    initial.grid.x_max under the zero-gradient closure.  With a
    BrakingProfile it moves along braking.gamma(t), which at initial.t must
    lie within rounding (HANDOVER_RTOL of the length) of initial.grid.x_max
    or a ValueError naming the time is raised; its face holds braking.V(t),
    and the run metadata reports the residual between V and the handed-off
    velocity there.  The strip's cells travel in the march state with v and
    rho: read from gamma once at initial.t and once after each step.  The
    diffusion is implicit, so only the explicit upwind advection limits the
    step: each step is the largest with max|c| dt/dy <= cfl, where c is the
    mesh-relative face speed of step_viscous; no other setting sizes it.
    Snapshots are cell FlowStates on the cells at their time.
    """
    x_min, n = initial.grid.x_min, initial.grid.n_cells
    dy = 1.0 / n
    rho = initial.rho.copy()
    v = np.empty(n + 1)
    np.add(initial.v[:-1], initial.v[1:], out=v[1:-1])
    v[1:-1] *= 0.5
    v[0], v[-1] = initial.v[0], initial.v[-1]
    t_start = initial.t

    if braking is None:
        compat_residual = None
        grid = initial.grid
    else:
        compat_residual = abs(float(braking.V(t_start)) - float(v[-1]))
        # the cells are laid on [x_min, gamma(t_start)]: an initial state
        # ending elsewhere would change its mass before the first step
        start_end, x_max = _braking_end(braking, x_min, t_start), initial.grid.x_max
        if abs(start_end - x_max) > HANDOVER_RTOL * (x_max - x_min):
            raise ValueError(
                f"braking boundary {start_end} at t = {t_start} is not the initial "
                f"state's right end {x_max}"
            )
        grid = RoadGrid(x_min, start_end, n)

    y = _unit_faces(n)

    def step_size(state, t: float) -> float:
        """At most the time left, with max|c| h/dy <= cfl."""
        v, _, grid = state
        L_old = grid.x_max - x_min
        c_max = float(np.maximum.reduce(np.abs(v))) / L_old  # mesh at rest
        h = min(t_end - t, _cfl_step(dy, c_max, cfl, t))
        # on a moving mesh c depends on Ldot over the step itself: h is
        # accepted once it meets the bound at its own Ldot, and a rejected h
        # is retried 1 % below the bound so that the search ends
        while braking is not None:
            L_new = _braking_end(braking, x_min, t + h) - x_min
            c = np.abs(v - y * ((L_new - L_old) / h))
            h_cfl = _cfl_step(dy, float(np.maximum.reduce(c)) / L_new, cfl, t)
            if h <= h_cfl:
                break
            h = 0.99 * h_cfl
        return h

    def advance(state, t: float, h: float):
        v, rho, grid = state
        v, rho, report = step_viscous(v, rho, t, h, mu, inflow, grid, force, braking)
        if braking is not None:
            grid = RoadGrid(x_min, _braking_end(braking, x_min, t + h), n)
        return (v, rho, grid), report

    def snapshot(state, t: float) -> FlowState:
        v, rho, grid = state
        v_cell = v[:-1] + v[1:]
        v_cell *= 0.5
        return FlowState(grid=grid, rho=rho, v=v_cell, t=t)

    return march(
        (v, rho, grid), t_start, t_end, snapshot_interval,
        max_dt=step_size,
        advance=advance,
        snapshot=snapshot,
        metadata={"solver": "parabolic", "compatibility_residual": compat_residual},
    )
