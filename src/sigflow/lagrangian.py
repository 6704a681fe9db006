"""Mass-coordinate reference solver for the pressureless flow.

The cumulative-mass change of variables xi(x) = integral of rho turns the
system into transport at the common speed a(t) = rho_in(t) * v_in(t):
velocity obeys dv/dt = F(v) along each characteristic and the specific
volume tau = 1/rho obeys dtau/dt = dv/dxi, linear in v.  Every characteristic
moves at the same speed, so the sample set translates rigidly in xi, its
xi-spacing never changes and the xi-difference is built once; only v needs
RK4.  Used as an independent oracle for the finite-volume solver
(``oracle_errors``); valid only while the characteristics have not crossed
and the density stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domain import (MAX_CELLS, BoundaryData, FlowState, ForceLaw, RoadGrid, Scenario,
                     ScenarioError, initial_state, sample_profile)
from .hyperbolic import solve_hyperbolic

# Densities at or below this are treated as a breakdown of the smooth solution.
RHO_FLOOR = 1e-12

# The largest rho * dx the reference takes on its samples: every xi-spacing then stays
# below 2**511, so the xi-difference's products dx1 * (dx1 + dx2) and dx1 * dx2 are finite.
RHO_DX_MAX = 2.0 ** 510


class BreakdownError(RuntimeError):
    """Raised when the smooth mass-coordinate solution stops being valid."""


@dataclass(frozen=True)
class MassField:
    """Density/velocity samples as functions of the mass coordinate xi.

    xi is strictly increasing, rho_hat strictly positive.  x_origin is the
    physical position carrying xi's zero (the upstream end of the road).
    """

    xi: np.ndarray
    rho_hat: np.ndarray
    v_hat: np.ndarray
    t: float
    x_origin: float

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        rho = np.asarray(self.rho_hat, dtype=float)
        v = np.asarray(self.v_hat, dtype=float)
        if not (xi.shape == rho.shape == v.shape):
            raise ValueError("xi, rho_hat, v_hat must have matching shapes")
        if xi.ndim != 1 or xi.size < 2:
            raise ValueError(f"need 1-D arrays of at least 2 samples, got {xi.shape}")
        if not all(np.isfinite(u).all() for u in (xi, rho, v)):
            raise ValueError("xi, rho_hat and v_hat must be finite")
        # before monotonicity: a vacuum is reported as a vacuum
        if np.any(rho <= 0):
            raise ValueError("rho_hat must be strictly positive: a vacuum has no mass coordinate")
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi must be strictly increasing")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "rho_hat", rho)
        object.__setattr__(self, "v_hat", v)


def to_mass_coordinates(state: FlowState) -> MassField:
    """Map a strictly positive flow state to mass coordinates.

    The sample set is the state's cell centers extended by the upstream
    domain edge (carrying the first cell's values), so xi = 0 sits exactly
    at x_min; xi is accumulated with the trapezoid rule.
    """
    rho, grid = state.rho, state.grid
    x = np.concatenate(([grid.x_min], grid.centers))
    rho_s = np.concatenate(([rho[0]], rho))
    v_s = np.concatenate(([state.v[0]], state.v))
    xi = np.zeros_like(x)
    xi[1:] = np.cumsum(0.5 * (rho_s[1:] + rho_s[:-1]) * np.diff(x))
    return MassField(xi=xi, rho_hat=rho_s, v_hat=v_s, t=state.t, x_origin=grid.x_min)


def cumulative_count(state: FlowState) -> np.ndarray:
    """The cumulative vehicle count N at the state's n+1 cell faces: 0 at
    x_min, then the running sum of the cell masses."""
    return np.concatenate(([0.0], np.cumsum(state.rho) * state.grid.dx))


def cumulative_count_w1(a: FlowState, b: FlowState) -> float:
    """W1 = integral of |N_a - N_b| dx, N the cumulative vehicle count, exact
    at the faces and linear in each cell; trapezoid rule on the union of both
    face sets."""
    xa = a.grid.faces
    xb = b.grid.faces
    x = np.union1d(xa, xb)
    d = np.abs(np.interp(x, xa, cumulative_count(a)) - np.interp(x, xb, cumulative_count(b)))
    return float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(x)))


def _positions(field: MassField) -> np.ndarray:
    """Physical positions of the samples: the exact discrete inverse of the
    trapezoid accumulation used in to_mass_coordinates."""
    dxi = np.diff(field.xi)
    rho = field.rho_hat
    dx = dxi / (0.5 * (rho[1:] + rho[:-1]))
    x = np.empty_like(field.xi)
    x[0] = field.x_origin + field.xi[0] / rho[0]
    x[1:] = x[0] + np.cumsum(dx)
    return x


def reconstruct_physical(field: MassField, grid: RoadGrid) -> FlowState:
    """Resample a mass field back onto a uniform physical grid."""
    x = _positions(field)
    rho = np.interp(grid.centers, x, field.rho_hat)
    v = np.interp(grid.centers, x, field.v_hat)
    return FlowState(grid=grid, rho=rho, v=np.maximum(v, 0.0), t=field.t)


class _XiDifference:
    """G f = np.gradient(f, xi) by numpy's uneven-spacing formulas, for xi-spacings
    dx that never change, from weights built once; prepend(d) adds a sample d ahead."""

    def __init__(self, dx: np.ndarray, room: int):
        self.j, self.d0, self.dn = room, dx[0], dx[-1]
        self.w = np.empty((4, room + dx.size - 1))  # weights of f[i-1], f[i], f[i+1]; scratch
        self.w[:3, room:] = self.weights(dx[:-1], dx[1:])

    @staticmethod
    def weights(dx1, dx2):
        return -dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * (dx1 + dx2))

    def prepend(self, d: float):
        self.j -= 1
        self.w[:3, self.j], self.d0 = self.weights(d, self.d0), d

    def __call__(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        (a, b, c, tmp), mid = self.w[:, self.j:], out[1:-1]
        np.multiply(a, f[:-2], out=mid)
        mid += np.multiply(b, f[1:-1], out=tmp)
        mid += np.multiply(c, f[2:], out=tmp)
        out[0], out[-1] = (f[1] - f[0]) / self.d0, (f[-1] - f[-2]) / self.dn
        return out


def advance_characteristics(
    field: MassField,
    inflow: BoundaryData,
    force: Optional[ForceLaw],
    t_end: float,
    n_steps: int,
) -> MassField:
    """Integrate the transformed system along characteristics up to t_end.

    v takes classical RK4 steps, tau the step dt/6 G(v1 + 2 v2 + 2 v3 + v4) of
    its stage velocities; rho = rho0 / (1 + rho0 D), with rho0 a sample's
    density when seeded and D its increment of tau.  Characteristics enter at
    xi = 0 with the boundary values, at the initial samples' spacing.
    BreakdownError stops the step in which the mass influx is not finite, tau
    reaches 0 or a density reaches RHO_FLOOR, and the run whose influx has
    rounded away the xi-spacing of its samples.
    """
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t: float) -> float:
        return float(inflow.rho_in(t)) * float(inflow.v_in(t))

    rate = np.zeros_like if force is None else force
    # Rows: xi, rho0, D, v, stage velocity, their sum, scratch; samples grow left from s
    s = n_steps + 1
    buf = np.zeros((7, s + field.xi.size))
    buf[[0, 1, 3], s:] = field.xi, field.rho_hat, field.v_hat
    grad = _XiDifference(np.diff(field.xi), n_steps)
    spacing = float(np.median(np.diff(field.xi)))

    dt = (t_end - field.t) / n_steps
    h = 0.5 * dt
    t, pending = field.t, 0.0
    # the BreakdownError checks catch what leaves the float range: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            xi, rho0, dtau, v, vs, vsum, tmp = buf[:, s:]
            # v + dt/6 (k1 + 2 k2 + 2 k3 + k4) and vsum = v1 + 2 v2 + 2 v3 + v4,
            # every sum and product in the order those expressions take them
            acc = rate(v)
            np.add(v, np.multiply(acc, h, out=vs), out=vs)
            np.add(v, np.multiply(vs, 2.0, out=vsum), out=vsum)
            for c, weight in ((h, 2.0), (dt, 1.0)):
                k = rate(vs)
                np.add(v, np.multiply(k, c, out=vs), out=vs)
                acc += np.multiply(k, 2.0, out=k)
                vsum += np.multiply(vs, weight, out=tmp)
            acc += rate(vs)
            v += np.multiply(acc, dt / 6.0, out=acc)
            dtau += np.multiply(grad(vsum, tmp), dt / 6.0, out=tmp)

            dA = h * (a(t) + a(t + dt))
            t = t + dt
            if not np.isfinite(dA):
                raise BreakdownError(f"boundary mass influx became non-finite at t = {t}")
            xi += dA
            pending += dA

            q = np.add(np.multiply(rho0, dtau, out=tmp), 1.0, out=tmp)  # rho0 * tau
            if np.fmin.reduce(q) <= 0.0:  # fmin: a NaN elsewhere hides no crossing
                raise BreakdownError(f"density became infinite at t = {t}: faster vehicles "
                                     "have caught up with slower ones and formed a point mass")
            if not np.minimum.reduce(np.divide(rho0, q, out=tmp)) > RHO_FLOOR:  # NaN fails too
                raise BreakdownError(f"density reached the positivity floor at t = {t}: "
                                     "characteristics have crossed in physical space")
            if pending >= spacing:
                grad.prepend(xi[0])  # the entering sample sits at xi = 0
                s -= 1
                buf[:4, s] = 0.0, float(inflow.rho_in(t)), 0.0, float(inflow.v_in(t))
                pending = 0.0
                if buf[1, s] <= RHO_FLOOR:
                    raise BreakdownError(f"boundary density vanished at entry time t = {t}")

    xi, rho0, dtau, v = buf[:4, s:].copy()
    # xi += dA rounds: an influx far above the samples' masses leaves no spacing between them
    if not np.minimum.reduce(np.diff(xi)) > 0:
        raise BreakdownError("profiles.rho_in: the mass influx rho_in * v_in is too large for "
                             "the reference's mass coordinate: it rounds away the samples' spacing")
    return MassField(xi, rho0 / (1.0 + rho0 * dtau), v, t, field.x_origin)


def estimate_breakdown_time(state: FlowState) -> float:
    """First crossing time of the physical characteristics, or infinity.

    Without a force the characteristics are straight lines, and they first
    cross at t = -1/min(v0') when the initial velocity has a decreasing
    stretch.  A non-increasing F(v), which every ForceLaw is, only shrinks
    the velocity gap between a faster follower and a slower leader, so with
    a force -1/min(v0') is a lower bound on the crossing time.
    """
    slope = np.gradient(state.v, state.grid.centers)
    m = float(np.min(slope))
    if m >= 0:
        return float("inf")
    return -1.0 / m


def oracle_errors(scenario: Scenario) -> list[tuple[float, float]]:
    """[(L1(rho), L1(v)) at n cells, the same at 2n]: the finite-volume run
    against one mass-coordinate reference on 8n samples, at the free-flow
    handoff time.  In order: ScenarioError for a grid whose 8n reference
    passes the cell cap, a refined grid the scenario's other checks refuse,
    a density on the reference's samples that is not strictly positive,
    lies at or below RHO_FLOOR, passes RHO_DX_MAX / dx or varies too steeply
    for its mass coordinate to increase, or an inflow density at or below
    RHO_FLOOR or inflow velocity at or below 0 at a time the reference reads
    the inflow (no traffic would enter it then); ValueError for a horizon
    past the n, then the 2n grid's; BreakdownError while the reference is
    built; the two runs.
    """
    t_end = scenario.timing.t0 - scenario.timing.tau0
    g, n = scenario.grid, scenario.grid.n_cells
    if 8 * n > MAX_CELLS:
        raise ScenarioError([f"grid.n_cells: {n} cells need a reference on 8 x {n} = {8 * n} "
                             f"cells, past the cap of {MAX_CELLS}"])
    *inits, samples = (initial_state(replace(scenario, grid=RoadGrid(g.x_min, g.x_max, k * n)))
                       for k in (1, 2, 8))
    rho_lo, rho_hi, dx = float(np.min(samples.rho)), float(np.max(samples.rho)), samples.grid.dx
    if not rho_lo > 0:
        raise ScenarioError([
            "profiles.rho0: initial density must be strictly positive everywhere when the "
            "mass-coordinate reference solution is requested (the coordinate "
            "transformation is otherwise not invertible)"])
    if rho_lo <= RHO_FLOOR:
        raise ScenarioError([f"profiles.rho0: initial density {rho_lo:g} lies at or below the "
                             f"mass-coordinate reference's positivity floor {RHO_FLOOR:g}"])
    if rho_hi * dx > RHO_DX_MAX:
        raise ScenarioError([f"profiles.rho0: initial density {rho_hi:g} passes "
                             f"{RHO_DX_MAX / dx:.6g}, the most the mass-coordinate reference "
                             f"takes on its cells of {dx:g} m (rho * dx <= 2**510)"])
    try:
        field = to_mass_coordinates(samples)
    except ValueError as e:  # in range, so a sample's xi-spacing rounded away
        raise ScenarioError([f"profiles.rho0: initial density too steep for the mass-coordinate "
                             f"reference to resolve ({e})"]) from e
    n_steps = max(200, int(t_end / 0.02))
    # the times advance_characteristics reads the inflow at, summed as it sums them
    ts = np.cumsum(np.concatenate(([field.t], np.full(n_steps, (t_end - field.t) / n_steps))))
    with np.errstate(all="ignore"):  # a non-finite influx is the reference's BreakdownError
        rho_in = sample_profile(scenario.inflow.rho_in, ts)
        v_in = sample_profile(scenario.inflow.v_in, ts)
    # each names the first such time: no traffic enters the reference then
    no_entry = [f"profiles.rho_in: inflow density {rho_in[i]:g} at t = {ts[i]:g} lies at or below "
                f"the mass-coordinate reference's positivity floor {RHO_FLOOR:g}"
                for i in np.flatnonzero(rho_in <= RHO_FLOOR)[:1]]
    no_entry += [f"profiles.v_in: inflow velocity {v_in[i]:g} at t = {ts[i]:g} is not positive, "
                 "so no traffic enters the mass-coordinate reference"
                 for i in np.flatnonzero(v_in <= 0.0)[:1]]
    if no_entry:
        raise ScenarioError(no_entry)
    for init in inits:
        t_star = estimate_breakdown_time(init)
        if t_end >= 0.5 * t_star:
            raise ValueError(
                f"horizon {t_end} is past half the characteristic-crossing estimate "
                f"{t_star}; the smooth reference solution is not valid there"
            )

    field = advance_characteristics(field, scenario.inflow, scenario.force, t_end, n_steps)

    errors = []
    length = g.x_max - g.x_min
    for init in inits:
        fv = solve_hyperbolic(init, scenario.inflow, scenario.force, t_end, cfl=scenario.cfl)
        ref = reconstruct_physical(field, init.grid)
        dx = init.grid.dx
        errors.append((float(np.sum(np.abs(fv.final.rho - ref.rho)) * dx / length),
                       float(np.sum(np.abs(fv.final.v - ref.v)) * dx / length)))
    return errors
