"""Mass-coordinate reference solver for the pressureless flow.

The cumulative-mass change of variables xi(x) = integral of rho turns the
system into transport at the common speed a(t) = rho_in(t) * v_in(t):
velocity obeys dv/dt = F(v) along each characteristic and density obeys
drho/dt = -rho^2 * dv/dxi.  Because every characteristic moves at the same
speed, the sample set translates rigidly in xi, which makes the method of
characteristics an essentially exact integrator for smooth data.  Used as
an independent oracle for the finite-volume solver; valid only while the
physical characteristics have not crossed and the density stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import BoundaryData, FlowState, ForceLaw, RoadGrid

# Densities at or below this are treated as a breakdown of the smooth solution.
RHO_FLOOR = 1e-12


class PositivityError(ValueError):
    """Raised when a density is not strictly positive where the mass map needs it."""


class BreakdownError(RuntimeError):
    """Raised when the smooth mass-coordinate solution stops being valid."""


@dataclass(frozen=True)
class MassField:
    """Density/velocity samples as functions of the mass coordinate xi.

    xi is strictly increasing, rho_hat strictly positive.  x_origin is the
    physical position carrying xi's zero (the upstream end of the road);
    a_integral accumulates the boundary mass influx integral A(t).
    """

    xi: np.ndarray
    rho_hat: np.ndarray
    v_hat: np.ndarray
    t: float
    x_origin: float
    a_integral: float = 0.0

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
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi must be strictly increasing")
        if np.any(rho <= 0):
            raise PositivityError("rho_hat must be strictly positive")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "rho_hat", rho)
        object.__setattr__(self, "v_hat", v)


def to_mass_coordinates(state: FlowState) -> MassField:
    """Map a strictly positive flow state to mass coordinates.

    The sample set is the state's cell centers extended by the upstream
    domain edge (carrying the first cell's values), so xi = 0 sits exactly
    at x_min; xi is accumulated with the trapezoid rule.
    """
    rho = np.asarray(state.rho, dtype=float)
    if np.any(rho <= 0):
        raise PositivityError(
            "density must be strictly positive everywhere for the mass-coordinate "
            "transformation to be invertible"
        )
    grid = state.grid
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
    if np.any(field.rho_hat <= 0):
        raise PositivityError("rho_hat must be strictly positive for reconstruction")
    x = _positions(field)
    rho = np.interp(grid.centers, x, field.rho_hat)
    v = np.interp(grid.centers, x, field.v_hat)
    return FlowState(grid=grid, rho=rho, v=np.maximum(v, 0.0), t=field.t)


def _gradient_operator(xi: np.ndarray):
    """grad(f, out) writing np.gradient(f, xi) into out, bit for bit, with
    numpy's spacing terms for this xi computed once instead of per call."""
    dx = xi[1:] - xi[:-1]
    d0, dn = dx[0], dx[-1]
    uniform = (dx == d0).all()
    if not uniform:
        dx1, dx2 = dx[:-1], dx[1:]
        s12 = dx1 + dx2
        a, b, c = -dx2 / (dx1 * s12), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * s12)
        tmp = np.empty_like(b)

    def grad(f, out):
        mid = out[1:-1]
        if uniform:
            np.divide(np.subtract(f[2:], f[:-2], out=mid), 2.0 * d0, out=mid)
        else:
            np.multiply(a, f[:-2], out=mid)
            mid += np.multiply(b, f[1:-1], out=tmp)
            mid += np.multiply(c, f[2:], out=tmp)
        out[0], out[-1] = (f[1] - f[0]) / d0, (f[-1] - f[-2]) / dn
        return out

    return grad


def advance_characteristics(
    field: MassField,
    inflow: Optional[BoundaryData],
    force: Optional[ForceLaw],
    t_end: float,
    n_steps: int,
) -> MassField:
    """Integrate the transformed system along characteristics up to t_end.

    All characteristics share the speed a(t) = rho_in * v_in, so the sample
    spacing in xi never changes; velocity follows dv/dt = F(v) and density
    drho/dt = -rho^2 * dv/dxi (centered differences, one-sided at the ends),
    both advanced with classical RK4.  Characteristics entering through
    xi = 0 are seeded with the boundary values at their entry time, at a
    spacing matching the initial sample resolution.  BreakdownError stops
    the step in which a density reaches RHO_FLOOR or becomes infinite.
    """
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t: float) -> float:
        if inflow is None:
            return 0.0
        return float(inflow.rho_in(t)) * float(inflow.v_in(t))

    # Rows: xi; (rho, v) of the state y, stage input, stage rate, RK4 sum; scratch.
    # At most one characteristic enters per step: samples grow left from column s.
    s = n_steps + 1
    buf = np.empty((10, s + field.xi.size))
    buf[:3, s:] = field.xi, field.rho_hat, field.v_hat
    spacing = float(np.median(np.diff(field.xi)))

    def rates(y, k):
        """Write (drho/dt, dv/dt) at y into k, with this step's grad and tmp."""
        k[1] = force(np.maximum(y[1], 0.0, out=tmp)) if force is not None else 0.0
        grad(y[1], k[0])
        k[0] *= np.multiply(np.negative(y[0], out=tmp), y[0], out=tmp)

    dt = (t_end - field.t) / n_steps
    h = 0.5 * dt
    t = field.t
    a_int = field.a_integral
    pending = 0.0
    # an overflowing density is caught by the BreakdownError checks of its
    # step, so numpy's overflow and invalid-value warnings are not raised
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            w = buf[:, s:]
            xi, y, ys, k, acc, tmp = w[0], w[1:3], w[3:5], w[5:7], w[7:9], w[9]
            grad = _gradient_operator(xi)
            # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), every sum and product in the
            # order that expression takes them, accumulated in place
            rates(y, acc)
            np.add(y, np.multiply(acc, h, out=ys), out=ys)
            for c in (h, dt):
                rates(ys, k)
                np.add(y, np.multiply(k, c, out=ys), out=ys)
                k *= 2
                acc += k
            rates(ys, k)
            acc += k
            y += np.multiply(acc, dt / 6.0, out=acc)

            dA = h * (a(t) + a(t + dt))
            t = t + dt
            xi += dA
            a_int += dA
            pending += dA

            if not np.minimum.reduce(y[0]) > RHO_FLOOR:  # NaN fails too
                raise BreakdownError(
                    f"density reached the positivity floor at t = {t}: characteristics "
                    "have crossed in physical space"
                )
            if not np.maximum.reduce(y[0]) < np.inf:
                raise BreakdownError(
                    f"density became infinite at t = {t}: faster vehicles have "
                    "caught up with slower ones and formed a point mass"
                )
            if pending >= spacing and inflow is not None:
                s -= 1
                buf[:3, s] = 0.0, float(inflow.rho_in(t)), float(inflow.v_in(t))
                pending = 0.0
                if buf[1, s] <= RHO_FLOOR:
                    raise BreakdownError(
                        f"boundary density vanished at entry time t = {t}"
                    )

    xi, rho, v = buf[:3, s:].copy()
    return MassField(
        xi=xi, rho_hat=rho, v_hat=v, t=t, x_origin=field.x_origin, a_integral=a_int
    )


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
