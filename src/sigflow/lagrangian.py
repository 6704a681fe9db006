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
    spacing matching the initial sample resolution.
    """
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t: float) -> float:
        if inflow is None:
            return 0.0
        return float(inflow.rho_in(t)) * float(inflow.v_in(t))

    xi = np.array(field.xi, dtype=float)
    rho = np.array(field.rho_hat, dtype=float)
    v = np.array(field.v_hat, dtype=float)
    spacing = float(np.median(np.diff(xi)))

    def rates(v_s, rho_s):
        dv = force(np.maximum(v_s, 0.0)) if force is not None else np.zeros_like(v_s)
        drho = -rho_s * rho_s * np.gradient(v_s, xi)
        return dv, drho

    dt = (t_end - field.t) / n_steps
    t = field.t
    a_int = field.a_integral
    pending = 0.0
    for _ in range(n_steps):
        k1v, k1r = rates(v, rho)
        k2v, k2r = rates(v + 0.5 * dt * k1v, rho + 0.5 * dt * k1r)
        k3v, k3r = rates(v + 0.5 * dt * k2v, rho + 0.5 * dt * k2r)
        k4v, k4r = rates(v + dt * k3v, rho + dt * k3r)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        rho = rho + (dt / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)

        dA = 0.5 * dt * (a(t) + a(t + dt))
        t = t + dt
        xi = xi + dA
        a_int += dA
        pending += dA

        if np.any(rho <= RHO_FLOOR):
            raise BreakdownError(
                f"density reached the positivity floor at t = {t}: characteristics "
                "have crossed in physical space"
            )
        if pending >= spacing and inflow is not None:
            xi = np.concatenate(([0.0], xi))
            rho = np.concatenate(([float(inflow.rho_in(t))], rho))
            v = np.concatenate(([float(inflow.v_in(t))], v))
            pending = 0.0
            if rho[0] <= RHO_FLOOR:
                raise BreakdownError(
                    f"boundary density vanished at entry time t = {t}"
                )

    return MassField(
        xi=xi, rho_hat=rho, v_hat=v, t=t, x_origin=field.x_origin, a_integral=a_int
    )


def estimate_breakdown_time(state: FlowState) -> float:
    """First crossing time of the physical characteristics, or infinity.

    With a velocity-independent force the characteristics are vertical
    translates of each other, so they first cross at t = -1/min(v0') when
    the initial velocity has a decreasing stretch.
    """
    slope = np.gradient(state.v, state.grid.centers)
    m = float(np.min(slope))
    if m >= 0:
        return float("inf")
    return -1.0 / m
