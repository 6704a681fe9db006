"""Both solvers against an exact solution of their own equations.

The linear converging flow v = (X - x)/(T - t), rho = rho0(xi) T/(T - t)
with xi = X - (X - x) T/(T - t) solves pressureless flow with the force off:
every vehicle reaches X at time T, the classical linear-velocity focusing
solution (Zel'dovich 1970, A&A 5).  It also solves the viscous model for
every mu, because v_xx = 0.  With X = 400 m and T = 40 s the flow starts at
10 m/s at x = 0 and eases to a stop at X, like the approach to the light.

Every case starts from the exact cell state at t = 0, takes the exact inflow
at x = 0 and runs to t = 20 s, where the density has doubled.  Both solvers
are first order, so L1(rho) must fall about 2x per doubling of n.  Each
bound below is a measurement with a margin: every ratio measured 1.86-1.98
against a bound of 1.80, and each L1 bound at n = 800 is about 1.2 times the
measured error, which the comment beside it gives.
"""

from functools import cache

import numpy as np
import pytest

from sigflow import (
    BoundaryData,
    BrakingProfile,
    FlowState,
    RoadGrid,
    solve_hyperbolic,
    solve_parabolic,
)

X, T = 400.0, 40.0
T_CHECK = 20.0
MU = 2.0
OPEN_END = 300.0  # a fixed end that traffic leaves through
NS = (100, 200, 400, 800)


def rho0(x):
    return 0.08 + 0.02 * np.sin(2 * np.pi * np.asarray(x, float) / 300.0)


def exact_rho(x, t):
    xi = X - (X - np.asarray(x, float)) * T / (T - t)
    return rho0(xi) * T / (T - t)


def exact_v(x, t):
    return (X - np.asarray(x, float)) / (T - t)


EXACT_INFLOW = BoundaryData(rho_in=lambda t: float(exact_rho(0.0, t)),
                            v_in=lambda t: float(exact_v(0.0, t)))


def material_end(t):
    """A vehicle's path, 60 m short of X at t = 0: its speed is 60/T."""
    return X - 60.0 * (T - t) / T


def exact_state(right: float, n: int) -> FlowState:
    grid = RoadGrid(0.0, right, n)
    return FlowState(grid, exact_rho(grid.centers, 0.0), exact_v(grid.centers, 0.0), 0.0)


def l1_rho(state: FlowState) -> float:
    """Integral of |rho - exact| over the cells, in vehicles."""
    err = np.abs(state.rho - exact_rho(state.grid.centers, state.t))
    return float(np.sum(err) * state.grid.dx)


def _viscous(end: BrakingProfile):
    return lambda init: solve_parabolic(init, EXACT_INFLOW, MU, None, T_CHECK, braking=end)


def _finite_volume(init):
    return solve_hyperbolic(init, EXACT_INFLOW, None, T_CHECK)


# name: (right end at t = 0, solver, smallest ratio per doubling, largest L1 at n = 800)
CASES = {
    # the zero-gradient end sits where the exact velocity is 0; measured 0.343
    "finite-volume-to-X": (X, _finite_volume, 1.80, 0.42),
    # measured 0.197
    "finite-volume-open": (OPEN_END, _finite_volume, 1.80, 0.24),
    # a fixed end holding the exact exit velocity; measured 0.112
    "viscous-open": (OPEN_END, _viscous(BrakingProfile(gamma=lambda t: OPEN_END,
                                                       V=lambda t: float(exact_v(OPEN_END, t)))),
                     1.80, 0.14),
    # measured 0.180
    "viscous-sealed": (X, _viscous(BrakingProfile(gamma=lambda t: X, V=lambda t: 0.0)),
                       1.80, 0.22),
    # measured 0.149
    "viscous-material-end": (material_end(0.0),
                             _viscous(BrakingProfile(gamma=material_end, V=lambda t: 60.0 / T)),
                             1.80, 0.18),
}


@cache
def run_case(name: str, n: int):
    right, solve, _, _ = CASES[name]
    return solve(exact_state(right, n))


@pytest.mark.parametrize("name", sorted(CASES))
def test_l1_error_halves_per_doubling(name):
    _, _, min_ratio, max_l1 = CASES[name]
    errors = [l1_rho(run_case(name, n).final) for n in NS]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert min(ratios) >= min_ratio, (errors, ratios)
    assert errors[-1] <= max_l1, errors


@pytest.mark.parametrize("n", NS)
def test_no_traffic_crosses_the_material_end(n):
    # the end moves with the traffic, so the flux rho (V - gamma') is zero
    # up to rounding; measured at most 1.1e-14 vehicles over the run, so the
    # bound has a margin of about 100
    result = run_case("viscous-material-end", n)
    assert result.final.grid.x_max == material_end(T_CHECK)
    assert abs(result.outflux) <= 1e-12


@pytest.mark.parametrize("n", NS)
def test_a_sealed_end_passes_nothing(n):
    assert run_case("viscous-sealed", n).outflux == 0.0
