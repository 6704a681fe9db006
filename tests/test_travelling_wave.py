"""The viscous solver against an exact travelling wave of its own equations.

With the force off, as on the braking strip, the viscous pressureless system
rho_t + (rho v)_x = 0, rho (v_t + v v_x) = mu v_xx has travelling waves in
z = x - s t.  The flux relative to the wave, J = rho (v - s), is constant, so
J v' = mu v'' and

    v = a + b exp(J z / mu),    rho = J / (v - s).

With a = 10, b = -4, s = 12 m/s, mu = 8 and J = -0.16 veh/s the traffic is
slower than the wave and the exponential decays downstream.  From t = 0 to
3 s on [0, 300] m the density runs 0.016-0.080 veh/m and the velocity
1.8-9.99 m/s.  The converging flows of test_converging_flow.py have v_xx = 0;
here the viscous term carries the solution, so a viscosity that is off by
10 % stops the velocity error from converging.

Every case starts from the exact cell averages at t = 0 (16-point
Gauss-Legendre), takes the exact inflow at x = 0 and runs to t = 3 s.  The
solver is first order, so both L1 errors against the exact cell averages
must fall about 2x per doubling of n.  Each bound is a measurement with a
margin, given in the comment beside it.
"""

import numpy as np
import pytest

from sigflow import BoundaryData, BrakingProfile, FlowState, RoadGrid, solve_parabolic

A, B, S, MU, J = 10.0, -4.0, 12.0, 8.0, -0.16
T_CHECK = 3.0
NS = (100, 200, 400, 800, 1600)
NODES, WEIGHTS = np.polynomial.legendre.leggauss(16)


def exact_v(x, t):
    return A + B * np.exp(J * (np.asarray(x, float) - S * t) / MU)


def exact_rho(x, t):
    return J / (exact_v(x, t) - S)


def cell_averages(f, grid: RoadGrid, t: float) -> np.ndarray:
    x = grid.centers[:, None] + 0.5 * grid.dx * NODES
    return f(x, t) @ WEIGHTS / 2.0


EXACT_INFLOW = BoundaryData(rho_in=lambda t: float(exact_rho(0.0, t)),
                            v_in=lambda t: float(exact_v(0.0, t)))


def retreating_end(t):
    return 250.0 - 5.0 * t


# name: (right end at t = 0, braking profile or None for the open road's
# zero-gradient closure, smallest ratio per doubling of either L1 error,
# largest L1(v) at n = 1600 in m^2/s)
CASES = {
    # ratios measured 1.99 / 1.96 / 1.92 / 1.84 for rho and 2.07 / 2.00 /
    # 1.93 / 1.85 for v: the closure at x = 300, where v_x is about 4e-4 /s,
    # is not exact.  L1(v) measured 0.160
    "open-road": (300.0, None, 1.75, 0.19),
    # an end retreating through the traffic, holding the exact velocity there;
    # ratios measured 2.02 / 2.01 / 2.00 / 2.00 for rho and 2.07 / 2.03 /
    # 2.02 / 2.01 for v.  L1(v) measured 0.132
    "retreating-end": (retreating_end(0.0),
                       BrakingProfile(gamma=retreating_end,
                                      V=lambda t: float(exact_v(retreating_end(t), t))),
                       1.90, 0.16),
}


def l1_errors(name: str, n: int) -> tuple[float, float]:
    """(L1(rho) in vehicles, L1(v) in m^2/s) at T_CHECK on n cells."""
    right, braking, _, _ = CASES[name]
    grid = RoadGrid(0.0, right, n)
    init = FlowState(grid, cell_averages(exact_rho, grid, 0.0),
                     cell_averages(exact_v, grid, 0.0), 0.0)
    final = solve_parabolic(init, EXACT_INFLOW, MU, None, T_CHECK, braking=braking).final
    dx = final.grid.dx
    return (float(np.sum(np.abs(final.rho - cell_averages(exact_rho, final.grid, T_CHECK))) * dx),
            float(np.sum(np.abs(final.v - cell_averages(exact_v, final.grid, T_CHECK))) * dx))


@pytest.mark.parametrize("name", sorted(CASES))
def test_l1_errors_halve_per_doubling(name):
    _, _, min_ratio, max_l1_v = CASES[name]
    errors = np.array([l1_errors(name, n) for n in NS])  # a row per n: L1(rho), L1(v)
    ratios = errors[:-1] / errors[1:]
    assert ratios.min() >= min_ratio, (errors, ratios)
    assert errors[-1, 1] <= max_l1_v, errors
