"""Exact properties of the model checked on the solvers' output: the
scaling symmetry of a whole run, bit for bit, and two point-mass
solutions in closed form, against which the finite-volume solver must
converge at its measured rate.

Both point-mass solutions are sticky-particle (delta shock) solutions of
the pressureless system (Bouchut 1994; Sheng and Zhang 1999, Mem. AMS
137).  The error is W1 of the cumulative count N, the norm in which a
point mass smeared over a few cells still converges.
"""

import math

import numpy as np
import pytest

import sigflow.hyperbolic
import sigflow.parabolic
from sigflow import (
    BoundaryData,
    FlowState,
    ForceLaw,
    RoadGrid,
    Scenario,
    SignalTiming,
    run,
    solve_hyperbolic,
)
from sigflow.lagrangian import cumulative_count
from tests.conftest import assert_bitwise


def scaled_scenario(model, k=1.0, r=1.0, n_cells=150):
    """A two-wave scenario with every length and time multiplied by k and
    every density by r.  The model has no length, time or density scale of
    its own: f0 (an acceleration) scales as 1/k and mu (mu/rho is a
    diffusivity) as k*r, speeds are unchanged."""

    def rho0(x):
        return r * (0.08 + 0.02 * np.sin(2 * np.pi * np.asarray(x, float) / (300.0 * k)))

    def v0(x):
        return 10.0 + 2.0 * np.sin(2 * np.pi * np.asarray(x, float) / (600.0 * k))

    return Scenario(
        model=model,
        grid=RoadGrid(0.0, 600.0 * k, n_cells),
        rho0=rho0,
        v0=v0,
        inflow=BoundaryData(rho_in=lambda t: r * 0.08, v_in=lambda t: 10.0),
        timing=SignalTiming(x0=400.0 * k, t0=12.0 * k, tau0=4.0 * k, tau1=8.0 * k,
                            h=60.0 * k),
        force=ForceLaw(1.0 / k, 16.0, 4.0),
        mu=2.0 * k * r,
        t_end=25.0 * k,
        cfl=0.5,
        snapshot_interval=1.0 * k,
    )


class TestScaling:
    """x -> k x, t -> k t and rho -> r rho map runs onto runs.  k and r are
    powers of 2, so every rounding scales with them and the map is exact
    bit for bit; a hard-coded length, time, speed or density, or a wrong
    power of L or dt in a term, breaks it."""

    @pytest.mark.parametrize("k, r", [(2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.25),
                                      (4.0, 0.25)])
    @pytest.mark.parametrize("model", ["first", "second"])
    def test_run_is_bitwise_scale_free(self, model, k, r, monkeypatch):
        base = run(scaled_scenario(model))
        # the two absolute density floors are numerical guards, and scale
        # with the densities they guard
        monkeypatch.setattr(sigflow.hyperbolic, "VACUUM_RHO", sigflow.hyperbolic.VACUUM_RHO * r)
        monkeypatch.setattr(sigflow.parabolic, "RHO_COEFF_FLOOR",
                            sigflow.parabolic.RHO_COEFF_FLOOR * r)
        scaled = run(scaled_scenario(model, k, r))

        assert [p.name for p in scaled.phases] == [p.name for p in base.phases]
        for p, q in zip(base.phases, scaled.phases):
            assert len(q.snapshots) == len(p.snapshots), p.name
            for a, b in zip(p.snapshots, q.snapshots):
                assert b.t == k * a.t
                assert (b.grid.x_min, b.grid.x_max) == (k * a.grid.x_min, k * a.grid.x_max)
                assert_bitwise(b.rho, r * a.rho)
                assert_bitwise(b.v, a.v)


def w1_to_point_mass(state, x_mass, mass, rho_behind, rho_ahead):
    """W1 between the state's cumulative count and the exact one: uniform
    density rho_behind from x_min up to a point mass at x_mass, rho_ahead
    after it.  Both counts are linear between breakpoints except where
    their difference changes sign, so each cell is cut 16 times."""
    faces, counts = state.grid.faces, cumulative_count(state)
    x_min, x_max = faces[0], faces[-1]

    def behind(x):
        return rho_behind * (x - x_min)

    def ahead(x):
        return behind(x_mass) + mass + rho_ahead * (x - x_mass)

    total = 0.0
    for a, b, exact in ((x_min, x_mass, behind), (x_mass, x_max, ahead)):
        x = np.union1d(np.linspace(a, b, 16 * state.grid.n_cells + 1),
                       faces[(faces > a) & (faces < b)])
        d = np.abs(np.interp(x, faces, counts) - exact(x))
        total += float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(x)))
    return total


def converges(errors, min_ratio, finest_max):
    """Each halving of dx divides the error by at least min_ratio, and the
    finest grid's error is at most finest_max."""
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert min(ratios) >= min_ratio, (errors, ratios)
    assert errors[-1] <= finest_max, errors


class TestDeltaShock:
    """The Riemann problem with v_L > v_R: a delta shock at x0 + sigma t,
    sigma = (sqrt(rho_L) v_L + sqrt(rho_R) v_R) / (sqrt(rho_L) + sqrt(rho_R)),
    of weight sqrt(rho_L rho_R) (v_L - v_R) t, with rho_L behind it and
    rho_R ahead; the inflow keeps feeding the left state."""

    RHO_L, V_L, RHO_R, V_R, X0, T = 1.0, 10.0, 0.25, 2.0, 100.0, 5.0

    def error(self, n):
        grid = RoadGrid(0.0, 200.0, n)
        left = grid.centers < self.X0
        state = FlowState(grid, np.where(left, self.RHO_L, self.RHO_R),
                          np.where(left, self.V_L, self.V_R), 0.0)
        inflow = BoundaryData(rho_in=lambda t: self.RHO_L, v_in=lambda t: self.V_L)
        final = solve_hyperbolic(state, inflow, None, self.T, cfl=0.5).final
        sl, sr = math.sqrt(self.RHO_L), math.sqrt(self.RHO_R)
        sigma = (sl * self.V_L + sr * self.V_R) / (sl + sr)
        weight = sl * sr * (self.V_L - self.V_R) * self.T
        return w1_to_point_mass(final, self.X0 + sigma * self.T, weight,
                                self.RHO_L, self.RHO_R)

    def test_finite_volume_converges_to_the_delta(self):
        # measured 62.4 / 37.3 / 22.8 / 14.3 / 9.15 veh m at n = 100 ... 1600,
        # ratios 1.67 falling to 1.56: bounds 7 % below the smallest ratio
        # and 9 % above the finest error
        converges([self.error(n) for n in (100, 200, 400, 800, 1600)],
                  min_ratio=1.45, finest_max=10.0)


class TestPointMassHitByInflow:
    """A mass M at rest at x0, hit by traffic of density rho_L at speed v_L
    with vacuum ahead, sticks everything it meets: its mass is
    m = sqrt(M^2 + 2 rho_L v_L M t) and its position
    X = x0 + v_L t - (m - M) / rho_L (405.626 m at t = 5).  The shipped
    queue leaving the light is this flow, without the handoff."""

    M, RHO_L, V_L, X0, T = 14.0, 0.08, 10.0, 400.0, 5.0

    def error(self, n):
        grid = RoadGrid(0.0, 600.0, n)
        i = grid.face_index(self.X0)
        behind = np.arange(n) < i
        rho = np.where(behind, self.RHO_L, 0.0)
        rho[i] = self.M / grid.dx  # the mass sits in the cell right of x0
        state = FlowState(grid, rho, np.where(behind, self.V_L, 0.0), 0.0)
        inflow = BoundaryData(rho_in=lambda t: self.RHO_L, v_in=lambda t: self.V_L)
        final = solve_hyperbolic(state, inflow, None, self.T, cfl=0.5).final
        m = math.sqrt(self.M ** 2 + 2 * self.RHO_L * self.V_L * self.M * self.T)
        x = self.X0 + self.V_L * self.T - (m - self.M) / self.RHO_L
        return w1_to_point_mass(final, x, m, self.RHO_L, 0.0)

    def test_finite_volume_converges_to_the_growing_mass(self):
        # measured 37.5 / 26.5 / 18.5 veh m at n = 600 / 1200 / 2400 (100 /
        # 200 / 400 steps), ratios 1.41 and 1.43: bounds 8 % below the
        # smaller ratio and 8 % above the finest error
        converges([self.error(n) for n in (600, 1200, 2400)],
                  min_ratio=1.3, finest_max=20.0)
