import warnings
from dataclasses import replace

import numpy as np
import pytest

from sigflow import (
    CLOSED,
    BoundaryData,
    FlowState,
    ForceLaw,
    MassField,
    RoadGrid,
    ScenarioError,
    advance_characteristics,
    estimate_breakdown_time,
    initial_state,
    reconstruct_physical,
    to_mass_coordinates,
)
from sigflow import lagrangian
from sigflow.lagrangian import (
    RHO_FLOOR,
    BreakdownError,
    _XiDifference,
    _positions,
    oracle_errors,
)
from tests.conftest import reference_scenario, shipped_scenario


def xi_difference(f, dx):
    """np.gradient(f, xi) for an xi with spacings dx, by numpy's formulas for
    uneven spacing: three-point centred inside, one-sided at both ends."""
    dx1, dx2 = dx[:-1], dx[1:]
    a = -dx2 / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    inside = a * f[:-2] + b * f[1:-1] + c * f[2:]
    return np.concatenate(([(f[1] - f[0]) / dx[0]], inside, [(f[-1] - f[-2]) / dx[-1]]))


def reference_advance_characteristics(field, inflow, force, t_end, n_steps):
    """advance_characteristics written with one numpy expression per formula:
    RK4 for v, and for the specific volume tau = 1/rho the RK4 step of the
    linear dtau/dt = dv/dxi, with the xi-difference rebuilt every step from
    the stored spacings; rho = rho0 / (1 + rho0 * dtau).  advance_characteristics
    must match it bit for bit wherever both return, and raise the same error
    where it raises."""
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t: float) -> float:
        return float(inflow.rho_in(t)) * float(inflow.v_in(t))

    def rate(v_s):
        return force(v_s) if force is not None else np.zeros_like(v_s)

    xi = np.array(field.xi, dtype=float)
    rho0 = np.array(field.rho_hat, dtype=float)
    v = np.array(field.v_hat, dtype=float)
    dtau = np.zeros_like(xi)
    dx = np.diff(xi)
    spacing = float(np.median(dx))

    dt = (t_end - field.t) / n_steps
    t = field.t
    pending = 0.0
    for _ in range(n_steps):
        v1 = v
        k1 = rate(v1)
        v2 = v + 0.5 * dt * k1
        k2 = rate(v2)
        v3 = v + 0.5 * dt * k2
        k3 = rate(v3)
        v4 = v + dt * k3
        k4 = rate(v4)
        v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        dtau = dtau + (dt / 6.0) * xi_difference(v1 + 2 * v2 + 2 * v3 + v4, dx)

        dA = 0.5 * dt * (a(t) + a(t + dt))
        t = t + dt
        if not np.isfinite(dA):
            raise BreakdownError(f"boundary mass influx became non-finite at t = {t}")
        xi = xi + dA
        pending += dA

        if np.any(1.0 + rho0 * dtau <= 0.0):
            raise BreakdownError(
                f"density became infinite at t = {t}: faster vehicles have "
                "caught up with slower ones and formed a point mass"
            )
        if not np.all(rho0 / (1.0 + rho0 * dtau) > RHO_FLOOR):
            raise BreakdownError(
                f"density reached the positivity floor at t = {t}: characteristics "
                "have crossed in physical space"
            )
        if pending >= spacing:
            dx = np.concatenate(([xi[0]], dx))
            xi = np.concatenate(([0.0], xi))
            rho0 = np.concatenate(([float(inflow.rho_in(t))], rho0))
            dtau = np.concatenate(([0.0], dtau))
            v = np.concatenate(([float(inflow.v_in(t))], v))
            pending = 0.0
            if rho0[0] <= RHO_FLOOR:
                raise BreakdownError(
                    f"boundary density vanished at entry time t = {t}"
                )

    return MassField(
        xi=xi, rho_hat=rho0 / (1.0 + rho0 * dtau), v_hat=v, t=t, x_origin=field.x_origin
    )


def reference_rho_form(field, inflow, force, t_end, n_steps):
    """The density form of the reference: RK4 on (rho, v) with
    drho/dt = -rho^2 * dv/dxi, np.gradient taken on the shifted xi of every
    stage.  advance_characteristics must give its xi, v_hat and t bit for
    bit, and its rho_hat up to the rho form's own time error."""
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t: float) -> float:
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
        pending += dA

        if np.any(rho <= RHO_FLOOR):
            raise BreakdownError(
                f"density reached the positivity floor at t = {t}: characteristics "
                "have crossed in physical space"
            )
        if pending >= spacing:
            xi = np.concatenate(([0.0], xi))
            rho = np.concatenate(([float(inflow.rho_in(t))], rho))
            v = np.concatenate(([float(inflow.v_in(t))], v))
            pending = 0.0
            if rho[0] <= RHO_FLOOR:
                raise BreakdownError(
                    f"boundary density vanished at entry time t = {t}"
                )

    return MassField(xi=xi, rho_hat=rho, v_hat=v, t=t, x_origin=field.x_origin)


def bits(*values):
    """The float64 bit patterns of arrays and scalars, for exact comparison."""
    return [np.asarray(x, dtype=float).view(np.int64) for x in values]


def state_from(rho_fn, v_fn, n=200, x_max=100.0):
    g = RoadGrid(0.0, x_max, n)
    x = g.centers
    return FlowState(g, rho_fn(x), v_fn(x), 0.0)


class TestToMassCoordinates:
    def test_constant_density_is_linear(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 5.0))
        f = to_mass_coordinates(s)
        assert f.xi[0] == 0.0
        np.testing.assert_allclose(f.xi[1:], 0.1 * s.grid.centers, rtol=1e-14)

    def test_linear_density_closed_form(self):
        # rho = 0.1 + 0.05 x on [0, 1]: xi(x) = 0.1 x + 0.025 x^2
        s = state_from(lambda x: 0.1 + 0.05 * x, lambda x: np.full_like(x, 1.0),
                       n=1000, x_max=1.0)
        f = to_mass_coordinates(s)
        x = np.concatenate(([0.0], s.grid.centers))
        # the upstream edge sample carries the first cell value, so the first
        # trapezoid panel is off by O(dx^2); everything else is closer
        np.testing.assert_allclose(f.xi, 0.1 * x + 0.025 * x * x, rtol=0, atol=1e-8)

    def test_rejects_vacuum(self):
        s = state_from(lambda x: np.where(x > 50.0, 0.1, 0.0),
                       lambda x: np.zeros_like(x))
        with pytest.raises(ValueError, match="rho_hat must be strictly positive: a vacuum"):
            to_mass_coordinates(s)

    def test_xi_strictly_increasing(self):
        rng = np.random.default_rng(2)
        s = state_from(lambda x: 0.05 + 0.2 * np.abs(np.sin(x / 7.0)) + 0.01,
                       lambda x: rng.uniform(0.0, 10.0, x.shape))
        f = to_mass_coordinates(s)
        assert np.all(np.diff(f.xi) > 0)


class TestInverseMap:
    def test_positions_invert_the_forward_map_exactly(self):
        rng = np.random.default_rng(9)
        s = state_from(lambda x: 0.05 + 0.1 * np.abs(np.cos(x / 11.0)) + 0.02,
                       lambda x: rng.uniform(0.0, 5.0, x.shape))
        f = to_mass_coordinates(s)
        x = _positions(f)
        np.testing.assert_allclose(
            x, np.concatenate(([0.0], s.grid.centers)), rtol=0, atol=1e-10
        )


class TestAdvance:
    def test_closed_system_at_rest_is_identity(self):
        s = state_from(lambda x: 0.1 + 0.02 * np.sin(x / 9.0),
                       lambda x: np.zeros_like(x))
        f = to_mass_coordinates(s)
        out = advance_characteristics(f, CLOSED, None, 4.0, 100)
        np.testing.assert_array_equal(out.xi, f.xi)
        np.testing.assert_array_equal(out.rho_hat, f.rho_hat)
        np.testing.assert_array_equal(out.v_hat, f.v_hat)
        assert out.t == pytest.approx(4.0, abs=1e-12)

    def test_constant_force_integrates_exactly(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 5.0))
        f = to_mass_coordinates(s)
        out = advance_characteristics(f, CLOSED, ForceLaw(1.5, 16.0, 4.0), 2.0, 50)
        np.testing.assert_allclose(out.v_hat, 8.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.rho_hat, 0.1, rtol=0, atol=1e-12)

    def test_boundary_characteristics_enter(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 10.0))
        f = to_mass_coordinates(s)
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 10.0)
        out = advance_characteristics(f, inflow, None, 5.0, 500)
        entered = out.xi.size - f.xi.size
        assert entered > 0
        assert out.xi[entered] == pytest.approx(5.0)  # a = 1.0 veh/s
        assert out.xi[0] >= 0.0

    def test_breakdown_detected_at_positivity_floor(self):
        # strong expansion thins the density below the validity floor: dv/dxi
        # is 1e10 everywhere, so tau = 5e11 + 1e10 t reaches 1/RHO_FLOOR at
        # t = 50 exactly (the density form, whose step misses 1/tau, read 60)
        field = MassField(
            xi=np.linspace(0.0, 1e-9, 50),
            rho_hat=np.full(50, 2e-12),
            v_hat=np.linspace(0.0, 10.0, 50),
            t=0.0,
            x_origin=0.0,
        )
        with pytest.raises(BreakdownError) as got:
            advance_characteristics(field, CLOSED, None, 100.0, 10)
        with pytest.raises(BreakdownError) as expected:
            reference_advance_characteristics(field, CLOSED, None, 100.0, 10)
        assert str(got.value) == str(expected.value)  # same step, same message
        assert "positivity floor at t = 50.0:" in str(got.value)

    def test_rejects_bad_horizon(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.zeros_like(x))
        f = to_mass_coordinates(s)
        with pytest.raises(ValueError):
            advance_characteristics(f, CLOSED, None, -1.0, 10)
        with pytest.raises(ValueError):
            advance_characteristics(f, CLOSED, None, 1.0, 0)


    def test_nan_stops_the_first_step_with_a_nan_density(self):
        # v_in turns NaN after t = 0.55: the influx of the step ending at
        # t = 0.6 is NaN, which stops that step before any xi or density takes it
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 10.0),
                       n=20)
        inflow = BoundaryData(rho_in=lambda t: 0.1,
                              v_in=lambda t: np.nan if t > 0.55 else 10.0)
        with pytest.raises(BreakdownError, match=r"at t = 0\.6"):
            advance_characteristics(to_mass_coordinates(s), inflow, None, 1.0, 10)

    def test_an_entering_density_at_the_floor_stops_the_step(self):
        # rho_in * v_in = 0.1 veh/s lets a sample enter every 0.5 veh (5 s),
        # but at a density of 1e-13, below RHO_FLOOR.  oracle_errors refuses
        # such an inflow before it builds the reference, so only a direct
        # call reaches this check
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 10.0),
                       n=20)
        inflow = BoundaryData(rho_in=lambda t: 1e-13, v_in=lambda t: 1e12)
        with pytest.raises(BreakdownError, match=r"vanished at entry time t = 5\.0$"):
            advance_characteristics(to_mass_coordinates(s), inflow, None, 10.0, 10)

    def test_density_blow_up_stops_the_step_it_happens_in(self):
        # an inflow faster than the road compresses the first samples until
        # their tau reaches 0 (density became infinite), at t = 0.1 of the 8 s
        # horizon
        s = shipped_scenario(n_cells=600)
        field = to_mass_coordinates(initial_state(s))
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 30.0 + t)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BreakdownError, match=r"became infinite at t = 0\.\d+:"):
                advance_characteristics(field, inflow, s.force, 8.0, 800)

    def test_density_blow_up_raises_no_numpy_warning(self):
        # with RuntimeWarning raised as an error (as CI's smoke step runs),
        # the blow-up must end in BreakdownError, not in a numpy warning
        # raised first; tau reaches 0 there without overflowing
        s = shipped_scenario(n_cells=600)
        field = to_mass_coordinates(initial_state(s))
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 30.0 + t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BreakdownError, match=r"became infinite at t = 0\.\d+:"):
                advance_characteristics(field, inflow, s.force, 8.0, 800)

    def test_overflowing_inflow_raises_no_numpy_warning(self):
        # the shipped file's reference (8 x 150 samples, 400 steps to the
        # handoff) with rho_in = 1e200: each step's influx of 2e199 rounds
        # every sample's xi to one value, and an entering sample's stencil
        # d * (d + d0) overflows inside the loop.  The loop's np.errstate keeps
        # that silent under warnings-as-errors, and the collapsed xi is
        # refused when the result is built, as a breakdown naming the inflow
        s = shipped_scenario(n_cells=1200)
        field = to_mass_coordinates(initial_state(s))
        inflow = BoundaryData(rho_in=lambda t: 1e200, v_in=s.inflow.v_in)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BreakdownError, match=r"^profiles\.rho_in: the mass influx "):
                advance_characteristics(field, inflow, s.force, 8.0, 400)


def parity_case(case):
    """(field, inflow, force, t_end, n_steps) of one parity case."""
    s = shipped_scenario(n_cells=600)
    field = to_mass_coordinates(initial_state(s))
    inflow, force = s.inflow, s.force
    t_end = s.timing.t0 - s.timing.tau0
    n_steps = 800
    if case == "no_inflow":
        inflow = CLOSED
    elif case == "no_force":
        force = None
    elif case == "fast_inflow":
        # rho_in * v_in ~ 10 veh/s: dA = 0.1 veh per step against a sample
        # spacing of about 0.08 veh, so a characteristic enters on most steps
        inflow = BoundaryData(rho_in=lambda t: 1.0 + 0.1 * np.sin(t),
                              v_in=lambda t: 10.0)
    elif case == "uniform":
        # exactly equal steps of xi take np.gradient's scalar-spacing branch;
        # at a spacing of 0.5 both branches are exact and cannot be told apart
        k = 50
        field = MassField(0.75 * np.arange(k), np.full(k, 0.1),
                          5.0 + np.sqrt(np.arange(k)), 0.0, 0.0)
        inflow, t_end, n_steps = CLOSED, 2.0, 100
    elif case == "two_samples":
        field = MassField(np.array([0.0, 0.3]), np.array([0.1, 0.12]),
                          np.array([5.0, 6.0]), 0.0, 0.0)
        inflow = BoundaryData(rho_in=lambda t: 0.5, v_in=lambda t: 3.0)
        t_end, n_steps = 2.0, 50
    return field, inflow, force, t_end, n_steps


class TestAdvanceParity:
    @pytest.mark.parametrize("case", ["shipped", "no_inflow", "no_force", "fast_inflow",
                                      "uniform", "two_samples"])
    def test_bitwise_equal_to_reference(self, case):
        args = parity_case(case)
        got = advance_characteristics(*args)
        expected = reference_advance_characteristics(*args)
        for name in ("xi", "rho_hat", "v_hat", "t"):
            g, e = bits(getattr(got, name), getattr(expected, name))
            assert np.array_equal(g, e), name
        entered = got.xi.size - args[0].xi.size
        if case == "fast_inflow":
            assert entered > args[4] // 2
        if case == "two_samples":
            assert entered > 0

    @pytest.mark.parametrize("case", ["shipped", "no_inflow", "no_force", "fast_inflow",
                                      "uniform", "two_samples"])
    def test_density_agrees_with_the_rho_form(self, case):
        # the same samples, velocities and times as RK4 on (rho, v), bit for
        # bit; the densities differ by the rho form's own time error.  On
        # two_samples (dt = 0.04 on 2-12 samples) that error is large: 1.02e-6
        # against the rho form at 8 x n_steps.  The tau form sits 1.02e-6 from
        # the rho form at n_steps and 2.6e-10 from it at 8 x n_steps, so it is
        # held to 2 x and 0.01 x the measured time error (margins 2 and ~40)
        field, inflow, force, t_end, n_steps = args = parity_case(case)
        got = advance_characteristics(*args)
        rho_form = reference_rho_form(*args)
        for name in ("xi", "v_hat", "t"):
            g, e = bits(getattr(got, name), getattr(rho_form, name))
            assert np.array_equal(g, e), name

        def rel(a, b):
            return np.max(np.abs(a.rho_hat - b.rho_hat) / b.rho_hat)

        if case != "two_samples":
            assert rel(got, rho_form) <= 1e-12
            return
        finer = reference_rho_form(field, inflow, force, t_end, 8 * n_steps)
        assert finer.xi.size == got.xi.size
        time_error = rel(rho_form, finer)
        assert 1e-7 < time_error < 1e-5
        assert rel(got, rho_form) <= 2.0 * time_error
        assert rel(got, finer) <= 0.01 * time_error

    @pytest.mark.parametrize("xi", [
        0.75 * np.arange(40.0),
        np.cumsum(np.random.default_rng(4).uniform(0.1, 1.0, 40)),
        np.array([0.0, 0.3]),
        np.array([0.0, 0.2, 0.7]),
    ], ids=["uniform", "non_uniform", "two", "three"])
    def test_gradient_operator_is_np_gradient(self, xi):
        # built from every spacing, or from all but the first with that one
        # prepended: np.gradient bit for bit on uneven spacing.  On even
        # spacing np.gradient takes its scalar branch, (f[2:] - f[:-2]) / (2 dx),
        # so there the two agree to a few ulp of the differenced terms
        dx = np.diff(xi)
        grads = [_XiDifference(dx, 0)]
        if xi.size > 2:
            grads.append(_XiDifference(dx[1:], 1))
            grads[-1].prepend(dx[0])
        rng = np.random.default_rng(7)
        for grad in grads:
            for f in (np.sin(xi), rng.normal(size=xi.size)):
                got, expected = grad(f, np.empty_like(f)), np.gradient(f, xi)
                if (dx == dx[0]).all() and xi.size > 2:
                    ulp = np.finfo(float).eps * np.max(np.abs(f)) / dx[0]
                    np.testing.assert_allclose(got, expected, rtol=0, atol=4 * ulp)
                else:
                    assert np.array_equal(*bits(got, expected))


def per_sample_advance(field, inflow, force, t_end, n_steps):
    """advance_characteristics with v stepped on every sample's own row: the
    same buffers, operations and checks, in the same order, with no sharing
    between samples of one velocity."""
    if not t_end > field.t:
        raise ValueError(f"t_end = {t_end} must exceed field time {field.t}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def a(t):
        return float(inflow.rho_in(t)) * float(inflow.v_in(t))

    rate = np.zeros_like if force is None else force
    s = n_steps + 1  # rows: xi, rho0, D, v, stage velocity, their sum, scratch
    buf = np.zeros((7, s + field.xi.size))
    buf[[0, 1, 3], s:] = field.xi, field.rho_hat, field.v_hat
    grad = _XiDifference(np.diff(field.xi), n_steps)
    spacing = float(np.median(np.diff(field.xi)))
    dt = (t_end - field.t) / n_steps
    h = 0.5 * dt
    t, pending = field.t, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            xi, rho0, dtau, v, vs, vsum, tmp = buf[:, s:]
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

            q = np.add(np.multiply(rho0, dtau, out=tmp), 1.0, out=tmp)
            if np.fmin.reduce(q) <= 0.0:
                raise BreakdownError(f"density became infinite at t = {t}: faster vehicles "
                                     "have caught up with slower ones and formed a point mass")
            if not np.minimum.reduce(np.divide(rho0, q, out=tmp)) > RHO_FLOOR:
                raise BreakdownError(f"density reached the positivity floor at t = {t}: "
                                     "characteristics have crossed in physical space")
            if pending >= spacing:
                grad.prepend(xi[0])
                s -= 1
                buf[:4, s] = 0.0, float(inflow.rho_in(t)), 0.0, float(inflow.v_in(t))
                pending = 0.0
                if buf[1, s] <= RHO_FLOOR:
                    raise BreakdownError(f"boundary density vanished at entry time t = {t}")

    xi, rho0, dtau, v = buf[:4, s:].copy()
    if not np.minimum.reduce(np.diff(xi)) > 0:
        raise BreakdownError("profiles.rho_in: the mass influx rho_in * v_in is too large for "
                             "the reference's mass coordinate: it rounds away the samples' spacing")
    return MassField(xi, rho0 / (1.0 + rho0 * dtau), v, t, field.x_origin)


def bitwise_case(case):
    """(field, inflow, force, t_end, n_steps) of one TestAdvanceBitwise case."""
    s = shipped_scenario(n_cells=600)
    field = to_mass_coordinates(initial_state(s))
    inflow, force, t_end, n_steps = s.inflow, s.force, 8.0, 400
    k = field.xi.size
    # slower upstream, so no characteristics cross: a sample enters on every
    # step, each at its own velocity
    varying = BoundaryData(rho_in=lambda t: 0.5, v_in=lambda t: 10.0 - 0.1 * t)
    if case == "signed_zeros":
        # a rate that reads the sign of zero: -0.0 and +0.0 must not share a slot
        field = replace(field, v_hat=np.where(np.arange(k) < k // 2, -0.0, 0.0))
        force, inflow = (lambda v: np.copysign(0.25, v)), CLOSED
    elif case == "one_ulp_apart":
        # three blocks of velocities, one float apart
        field = replace(field, v_hat=10.0 + np.spacing(10.0) * (np.arange(k) * 3 // k))
        inflow = varying
    elif case == "all_distinct":
        field = replace(field, v_hat=10.0 + 0.5 * np.sin(np.arange(k) / 500.0))
    elif case == "varying_inflow":
        inflow = varying
    elif case == "no_force":
        force, inflow = None, varying
    return field, inflow, force, t_end, n_steps


def breakdown_case(case):
    """(field, inflow, force, t_end, n_steps, message) of one BreakdownError case."""
    k = 200
    field = MassField(np.linspace(0.0, 10.0, k), np.full(k, 0.1), np.full(k, 10.0), 0.0, 0.0)
    force = ForceLaw(1.0, 16.0, 4.0)
    if case == "influx":
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: np.nan if t > 0.55 else 10.0)
        return field, inflow, force, 1.0, 10, "mass influx became non-finite at t = 0.6"
    if case == "infinite":
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 30.0 + t)
        return field, inflow, force, 8.0, 800, "density became infinite at t = 0.07:"
    if case == "floor":
        field = MassField(np.linspace(0.0, 1e-9, 50), np.full(50, 2e-12),
                          np.linspace(0.0, 10.0, 50), 0.0, 0.0)
        return field, CLOSED, None, 100.0, 10, "positivity floor at t = 50.0:"
    if case == "entry":
        inflow = BoundaryData(rho_in=lambda t: 1e-13, v_in=lambda t: 1e12)
        return field, inflow, force, 10.0, 10, "vanished at entry time t = 1.0"
    inflow = BoundaryData(rho_in=lambda t: 1e200, v_in=lambda t: 10.0)
    return field, inflow, force, 8.0, 400, "profiles.rho_in: the mass influx"


class TestAdvanceBitwise:
    """v is stepped once per distinct initial velocity and entering sample:
    every output bit and every breakdown equals stepping each sample alone."""

    @pytest.mark.parametrize("case", ["uniform", "signed_zeros", "one_ulp_apart",
                                      "all_distinct", "varying_inflow", "no_force"])
    def test_bitwise_equal_to_stepping_each_sample(self, case):
        args = bitwise_case(case)
        got = advance_characteristics(*args)
        expected = per_sample_advance(*args)
        for name in ("xi", "rho_hat", "v_hat", "t"):
            g, e = bits(getattr(got, name), getattr(expected, name))
            assert np.array_equal(g, e), name
        assert got.xi.size > args[0].xi.size or args[1] is CLOSED
        if case == "signed_zeros":  # the rate reads the signs apart
            assert np.unique(got.v_hat).size == 2

    @pytest.mark.parametrize("case", ["influx", "infinite", "floor", "entry", "rounded_xi"])
    def test_each_breakdown_is_raised_alike(self, case):
        *args, message = breakdown_case(case)
        with pytest.raises(BreakdownError) as got:
            advance_characteristics(*args)
        with pytest.raises(BreakdownError) as expected:
            per_sample_advance(*args)
        assert str(got.value) == str(expected.value)
        assert message in str(got.value)


class TestReconstruct:
    def test_round_trip_at_grid_points(self):
        rng = np.random.default_rng(21)
        s = state_from(lambda x: 0.08 + 0.04 * np.abs(np.sin(x / 13.0)) + 0.01,
                       lambda x: 3.0 + rng.uniform(0.0, 4.0, x.shape))
        f = to_mass_coordinates(s)
        back = reconstruct_physical(f, s.grid)
        np.testing.assert_allclose(back.rho, s.rho, rtol=1e-10)
        np.testing.assert_allclose(back.v, s.v, rtol=1e-10)

    def test_constant_field_spans_expected_length(self):
        field = MassField(
            xi=np.linspace(0.0, 10.0, 101),
            rho_hat=np.full(101, 0.1),
            v_hat=np.zeros(101),
            t=0.0,
            x_origin=0.0,
        )
        x = _positions(field)
        assert x[-1] == pytest.approx(100.0)


class TestOracleReferenceSteps:
    def test_shipped_reference_does_not_depend_on_the_step_count(self):
        # verify-oracle at n = 600 builds its reference on 8n samples with 400
        # steps (t_end / 0.02); 800 steps must give the same samples and the
        # same reconstruction on both grids it is compared on.  Measured: max
        # |drho| 9.6e-13 on 600 cells and 2.1e-14 on 1200.  (At n = 150 the
        # two step counts seed different numbers of entering samples.)
        s = shipped_scenario(n_cells=4800)
        t_end = s.timing.t0 - s.timing.tau0
        field = to_mass_coordinates(initial_state(s))
        coarse, fine = (advance_characteristics(field, s.inflow, s.force, t_end, n_steps)
                        for n_steps in (400, 800))
        assert coarse.xi.size == fine.xi.size
        for n in (600, 1200):
            grid = RoadGrid(s.grid.x_min, s.grid.x_max, n)
            a, b = reconstruct_physical(coarse, grid), reconstruct_physical(fine, grid)
            assert np.max(np.abs(a.rho - b.rho)) <= 1e-10
            assert np.max(np.abs(a.v - b.v)) <= 1e-10


class TestBreakdownEstimate:
    def test_nondecreasing_velocity_never_breaks(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: 5.0 + 0.01 * x)
        assert estimate_breakdown_time(s) == np.inf

    def test_linear_deceleration(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: 10.0 - 0.1 * x)
        assert estimate_breakdown_time(s) == pytest.approx(10.0, rel=1e-6)

    def test_local_compression_sets_the_time(self):
        s = state_from(lambda x: np.full_like(x, 0.1),
                       lambda x: 10.0 + np.sin(2 * np.pi * x / 100.0))
        expect = 1.0 / (2 * np.pi / 100.0)
        assert estimate_breakdown_time(s) == pytest.approx(expect, rel=1e-3)


class TestMassFieldValidation:
    def test_rejects_non_monotone_xi(self):
        with pytest.raises(ValueError):
            MassField(np.array([0.0, 2.0, 1.0]), np.full(3, 0.1), np.zeros(3), 0.0, 0.0)

    @pytest.mark.parametrize("xi, rho, v", [
        ([0.0, np.nan, 2.0], [0.1, 0.1, 0.1], [1.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.1, np.nan, 0.1], [1.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.1, np.inf, 0.1], [1.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.1, 0.1, 0.1], [1.0, np.inf, 1.0]),
    ], ids=["nan_xi", "nan_rho", "inf_rho", "inf_v"])
    def test_rejects_non_finite(self, xi, rho, v):
        with pytest.raises(ValueError, match="finite"):
            MassField(np.array(xi), np.array(rho), np.array(v), 0.0, 0.0)

    def test_rejects_a_single_sample(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            MassField(np.array([0.0]), np.array([0.1]), np.array([1.0]), 0.0, 0.0)

    def test_rejects_non_positive_density(self):
        with pytest.raises(ValueError, match="rho_hat must be strictly positive: a vacuum"):
            MassField(np.arange(3.0), np.array([0.1, 0.0, 0.1]), np.zeros(3), 0.0, 0.0)


def reference_read_times(t_end: float, n_steps: int) -> list[float]:
    """The times advance_characteristics reads the inflow at, from 0 to t_end."""
    dt, t = t_end / n_steps, 0.0
    times = [t]
    for _ in range(n_steps):
        t = t + dt
        times.append(t)
    return times


class TestOracleInflow:
    """oracle_errors refuses an inflow density at or below RHO_FLOOR, or an
    inflow velocity at or below 0, at any time the reference reads the inflow:
    no traffic would enter the reference then.  The refusal names the first
    such time and comes before any reference step or solve."""

    @pytest.fixture()
    def unsolved(self, monkeypatch):
        """The shipped scenario with the given inflow, whose reference steps and
        solves raise AssertionError."""
        def never(*args, **kwargs):
            raise AssertionError("the reference was stepped or a run solved")
        monkeypatch.setattr(lagrangian, "advance_characteristics", never)
        monkeypatch.setattr(lagrangian, "solve_hyperbolic", never)
        s = shipped_scenario()
        return lambda **inflow: replace(s, inflow=replace(s.inflow, **inflow))

    def refused(self, scenario) -> list[str]:
        with pytest.raises(ScenarioError) as exc:
            oracle_errors(scenario)
        return exc.value.violations

    @pytest.mark.parametrize("rho", [0.0, RHO_FLOOR])
    def test_an_inflow_density_at_or_below_the_floor_is_refused(self, unsolved, rho):
        assert self.refused(unsolved(rho_in=lambda t: rho)) == [
            f"profiles.rho_in: inflow density {rho:g} at t = 0 lies at or below the "
            "mass-coordinate reference's positivity floor 1e-12"]

    def test_an_inflow_density_above_the_floor_is_not_refused(self, unsolved):
        with pytest.raises(AssertionError, match="stepped or a run solved"):
            oracle_errors(unsolved(rho_in=lambda t: 2.0 * RHO_FLOOR))

    def test_both_refusals_are_reported_together(self, unsolved):
        assert self.refused(unsolved(rho_in=lambda t: 0.0, v_in=lambda t: 0.0)) == [
            "profiles.rho_in: inflow density 0 at t = 0 lies at or below the "
            "mass-coordinate reference's positivity floor 1e-12",
            "profiles.v_in: inflow velocity 0 at t = 0 is not positive, so no traffic "
            "enters the mass-coordinate reference"]

    def test_the_inflow_is_checked_at_the_times_the_reference_reads_it(self, unsolved):
        # the shipped reference takes 400 steps to its handoff at t = 8; v_in
        # stops at one instant: the 137th step's end, or the float after it
        stop = reference_read_times(8.0, 400)[137]

        def stopping_at(instant):
            return unsolved(v_in=lambda t: 0.0 if t == instant else 10.0)

        assert self.refused(stopping_at(stop)) == [
            f"profiles.v_in: inflow velocity 0 at t = {stop:g} is not positive, so no "
            "traffic enters the mass-coordinate reference"]
        with pytest.raises(AssertionError, match="stepped or a run solved"):
            oracle_errors(stopping_at(np.nextafter(stop, np.inf)))

    def test_the_initial_density_is_judged_first_and_the_horizon_after(self, unsolved):
        vacuum = replace(unsolved(rho_in=lambda t: 0.0),
                         rho0=lambda x: np.zeros_like(np.asarray(x, float)))
        assert [v.split(":")[0] for v in self.refused(vacuum)] == ["profiles.rho0"]
        # this velocity puts the horizon past half the crossing estimate
        past = replace(reference_scenario(v0_amp=8.0), inflow=BoundaryData(
            rho_in=lambda t: 0.08, v_in=lambda t: 0.0))
        assert [v.split(":")[0] for v in self.refused(past)] == ["profiles.v_in"]
