import warnings

import numpy as np
import pytest

from sigflow import (
    CLOSED,
    BoundaryData,
    FlowState,
    ForceLaw,
    MassField,
    RoadGrid,
    advance_characteristics,
    estimate_breakdown_time,
    initial_state,
    reconstruct_physical,
    to_mass_coordinates,
)
from sigflow.lagrangian import (
    RHO_FLOOR,
    BreakdownError,
    _gradient_operator,
    _positions,
)
from tests.conftest import shipped_scenario


def reference_advance_characteristics(field, inflow, force, t_end, n_steps):
    """advance_characteristics written with one numpy expression per formula,
    as it was before its RK4 step was made to work in place on preallocated
    buffers; advance_characteristics must match it bit for bit wherever both
    return, and raise the same error where it raises."""
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
        if pending >= spacing:
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
        assert len(out.xi) > len(f.xi)
        assert out.a_integral == pytest.approx(5.0)  # a = 1.0 veh/s
        assert out.xi[0] >= 0.0

    def test_breakdown_detected_at_positivity_floor(self):
        # strong expansion thins the density below the validity floor
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

    def test_rejects_bad_horizon(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.zeros_like(x))
        f = to_mass_coordinates(s)
        with pytest.raises(ValueError):
            advance_characteristics(f, CLOSED, None, -1.0, 10)
        with pytest.raises(ValueError):
            advance_characteristics(f, CLOSED, None, 1.0, 0)


    def test_nan_stops_the_first_step_with_a_nan_density(self):
        # v_in turns NaN after t = 0.55: the influx of the step ending at
        # t = 0.6 shifts every xi to NaN, so the next step's densities are NaN
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 10.0),
                       n=20)
        inflow = BoundaryData(rho_in=lambda t: 0.1,
                              v_in=lambda t: np.nan if t > 0.55 else 10.0)
        with pytest.raises(BreakdownError, match=r"at t = 0\.7"):
            advance_characteristics(to_mass_coordinates(s), inflow, None, 1.0, 10)

    def test_density_blow_up_stops_the_step_it_happens_in(self):
        # an inflow faster than the road compresses the first samples until
        # rho^2 * dv/dxi overflows within the first second of the 8 s horizon
        s = shipped_scenario(n_cells=600)
        field = to_mass_coordinates(initial_state(s))
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 30.0 + t)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BreakdownError, match=r"became infinite at t = 0\.\d+:"):
                advance_characteristics(field, inflow, s.force, 8.0, 800)

    def test_density_blow_up_raises_no_numpy_warning(self):
        # with RuntimeWarning raised as an error (as CI's smoke step runs),
        # the overflow in the blow-up step must not pre-empt BreakdownError
        s = shipped_scenario(n_cells=600)
        field = to_mass_coordinates(initial_state(s))
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 30.0 + t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BreakdownError, match=r"became infinite at t = 0\.\d+:"):
                advance_characteristics(field, inflow, s.force, 8.0, 800)


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
        for name in ("xi", "rho_hat", "v_hat", "t", "a_integral"):
            g, e = bits(getattr(got, name), getattr(expected, name))
            assert np.array_equal(g, e), name
        entered = got.xi.size - args[0].xi.size
        if case == "fast_inflow":
            assert entered > args[4] // 2
        if case == "two_samples":
            assert entered > 0

    @pytest.mark.parametrize("xi", [
        0.75 * np.arange(40.0),
        np.cumsum(np.random.default_rng(4).uniform(0.1, 1.0, 40)),
        np.array([0.0, 0.3]),
        np.array([0.0, 0.2, 0.7]),
    ], ids=["uniform", "non_uniform", "two", "three"])
    def test_gradient_operator_is_np_gradient(self, xi):
        grad = _gradient_operator(xi)
        rng = np.random.default_rng(7)
        for f in (np.sin(xi), rng.normal(size=xi.size)):
            got = grad(f, np.empty_like(f))
            assert np.array_equal(*bits(got, np.gradient(f, xi)))


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
