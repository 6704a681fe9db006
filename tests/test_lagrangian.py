import numpy as np
import pytest

from sigflow import (
    BoundaryData,
    FlowState,
    ForceLaw,
    MassField,
    RoadGrid,
    advance_characteristics,
    estimate_breakdown_time,
    reconstruct_physical,
    to_mass_coordinates,
)
from sigflow.lagrangian import BreakdownError, PositivityError, _positions


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
        with pytest.raises(PositivityError):
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
        out = advance_characteristics(f, None, None, 4.0, 100)
        np.testing.assert_array_equal(out.xi, f.xi)
        np.testing.assert_array_equal(out.rho_hat, f.rho_hat)
        np.testing.assert_array_equal(out.v_hat, f.v_hat)
        assert out.t == pytest.approx(4.0, abs=1e-12)

    def test_constant_force_integrates_exactly(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.full_like(x, 5.0))
        f = to_mass_coordinates(s)
        out = advance_characteristics(f, None, ForceLaw(1.5, 16.0, 4.0), 2.0, 50)
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
        with pytest.raises(BreakdownError):
            advance_characteristics(field, None, None, 100.0, 10)

    def test_rejects_bad_horizon(self):
        s = state_from(lambda x: np.full_like(x, 0.1), lambda x: np.zeros_like(x))
        f = to_mass_coordinates(s)
        with pytest.raises(ValueError):
            advance_characteristics(f, None, None, -1.0, 10)
        with pytest.raises(ValueError):
            advance_characteristics(f, None, None, 1.0, 0)


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

    def test_rejects_non_positive_density(self):
        with pytest.raises(PositivityError):
            MassField(np.arange(3.0), np.array([0.1, 0.0, 0.1]), np.zeros(3), 0.0, 0.0)
