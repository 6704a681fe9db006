import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from sigflow import (
    BoundaryData,
    FlowState,
    ForceLaw,
    RoadGrid,
    ScenarioError,
    SignalTiming,
    default_braking_profile,
    initial_state,
    validate_scenario,
)
from tests.conftest import reference_scenario


class TestRoadGrid:
    def test_geometry(self):
        g = RoadGrid(0.0, 100.0, 50)
        assert g.dx == 2.0
        assert g.centers[0] == 1.0
        assert g.centers[-1] == 99.0
        assert g.faces[0] == 0.0 and g.faces[-1] == 100.0
        assert len(g.faces) == 51

    def test_nearest_face(self):
        g = RoadGrid(-1.0, 2.0, 7)
        for x in (-1.0, -0.3, 0.5, 1.0 / 3.0, 2.0):
            assert g.nearest_face(x) == g.x_min + g.face_index(x) * g.dx
        assert g.nearest_face(0.6) == g.faces[4]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RoadGrid(10.0, 10.0, 8)
        with pytest.raises(ValueError):
            RoadGrid(0.0, 100.0, 3)

    def test_rejects_a_count_no_array_can_index(self):
        # 10**400 used to pass, and dx overflowed converting it to a float
        biggest = int(np.iinfo(np.intp).max)
        assert RoadGrid(0.0, 100.0, biggest).dx == 100.0 / biggest
        for n in (biggest + 1, 10**400):
            with pytest.raises(ValueError, match=f"n_cells must be <= {biggest}"):
                RoadGrid(0.0, 100.0, n)

    def test_accepts_a_numpy_integer_count(self):
        # the count check refuses floats and bools, not numpy integers
        assert RoadGrid(0.0, 100.0, np.int64(8)).dx == 12.5


class TestFlowState:
    def test_mass(self):
        g = RoadGrid(0.0, 10.0, 5)
        s = FlowState(g, np.full(5, 0.1), np.zeros(5), 0.0)
        assert s.total_mass == pytest.approx(1.0)

    def test_rejects_negative_density(self):
        g = RoadGrid(0.0, 10.0, 5)
        with pytest.raises(ValueError):
            FlowState(g, np.array([0.1, -0.1, 0.1, 0.1, 0.1]), np.zeros(5), 0.0)

    def test_clamps_velocity_noise(self):
        g = RoadGrid(0.0, 10.0, 5)
        v = np.array([1.0, -1e-12, 0.0, 2.0, 3.0])
        s = FlowState(g, np.full(5, 0.1), v, 0.0)
        assert s.v[1] == 0.0

    @pytest.mark.parametrize("field", ["rho", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        g = RoadGrid(0.0, 10.0, 5)
        fields = {"rho": np.full(5, 0.1), "v": np.full(5, 1.0)}
        fields[field][2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            FlowState(g, fields["rho"], fields["v"], 0.0)

    def test_rejects_truly_negative_velocity(self):
        g = RoadGrid(0.0, 10.0, 5)
        with pytest.raises(ValueError):
            FlowState(g, np.full(5, 0.1), np.array([0.0, 0.0, -1.0, 0.0, 0.0]), 0.0)


def closed_form_force(law, v):
    """The force law as a clip of the ramp and two plateaus, one numpy
    expression each."""
    v = np.asarray(v, dtype=float)
    ramp = law.f0 * (law.v_star - v) / law.delta
    out = np.clip(ramp, 0.0, law.f0)
    out = np.where(v < law.v_star - law.delta, law.f0, out)
    return np.where(v > law.v_star, 0.0, out)


@st.composite
def force_laws(draw):
    f0 = draw(st.sampled_from([1e-300, 1.0, 1.5]) | st.floats(1e-300, 1e300))
    v_star = draw(st.floats(1e-300, 1e300))
    delta = v_star * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    assume(0 < delta < v_star)
    return ForceLaw(f0, v_star, delta)


class TestForceLaw:
    def test_three_regimes(self):
        law = ForceLaw(f0=1.5, v_star=16.0, delta=4.0)
        assert law(5.0) == 1.5
        assert law(20.0) == 0.0
        assert law(14.0) == pytest.approx(0.75)
        assert law(16.0) == 0.0
        assert law(12.0) == pytest.approx(1.5)

    def test_vectorized(self):
        law = ForceLaw(1.5, 16.0, 4.0)
        out = law(np.array([5.0, 14.0, 20.0]))
        np.testing.assert_allclose(out, [1.5, 0.75, 0.0])

    @given(
        v=st.floats(0.0, 40.0),
        eps=st.floats(1e-9, 0.5),
    )
    def test_lipschitz_in_speed(self, v, eps):
        # the ramp slope f0/delta bounds the modulus of continuity
        law = ForceLaw(1.5, 16.0, 4.0)
        bound = (law.f0 / law.delta) * eps + 1e-12
        assert abs(law(v + eps) - law(v)) <= bound

    @given(law=force_laws(), drawn=st.lists(st.floats(), max_size=20))
    @example(law=ForceLaw(1.0, 16.0, 4.0), drawn=[5.0, 14.0, 20.0, -0.0, np.inf])
    # f0 (v_star - v) underflows to -0.0 just above v_star
    @example(law=ForceLaw(1e-300, 1e-10, 5e-11), drawn=[1e-10 + 1e-25])
    def test_bitwise_equal_to_the_closed_form(self, law, drawn):
        vs, edge = law.v_star, law.v_star - law.delta
        v = np.array(
            [0.0, np.nan, vs, edge,
             np.nextafter(vs, -np.inf), np.nextafter(vs, np.inf),
             np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)] + drawn
        )
        before = v.copy()
        with np.errstate(all="ignore"):
            got = law(v)
            expected = closed_form_force(law, v)
            # the solvers pass negative speeds unclamped: they get f0
            clamped = law(np.maximum(v, 0.0))
        assert got.shape == v.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(got.view(np.int64), clamped.view(np.int64))
        np.testing.assert_array_equal(v.view(np.int64), before.view(np.int64))
        for x in v[:8]:
            with np.errstate(all="ignore"):
                y = law(float(x))
                expected = closed_form_force(law, x)
            assert type(y) is float
            assert np.float64(y).view(np.int64) == expected.view(np.int64)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ForceLaw(0.0, 16.0, 4.0)
        with pytest.raises(ValueError):
            ForceLaw(1.0, 16.0, 20.0)
        with pytest.raises(ValueError):
            ForceLaw(1.0, 16.0, 0.0)


    @pytest.mark.parametrize("args", [(math.inf, 16.0, 4.0), (1.0, math.inf, 4.0),
                                      (math.nan, 16.0, 4.0), (1.0, 16.0, math.nan)])
    def test_rejects_non_finite_parameters(self, args):
        # f0 = inf used to pass, and the force at v_star was inf * 0 = NaN
        with pytest.raises(ValueError, match="must be finite"):
            ForceLaw(*args)


class TestSignalTiming:
    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            SignalTiming(x0=400.0, t0=10.0, tau0=-1.0, tau1=5.0, h=50.0)
        with pytest.raises(ValueError):
            SignalTiming(x0=400.0, t0=4.0, tau0=5.0, tau1=5.0, h=50.0)
        with pytest.raises(ValueError):
            SignalTiming(x0=400.0, t0=10.0, tau0=4.0, tau1=5.0, h=500.0)

    @pytest.mark.parametrize("field, bad", [("x0", math.inf), ("t0", math.inf),
                                            ("tau1", math.inf), ("h", math.nan)])
    def test_rejects_non_finite_fields(self, field, bad):
        # x0, t0 or tau1 = inf passed the order checks, and x0 = inf then
        # overflowed in RoadGrid.face_index
        args = {"x0": 400.0, "t0": 10.0, "tau0": 4.0, "tau1": 5.0, "h": 50.0, field: bad}
        with pytest.raises(ValueError, match="must be finite"):
            SignalTiming(**args)


class TestDefaultBrakingProfile:
    def setup_method(self):
        self.tm = SignalTiming(x0=400.0, t0=10.0, tau0=4.0, tau1=5.0, h=60.0)

    def test_endpoints(self):
        b = default_braking_profile(self.tm, v_handoff=12.0)
        assert b.gamma(6.0) == 340.0
        assert b.gamma(10.0) == 400.0
        assert b.gamma(8.0) == pytest.approx(370.0)
        assert b.V(6.0) == 12.0
        assert b.V(10.0) == 0.0
        assert b.V(8.0) == pytest.approx(6.0)
        gamma = [b.gamma(t) for t in np.linspace(6.0, 15.0, 128)]
        assert np.all(np.diff(gamma) >= 0.0)

    def test_stopped_after_red_onset(self):
        b = default_braking_profile(self.tm, v_handoff=12.0)
        for t in (10.0, 11.0, 100.0):
            assert b.V(t) == 0.0
            assert b.gamma(t) == 400.0

    @given(t=st.floats(0.0, 20.0))
    def test_monotone_and_bounded(self, t):
        b = default_braking_profile(self.tm, v_handoff=12.0)
        assert 340.0 <= b.gamma(t) <= 400.0
        assert 0.0 <= b.V(t) <= 12.0

    def test_rejects_negative_handoff(self):
        with pytest.raises(ValueError):
            default_braking_profile(self.tm, v_handoff=-1.0)


class TestValidateScenario:
    def test_reference_is_clean(self):
        assert validate_scenario(reference_scenario()) == []

    def test_is_deterministic_and_side_effect_free(self):
        s = reference_scenario()
        assert validate_scenario(s) == validate_scenario(s)

    def test_vacuum_blocks_oracle_only(self):
        # lagrangian.oracle_errors refuses it (tests/test_io.py)
        s = reference_scenario()
        s = type(s)(**{**s.__dict__, "rho0": lambda x: np.zeros_like(np.asarray(x, float))})
        assert validate_scenario(s) == []

    # a Scenario with a violation cannot be built: the violations come with
    # the ScenarioError that building it raises

    def test_flags_short_horizon(self):
        with pytest.raises(ScenarioError) as exc:
            reference_scenario(t_end=15.0)  # t0 + tau1 = 20
        assert any("t_end" in m for m in exc.value.violations)

    def test_flags_negative_inflow(self):
        s = reference_scenario()
        with pytest.raises(ScenarioError) as exc:
            type(s)(**{**s.__dict__, "inflow": BoundaryData(lambda t: -0.1, lambda t: 10.0)})
        assert any("rho_in" in m for m in exc.value.violations)

    def test_collects_multiple_violations(self):
        s = reference_scenario()
        with pytest.raises(ScenarioError) as exc:
            type(s)(**{**s.__dict__, "mu": -1.0, "cfl": 2.0})
        assert len(exc.value.violations) >= 2

    def test_violations_are_named_by_file_key(self):
        # a Scenario built in code reports the key paths a file would use
        s = reference_scenario()
        negative = lambda x: np.full_like(np.asarray(x, float), -1.0)
        changes = {
            "cfl": 2.0, "snapshot_interval": 0.0, "rho0": negative, "v0": negative,
            "inflow": BoundaryData(negative, negative),
            "timing": SignalTiming(x0=700.0, t0=12.0, tau0=4.0, tau1=8.0, h=60.0),
        }
        with pytest.raises(ScenarioError) as exc:
            type(s)(**{**s.__dict__, **changes})
        assert [m.split(":", 1)[0] for m in exc.value.violations] == [
            "numerics.cfl", "numerics.snapshot_interval", "signal.x0", "profiles.rho0",
            "profiles.v0", "profiles.rho_in", "profiles.v_in",
        ]
        assert str(exc.value) == "; ".join(exc.value.violations)

    def test_error_survives_pickling(self):
        # an exception must round-trip through pickle (copy, multiprocessing)
        # with its violations, not rebuilt from its joined message
        err = pickle.loads(pickle.dumps(ScenarioError(["mu: bad", "t_end: short"])))
        assert type(err) is ScenarioError
        assert err.violations == ["mu: bad", "t_end: short"]
        assert str(err) == "mu: bad; t_end: short"


class TestInitialState:
    def test_samples_profiles_at_centers(self):
        s = reference_scenario()
        init = initial_state(s)
        x = s.grid.centers
        np.testing.assert_allclose(init.rho, 0.08 + 0.02 * np.sin(2 * np.pi * x / 300.0))
        np.testing.assert_allclose(init.v, 10.0)
        assert init.t == 0.0

    def test_accepts_scalar_only_profiles(self):
        s = reference_scenario()
        s = type(s)(**{**s.__dict__, "v0": lambda x: 10.0 + 0.0 * math.sin(x)})
        init = initial_state(s)
        np.testing.assert_allclose(init.v, 10.0)
