import itertools

import numpy as np
import pytest
import scipy.linalg

from sigflow import (
    BoundaryData,
    BrakingProfile,
    FlowState,
    ForceLaw,
    RoadGrid,
    solve_parabolic,
    step_viscous,
)
from sigflow.hyperbolic import StepReport
from sigflow.parabolic import RHO_COEFF_FLOOR, solve_banded


def road(n=40, left=0.0, right=100.0):
    return RoadGrid(left, right, n)


def fixed_end(V, right=100.0):
    """A prescribed downstream velocity V(t) on an end that stays at right."""
    return BrakingProfile(gamma=lambda t: right, V=V)


def growing(speed, length=100.0):
    """A braking boundary that starts at length and moves at speed."""
    return lambda t: length + speed * t


def const_inflow(v, rho):
    return BoundaryData(rho_in=lambda t: rho, v_in=lambda t: v)


def cells(grid, rho, v, t=0.0):
    """A cell state on grid at t; scalars fill every cell."""
    n = grid.n_cells
    return FlowState(grid, np.broadcast_to(rho, n).astype(float),
                     np.broadcast_to(v, n).astype(float), t)


def grid_at(grid, braking, t):
    """The cells at t: grid, with its right end at gamma(t) under braking."""
    if braking is None:
        return grid
    return RoadGrid(grid.x_min, float(braking.gamma(t)), grid.n_cells)


def reference_step_viscous(v, rho, t, dt, mu, inflow, grid, force, braking=None):
    """The staggered step written with one numpy expression per formula:
    v on the n+1 faces, rho on the n cells.  step_viscous, which works in
    place with fewer numpy calls, must match it bit for bit wherever both
    return."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = grid.n_cells
    dy = 1.0 / n
    y = np.arange(n + 1) * (1.0 / n)
    L_old = grid.x_max - grid.x_min
    right_new = grid.x_max if braking is None else float(braking.gamma(t + dt))
    L_new = right_new - grid.x_min
    Ldot = (L_new - L_old) / dt

    c = (v - y * Ldot) / L_new
    cmax = float(np.abs(c).max())
    if cmax * dt / dy > 1.0 + 1e-12:
        raise RuntimeError("advective CFL violated")
    dv = (v[1:] - v[:-1]) / dy
    c_in = c[1:-1]
    b = v.astype(float)
    b[1:-1] -= dt * c_in * np.where(c_in > 0, dv[:-1], dv[1:])
    if force is not None:
        b += dt * force(np.maximum(v, 0.0))

    rho_face = 0.5 * (rho[:-1] + rho[1:])
    lam = dt * (mu / np.maximum(rho_face, RHO_COEFF_FLOOR)) / (dy * dy * L_new * L_new)
    diag = np.concatenate(([1.0], 1.0 + 2.0 * lam, [1.0]))
    sup = np.concatenate(([0.0], -lam))
    sub = np.concatenate((-lam, [-1.0 if braking is None else 0.0]))

    v_left = float(inflow.v_in(t + dt))
    b[0] = v_left
    if braking is not None:
        v_right = float(braking.V(t + dt))
        b[-1] = v_right
    else:
        b[-1] = 0.0
    if not (np.isfinite(diag).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    v_new = solve_banded(sub, diag, sup, b)
    if braking is not None:
        v_new[-1] = v_right
    v_new[0] = v_left

    w = v_new - y * Ldot
    rho_ext = np.concatenate(([float(inflow.rho_in(t + dt))], rho, [rho[-1]]))
    flux = np.where(w > 0, rho_ext[:-1], rho_ext[1:]) * w
    rho_new = (L_old * rho - (dt / dy) * (flux[1:] - flux[:-1])) / L_new

    clamped = 0.0
    if (rho_new < 0).any():
        clamped = -float(np.sum(np.minimum(rho_new, 0.0)) * (L_new / n))
        rho_new = np.maximum(rho_new, 0.0)

    report = StepReport(
        inflow=dt * float(flux[0]), outflow=dt * float(flux[-1]), clamped=clamped
    )
    return v_new, rho_new, report


def assert_bitwise(a, b):
    """Equal bit patterns: tells -0.0 from +0.0 and NaN payloads apart."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGeometry:
    def test_right_must_exceed_left(self):
        # the braking boundary reaches x_min = 50 at t = 0.5; the one step
        # (v = 0 sets no CFL bound) ends at t = 1
        grid = road(n=10, left=50.0, right=60.0)
        braking = BrakingProfile(gamma=lambda t: 60.0 - 20.0 * t, V=lambda t: 0.0)
        with pytest.raises(ValueError, match="at t = 1.0 is not a finite position"):
            solve_parabolic(cells(grid, 0.1, 0.0), const_inflow(0.0, 0.1), 2.0, None,
                            1.0, braking=braking)
        with pytest.raises(ValueError, match="at t = 1.0 is not a finite position"):
            step_viscous(np.zeros(11), np.full(10, 0.1), 0.0, 1.0, 2.0,
                         const_inflow(0.0, 0.1), grid, None, braking)


class TestStepViscous:
    def test_uniform_state_is_fixed_point(self):
        grid = road()
        n = grid.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        v1, rho1, rep = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1),
                                     grid, None, fixed_end(lambda t: 8.0))
        np.testing.assert_allclose(v1, 8.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rho1, 0.1, rtol=0, atol=1e-15)
        assert rep.clamped == 0.0

    def test_dirichlet_values_imposed_exactly(self):
        grid = road()
        n = grid.n_cells
        rng = np.random.default_rng(7)
        v = 5.0 + rng.uniform(-1.0, 1.0, n + 1)
        rho = np.full(n, 0.1)
        v1, rho1, rep = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(4.25, 0.09),
                                     grid, None, fixed_end(lambda t: 6.5))
        assert v1[0] == 4.25
        assert v1[-1] == 6.5
        # the inflow density is the upwind density of the first face
        assert rep.inflow == 1e-3 * (0.09 * 4.25)

    def test_zero_gradient_right_closure(self):
        grid = road()
        n = grid.n_cells
        v = np.linspace(4.0, 9.0, n + 1)
        rho = np.full(n, 0.1)
        v1, _, _ = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(4.0, 0.1), grid, None)
        assert v1[-1] == pytest.approx(v1[-2], rel=1e-13)

    def test_density_update_matches_donor_cell_formula(self):
        # independent re-derivation of one conservative upwind step on the
        # cells, fixed end: every face speed is positive, so each face
        # carries the density of the cell left of it (the inflow density at
        # the first face)
        grid = road(n=10, right=10.0)
        n, dt = grid.n_cells, 1e-3
        dy = 1.0 / n
        rng = np.random.default_rng(3)
        v = 6.0 + rng.uniform(-0.5, 0.5, n + 1)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        bc = const_inflow(float(v[0]), 0.12)
        v1, rho1, rep = step_viscous(v, rho, 0.0, dt, 2.0, bc, grid, None,
                                     fixed_end(lambda t: float(v[-1]), right=10.0))

        L = 10.0
        flux = np.concatenate(([0.12], rho)) * v1  # the mesh is at rest
        expect = rho - (dt / (dy * L)) * np.diff(flux)
        np.testing.assert_allclose(rho1, expect, rtol=0, atol=1e-15)
        assert (rep.inflow, rep.outflow) == pytest.approx((dt * flux[0], dt * flux[-1]))

    def test_moving_mesh_preserves_uniform_density(self):
        braking = BrakingProfile(gamma=growing(20.0), V=lambda t: 0.0)
        grid = road()
        n = grid.n_cells
        v = np.zeros(n + 1)
        rho = np.full(n, 0.1)
        bc = const_inflow(0.0, 0.1)
        for k in range(200):
            t = k * 1e-3
            v, rho, _ = step_viscous(v, rho, t, 1e-3, 2.0, bc, grid_at(grid, braking, t),
                                     None, braking)
        np.testing.assert_allclose(rho, 0.1, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(v, 0.0)

    def test_rejects_advective_cfl_violation(self):
        grid = road(n=40, right=10.0)  # dy L = 0.25
        n = grid.n_cells
        v = np.full(n + 1, 10.0)
        rho = np.full(n, 0.1)
        bc = const_inflow(10.0, 0.1)
        with pytest.raises(ValueError, match="CFL"):
            step_viscous(v, rho, 0.0, 0.1, 2.0, bc, grid, None)

    def test_rejects_non_positive_dt(self):
        grid = road()
        n = grid.n_cells
        with pytest.raises(ValueError):
            step_viscous(
                np.zeros(n + 1), np.full(n, 0.1), 0.0, 0.0, 2.0,
                const_inflow(0.0, 0.1), grid, None,
            )

    def test_rejects_non_finite_input(self):
        grid = road()
        n = grid.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        bc = const_inflow(8.0, 0.1)
        bad_rho = rho.copy()
        bad_rho[n // 2] = np.nan
        bad_v = v.copy()
        bad_v[n // 2] = np.nan
        for args in ((v, bad_rho), (bad_v, rho)):
            with pytest.raises(ValueError):
                step_viscous(*args, 0.0, 1e-3, 2.0, bc, grid, None)
        with pytest.raises(ValueError):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(np.inf, 0.1), grid, None)
        with pytest.raises(ValueError):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, bc, grid, None,
                         fixed_end(lambda t: np.nan))
        # an infinite velocity makes |c| infinite, so the CFL guard sees it first
        bad_v[n // 2] = np.inf
        with pytest.raises(ValueError, match="CFL"):
            step_viscous(bad_v, rho, 0.0, 1e-3, 2.0, bc, grid, None)

    @pytest.mark.parametrize("node", ["interior_inf", "first_nan", "last_nan"])
    def test_rejects_non_finite_density_in_the_same_step(self, node):
        # a NaN reaches the diffusion coefficient of a neighbouring face; an
        # infinite density gives mu / inf = 0 there and a non-finite update
        grid = road()
        n = grid.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        i, value = {"interior_inf": (n // 2, np.inf), "first_nan": (0, np.nan),
                    "last_nan": (n - 1, np.nan)}[node]
        rho[i] = value
        with pytest.raises(ValueError, match="non-finite density"), \
                np.errstate(invalid="ignore"):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1), grid, None)

    @pytest.mark.parametrize("V", [None, lambda t: 3.0])
    def test_leaves_its_arguments_unchanged(self, V):
        # V = None: the fixed end under the zero-gradient closure; otherwise
        # a moving end that holds V
        braking = None if V is None else BrakingProfile(gamma=growing(15.0), V=V)
        grid = road(n=30)
        n = grid.n_cells
        rng = np.random.default_rng(3)
        v = 8.0 + rng.uniform(-1.0, 1.0, n + 1)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        v0, rho0 = v.copy(), rho.copy()
        v1, rho1, _ = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1), grid,
                                   ForceLaw(1.0, 16.0, 4.0), braking)
        np.testing.assert_array_equal(v, v0)
        np.testing.assert_array_equal(rho, rho0)
        assert not np.shares_memory(v1, v) and not np.shares_memory(rho1, rho)


def _bitwise_cases():
    law = ForceLaw(1.0, 16.0, 4.0)
    rng = np.random.default_rng(17)
    n = 24
    wavy_v = 8.0 + rng.uniform(-1.0, 1.0, n + 1)
    wavy_rho = 0.1 + rng.uniform(0.0, 0.05, n)
    # stopped in the middle: zero speeds take the other upwind branch
    queue_v = np.where(np.arange(n + 1) > n // 2, 0.0, 6.0)
    # a fixed end holds its velocity through a gamma that stands still
    # (Ldot == 0.0); a growing gamma outruns the flow; a stopping gamma
    # moves for half of the 20 steps and then stands, as the braking
    # boundary does at the red onset
    fixed = lambda t: 100.0
    moving = growing(15.0)
    stopping = lambda t: min(100.0 + 15.0 * t, 100.15)

    def end(gamma, v_right):
        return BrakingProfile(gamma=gamma, V=lambda t: v_right)

    # a Dirichlet speed far above the state's pulls more out of the last
    # cell than it holds, so the step clamps
    empty_v = np.full(n + 1, 5.0)
    last_only = np.zeros(n)
    last_only[-1] = 0.1
    return n, {
        "fixed-force-zero_gradient": (wavy_v, wavy_rho, law, None),
        "fixed-noforce-dirichlet": (wavy_v, wavy_rho, None, end(fixed, 7.5)),
        "fixed-queue": (queue_v, wavy_rho, law, end(fixed, 0.0)),
        "moving-force-dirichlet": (wavy_v, wavy_rho, law, end(moving, 7.5)),
        "moving-queue": (queue_v, wavy_rho, None, end(moving, 0.0)),
        "stopped-force-dirichlet": (wavy_v, wavy_rho, law, end(stopping, 7.5)),
        # the zero-gradient closure keeps the end at rest
        "stopped-noforce-zero_gradient": (queue_v, wavy_rho, None, None),
        "clamping": (empty_v, last_only, None, end(fixed, 5000.0)),
    }


BITWISE_N, BITWISE_CASES = _bitwise_cases()


class TestStepViscousBitwise:
    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_matches_the_reference_bit_for_bit(self, case):
        v0, rho0, force, braking = BITWISE_CASES[case]
        grid = road(n=BITWISE_N)
        bc = const_inflow(float(v0[0]), 0.1)
        got, ref = (v0.copy(), rho0.copy()), (v0.copy(), rho0.copy())
        clamped, steps = 0.0, 0
        for k in range(20):
            t = k * 1e-3
            args = (t, 1e-3, 2.0, bc, grid_at(grid, braking, t), force, braking)
            try:
                v2, rho2, rep2 = reference_step_viscous(*ref, *args)
            except RuntimeError:  # the clamping case leaves the CFL range
                with pytest.raises(ValueError, match="CFL"):
                    step_viscous(*got, *args)
                break
            v1, rho1, rep = step_viscous(*got, *args)
            assert_bitwise(v1, v2)
            assert_bitwise(rho1, rho2)
            for field in ("inflow", "outflow", "clamped"):
                assert_bitwise(getattr(rep, field), getattr(rep2, field))
            got, ref = (v1, rho1), (v2, rho2)
            clamped += rep.clamped
            steps = k + 1
        assert steps == 20 or case == "clamping"
        assert (clamped > 0.0) == (case == "clamping")


class TestSolveBanded:
    @pytest.mark.parametrize("closure", ["dirichlet", "zero_gradient"])
    @pytest.mark.parametrize("size", [5, 151, 601])
    def test_bitwise_equal_to_scipy(self, size, closure):
        # the systems step_viscous builds: identity first row, diagonally
        # dominant interior rows, and a Dirichlet or zero-gradient last row
        rng = np.random.default_rng(size)
        lam = rng.uniform(0.0, 50.0, size)
        diag = 1.0 + 2.0 * lam
        diag[0] = diag[-1] = 1.0
        sup = -lam[:-1]
        sup[0] = 0.0
        sub = -lam[1:]
        sub[-1] = -1.0 if closure == "zero_gradient" else 0.0
        b = rng.uniform(-10.0, 10.0, size)
        ab = np.zeros((3, size))
        ab[0, 1:] = sup
        ab[1] = diag
        ab[2, :-1] = sub
        expected = scipy.linalg.solve_banded((1, 1), ab, b)
        x = solve_banded(sub.copy(), diag.copy(), sup.copy(), b.copy())
        assert np.array_equal(x, expected)

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_banded(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


class TestSolveParabolic:
    def test_stopped_traffic_stays_stopped(self):
        grid = road(n=30)
        n = grid.n_cells
        rho = 0.1 + 0.04 * np.sin(np.pi * (np.arange(n) + 0.5) / n)
        bc = const_inflow(0.0, float(rho[0]))
        res = solve_parabolic(cells(grid, rho, 0.0), bc, 2.0, None, 3.0,
                              snapshot_interval=1.0, braking=fixed_end(lambda t: 0.0))
        np.testing.assert_array_equal(res.final.v, 0.0)
        np.testing.assert_allclose(res.final.rho, rho, rtol=0, atol=1e-14)

    def test_uniform_acceleration_under_force(self):
        ramp = lambda t: 5.0 + 1.5 * t
        bc = BoundaryData(rho_in=lambda t: 0.1, v_in=ramp)
        res = solve_parabolic(cells(road(n=30), 0.1, 5.0), bc, 2.0,
                              ForceLaw(1.5, 16.0, 4.0), 2.0, braking=fixed_end(ramp))
        np.testing.assert_allclose(res.final.v, 8.0, rtol=0, atol=1e-10)

    def test_mass_ledger_closes(self):
        grid = road(n=30)
        n = grid.n_cells
        rng = np.random.default_rng(11)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        v = 8.0 + rng.uniform(-1.0, 1.0, n)
        bc = BoundaryData(rho_in=lambda t: float(rho[0]), v_in=lambda t: float(v[0]))
        braking = BrakingProfile(gamma=growing(15.0), V=lambda t: float(v[-1]))
        res = solve_parabolic(cells(grid, rho, v), bc, 2.0, None, 2.0,
                              snapshot_interval=0.5, braking=braking)
        m0 = res.ledger[0]["total_mass"]
        m1 = res.ledger[-1]["total_mass"]
        residual = (m1 - m0) - (res.influx - res.outflux + res.clamped)
        assert abs(residual) < 1e-11 * max(m0, 1.0)
        # the ledger's mass is the snapshots' sum(rho) * dx
        assert [r["total_mass"] for r in res.ledger] == [s.total_mass for s in res.snapshots]

    def test_compatibility_residual_reported(self):
        res = solve_parabolic(cells(road(n=20), 0.1, 7.0), const_inflow(7.0, 0.1), 2.0,
                              None, 0.1, braking=fixed_end(lambda t: 6.25))
        assert res.metadata["compatibility_residual"] == pytest.approx(0.75)

    def test_snapshots_cover_the_moving_domain(self):
        # the cells follow gamma from the first snapshot on, even where
        # initial.grid ends a bit off it (the braking strip's split face and
        # gamma at the braking onset can differ in the last bit)
        braking = BrakingProfile(gamma=growing(10.0), V=lambda t: 0.0)
        res = solve_parabolic(cells(road(n=20, right=np.nextafter(100.0, 0.0)), 0.1, 0.0),
                              const_inflow(0.0, 0.1), 2.0, None, 2.0,
                              snapshot_interval=1.0, braking=braking)
        assert [s.t for s in res.snapshots] == [0.0, 1.0, 2.0]
        for snap in res.snapshots:
            assert snap.grid == RoadGrid(0.0, 100.0 + 10.0 * snap.t, 20)

    @pytest.mark.parametrize("right", [90.0, 110.0])
    def test_initial_state_must_end_at_gamma(self, right):
        # laid on [0, gamma(0.5)] = [0, 105], 0.1 veh/m on [0, right] would
        # silently start the ledger at 10.5 veh
        braking = BrakingProfile(gamma=growing(10.0), V=lambda t: 0.0)
        with pytest.raises(ValueError, match=r"braking boundary 105\.0 at t = 0\.5 is not "
                           rf"the initial state's right end {right}"):
            solve_parabolic(cells(road(n=20, right=right), 0.1, 0.0, t=0.5),
                            const_inflow(0.0, 0.1), 2.0, None, 2.0, braking=braking)

    def test_cell_velocity_is_the_mean_of_its_faces(self):
        # faces start at the mean of their cells (the end faces at their
        # cell's value), and a snapshot cell holds the mean of its faces
        v = np.array([2.0, 4.0, 8.0, 6.0, 6.0])
        res = solve_parabolic(cells(road(n=5), 0.1, v), const_inflow(2.0, 0.1), 2.0,
                              None, 0.0)
        faces = np.array([2.0, 3.0, 6.0, 7.0, 6.0, 6.0])
        np.testing.assert_array_equal(res.final.v, 0.5 * (faces[:-1] + faces[1:]))

    @pytest.mark.parametrize("V", [None, lambda t: 0.0])
    def test_snapshots_share_no_memory(self, V):
        # the snapshots hold the step's arrays without copying them, so a
        # buffer reused across steps would rewrite earlier snapshots
        braking = None if V is None else BrakingProfile(gamma=growing(10.0), V=V)
        res = solve_parabolic(cells(road(n=20), 0.1, 5.0), const_inflow(5.0, 0.1), 2.0,
                              ForceLaw(1.0, 16.0, 4.0), 0.02,
                              snapshot_interval=2e-3, braking=braking)
        assert len(res.snapshots) == 11
        arrays = [a for snap in res.snapshots for a in (snap.rho, snap.v)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


class TestStepSize:
    """solve_parabolic's steps: the advective CFL alone sets them."""

    @pytest.mark.parametrize("cfl", [0.5, 0.25])
    def test_fixed_domain_takes_the_largest_cfl_step(self, cfl, viscous_steps):
        # max|c| = 10 / 100 per second, dy = 1/40: the step is cfl / 4 s
        res = solve_parabolic(cells(road(n=40), 0.1, 10.0), const_inflow(10.0, 0.1),
                              2.0, None, 1.0, cfl=cfl)
        dts = [dt for _, dt, _, _ in viscous_steps]
        assert dts == pytest.approx([cfl / 4] * round(4 / cfl), rel=1e-12)
        assert res.metadata["steps"] == len(dts)
        assert (res.metadata["dt_min"], res.metadata["dt_max"]) == (min(dts), max(dts))

    def test_moving_mesh_speed_limits_the_step(self, viscous_steps):
        # the right end moves at 40 m/s against fluid at 2 m/s: a step sized
        # with the mesh at rest (0.625 s) would break the CFL bound ~9 times
        braking = BrakingProfile(gamma=growing(40.0), V=lambda t: 2.0)
        res = solve_parabolic(cells(road(n=40), 0.1, 2.0), const_inflow(2.0, 0.1), 2.0,
                              None, 1.0, snapshot_interval=0.5, braking=braking)
        ratios = [r for _, _, r, _ in viscous_steps]
        assert max(ratios) <= 0.5 * (1 + 1e-12)
        assert max(ratios) > 0.45  # the bound is active, not merely met
        assert all(moving for *_, moving in viscous_steps)
        assert res.metadata["steps"] == len(viscous_steps)

    @pytest.mark.parametrize("snapshot_interval", [None, 1e-3])
    def test_nan_velocity_at_the_downstream_end_is_rejected(self, snapshot_interval):
        # a cell state refuses a NaN velocity before any step, with or without
        # snapshots; a NaN on the last face never reaches a finite result
        # under the zero-gradient closure with positive speeds, so
        # step_viscous checks for it
        grid = road(n=10)
        v = np.full(10, 8.0)
        v[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_parabolic(cells(grid, 0.1, v), const_inflow(8.0, 0.1), 2.0,
                            None, 1.0, snapshot_interval)
        v = np.full(11, 8.0)
        v[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite velocity at t = 0.0"):
            step_viscous(v, np.full(10, 0.1), 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1),
                         grid, None)

    def test_non_finite_domain_length_ends_the_step_search(self):
        # the search for a step on a moving mesh must not spin on an
        # infinite end: the end is refused, naming the time it was read at
        braking = BrakingProfile(gamma=lambda t: 100.0 if t == 0.0 else np.inf,
                                 V=lambda t: 8.0)
        with pytest.raises(ValueError, match=r"braking boundary inf at t = 0\.\d+ is not"):
            solve_parabolic(cells(road(n=10), 0.1, 8.0), const_inflow(8.0, 0.1), 2.0,
                            None, 1.0, braking=braking)

    def test_step_range_is_none_without_steps(self):
        res = solve_parabolic(cells(road(n=10), 0.1, 8.0, t=1.0), const_inflow(8.0, 0.1),
                              2.0, None, 1.0)
        assert (res.metadata["steps"], res.metadata["dt_min"], res.metadata["dt_max"]) \
            == (0, None, None)
