import itertools

import numpy as np
import pytest
import scipy.linalg

from sigflow import (
    BoundaryData,
    FlowState,
    ForceLaw,
    MovingDomain,
    RoadGrid,
    solve_parabolic,
    step_viscous,
)
from sigflow.hyperbolic import StepReport
from sigflow.parabolic import RHO_COEFF_FLOOR, solve_banded


def fixed_domain(n=40, left=0.0, right=100.0):
    return MovingDomain(left=left, right_of_t=right, n_cells=n)


def const_inflow(v, rho):
    return BoundaryData(rho_in=lambda t: rho, v_in=lambda t: v)


def cells(dom, rho, v, t=0.0):
    """A cell state on the domain's grid at t; scalars fill every cell."""
    n = dom.n_cells
    return FlowState(dom.grid(t), np.broadcast_to(rho, n).astype(float),
                     np.broadcast_to(v, n).astype(float), t)


def reference_step_viscous(v, rho, t, dt, mu, inflow, domain, force, right_v=None):
    """The staggered step written with one numpy expression per formula:
    v on the n+1 faces, rho on the n cells.  step_viscous, which works in
    place with fewer numpy calls, must match it bit for bit wherever both
    return."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = domain.n_cells
    dy = 1.0 / n
    y = np.arange(n + 1) * (1.0 / n)
    L_old = domain.right(t) - domain.left
    L_new = domain.right(t + dt) - domain.left
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
    sub = np.concatenate((-lam, [-1.0 if right_v is None else 0.0]))

    v_left = float(inflow.v_in(t + dt))
    b[0] = v_left
    if right_v is not None:
        v_right = float(right_v(t + dt))
        b[-1] = v_right
    else:
        b[-1] = 0.0
    if not (np.isfinite(diag).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    v_new = solve_banded(sub, diag, sup, b)
    if right_v is not None:
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
    def test_moving_domain_grid(self):
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 10.0 * t, n_cells=10)
        assert dom.grid(2.0) == RoadGrid(0.0, 120.0, 10)

    def test_right_must_exceed_left(self):
        dom = MovingDomain(left=50.0, right_of_t=lambda t: 50.0 - t, n_cells=10)
        with pytest.raises(ValueError):
            dom.right(1.0)


class TestStepViscous:
    def test_uniform_state_is_fixed_point(self):
        dom = fixed_domain()
        n = dom.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        v1, rho1, rep = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1),
                                     dom, None, right_v=lambda t: 8.0)
        np.testing.assert_allclose(v1, 8.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rho1, 0.1, rtol=0, atol=1e-15)
        assert rep.clamped == 0.0

    def test_dirichlet_values_imposed_exactly(self):
        dom = fixed_domain()
        n = dom.n_cells
        rng = np.random.default_rng(7)
        v = 5.0 + rng.uniform(-1.0, 1.0, n + 1)
        rho = np.full(n, 0.1)
        v1, rho1, rep = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(4.25, 0.09),
                                     dom, None, right_v=lambda t: 6.5)
        assert v1[0] == 4.25
        assert v1[-1] == 6.5
        # the inflow density is the upwind density of the first face
        assert rep.inflow == 1e-3 * (0.09 * 4.25)

    def test_zero_gradient_right_closure(self):
        dom = fixed_domain()
        n = dom.n_cells
        v = np.linspace(4.0, 9.0, n + 1)
        rho = np.full(n, 0.1)
        v1, _, _ = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(4.0, 0.1), dom, None)
        assert v1[-1] == pytest.approx(v1[-2], rel=1e-13)

    def test_density_update_matches_donor_cell_formula(self):
        # independent re-derivation of one conservative upwind step on the
        # cells, fixed domain: every face speed is positive, so each face
        # carries the density of the cell left of it (the inflow density at
        # the first face)
        dom = fixed_domain(n=10, right=10.0)
        n, dt = dom.n_cells, 1e-3
        dy = 1.0 / n
        rng = np.random.default_rng(3)
        v = 6.0 + rng.uniform(-0.5, 0.5, n + 1)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        bc = const_inflow(float(v[0]), 0.12)
        v1, rho1, rep = step_viscous(v, rho, 0.0, dt, 2.0, bc, dom, None,
                                     right_v=lambda t: float(v[-1]))

        L = 10.0
        flux = np.concatenate(([0.12], rho)) * v1  # the mesh is at rest
        expect = rho - (dt / (dy * L)) * np.diff(flux)
        np.testing.assert_allclose(rho1, expect, rtol=0, atol=1e-15)
        assert (rep.inflow, rep.outflow) == pytest.approx((dt * flux[0], dt * flux[-1]))

    def test_moving_mesh_preserves_uniform_density(self):
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 20.0 * t, n_cells=40)
        n = dom.n_cells
        v = np.zeros(n + 1)
        rho = np.full(n, 0.1)
        bc = const_inflow(0.0, 0.1)
        for k in range(200):
            v, rho, _ = step_viscous(v, rho, k * 1e-3, 1e-3, 2.0, bc, dom, None,
                                     right_v=lambda t: 0.0)
        np.testing.assert_allclose(rho, 0.1, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(v, 0.0)

    def test_rejects_advective_cfl_violation(self):
        dom = fixed_domain(n=40, right=10.0)  # dy L = 0.25
        n = dom.n_cells
        v = np.full(n + 1, 10.0)
        rho = np.full(n, 0.1)
        bc = const_inflow(10.0, 0.1)
        with pytest.raises(RuntimeError):
            step_viscous(v, rho, 0.0, 0.1, 2.0, bc, dom, None)

    def test_rejects_non_positive_dt(self):
        dom = fixed_domain()
        n = dom.n_cells
        with pytest.raises(ValueError):
            step_viscous(
                np.zeros(n + 1), np.full(n, 0.1), 0.0, 0.0, 2.0,
                const_inflow(0.0, 0.1), dom, None,
            )

    def test_rejects_non_finite_input(self):
        dom = fixed_domain()
        n = dom.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        bc = const_inflow(8.0, 0.1)
        bad_rho = rho.copy()
        bad_rho[n // 2] = np.nan
        bad_v = v.copy()
        bad_v[n // 2] = np.nan
        for args in ((v, bad_rho), (bad_v, rho)):
            with pytest.raises(ValueError):
                step_viscous(*args, 0.0, 1e-3, 2.0, bc, dom, None)
        with pytest.raises(ValueError):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(np.inf, 0.1), dom, None)
        with pytest.raises(ValueError):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, bc, dom, None, right_v=lambda t: np.nan)
        # an infinite velocity makes |c| infinite, so the CFL guard sees it first
        bad_v[n // 2] = np.inf
        with pytest.raises(RuntimeError, match="CFL"):
            step_viscous(bad_v, rho, 0.0, 1e-3, 2.0, bc, dom, None)

    @pytest.mark.parametrize("node", ["interior_inf", "first_nan", "last_nan"])
    def test_rejects_non_finite_density_in_the_same_step(self, node):
        # a NaN reaches the diffusion coefficient of a neighbouring face; an
        # infinite density gives mu / inf = 0 there and a non-finite update
        dom = fixed_domain()
        n = dom.n_cells
        v = np.full(n + 1, 8.0)
        rho = np.full(n, 0.1)
        i, value = {"interior_inf": (n // 2, np.inf), "first_nan": (0, np.nan),
                    "last_nan": (n - 1, np.nan)}[node]
        rho[i] = value
        with pytest.raises(ValueError, match="non-finite density"), \
                np.errstate(invalid="ignore"):
            step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1), dom, None)

    @pytest.mark.parametrize("right_v", [None, lambda t: 3.0])
    def test_leaves_its_arguments_unchanged(self, right_v):
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 15.0 * t, n_cells=30)
        n = dom.n_cells
        rng = np.random.default_rng(3)
        v = 8.0 + rng.uniform(-1.0, 1.0, n + 1)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        v0, rho0 = v.copy(), rho.copy()
        v1, rho1, _ = step_viscous(v, rho, 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1), dom,
                                   ForceLaw(1.0, 16.0, 4.0), right_v=right_v)
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
    fixed = MovingDomain(0.0, 100.0, n)
    growing = MovingDomain(0.0, lambda t: 100.0 + 15.0 * t, n)  # outruns the flow
    stopped = MovingDomain(0.0, lambda t: 100.0, n)  # callable, Ldot == 0.0
    # a Dirichlet speed far above the state's pulls more out of the last
    # cell than it holds, so the step clamps
    empty_v = np.full(n + 1, 5.0)
    last_only = np.zeros(n)
    last_only[-1] = 0.1
    return {
        "fixed-force-zero_gradient": (wavy_v, wavy_rho, fixed, law, None),
        "fixed-noforce-dirichlet": (wavy_v, wavy_rho, fixed, None, lambda t: 7.5),
        "fixed-queue": (queue_v, wavy_rho, fixed, law, lambda t: 0.0),
        "moving-force-dirichlet": (wavy_v, wavy_rho, growing, law, lambda t: 7.5),
        "moving-noforce-zero_gradient": (wavy_v, wavy_rho, growing, None, None),
        "moving-queue": (queue_v, wavy_rho, growing, None, lambda t: 0.0),
        "stopped-force-dirichlet": (wavy_v, wavy_rho, stopped, law, lambda t: 7.5),
        "stopped-noforce-zero_gradient": (queue_v, wavy_rho, stopped, None, None),
        "clamping": (empty_v, last_only, fixed, None, lambda t: 5000.0),
    }


BITWISE_CASES = _bitwise_cases()


class TestStepViscousBitwise:
    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_matches_the_reference_bit_for_bit(self, case):
        v0, rho0, dom, force, right_v = BITWISE_CASES[case]
        bc = const_inflow(float(v0[0]), 0.1)
        got, ref = (v0.copy(), rho0.copy()), (v0.copy(), rho0.copy())
        clamped, steps = 0.0, 0
        for k in range(20):
            t = k * 1e-3
            try:
                v2, rho2, rep2 = reference_step_viscous(*ref, t, 1e-3, 2.0, bc, dom,
                                                        force, right_v)
            except RuntimeError:  # the clamping case leaves the CFL range
                with pytest.raises(RuntimeError):
                    step_viscous(*got, t, 1e-3, 2.0, bc, dom, force, right_v)
                break
            v1, rho1, rep = step_viscous(*got, t, 1e-3, 2.0, bc, dom, force, right_v)
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
        dom = fixed_domain(n=30)
        n = dom.n_cells
        rho = 0.1 + 0.04 * np.sin(np.pi * (np.arange(n) + 0.5) / n)
        bc = const_inflow(0.0, float(rho[0]))
        res = solve_parabolic(cells(dom, rho, 0.0), dom, bc, 2.0, None, 3.0,
                              snapshot_interval=1.0, right_v=lambda t: 0.0)
        np.testing.assert_array_equal(res.final.v, 0.0)
        np.testing.assert_allclose(res.final.rho, rho, rtol=0, atol=1e-14)

    def test_uniform_acceleration_under_force(self):
        dom = fixed_domain(n=30)
        ramp = lambda t: 5.0 + 1.5 * t
        bc = BoundaryData(rho_in=lambda t: 0.1, v_in=ramp)
        res = solve_parabolic(cells(dom, 0.1, 5.0), dom, bc, 2.0,
                              ForceLaw(1.5, 16.0, 4.0), 2.0, right_v=ramp)
        np.testing.assert_allclose(res.final.v, 8.0, rtol=0, atol=1e-10)

    def test_mass_ledger_closes(self):
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 15.0 * t, n_cells=30)
        n = dom.n_cells
        rng = np.random.default_rng(11)
        rho = 0.1 + rng.uniform(0.0, 0.05, n)
        v = 8.0 + rng.uniform(-1.0, 1.0, n)
        bc = BoundaryData(rho_in=lambda t: float(rho[0]), v_in=lambda t: float(v[0]))
        res = solve_parabolic(cells(dom, rho, v), dom, bc, 2.0, None, 2.0,
                              snapshot_interval=0.5)
        m0 = res.ledger[0]["total_mass"]
        m1 = res.ledger[-1]["total_mass"]
        residual = (m1 - m0) - (res.influx - res.outflux + res.clamped)
        assert abs(residual) < 1e-11 * max(m0, 1.0)
        # the ledger's mass is the snapshots' sum(rho) * dx
        assert [r["total_mass"] for r in res.ledger] == [s.total_mass for s in res.snapshots]

    def test_compatibility_residual_reported(self):
        dom = fixed_domain(n=20)
        res = solve_parabolic(cells(dom, 0.1, 7.0), dom, const_inflow(7.0, 0.1), 2.0,
                              None, 0.1, right_v=lambda t: 6.25)
        assert res.metadata["compatibility_residual"] == pytest.approx(0.75)

    def test_snapshots_cover_the_moving_domain(self):
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 10.0 * t, n_cells=20)
        res = solve_parabolic(cells(dom, 0.1, 0.0), dom, const_inflow(0.0, 0.1), 2.0,
                              None, 2.0, snapshot_interval=1.0,
                              right_v=lambda t: 0.0)
        assert [s.t for s in res.snapshots] == [0.0, 1.0, 2.0]
        for snap in res.snapshots:
            assert snap.grid == RoadGrid(0.0, dom.right(snap.t), 20)

    def test_cell_velocity_is_the_mean_of_its_faces(self):
        # faces start at the mean of their cells (the end faces at their
        # cell's value), and a snapshot cell holds the mean of its faces
        dom = fixed_domain(n=5)
        v = np.array([2.0, 4.0, 8.0, 6.0, 6.0])
        res = solve_parabolic(cells(dom, 0.1, v), dom, const_inflow(2.0, 0.1), 2.0,
                              None, 0.0)
        faces = np.array([2.0, 3.0, 6.0, 7.0, 6.0, 6.0])
        np.testing.assert_array_equal(res.final.v, 0.5 * (faces[:-1] + faces[1:]))

    @pytest.mark.parametrize("right_v", [None, lambda t: 0.0])
    def test_snapshots_share_no_memory(self, right_v):
        # the snapshots hold the step's arrays without copying them, so a
        # buffer reused across steps would rewrite earlier snapshots
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 10.0 * t, n_cells=20)
        res = solve_parabolic(cells(dom, 0.1, 5.0), dom, const_inflow(5.0, 0.1), 2.0,
                              ForceLaw(1.0, 16.0, 4.0), 0.02,
                              snapshot_interval=2e-3, right_v=right_v)
        assert len(res.snapshots) == 11
        arrays = [a for snap in res.snapshots for a in (snap.rho, snap.v)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_rejects_wrong_field_length(self):
        dom = fixed_domain(n=20)
        with pytest.raises(ValueError, match="21 cells"):
            solve_parabolic(cells(fixed_domain(n=21), 0.1, 0.0), dom,
                            const_inflow(0.0, 0.1), 2.0, None, 1.0)


class TestStepSize:
    """solve_parabolic's steps: the advective CFL alone sets them."""

    @pytest.mark.parametrize("cfl", [0.5, 0.25])
    def test_fixed_domain_takes_the_largest_cfl_step(self, cfl, viscous_steps):
        # max|c| = 10 / 100 per second, dy = 1/40: the step is cfl / 4 s
        dom = fixed_domain(n=40)
        res = solve_parabolic(cells(dom, 0.1, 10.0), dom, const_inflow(10.0, 0.1),
                              2.0, None, 1.0, cfl=cfl)
        dts = [dt for _, dt, _, _ in viscous_steps]
        assert dts == pytest.approx([cfl / 4] * round(4 / cfl), rel=1e-12)
        assert res.metadata["steps"] == len(dts)
        assert (res.metadata["dt_min"], res.metadata["dt_max"]) == (min(dts), max(dts))

    def test_moving_mesh_speed_limits_the_step(self, viscous_steps):
        # the right end moves at 40 m/s against fluid at 2 m/s: a step sized
        # with the mesh at rest (0.625 s) would break the CFL bound ~9 times
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 + 40.0 * t, n_cells=40)
        res = solve_parabolic(cells(dom, 0.1, 2.0), dom, const_inflow(2.0, 0.1), 2.0,
                              None, 1.0, snapshot_interval=0.5)
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
        dom = fixed_domain(n=10)
        v = np.full(10, 8.0)
        v[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_parabolic(cells(dom, 0.1, v), dom, const_inflow(8.0, 0.1), 2.0,
                            None, 1.0, snapshot_interval)
        v = np.full(11, 8.0)
        v[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite velocity at t = 0.0"):
            step_viscous(v, np.full(10, 0.1), 0.0, 1e-3, 2.0, const_inflow(8.0, 0.1),
                         dom, None)

    def test_non_finite_domain_length_ends_the_step_search(self):
        # the search for a step on a moving mesh must not spin on NaN speeds
        dom = MovingDomain(left=0.0, right_of_t=lambda t: 100.0 if t == 0.0 else np.inf,
                           n_cells=10)
        with pytest.raises(ValueError, match="non-finite velocity at t = 0.0"), \
                np.errstate(invalid="ignore"):
            solve_parabolic(cells(dom, 0.1, 8.0), dom, const_inflow(8.0, 0.1), 2.0,
                            None, 1.0)

    def test_step_range_is_none_without_steps(self):
        dom = fixed_domain(n=10)
        res = solve_parabolic(cells(dom, 0.1, 8.0, t=1.0), dom, const_inflow(8.0, 0.1),
                              2.0, None, 1.0)
        assert (res.metadata["steps"], res.metadata["dt_min"], res.metadata["dt_max"]) \
            == (0, None, None)
