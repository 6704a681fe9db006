import functools

import numpy as np
import pytest

import sigflow.hyperbolic
import sigflow.parabolic
from sigflow import (
    CLOSED,
    BoundaryData,
    ConservedState,
    FlowState,
    ForceLaw,
    RoadGrid,
    numerical_flux,
    run,
    solve_hyperbolic,
    solve_parabolic,
)
from sigflow.domain import VACUUM_RHO
from sigflow.hyperbolic import StepReport, _cfl_step, step
from tests.conftest import assert_bitwise, reference_scenario


def uniform_state(n=50, rho=0.1, v=10.0, x_max=100.0, t=0.0):
    g = RoadGrid(0.0, x_max, n)
    return FlowState(g, np.full(n, rho), np.full(n, v), t)


def inflow_const(rho, v):
    return BoundaryData(rho_in=lambda t: rho, v_in=lambda t: v)


def reference_step(m, q, t, dt, grid, inflow, force):
    """The finite-volume step written one formula at a time: returns
    (m, q, report).  Velocities are q/m where m > VACUUM_RHO and 0
    elsewhere; the force sees q/m outside the cells the step leaves in
    vacuum.  step, which shares one velocity rule between its state and
    its force and forms each flux product once, must match it bit for bit."""
    dx = grid.dx
    v = np.zeros_like(m)
    np.divide(q, m, out=v, where=m > VACUUM_RHO)
    # ghosts: the inflow left of the first cell, the last cell copied right
    # of the last one; face j has (rho_l[j], v_l[j]) left of it and
    # (rho_r[j], v_r[j]) right of it
    rho_l = np.concatenate(([float(inflow.rho_in(t))], m))
    v_l = np.concatenate(([float(inflow.v_in(t))], v))
    rho_r = np.concatenate((m, m[-1:]))
    v_r = np.concatenate((v, v[-1:]))
    s = np.maximum(np.abs(v_l), np.abs(v_r))
    if s.max() * dt / dx > 1.0 + 1e-12:
        raise RuntimeError("CFL violated")
    q_l = rho_l * v_l
    q_r = rho_r * v_r
    f_mass = 0.5 * (q_l + q_r) - 0.5 * s * (rho_r - rho_l)
    f_mom = 0.5 * (q_l * v_l + q_r * v_r) - 0.5 * s * (q_r - q_l)

    m_new = m - (dt / dx) * (f_mass[1:] - f_mass[:-1])
    q_new = q - (dt / dx) * (f_mom[1:] - f_mom[:-1])
    report = StepReport(inflow=dt * float(f_mass[0]), outflow=dt * float(f_mass[-1]))

    neg = m_new < 0
    if neg.any():
        report.clamped = float(-np.sum(m_new[neg]) * dx)
        m_new[neg] = 0.0
    vac = m_new <= VACUUM_RHO
    q_new[vac] = 0.0
    if force is not None:
        v_mid = np.zeros_like(m_new)
        np.divide(q_new, m_new, out=v_mid, where=~vac)
        q_new = q_new + dt * m_new * force(v_mid)
    return m_new, q_new, report


class TestNumericalFlux:
    def test_consistency_with_exact_flux(self):
        f_mass, f_mom = numerical_flux(np.array([0.1, 0.1]), np.array([10.0, 10.0]))
        assert f_mass == pytest.approx(1.0)
        assert f_mom == pytest.approx(10.0)

    def test_vacuum_face_is_exactly_zero(self):
        f_mass, f_mom = numerical_flux(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        assert f_mass == 0.0 and f_mom == 0.0

    def test_hand_derived_jump(self):
        # left (0.2, 4), right (0.1, 2): s = 4
        # mass: 0.5*(0.8 + 0.2) - 0.5*4*(-0.1) = 0.7
        # momentum: 0.5*(3.2 + 0.4) - 0.5*4*(0.2 - 0.8) = 3.0
        f_mass, f_mom = numerical_flux(np.array([0.2, 0.1]), np.array([4.0, 2.0]))
        assert f_mass == pytest.approx(0.7)
        assert f_mom == pytest.approx(3.0)

    def test_vacuum_left_of_forward_flow_receives_nothing(self):
        # face between an empty cell and a forward-moving right neighbor:
        # the mass flux cancels exactly, so the vacuum cell stays empty
        f_mass, _ = numerical_flux(np.array([0.0, 0.15]), np.array([0.0, 7.0]))
        assert f_mass == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_the_face_pair_formula(self, seed):
        # the Rusanov formula on separate left and right face values, each
        # sum and product in the order it takes them
        def face_pairs(rho_l, v_l, rho_r, v_r):
            s = np.maximum(np.abs(v_l), np.abs(v_r))
            q_l = rho_l * v_l
            q_r = rho_r * v_r
            return (0.5 * (q_l + q_r) - 0.5 * s * (rho_r - rho_l),
                    0.5 * (q_l * v_l + q_r * v_r) - 0.5 * s * (q_r - q_l))

        rng = np.random.default_rng(seed)
        n = 300
        rho = rng.uniform(0.0, 0.2, n) * rng.integers(1, 1000, n) / 997.0
        v = rng.normal(8.0, 6.0, n)
        vacuum = rng.random(n) < 0.3  # isolated vacuum cells and runs of them
        rho[vacuum], v[vacuum] = 0.0, 0.0
        got = numerical_flux(rho, v)
        want = face_pairs(rho[:-1], v[:-1], rho[1:], v[1:])
        for g, w in zip(got, want):
            assert g.shape == (n - 1,)
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


class TestCflDt:
    def test_nominal(self):
        assert _cfl_step(1.0, 10.0, 0.5, 0.0) == pytest.approx(0.05)

    def test_speed_floor_when_stopped(self):
        dt = _cfl_step(1.0, 0.0, 0.5, 0.0)
        assert dt == pytest.approx(0.5 * 1.0 / 1e-8)

    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            _cfl_step(1.0, 10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            _cfl_step(1.0, 10.0, 1.5, 0.0)

    @pytest.mark.parametrize("vmax", [np.nan, np.inf])
    def test_rejects_a_non_finite_speed(self, vmax):
        # an infinite speed would give a step of 0.0, which the march refuses
        # without naming the speed
        with pytest.raises(ValueError, match="non-finite velocity at t = 2.5"):
            _cfl_step(1.0, vmax, 0.5, 2.5)


class TestStep:
    def test_uniform_state_is_exactly_preserved(self):
        state = ConservedState.from_flow_state(uniform_state(rho=0.1, v=10.0))
        bc = inflow_const(0.1, 10.0)
        out, rep = step(state, 0.0, 0.05, bc, None)
        np.testing.assert_array_equal(out.m, state.m)
        np.testing.assert_array_equal(out.q, state.q)
        assert rep.inflow == pytest.approx(0.05 * 1.0)
        assert rep.outflow == pytest.approx(0.05 * 1.0)

    def test_source_is_pointwise(self):
        state = ConservedState.from_flow_state(uniform_state(rho=0.1, v=5.0))
        bc = inflow_const(0.1, 5.0)
        out, _ = step(state, 0.0, 0.1, bc, ForceLaw(1.5, 16.0, 4.0))
        np.testing.assert_allclose(out.v, 5.15, rtol=0, atol=1e-13)

    def test_rejects_cfl_violation(self):
        state = ConservedState.from_flow_state(uniform_state(v=10.0, n=100))
        bc = CLOSED
        with pytest.raises(ValueError):
            step(state, 0.0, 1.0, bc, None)  # dx/smax = 0.1

    @pytest.mark.parametrize("v_last, inflow, match", [
        (10.0, CLOSED, "CFL violated at t = 0.0"),
        (np.nan, CLOSED, "non-finite velocity at t = 0.0"),
        # a NaN inflow speed that max(10, nan) would drop
        (10.0, inflow_const(0.1, np.nan), "non-finite velocity at t = 0.0"),
    ], ids=["courant-1.005", "nan-velocity", "nan-inflow-velocity"])
    def test_rejects_a_step_just_past_the_bound(self, v_last, inflow, match):
        # v = 10 on 1 m cells: dt = 0.1005 is a Courant number of 1.005,
        # which step_viscous refuses too
        m = np.full(100, 0.1)
        q = m * 10.0
        q[-1] = m[-1] * v_last
        state = ConservedState(RoadGrid(0.0, 100.0, 100), m, q)
        with pytest.raises(ValueError, match=match):
            step(state, 0.0, 0.1005, inflow, None)

    @pytest.mark.parametrize("rho_last, inflow", [
        (0.1, inflow_const(np.nan, 10.0)),
        (0.1, inflow_const(np.inf, 10.0)),
        # a NaN density has velocity 0, so only the outflow flux sees it
        (np.nan, inflow_const(0.1, 10.0)),
    ], ids=["nan-inflow-density", "inf-inflow-density", "nan-last-density"])
    def test_rejects_a_non_finite_boundary_flux(self, rho_last, inflow):
        m = np.full(100, 0.1)
        m[-1] = rho_last
        state = ConservedState(RoadGrid(0.0, 100.0, 100), m, m * 10.0)
        with pytest.raises(ValueError, match="non-finite density or boundary flux at t = 0.0"):
            step(state, 0.0, 0.05, inflow, None)

    @pytest.mark.parametrize("inflow, message", [
        (inflow_const(-0.5, 10.0), "negative inflow density -0.5 at t = 2.0"),
        (inflow_const(0.1, -5.0), "negative inflow velocity -5.0 at t = 2.0"),
    ], ids=["density", "velocity"])
    def test_rejects_a_negative_inflow(self, inflow, message):
        # read at the step's start; a NaN is left to the checks above
        state = ConservedState.from_flow_state(uniform_state(t=2.0))
        with pytest.raises(ValueError, match=message):
            step(state, 2.0, 0.05, inflow, None)

    def test_clamps_an_overdrained_cell(self, monkeypatch):
        # Rusanov fluxes within the CFL bound never drain a cell below zero;
        # a flux tripled on the faces right of cell 49 drains it to -0.1 veh/m
        def overdraining(rho, v):
            f_mass, f_mom = numerical_flux(rho, v)
            f_mass[50:] *= 3.0
            return f_mass, f_mom
        monkeypatch.setattr(sigflow.hyperbolic, "numerical_flux", overdraining)
        state = ConservedState.from_flow_state(uniform_state(n=100, rho=0.1, v=10.0))
        out, rep = step(state, 0.0, 0.1, inflow_const(0.1, 10.0), None)
        assert rep.clamped == pytest.approx(0.1)  # veh, on 1 m cells
        assert out.m[49] == 0.0 and np.all(out.m >= 0.0)

    def test_vacuum_stays_at_rest(self):
        g = RoadGrid(0.0, 100.0, 50)
        rho = np.zeros(50)
        rho[30:] = 0.1
        v = np.zeros(50)
        v[30:] = 8.0
        state = ConservedState.from_flow_state(FlowState(g, rho, v, 0.0))
        bc = CLOSED
        out, rep = step(state, 0.0, 0.05, bc, None)
        assert np.all(out.m[:30] == 0.0)
        assert np.all(out.q[:30] == 0.0)
        assert rep.inflow == 0.0


class TestStepBitwise:
    @pytest.mark.parametrize("force", [None, ForceLaw(1.0, 16.0, 4.0)], ids=["noforce", "force"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_bit_for_bit(self, seed, force):
        rng = np.random.default_rng(seed)
        n = 300
        grid = RoadGrid(0.0, 600.0, n)
        m = rng.uniform(0.0, 0.2, n) * rng.integers(1, 1000, n) / 997.0
        q = m * rng.normal(8.0, 6.0, n)
        vacuum = rng.random(n) < 0.3  # isolated vacuum cells and runs of them
        m[vacuum], q[vacuum] = 0.0, 0.0
        # an overdrained cell, which the first step clamps; a cell at the
        # vacuum threshold and one below it, both with momentum
        k_drained, k_threshold, k_below = rng.choice(n, 3, replace=False)
        m[k_drained], q[k_drained] = -0.05, 0.0
        m[k_threshold], q[k_threshold] = VACUUM_RHO, 7.0 * VACUUM_RHO
        m[k_below], q[k_below] = 0.1 * VACUUM_RHO, 7.0 * VACUUM_RHO
        inflow = BoundaryData(rho_in=lambda t: 0.1 + 0.05 * np.sin(t),
                              v_in=lambda t: 9.0 + np.sin(3.0 * t))
        state, ref, t = ConservedState(grid, m, q), (m.copy(), q.copy()), 0.0
        for k in range(20):
            v_ext = np.concatenate(([inflow.v_in(t)], state.v))
            dt = 0.5 * grid.dx / np.abs(v_ext).max()
            state, rep = step(state, t, dt, inflow, force)
            m_ref, q_ref, rep_ref = reference_step(*ref, t, dt, grid, inflow, force)
            assert_bitwise(state.m, m_ref)
            assert_bitwise(state.q, q_ref)
            v_ref = np.zeros_like(m_ref)
            np.divide(q_ref, m_ref, out=v_ref, where=m_ref > VACUUM_RHO)
            assert_bitwise(state.v, v_ref)
            for name in ("inflow", "outflow", "clamped"):
                assert_bitwise(getattr(rep, name), getattr(rep_ref, name))
            # the first step clamps the overdrained cell and leaves vacuum
            # cells, which the later steps fill
            assert (rep.clamped > 0.0) == (k == 0)
            if k == 0:
                assert np.count_nonzero(m_ref <= VACUUM_RHO) > 0.05 * n
            ref, t = (m_ref, q_ref), t + dt


class TestSolve:
    def test_stationary_traffic_is_frozen(self):
        g = RoadGrid(0.0, 100.0, 50)
        rho = 0.1 + 0.05 * np.sin(2 * np.pi * g.centers / 50.0)
        init = FlowState(g, rho, np.zeros(50), 0.0)
        bc = inflow_const(0.1, 0.0)
        res = solve_hyperbolic(init, bc, None, 5.0, snapshot_interval=1.0)
        np.testing.assert_array_equal(res.final.rho, rho)
        np.testing.assert_array_equal(res.final.v, np.zeros(50))

    def test_uniform_acceleration_with_matched_inflow(self):
        init = uniform_state(rho=0.1, v=5.0)
        bc = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 5.0 + 1.5 * t)
        res = solve_hyperbolic(init, bc, ForceLaw(1.5, 16.0, 4.0), 2.0)
        np.testing.assert_allclose(res.final.v, 8.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.final.rho, 0.1, rtol=0, atol=1e-10)

    def test_mass_ledger_closes(self):
        g = RoadGrid(0.0, 200.0, 80)
        rho = 0.1 + 0.03 * np.sin(2 * np.pi * g.centers / 100.0)
        v = np.full(80, 9.0)
        init = FlowState(g, rho, v, 0.0)
        bc = inflow_const(0.1, 9.0)
        res = solve_hyperbolic(init, bc, None, 10.0, snapshot_interval=2.0)
        m0 = res.ledger[0]["total_mass"]
        m1 = res.ledger[-1]["total_mass"]
        residual = (m1 - m0) - (res.influx - res.outflux + res.clamped)
        assert abs(residual) < 1e-12 * max(m0, 1.0)

    def test_snapshots_land_on_cadence(self):
        res = solve_hyperbolic(
            uniform_state(v=10.0),
            inflow_const(0.1, 10.0),
            None,
            5.0,
            snapshot_interval=1.0,
        )
        assert [s.t for s in res.snapshots] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_last_snapshot_lands_on_t_end_exactly(self):
        # 3 * 0.7 rounds to just below 2.1; the run must still end at 2.1
        res = solve_hyperbolic(
            uniform_state(), CLOSED, None,
            2.1, snapshot_interval=0.7,
        )
        assert len(res.snapshots) == 4
        assert res.final.t == res.ledger[-1]["t"] == 2.1

    def test_vacuum_left_boundary_mass_never_increases(self):
        g = RoadGrid(0.0, 200.0, 80)
        rho = np.full(80, 0.12)
        v = np.full(80, 8.0)
        init = FlowState(g, rho, v, 0.0)
        bc = CLOSED
        res = solve_hyperbolic(init, bc, None, 10.0, snapshot_interval=1.0)
        masses = [rec["total_mass"] for rec in res.ledger]
        assert all(b - a <= 1e-12 for a, b in zip(masses, masses[1:]))
        assert res.influx == 0.0

    @pytest.mark.parametrize("push, message", [(-1e4, "negative velocity"),
                                                (np.nan, "must be finite")])
    def test_bad_velocity_stops_the_run_at_the_next_step(self, push, message):
        # the step size is taken from checked velocities every step, not only
        # at the snapshots (here only t_end)
        calls = []

        def force(v):
            calls.append(len(v))
            return np.full_like(v, push)

        with pytest.raises(ValueError, match=message):
            solve_hyperbolic(uniform_state(), inflow_const(0.1, 10.0), force, 10.0)
        assert len(calls) == 1

    def test_metadata_records_the_steps(self, monkeypatch):
        import sigflow.hyperbolic as hyp

        dts = []
        real_step = hyp.step

        def recording(state, t, dt, *args):
            dts.append(dt)
            return real_step(state, t, dt, *args)

        monkeypatch.setattr(hyp, "step", recording)
        res = solve_hyperbolic(uniform_state(), inflow_const(0.1, 10.0), None, 2.1,
                               snapshot_interval=0.7)
        # dx = 2 and v = 10: CFL steps of 0.1, shortened onto the snapshots
        assert res.metadata["steps"] == len(dts) >= 21
        assert res.metadata["dt_min"] == min(dts)
        assert res.metadata["dt_max"] == max(dts) == pytest.approx(0.1)

    def test_inflow_faster_than_the_road_sizes_the_steps(self, monkeypatch):
        # step's CFL check sees the inflow ghost at 25 m/s; a step sized from
        # the road's 10 m/s alone would break its bound 2.5 times over
        import sigflow.hyperbolic as hyp

        ratios = []
        real_step = hyp.step

        def recording(state, t, dt, inflow, force):
            smax = max(float(np.max(np.abs(state.v))), abs(inflow.v_in(t)))
            ratios.append(dt * smax / state.grid.dx)
            return real_step(state, t, dt, inflow, force)

        monkeypatch.setattr(hyp, "step", recording)
        res = solve_hyperbolic(uniform_state(v=10.0), inflow_const(0.1, 25.0), None,
                               2.0, snapshot_interval=0.5)
        assert res.final.t == 2.0
        assert res.metadata["steps"] == len(ratios)
        assert max(ratios) <= 0.5 * (1 + 1e-12)
        assert max(ratios) > 0.45  # the inflow speed is what limits the step

    def test_velocities_are_computed_once_per_step(self, monkeypatch):
        # a ConservedState computes its velocities when it is built
        built = []
        real = ConservedState.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(ConservedState, "__post_init__", counting)
        res = solve_hyperbolic(uniform_state(), inflow_const(0.1, 10.0), None, 2.0,
                               snapshot_interval=0.5)
        assert len(res.snapshots) == 5
        # one per step and one for the initial state, none per snapshot
        assert len(built) == res.metadata["steps"] + 1

    @pytest.mark.parametrize("cfl", [0.0, 1.5])
    def test_rejects_bad_cfl(self, cfl):
        with pytest.raises(ValueError, match="cfl must lie"):
            solve_hyperbolic(uniform_state(), inflow_const(0.1, 10.0), None, 1.0, cfl=cfl)

    def test_rejects_reversed_horizon(self):
        with pytest.raises(ValueError):
            solve_hyperbolic(
                uniform_state(t=5.0),
                CLOSED,
                None,
                1.0,
            )

    @pytest.mark.parametrize("solver", ["hyperbolic", "parabolic"])
    def test_bad_horizon_or_interval_is_rejected_before_a_step(self, solver, monkeypatch):
        # both solvers march the same loop; t_end = inf comes last, because
        # a run toward it would not end without the check
        def no_step(*args):
            raise AssertionError("a step was taken")

        state, inflow = uniform_state(), inflow_const(0.1, 10.0)
        if solver == "hyperbolic":
            monkeypatch.setattr(sigflow.hyperbolic, "step", no_step)
            solve = functools.partial(solve_hyperbolic, state, inflow, None)
        else:
            monkeypatch.setattr(sigflow.parabolic, "step_viscous", no_step)
            solve = functools.partial(solve_parabolic, state, inflow, 2.0, None)
        for interval in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="snapshot_interval must be positive"):
                solve(3.0, snapshot_interval=interval)
        for t_end in (np.nan, np.inf):
            with pytest.raises(ValueError, match="t_end must be finite"):
                solve(t_end)

    @pytest.mark.parametrize("solver", ["hyperbolic", "parabolic"])
    def test_a_step_that_does_not_advance_the_clock_is_refused(self, solver):
        # 8 + 1e-300 rounds to 8: without the check every step would have
        # dt = 0 and take a snapshot, and the run would not end
        state, inflow = uniform_state(t=8.0), inflow_const(0.1, 10.0)
        if solver == "hyperbolic":
            solve = functools.partial(solve_hyperbolic, state, inflow, None)
        else:
            solve = functools.partial(solve_parabolic, state, inflow, 2.0, None)
        with pytest.raises(ValueError, match=r"at t = 8\.0 does not advance the clock"):
            solve(10.0, snapshot_interval=1e-300)


@pytest.mark.parametrize("model", ["first", "second"])
def test_ledger_is_the_running_sum_of_the_step_reports(model, monkeypatch):
    # every StepReport that step and step_viscous return, in order, with the
    # time march hands each step; the first model runs both solvers
    reports, starts = [], []

    def recording(real):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            reports.append(out[-1])
            return out
        return wrapper

    def timed_march(*args, advance, **kwargs):
        def timed(state, t, dt):
            starts.append(t)
            return advance(state, t, dt)
        return real_march(*args, advance=timed, **kwargs)

    real_march = sigflow.hyperbolic.march
    monkeypatch.setattr(sigflow.hyperbolic, "step", recording(sigflow.hyperbolic.step))
    monkeypatch.setattr(sigflow.parabolic, "step_viscous",
                        recording(sigflow.parabolic.step_viscous))
    monkeypatch.setattr(sigflow.hyperbolic, "march", timed_march)
    monkeypatch.setattr(sigflow.parabolic, "march", timed_march)
    traj = run(reference_scenario(model))

    assert len(reports) == len(starts) == sum(p.metadata["steps"] for p in traj.phases)
    end = 0
    for phase in traj.phases:
        begin, end = end, end + phase.metadata["steps"]
        steps = list(zip(starts[begin:end], reports[begin:end]))
        for row in phase.ledger:
            inflow = outflow = clamped = 0.0
            for t, report in steps:
                if t < row["t"]:
                    inflow += report.inflow
                    outflow += report.outflow
                    clamped += report.clamped
            assert (row["inflow_cum"], row["outflow_cum"], row["clamped_cum"]) == (
                inflow, outflow, clamped), (phase.name, row["t"])
        last = phase.ledger[-1]
        assert (phase.influx, phase.outflux, phase.clamped) == (
            last["inflow_cum"], last["outflow_cum"], last["clamped_cum"])
