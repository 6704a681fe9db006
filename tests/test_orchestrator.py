import dataclasses

import numpy as np
import pytest

import sigflow.parabolic
from sigflow import (
    CLOSED,
    BoundaryData,
    FlowState,
    PhaseError,
    RoadGrid,
    ScenarioError,
    mass_balance_report,
    merge,
    run,
    solve_hyperbolic,
    split_at,
)
from sigflow.lagrangian import cumulative_count, cumulative_count_w1
from sigflow.orchestrator import Trajectory
from tests.conftest import reference_scenario, shipped_scenario


def uniform_state(n=60, rho=0.1, v=10.0, x_max=600.0, t=0.0):
    g = RoadGrid(0.0, x_max, n)
    return FlowState(g, np.full(n, rho), np.full(n, v), t)


def assert_stopped_at_light(traj):
    """During red the braking strip ends at the light, and its ledger shows
    no vehicle leaving through it."""
    tm = traj.scenario.timing
    braking = traj.phase("upstream_braking")
    red = [k for k, snap in enumerate(braking.snapshots)
           if tm.t0 <= snap.t <= tm.t0 + tm.tau1]
    assert len(red) >= 2
    for k in red:
        assert braking.snapshots[k].grid.x_max == 400.0
        assert braking.ledger[k]["outflow_cum"] == braking.ledger[red[0]]["outflow_cum"]


class TestSplit:
    def test_partition_masses_sum_exactly(self):
        state = uniform_state()
        up, down, shift = split_at(state, 300.0)
        assert shift == 0.0
        # cells are partitioned bit-for-bit; the totals only differ by the
        # summation order
        assert up.total_mass + down.total_mass == pytest.approx(
            state.total_mass, rel=1e-13
        )
        np.testing.assert_array_equal(np.concatenate([up.rho, down.rho]), state.rho)
        assert up.grid.x_max == 300.0 and down.grid.x_min == 300.0

    def test_uniform_halves(self):
        up, down, _ = split_at(uniform_state(), 300.0)
        np.testing.assert_array_equal(up.rho, 0.1)
        np.testing.assert_array_equal(down.rho, 0.1)

    def test_off_face_snap_recorded(self):
        state = uniform_state(n=60, x_max=600.0)  # dx = 10
        up, down, shift = split_at(state, 303.0)
        assert shift == pytest.approx(-3.0)
        assert up.grid.x_max == 300.0

    def test_rejects_thin_sides(self):
        with pytest.raises(ValueError):
            split_at(uniform_state(), 10.0)
        with pytest.raises(ValueError):
            split_at(uniform_state(), 595.0)

    def test_split_then_merge_is_identity(self):
        g = RoadGrid(0.0, 600.0, 60)
        rng = np.random.default_rng(4)
        state = FlowState(g, 0.05 + rng.uniform(0.0, 0.1, 60),
                          rng.uniform(0.0, 12.0, 60), 3.0)
        up, down, _ = split_at(state, 300.0)
        back = merge(up, down, g)
        np.testing.assert_array_equal(back.rho, state.rho)
        np.testing.assert_array_equal(back.v, state.v)


class TestMerge:
    def test_time_mismatch_rejected(self):
        state = uniform_state(t=5.0)
        up, down, _ = split_at(state, 300.0)
        for late_up, late_down in [(dataclasses.replace(up, t=5.1), down),
                                   (up, dataclasses.replace(down, t=5.1))]:
            with pytest.raises(ValueError, match="time mismatch"):
                merge(late_up, late_down, state.grid)

    def test_light_off_the_target_faces_rejected(self):
        # a braking strip ending at 405 m has no face of the 10 m cells to
        # merge at
        g = RoadGrid(0.0, 600.0, 60)
        up = FlowState(RoadGrid(0.0, 405.0, 40), np.full(40, 0.1), np.zeros(40), 9.0)
        down = FlowState(RoadGrid(340.0, 600.0, 26), np.full(26, 0.05),
                         np.full(26, 14.0), 9.0)
        with pytest.raises(ValueError, match=r"braking strip .*405"):
            merge(up, down, g)

    def test_stop_to_go_discontinuity_at_light(self):
        g = RoadGrid(0.0, 600.0, 60)
        up = FlowState(RoadGrid(0.0, 400.0, 40), np.full(40, 0.2), np.zeros(40), 9.0)
        down = FlowState(RoadGrid(340.0, 600.0, 26), np.full(26, 0.05),
                         np.full(26, 14.0), 9.0)
        out = merge(up, down, g)
        below = g.centers < 400.0
        np.testing.assert_array_equal(out.v[below], 0.0)
        np.testing.assert_array_equal(out.v[~below], 14.0)
        np.testing.assert_array_equal(out.rho[below], 0.2)
        np.testing.assert_array_equal(out.rho[~below], 0.05)

    def test_partition_additivity(self):
        g = RoadGrid(0.0, 600.0, 60)
        rng = np.random.default_rng(17)
        up = FlowState(RoadGrid(0.0, 400.0, 40), 0.1 + rng.uniform(0, 0.1, 40),
                       rng.uniform(0, 10, 40), 2.0)
        down = FlowState(RoadGrid(340.0, 600.0, 26), 0.1 + rng.uniform(0, 0.1, 26),
                         rng.uniform(0, 10, 26), 2.0)
        out = merge(up, down, g)
        expect = np.sum(up.rho) * 10.0 + np.sum(down.rho[6:]) * 10.0
        assert out.total_mass == pytest.approx(expect, rel=1e-14)

    def test_stretched_braking_strip_is_remapped_by_its_count(self):
        # 17 braking cells over [0, 400] onto the 40 road cells below the
        # light; the released strip's cells from the light on are copied by
        # index
        g = RoadGrid(0.0, 600.0, 60)
        rng = np.random.default_rng(23)
        up = FlowState(RoadGrid(0.0, 400.0, 17), rng.uniform(0.0, 0.3, 17),
                       rng.uniform(0.0, 10.0, 17), 4.0)
        down = FlowState(RoadGrid(340.0, 600.0, 26), rng.uniform(0.0, 0.1, 26),
                         rng.uniform(0.0, 14.0, 26), 4.0)
        out = merge(up, down, g)
        assert np.sum(out.rho[:40]) * g.dx == pytest.approx(up.total_mass,
                                                            rel=1e-13, abs=0.0)
        assert np.array_equal(out.rho[40:], down.rho[6:])
        assert np.array_equal(out.v[40:], down.v[6:])
        # the road faces carry the strip's count
        np.testing.assert_allclose(
            cumulative_count(out)[:41],
            np.interp(g.faces[:41], up.grid.faces, cumulative_count(up)),
            rtol=0.0, atol=1e-13)

    def test_misaligned_released_strip_is_rejected(self):
        g = RoadGrid(0.0, 600.0, 60)
        up = uniform_state(n=40, x_max=400.0, t=1.0)
        down = FlowState(RoadGrid(345.0, 600.0, 26), np.full(26, 0.1),
                         np.full(26, 5.0), 1.0)
        with pytest.raises(ValueError, match="released strip"):
            merge(up, down, g)


class TestRunFirstModel:
    def test_phase_plan_tiles_the_horizon(self, first_model_trajectory):
        traj = first_model_trajectory
        names = [p.name for p in traj.phases]
        assert names == ["free_flow", "upstream_braking", "downstream_release", "resume"]
        tm = traj.scenario.timing
        assert traj.phase("free_flow").t_start == 0.0
        assert traj.phase("free_flow").t_end == tm.t0 - tm.tau0
        assert traj.phase("upstream_braking").t_end == tm.t0 + tm.tau1
        assert traj.phase("downstream_release").t_start == tm.t0 - tm.tau0
        assert traj.phase("resume").t_end == traj.scenario.t_end

    def test_stopped_at_light_during_red(self, first_model_trajectory):
        assert_stopped_at_light(first_model_trajectory)

    def test_compatibility_residual_vanishes_with_default_profile(
        self, first_model_trajectory
    ):
        assert first_model_trajectory.compatibility_residual == 0.0

    def test_snapshots_time_ordered(self, first_model_trajectory):
        times = [s.t for s in first_model_trajectory.snapshots]
        assert times == sorted(times)

    def test_empty_road_stays_empty(self):
        s = reference_scenario()
        zero = lambda x: np.zeros_like(np.asarray(x, float))
        s = dataclasses.replace(
            s, rho0=zero, v0=zero,
            inflow=CLOSED,
        )
        traj = run(s)
        for snap in traj.snapshots:
            assert np.all(snap.rho == 0.0)
            assert np.all(snap.v == 0.0)

    def test_invalid_scenario_raises_with_violations(self):
        # refused where it is built, so run never sees it
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(reference_scenario(), mu=-1.0)
        assert any("mu" in v for v in exc.value.violations)

    def test_determinism(self):
        s = reference_scenario(n_cells=80)
        a = run(s)
        b = run(s)
        np.testing.assert_array_equal(a.final.rho, b.final.rho)
        np.testing.assert_array_equal(a.final.v, b.final.v)
        assert mass_balance_report(a) == mass_balance_report(b)


class TestRun:
    @pytest.mark.parametrize("model, phase", [
        ("first", "upstream_braking"),  # viscous only in the braking phase
        ("second", "free_flow"),
    ])
    def test_phase_failures_are_annotated(self, model, phase, monkeypatch):
        # a viscous step that fails after t_bad fails the first viscous phase
        # (the finite-volume free flow of the first model ends at t0 - tau0)
        s = reference_scenario(model)
        t_bad = s.timing.t0 - s.timing.tau0 if model == "first" else 0.0
        step = sigflow.parabolic.step_viscous

        def failing_step(v, rho, t, *args):
            if t > t_bad:
                raise ValueError(f"injected fault at t = {t}")
            return step(v, rho, t, *args)

        monkeypatch.setattr(sigflow.parabolic, "step_viscous", failing_step)
        with pytest.raises(PhaseError) as exc:
            run(s)
        assert exc.value.phase == phase
        assert isinstance(exc.value.cause, ValueError)

    @pytest.mark.parametrize("model", ["first", "second"])
    @pytest.mark.parametrize("x0, h", [(70.0, 65.0), (598.0, 2.0)])
    def test_split_near_a_road_end_is_rejected(self, model, x0, h):
        # dx = 4: x0 - h snaps to face 1 (near x_min) or face 149 (near x_max)
        timing = dataclasses.replace(reference_scenario().timing, x0=x0, h=h)
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(reference_scenario(model), timing=timing)
        assert any(v.startswith("signal.x0/h") for v in exc.value.violations)

    @pytest.mark.parametrize("model", ["first", "second"])
    @pytest.mark.parametrize("x_min, n_cells, h", [(0.0, 150, 1.0), (-100.0, 175, 399.0)])
    def test_braking_zone_that_snaps_empty_is_rejected(self, model, x_min, n_cells, h):
        # dx = 4, x0 = 400: x0 - h snaps to the light's face, or to the face at
        # x = 0, so the rebuilt timing would break 0 < h < x0
        s = reference_scenario(model)
        with pytest.raises(ScenarioError) as exc:
            dataclasses.replace(
                s, grid=RoadGrid(x_min, 600.0, n_cells),
                timing=dataclasses.replace(s.timing, h=h),
            )
        assert any(v.startswith("signal.x0/h") for v in exc.value.violations)


class TestRunSecondModel:
    def test_stopped_at_light_during_red(self, second_model_trajectory):
        assert_stopped_at_light(second_model_trajectory)

    def test_all_phases_viscous(self, second_model_trajectory):
        assert all(p.solver == "parabolic" for p in second_model_trajectory.phases)

    def test_dispatch_by_model_tag(self):
        s = reference_scenario("second", n_cells=80, t_end=20.0)
        traj = run(s)
        assert all(p.solver == "parabolic" for p in traj.phases)

    def test_vanishing_viscosity_approaches_first_model(self):
        # with the driver force off the two models differ only through mu;
        # shrinking mu must shrink the gap on a smooth scenario
        def gap(mu):
            s1 = reference_scenario("first", n_cells=100, mu=mu, force=None,
                                    v0_amp=2.0, t_end=20.0)
            s2 = dataclasses.replace(s1, model="second")
            f1 = run(s1).final
            f2 = run(s2).final
            v2 = np.interp(f1.grid.centers, f2.grid.centers, f2.v)
            r2 = np.interp(f1.grid.centers, f2.grid.centers, f2.rho)
            dx = f1.grid.dx
            return float(np.sum(np.abs(f1.v - v2) + np.abs(f1.rho - r2)) * dx)

        assert gap(5.0) < gap(20.0)


class TestMassBalanceReport:
    def test_schema_fields_present(self, first_model_trajectory):
        rep = mass_balance_report(first_model_trajectory)
        assert rep["schema_version"] == 1
        assert {"initial_mass", "final_mass", "net_boundary_flux",
                "handoff_adjustment", "residual"} <= set(rep["global"])
        for p in rep["phases"]:
            assert {"name", "solver", "t_start", "t_end", "initial_mass",
                    "final_mass", "influx", "outflux", "clamped", "residual"} <= set(p)
        assert set(rep["handoff_adjustments"]) == {"split", "merge"}

    def test_closed_system_residual(self):
        # stopped traffic, sealed left, nothing reaches the outflow boundary
        g = RoadGrid(0.0, 100.0, 40)
        init = FlowState(g, np.full(40, 0.1), np.zeros(40), 0.0)
        res = solve_hyperbolic(
            init, CLOSED, None, 5.0,
            snapshot_interval=1.0,
        )
        traj = Trajectory(
            scenario=None, phases=[dataclasses.replace(res, name="only")],
            compatibility_residual=None, split_shift=0.0, light_shift=0.0,
            handoff_adjustments={},
        )
        rep = mass_balance_report(traj)
        assert abs(rep["global"]["residual"]) <= 1e-10
        assert rep["global"]["net_boundary_flux"] == 0.0

    def test_pure_inflow_run_gains_the_influx(self):
        # occupied stretch far from the right edge: outflux stays identically 0
        g = RoadGrid(0.0, 400.0, 80)
        rho = np.where(g.centers < 100.0, 0.1, 0.0)
        v = np.where(g.centers < 100.0, 5.0, 0.0)
        init = FlowState(g, rho, v, 0.0)
        bc = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 5.0)
        res = solve_hyperbolic(init, bc, None, 5.0, snapshot_interval=1.0)
        assert res.outflux == 0.0
        m0 = res.ledger[0]["total_mass"]
        m1 = res.ledger[-1]["total_mass"]
        assert m1 - m0 == pytest.approx(res.influx + res.clamped, rel=1e-9)

    def test_global_closure_matches_phase_ledgers(self, second_model_trajectory):
        rep = mass_balance_report(second_model_trajectory)
        total = rep["global"]
        recon = (
            total["initial_mass"] + total["net_boundary_flux"]
            + total["handoff_adjustment"] + total["residual"]
        )
        assert recon == pytest.approx(total["final_mass"], rel=1e-14)


class TestCflSteps:
    """Viscous steps follow the CFL in every phase of the shipped scenario."""

    @pytest.mark.parametrize("model", ["first", "second"])
    def test_every_viscous_step_meets_the_cfl_bound(self, model, viscous_steps):
        s = shipped_scenario(model)
        traj = run(s)
        ratios = [r for _, _, r, _ in viscous_steps]
        assert all(r <= s.cfl * (1 + 1e-12) for r in ratios)  # rounding only
        # the braking strip's moving steps are among them
        assert sum(moving for *_, moving in viscous_steps) > 10
        steps = [p.metadata["steps"] for p in traj.phases if p.solver == "parabolic"]
        assert sum(steps) == len(viscous_steps)

    @pytest.mark.parametrize("model", ["first", "second"])
    def test_w1_at_t_end_falls_under_refinement(self, model):
        reference = run(shipped_scenario(model, 1200)).final
        w1 = [cumulative_count_w1(run(shipped_scenario(model, n)).final, reference)
              for n in (150, 300, 600)]
        assert w1[0] > w1[1] > w1[2], w1
