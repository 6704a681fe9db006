"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities so
the suite output doubles as a verification record.
"""

import dataclasses
import time

import numpy as np
import pytest

import sigflow.parabolic
from sigflow import (
    CLOSED,
    BoundaryData,
    BrakingProfile,
    FlowState,
    ForceLaw,
    RoadGrid,
    SignalTiming,
    advance_characteristics,
    default_braking_profile,
    initial_state,
    mass_balance_report,
    merge,
    reconstruct_physical,
    run,
    solve_hyperbolic,
    solve_parabolic,
    split_at,
    to_mass_coordinates,
)
from tests.conftest import phase_named, reference_scenario, stationary_scenario


def _verdict(k: int, ok: bool, detail: str):
    line = f"[criterion {k:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _record_faces(monkeypatch) -> list:
    """(t + dt, face velocities) of every viscous step, in call order."""
    out = []
    step = sigflow.parabolic.step_viscous

    def recording(v, rho, t, dt, *args):
        v_new, rho_new, report = step(v, rho, t, dt, *args)
        out.append((t + dt, v_new))
        return v_new, rho_new, report

    monkeypatch.setattr(sigflow.parabolic, "step_viscous", recording)
    return out


class TestCriterion1OracleEquivalence:
    @staticmethod
    def _l1_errors(n):
        g = RoadGrid(0.0, 400.0, n)
        rho0 = lambda x: 0.1 + 0.02 * np.sin(2 * np.pi * np.asarray(x, float) / 200.0)
        inflow = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 10.0)
        init = FlowState(g, rho0(g.centers), np.full(n, 10.0), 0.0)
        fv = solve_hyperbolic(init, inflow, None, 8.0, cfl=0.5)

        fine = RoadGrid(0.0, 400.0, 4 * n)
        field = to_mass_coordinates(
            FlowState(fine, rho0(fine.centers), np.full(4 * n, 10.0), 0.0)
        )
        field = advance_characteristics(field, inflow, None, 8.0, 800)
        ref = reconstruct_physical(field, g)

        w = g.dx / (g.x_max - g.x_min)
        l1_rho = float(np.sum(np.abs(fv.final.rho - ref.rho)) * w)
        l1_v = float(np.sum(np.abs(fv.final.v - ref.v)) * w)
        return l1_rho, l1_v

    def test_solver_matches_oracle_under_refinement(self):
        start = time.perf_counter()
        coarse_rho, _ = self._l1_errors(200)
        fine_rho, fine_v = self._l1_errors(800)
        elapsed = time.perf_counter() - start
        ratio = coarse_rho / fine_rho
        ok = ratio >= 1.8 and fine_v < 0.05 and elapsed < 10.0
        _verdict(
            1, ok,
            f"L1(rho) {coarse_rho:.3e} -> {fine_rho:.3e} (ratio {ratio:.2f} >= 1.8), "
            f"L1(v) {fine_v:.3e} < 0.05, {elapsed:.1f} s < 10 s",
        )


class TestCriterion2UniformAcceleration:
    def test_all_three_integrators_reach_v8(self):
        start = time.perf_counter()
        force = ForceLaw(1.5, 16.0, 4.0)

        g = RoadGrid(0.0, 200.0, 100)
        init = FlowState(g, np.full(100, 0.1), np.full(100, 5.0), 0.0)
        bc = BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 5.0 + 1.5 * t)
        hyp_dev = float(np.max(np.abs(
            solve_hyperbolic(init, bc, force, 2.0).final.v - 8.0)))

        ramp = lambda t: 5.0 + 1.5 * t
        pbc = BoundaryData(rho_in=lambda t: 0.1, v_in=ramp)
        start_cells = FlowState(RoadGrid(0.0, 100.0, 30), np.full(30, 0.1),
                                np.full(30, 5.0), 0.0)
        # both ends hold the ramp: the right end stays at 100 m
        fixed_end = BrakingProfile(gamma=lambda t: 100.0, V=ramp)
        res = solve_parabolic(start_cells, pbc, 2.0, force, 2.0, braking=fixed_end)
        par_dev = float(np.max(np.abs(res.final.v - 8.0)))

        field = to_mass_coordinates(init)
        field = advance_characteristics(field, CLOSED, force, 2.0, 100)
        lag_dev = float(np.max(np.abs(field.v_hat - 8.0)))

        elapsed = time.perf_counter() - start
        ok = max(hyp_dev, par_dev, lag_dev) <= 1e-8 and elapsed < 1.0
        _verdict(
            2, ok,
            f"|v - 8| finite-volume {hyp_dev:.2e}, viscous {par_dev:.2e}, "
            f"mass-coordinate {lag_dev:.2e}, all <= 1e-8, {elapsed:.2f} s < 1 s",
        )


class TestCriterion3MassConservation:
    def test_standard_suite_closes_mass(self):
        suite = [
            reference_scenario("first"),
            reference_scenario("second"),
            reference_scenario("first", n_cells=100, mu=1.0, v0_amp=1.0),
            reference_scenario("second", n_cells=100, mu=1.0, v0_amp=1.0),
        ]
        start = time.perf_counter()
        worst = 0.0
        for s in suite:
            rep = mass_balance_report(run(s))
            scale = max(rep["global"]["initial_mass"], rep["global"]["final_mass"], 1.0)
            worst = max(worst, abs(rep["global"]["residual"]) / scale)
            for p in rep["phases"]:
                pscale = max(p["initial_mass"], p["final_mass"], 1.0)
                worst = max(worst, abs(p["residual"]) / pscale)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 30.0
        _verdict(
            3, ok,
            f"worst relative mass residual {worst:.2e} <= 1e-9 over "
            f"{len(suite)} runs, {elapsed:.1f} s < 30 s",
        )


class TestCriterion4StopGuarantee:
    def test_velocity_zero_at_light_and_compatible_handoff(
        self, first_model_trajectory, second_model_trajectory
    ):
        # the braking strip's outflow through the light, from its ledger: it
        # must not change between red onset and green
        start = time.perf_counter()
        worst_flow = 0.0
        worst_res = 0.0
        for traj in (first_model_trajectory, second_model_trajectory):
            tm = traj.scenario.timing
            red = [rec["outflow_cum"] for rec in phase_named(traj, "upstream_braking").ledger
                   if tm.t0 <= rec["t"] <= tm.t0 + tm.tau1]
            assert len(red) >= 2, "fewer than two ledger records inside the red window"
            worst_flow = max(worst_flow, max(red) - min(red))
            worst_res = max(worst_res, traj.compatibility_residual)
        elapsed = time.perf_counter() - start
        ok = worst_flow == 0.0 and worst_res < 1e-6 and elapsed < 20.0
        _verdict(
            4, ok,
            f"vehicles through the light during red = {worst_flow:.1e} (exactly 0 "
            f"required), compatibility residual {worst_res:.1e} < 1e-6, both models",
        )


class TestCriterion5VacuumBoundary:
    def test_downstream_mass_non_increasing(self, first_model_trajectory):
        start = time.perf_counter()
        phase = phase_named(first_model_trajectory, "downstream_release")
        masses = [rec["total_mass"] for rec in phase.ledger]
        rises = [b - a for a, b in zip(masses, masses[1:]) if b > a]
        worst = max(rises, default=0.0)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and phase.influx == 0.0 and elapsed < 5.0
        _verdict(
            5, ok,
            f"released-flow mass non-increasing (worst rise {worst:.1e} <= 1e-12), "
            f"inflow identically 0",
        )


class TestCriterion6MaximumPrinciple:
    def test_randomized_runs_with_cfl_steps_respect_data_bounds(self, monkeypatch):
        # the bound holds for the snapshots' cells and for every face; each
        # step is the CFL step (about 0.1 s here), and the bound takes the
        # boundary data at the times the solver sampled it
        faces = _record_faces(monkeypatch)
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        grid = RoadGrid(0.0, 100.0, 40)
        y = (np.arange(40) + 0.5) / 40  # cell centers
        worst = -np.inf
        steps = 0
        for _ in range(20):
            b0 = rng.uniform(3.0, 8.0)
            b1 = rng.uniform(0.0, b0 / 2.0)
            k = rng.integers(1, 4)
            phi = rng.uniform(0.0, 2 * np.pi)
            v0 = b0 + b1 * np.sin(2 * np.pi * k * y + phi)
            a0 = rng.uniform(3.0, 8.0)
            a1 = rng.uniform(0.0, a0 / 2.0)
            om = rng.uniform(0.5, 6.0)
            sampled = []

            def left_v(t, a0=a0, a1=a1, om=om, sampled=sampled):
                sampled.append((t, a0 + a1 * np.sin(om * t)))
                return sampled[-1][1]

            rho = np.full(40, rng.uniform(0.05, 0.2))
            bc = BoundaryData(rho_in=lambda t, r=rho: float(r[0]), v_in=left_v)
            faces.clear()
            res = solve_parabolic(FlowState(grid, rho, v0, 0.0), bc,
                                  rng.uniform(0.5, 4.0), None, 3.0,
                                  snapshot_interval=0.25)
            steps += res.metadata["steps"]
            for t_snap, v in [(snap.t, snap.v) for snap in res.snapshots[1:]] + faces:
                seen = [vb for t, vb in sampled if t <= t_snap + 1e-12]
                bound = max(float(np.max(v0)), max(seen))
                worst = max(worst, float(np.max(v)) - bound)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 10.0
        _verdict(
            6, ok,
            f"20 randomized trials, {steps} CFL steps: max excess over "
            f"initial+boundary data {worst:.2e} <= 1e-8, {elapsed:.1f} s < 10 s",
        )


class TestCriterion7TransformRoundTrip:
    def test_fifty_random_profiles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(50, 400))
            x_max = rng.uniform(50.0, 500.0)
            g = RoadGrid(0.0, x_max, n)
            x = g.centers
            base = rng.uniform(0.05, 0.2)
            rho = base + rng.uniform(0.0, base * 0.9) * np.sin(
                2 * np.pi * rng.integers(1, 6) * x / x_max + rng.uniform(0, 2 * np.pi)
            )
            v = rng.uniform(0.0, 15.0) + rng.uniform(0.0, 3.0) * np.cos(
                2 * np.pi * rng.integers(1, 6) * x / x_max
            )
            v = np.maximum(v, 0.0)
            state = FlowState(g, rho, v, 0.0)
            back = reconstruct_physical(to_mass_coordinates(state), g)
            worst = max(
                worst,
                float(np.max(np.abs(back.rho - rho) / rho)),
                float(np.max(np.abs(back.v - v)) / (1.0 + float(np.max(v)))),
            )
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 2.0
        _verdict(
            7, ok,
            f"50 profiles: worst relative round-trip error {worst:.2e} <= 1e-8, "
            f"{elapsed:.2f} s < 2 s",
        )


class TestCriterion8MergeCorrectness:
    def test_merge_is_bitwise(self, first_model_trajectory):
        start = time.perf_counter()
        g = RoadGrid(0.0, 600.0, 60)
        rng = np.random.default_rng(31)
        state = FlowState(g, 0.05 + rng.uniform(0, 0.1, 60),
                          rng.uniform(0, 12, 60), 1.0)
        up, down, _ = split_at(state, 300.0)
        back = merge(up, down, g)
        round_trip = (np.array_equal(back.rho, state.rho)
                      and np.array_equal(back.v, state.v))

        traj = first_model_trajectory
        tm = traj.scenario.timing
        t_green = tm.t0 + tm.tau1
        up_f = phase_named(traj, "upstream_braking").final
        down_f = phase_named(traj, "downstream_release").final
        merged = merge(up_f, down_f, traj.scenario.grid)
        sel = traj.scenario.grid.centers >= tm.x0
        n_keep = int(np.sum(sel))
        downstream_bitwise = (
            np.array_equal(merged.rho[sel], down_f.rho[-n_keep:])
            and np.array_equal(merged.v[sel], down_f.v[-n_keep:])
        )
        resume0 = phase_named(traj, "resume").snapshots[0]
        handoff_bitwise = np.array_equal(resume0.rho, merged.rho)

        elapsed = time.perf_counter() - start
        ok = round_trip and downstream_bitwise and handoff_bitwise and elapsed < 1.0
        _verdict(
            8, ok,
            f"split+merge round trip bitwise: {round_trip}; released-flow cells "
            f"copied bit-for-bit at merge: {downstream_bitwise}; resume handoff "
            f"bitwise: {handoff_bitwise}",
        )


class TestCriterion9Stationarity:
    def test_stopped_traffic_stays_put_in_both_models(self):
        start = time.perf_counter()
        devs = {}
        s1 = stationary_scenario("first")
        ref1 = initial_state(s1)
        f1 = run(s1).final
        devs["first"] = max(
            float(np.max(np.abs(f1.rho - ref1.rho))), float(np.max(np.abs(f1.v)))
        )

        s2 = stationary_scenario("second")
        f2 = run(s2).final
        from sigflow.domain import sample_profile

        rho_ref = sample_profile(s2.rho0, f2.grid.centers)
        devs["second"] = max(
            float(np.max(np.abs(f2.rho - rho_ref))), float(np.max(np.abs(f2.v)))
        )
        elapsed = time.perf_counter() - start
        worst = max(devs.values())
        ok = worst <= 1e-12 and elapsed < 2.0
        _verdict(
            9, ok,
            f"stationary scenario drift: first model {devs['first']:.2e}, second "
            f"model {devs['second']:.2e}, both <= 1e-12, {elapsed:.1f} s < 2 s",
        )


class TestCriterion10ParabolicTimeConvergence:
    def test_halving_dt_shrinks_the_update(self):
        # every step is the CFL step, so halving cfl about halves dt
        start = time.perf_counter()
        tm = SignalTiming(x0=400.0, t0=12.0, tau0=4.0, tau1=8.0, h=60.0)
        braking = default_braking_profile(tm, v_handoff=12.0)
        cells = RoadGrid(0.0, braking.gamma(8.0), 85)
        rho = 0.1 + 0.02 * np.sin(2 * np.pi * cells.centers / 300.0)
        v = 12.0 - 2.0 * np.sin(np.pi * cells.centers / 340.0)
        bc = BoundaryData(rho_in=lambda t: float(rho[0]), v_in=lambda t: 12.0)

        finals = []
        for cfl in (0.4, 0.2, 0.1, 0.05):
            res = solve_parabolic(FlowState(cells, rho, v, 8.0), bc, 2.0, None,
                                  20.0, braking=braking, cfl=cfl)
            finals.append(res.final)

        def dist(a, b):
            return float(np.sum(np.abs(a.rho - b.rho) + np.abs(a.v - b.v)))

        d = [dist(finals[i], finals[i + 1]) for i in range(3)]
        r1, r2 = d[0] / d[1], d[1] / d[2]
        elapsed = time.perf_counter() - start
        ok = r1 >= 1.8 and r2 >= 1.8 and elapsed < 15.0
        _verdict(
            10, ok,
            f"final-state change per cfl (and dt) halving: {d[0]:.2e} / {d[1]:.2e} / "
            f"{d[2]:.2e}, ratios {r1:.2f}, {r2:.2f} >= 1.8, {elapsed:.1f} s < 15 s",
        )
