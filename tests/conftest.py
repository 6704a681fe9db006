import dataclasses
from pathlib import Path

import numpy as np
import pytest

import sigflow.parabolic

from sigflow import (
    BoundaryData,
    ForceLaw,
    RoadGrid,
    Scenario,
    SignalTiming,
)


def reference_scenario(model="first", n_cells=150, mu=2.0, force=ForceLaw(1.0, 16.0, 4.0),
                       v0_amp=0.0, t_end=25.0):
    """Smooth sine-density scenario used across the suite."""
    grid = RoadGrid(0.0, 600.0, n_cells)

    def rho0(x):
        return 0.08 + 0.02 * np.sin(2 * np.pi * np.asarray(x, float) / 300.0)

    def v0(x):
        x = np.asarray(x, float)
        return 10.0 + v0_amp * np.sin(2 * np.pi * x / 600.0)

    return Scenario(
        model=model,
        grid=grid,
        rho0=rho0,
        v0=v0,
        inflow=BoundaryData(rho_in=lambda t: 0.08, v_in=lambda t: 10.0),
        timing=SignalTiming(x0=400.0, t0=12.0, tau0=4.0, tau1=8.0, h=60.0),
        force=force,
        mu=mu,
        t_end=t_end,
        cfl=0.5,
        snapshot_interval=1.0,
    )


def stationary_scenario(model="first", n_cells=120):
    """All traffic at rest, driver force disabled; the density variation sits
    strictly downstream of the light (upstream of it the braking mesh moves,
    and only a constant profile is representation independent there)."""
    grid = RoadGrid(0.0, 600.0, n_cells)

    def rho0(x):
        x = np.asarray(x, float)
        bump = 0.05 * np.exp(-((x - 520.0) / 30.0) ** 2)
        return 0.1 + np.where(x > 430.0, bump, 0.0)

    return Scenario(
        model=model,
        grid=grid,
        rho0=rho0,
        v0=lambda x: np.zeros_like(np.asarray(x, float)),
        inflow=BoundaryData(rho_in=lambda t: 0.1, v_in=lambda t: 0.0),
        timing=SignalTiming(x0=400.0, t0=4.0, tau0=2.0, tau1=3.0, h=60.0),
        force=None,
        mu=1.0,
        t_end=10.0,
        snapshot_interval=1.0,
    )


def shipped_scenario(model="first", n_cells=150):
    """scenarios/intersection.yaml with the given model and grid size."""
    from sigflow import parse_scenario

    text = (Path(__file__).resolve().parent.parent / "scenarios"
            / "intersection.yaml").read_text()
    s = parse_scenario(text)
    grid = RoadGrid(s.grid.x_min, s.grid.x_max, n_cells)
    return dataclasses.replace(s, model=model, grid=grid)


@pytest.fixture(scope="session")
def first_model_trajectory():
    from sigflow import run

    return run(reference_scenario("first"))


@pytest.fixture(scope="session")
def second_model_trajectory():
    from sigflow import run

    return run(reference_scenario("second"))


@pytest.fixture
def viscous_steps(monkeypatch):
    """Record every step_viscous call that solve_parabolic makes, as
    (t, dt, max|c| dt/dy, moving), where c is the step's mesh-relative speed
    and moving says whether the domain length changes over the step."""
    steps = []
    step = sigflow.parabolic.step_viscous

    def recording(v, rho, t, dt, mu, inflow, grid, force, braking=None):
        n = grid.n_cells
        L_old = grid.x_max - grid.x_min
        right_new = grid.x_max if braking is None else float(braking.gamma(t + dt))
        L_new = right_new - grid.x_min
        y = np.arange(n + 1) / n
        c = (v - y * ((L_new - L_old) / dt)) / L_new
        steps.append((t, dt, float(np.max(np.abs(c))) * dt * n, L_new != L_old))
        return step(v, rho, t, dt, mu, inflow, grid, force, braking)

    monkeypatch.setattr(sigflow.parabolic, "step_viscous", recording)
    return steps
