import numpy as np
import pytest

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
        parabolic_dt=1e-3,
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
        parabolic_dt=2e-3,
        snapshot_interval=1.0,
    )


@pytest.fixture(scope="session")
def first_model_trajectory():
    from sigflow import run

    return run(reference_scenario("first"))


@pytest.fixture(scope="session")
def second_model_trajectory():
    from sigflow import run

    return run(reference_scenario("second"))
