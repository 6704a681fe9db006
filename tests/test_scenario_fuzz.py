"""Scenarios generated from their file text, and run.

Each example varies the signal timing, the grid size, the driver force, the
viscosity, the Courant number, the model and the profile presets, and may
send the inflow faster than the road.  A generated scenario must end in one
of three ways: a ScenarioError where it is built, a PhaseError naming the
phase that failed, or a run whose densities are non-negative and in which no
traffic crosses the light during the red phase (its velocity there is 0).

The same texts also go through the oracle comparison of `verify-oracle`,
where a density blow-up in the reference must end in BreakdownError.
"""

import math

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from sigflow import PhaseError, ScenarioError, parse_scenario, run
from sigflow.lagrangian import BreakdownError, oracle_errors

PHASES = {"free_flow", "upstream_braking", "downstream_release", "resume"}

RHO0 = ["0.08", "sine(base=0.08, amp=0.02, wavelength=300)",
        "plateau(inside=0.15, outside=0.02, x_left=100, x_right=300)",
        "linear_ramp(start=0.0, end=0.12, x_start=0.0, x_end=500.0)",
        "{table: {x: [0.0, 300.0, 600.0], values: [0.05, 0.12, 0.0]}}"]
V0 = ["10.0", "sine(base=10.0, amp=3.0, wavelength=200)",
      "linear_ramp(start=14.0, end=6.0, x_start=0.0, x_end=600.0)",
      "plateau(inside=0.0, outside=10.0, x_left=350, x_right=450)"]
RHO_IN = ["0.0", "0.08", "sine(base=0.08, amp=0.05, wavelength=5)"]
# the last is faster than the road's 10 m/s
V_IN = ["0.0", "10.0", "linear_ramp(start=30.0, end=38.0, x_start=0.0, x_end=8.0)"]
FORCE = ["off", "{f0: 1.0, v_star: 16.0, delta: 4.0}", "{f0: 3.0, v_star: 12.0, delta: 1.0}"]


def seconds(lo, hi):
    return st.floats(lo, hi).map(lambda x: round(x, 2))


@st.composite
def scenario_texts(draw) -> str:
    """A scenario file on a 600 m road; some are valid and some are not
    (t0 <= tau0, a light beyond the road, a red that outlasts t_end, a grid
    too coarse to split)."""
    t0, tau0, tau1 = draw(seconds(2.0, 15.0)), draw(seconds(0.5, 4.0)), draw(seconds(0.5, 10.0))
    return f"""
model: {draw(st.sampled_from(["first", "second"]))}
grid: {{x_min: 0.0, x_max: 600.0, n_cells: {draw(st.integers(10, 200))}}}
signal: {{x0: {draw(seconds(150.0, 620.0))}, t0: {t0}, tau0: {tau0}, tau1: {tau1},
         h: {draw(seconds(5.0, 150.0))}}}
force: {draw(st.sampled_from(FORCE))}
mu: {draw(st.sampled_from([0.125, 0.5, 2.0, 8.0]))}
t_end: {round(t0 + tau1 + draw(seconds(-0.5, 6.0)), 2)}
numerics: {{cfl: {draw(st.sampled_from([0.1, 0.5, 1.0]))}, snapshot_interval: {tau0 / 2}}}
profiles:
  rho0: {draw(st.sampled_from(RHO0))}
  v0: {draw(st.sampled_from(V0))}
  rho_in: {draw(st.sampled_from(RHO_IN))}
  v_in: {draw(st.sampled_from(V_IN))}
"""


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=scenario_texts())
def test_a_generated_scenario_is_refused_fails_in_a_phase_or_runs(text):
    try:
        s = parse_scenario(text)
    except ScenarioError as e:
        assert e.violations
        return
    try:
        traj = run(s)
    except PhaseError as e:
        assert e.phase in PHASES and repr(e.phase) in str(e)
        return
    assert all(np.all(snap.rho >= 0.0) for snap in traj.snapshots)
    # during red the braking strip ends at the light, where V = 0: no
    # traffic leaves it between the red onset (a snapshot time, two
    # intervals after the braking onset) and the green light
    braking = traj.phase("upstream_braking")
    x_light = s.grid.nearest_face(s.timing.x0)
    red = [(snap, row) for snap, row in zip(braking.snapshots, braking.ledger)
           if snap.t >= s.timing.t0 - 1e-9]
    assert red[0][0].t <= s.timing.t0 + 1e-9
    for snap, row in red:
        assert snap.grid.x_max == x_light
        assert row["outflow_cum"] == red[0][1]["outflow_cum"]


# the fast inflow catches up with the road's traffic before the oracle's
# horizon, so the reference's density becomes infinite (at t = 0.24 s).  Few
# generated texts get there: it takes a uniform v0, a positive rho0 and the
# fast inflow carrying traffic, so this one is always run
BLOW_UP = """
model: first
grid: {x_min: 0.0, x_max: 600.0, n_cells: 35}
signal: {x0: 150.0, t0: 2.0, tau0: 1.0, tau1: 1.0, h: 5.0}
force: off
mu: 0.125
t_end: 3.0
numerics: {cfl: 0.1, snapshot_interval: 0.5}
profiles:
  rho0: 0.08
  v0: 10.0
  rho_in: 0.08
  v_in: linear_ramp(start=30.0, end=38.0, x_start=0.0, x_end=8.0)
"""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=scenario_texts())
@example(text=BLOW_UP)
def test_a_generated_scenario_is_refused_breaks_down_or_gives_oracle_errors(text):
    # a ScenarioError from the file or the reference's samples, a horizon
    # past the crossing estimate, a BreakdownError while the reference is
    # built, or two finite non-negative (L1(rho), L1(v)) pairs; any other
    # error fails, and so does any warning, which the suite makes an error
    try:
        errors = oracle_errors(parse_scenario(text))
    except ScenarioError as e:
        assert e.violations
        event("ScenarioError")
        return
    except ValueError as e:
        assert str(e).startswith("horizon "), e
        event("horizon")
        return
    except BreakdownError:
        event("BreakdownError")
        return
    assert len(errors) == 2
    for pair in errors:
        assert len(pair) == 2
        assert all(math.isfinite(x) and x >= 0.0 for x in pair), errors
    event("errors")
