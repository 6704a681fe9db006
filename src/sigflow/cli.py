"""Command line interface.

Subcommands:
  simulate      run a scenario file and write snapshots, report, and plots
  verify-oracle compare the finite-volume solver against the mass-coordinate
                reference solution at two resolutions
  validate      check a scenario file and print every violation
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import lagrangian as lag
from . import orchestrator as orch
from .domain import RoadGrid, ScenarioError, initial_state, sample_profile
from .hyperbolic import solve_hyperbolic
from .output import write_outputs, write_report
from .scenario_io import parse_scenario

log = logging.getLogger("sigflow")


def _setup_logging():
    level = os.environ.get("SIGFLOW_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_scenario(path: str, nx=None, model=None):
    try:
        text = Path(path).read_text()
    except OSError as e:
        print(f"error: cannot read config {path}: {e}", file=sys.stderr)
        return None
    try:
        scenario = parse_scenario(text)
        g = scenario.grid
        try:
            grid = g if nx is None else RoadGrid(g.x_min, g.x_max, nx)
        except ValueError as e:
            raise ScenarioError([f"--nx: {e}"]) from None
        # the overridden scenario is checked as it is built
        return replace(scenario, grid=grid, model=model or scenario.model)
    except ScenarioError as e:
        for violation in e.violations:
            print(f"error: {violation}", file=sys.stderr)
        return None


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.config, nx=args.nx, model=args.model)
    if scenario is None:
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory {out}: {e}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        traj = orch.run(scenario)
    except orch.PhaseError as e:
        log.error("run failed in phase %s: %s", e.phase, e.cause)
        write_report(None, out / "report.json", failed_phase=e.phase, error=str(e.cause))
        return 1
    elapsed = time.perf_counter() - t0
    log.info("run finished in %.2f s", elapsed)

    try:
        write_outputs(traj, out, args.plot, timings={"total": elapsed})
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"simulation complete: {len(traj.phases)} phases written to {out}")
    return 0


def _oracle_errors(scenario, n_cells: int):
    """L1(rho), L1(v) between the finite-volume run and the mass-coordinate
    reference on an n_cells grid, at the free-flow handoff time."""
    grid = RoadGrid(scenario.grid.x_min, scenario.grid.x_max, n_cells)
    s = replace(scenario, grid=grid)
    t_end = s.timing.t0 - s.timing.tau0
    init = initial_state(s)

    t_star = lag.estimate_breakdown_time(init)
    if t_end >= 0.5 * t_star:
        raise ValueError(
            f"horizon {t_end} is past half the characteristic-crossing estimate "
            f"{t_star}; the smooth reference solution is not valid there"
        )

    fv = solve_hyperbolic(init, s.inflow, s.force, t_end, cfl=s.cfl)

    fine = RoadGrid(grid.x_min, grid.x_max, 4 * n_cells)
    fine_init = initial_state(replace(s, grid=fine))
    field = lag.to_mass_coordinates(fine_init)
    n_steps = max(200, int(t_end / 0.01))
    field = lag.advance_characteristics(field, s.inflow, s.force, t_end, n_steps)
    ref = lag.reconstruct_physical(field, grid)

    length = grid.x_max - grid.x_min
    l1_rho = float(np.sum(np.abs(fv.final.rho - ref.rho)) * grid.dx / length)
    l1_v = float(np.sum(np.abs(fv.final.v - ref.v)) * grid.dx / length)
    return l1_rho, l1_v


def _call_pair(func, first, second):
    """Return (func(*first), func(*second)).

    Where os.fork exists, the second call runs at the same time as the
    first, in a child process that sends its result or exception back
    through a pipe and leaves by os._exit, so it runs no exit hooks and
    flushes none of this process's buffers.  The child is reaped on every
    path.  Elsewhere the calls run in order.  Either way an exception of the
    first call wins over one of the second, and the second's is raised here
    as that call raised it.  ChildProcessError when the child ends without
    sending its outcome."""
    if not hasattr(os, "fork"):
        return func(*first), func(*second)
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, func(*second))
            except BaseException as e:  # noqa: BLE001 - re-raised in the parent
                outcome = (False, e)
            sent = pickle.dumps(outcome)
            with open(write_fd, "wb") as pipe:
                pipe.write(sent)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            result = func(*first)
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # its result is not wanted
        raise
    finally:
        _, wait_status = os.waitpid(pid, 0)
    if not sent:
        raise ChildProcessError(
            f"the child process of the second call exited with status "
            f"{os.waitstatus_to_exitcode(wait_status)} before sending its outcome")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return result, value


def _oracle_check(scenario) -> int:
    if np.any(sample_profile(scenario.rho0, scenario.grid.centers) <= 0):
        print("error: profiles.rho0: initial density must be strictly positive everywhere "
              "when the mass-coordinate reference solution is requested (the coordinate "
              "transformation is otherwise not invertible)", file=sys.stderr)
        return 2
    n = scenario.grid.n_cells
    try:
        coarse, fine = _call_pair(_oracle_errors, (scenario, n), (scenario, 2 * n))
    except (ValueError, lag.BreakdownError, lag.PositivityError, ChildProcessError) as e:
        print(f"error: oracle comparison failed: {e}", file=sys.stderr)
        return 1
    print(f"oracle check, n={n}:   L1(rho)={coarse[0]:.6e}  L1(v)={coarse[1]:.6e}")
    print(f"oracle check, n={2*n}: L1(rho)={fine[0]:.6e}  L1(v)={fine[1]:.6e}")
    ratio = coarse[0] / fine[0] if fine[0] > 0 else float("inf")
    print(f"refinement ratio (rho): {ratio:.2f}")
    return 0


def cmd_verify_oracle(args) -> int:
    scenario = _load_scenario(args.config)
    if scenario is None:
        return 2
    return _oracle_check(scenario)


def cmd_validate(args) -> int:
    # parsing validates the scenario and reports every violation
    if _load_scenario(args.config) is None:
        return 2
    print("scenario is valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigflow",
        description="1-D traffic flow through a signalized intersection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write outputs")
    sim.add_argument("--config", required=True, help="scenario YAML file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--model", choices=["first", "second"], default=None,
                     help="override the scenario's model variant")
    sim.add_argument("--nx", type=int, default=None, help="override grid resolution")
    sim.add_argument("--plot", choices=["rho", "v"], default=None,
                     help="emit space-time plot data for this field")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-oracle",
                         help="compare solver vs reference solution at two resolutions")
    ver.add_argument("--config", required=True)
    ver.set_defaults(func=cmd_verify_oracle)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
