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

from . import lagrangian as lag
from . import orchestrator as orch
from .domain import RoadGrid, ScenarioError
from .output import write_outputs, write_report
from .scenario_io import parse_scenario

log = logging.getLogger("sigflow")


def _setup_logging():
    # getLevelName maps a level name to its number, and anything else to a string
    level = logging.getLevelName(os.environ.get("SIGFLOW_LOG", "WARNING").upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_scenario(path: str, nx=None, model=None):
    """The scenario in the file at path, with the overrides; ScenarioError if unusable."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError([f"cannot read config {path}: {e}"]) from None
    scenario = parse_scenario(text)
    g = scenario.grid
    try:
        grid = g if nx is None else RoadGrid(g.x_min, g.x_max, nx)
    except ValueError as e:
        raise ScenarioError([f"--nx: {e}"]) from None
    try:
        # the overridden scenario is checked as it is built
        return replace(scenario, grid=grid, model=model or scenario.model)
    except ScenarioError as e:
        # the file's own cell count was checked as it was parsed
        raise ScenarioError([violation.replace("grid.n_cells:", "--nx:", 1)
                             for violation in e.violations]) from None


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.config, nx=args.nx, model=args.model)
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


def cmd_verify_oracle(args) -> int:
    scenario = _load_scenario(args.config)
    try:
        coarse, fine = lag.oracle_errors(scenario)
    except ScenarioError:  # a ValueError, reported by main
        raise
    except (ValueError, lag.BreakdownError) as e:
        print(f"error: oracle comparison failed: {e}", file=sys.stderr)
        return 1
    n = scenario.grid.n_cells
    print(f"oracle check, n={n}:   L1(rho)={coarse[0]:.6e}  L1(v)={coarse[1]:.6e}")
    print(f"oracle check, n={2*n}: L1(rho)={fine[0]:.6e}  L1(v)={fine[1]:.6e}")
    ratio = coarse[0] / fine[0] if fine[0] > 0 else float("inf")
    print(f"refinement ratio (rho): {ratio:.2f}")
    return 0


def cmd_validate(args) -> int:
    # parsing validates the scenario; main reports every violation
    _load_scenario(args.config)
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
    try:
        return args.func(args)
    except ScenarioError as e:
        for violation in e.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
