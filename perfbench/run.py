"""sigflow benchmark: one workload, one run.

    python3 perfbench/run.py --workload first-600 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The run writes the workload's scenario
files from `scenarios/intersection.yaml` and the seed, measures set-up
(fresh interpreter to a validated Scenario) in SETUP_REPS child processes,
then runs the workload's closed loop in one worker process for --seconds
and checks every call.  It prints the machine, the output fingerprints and
one line per metric, and as its last line a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from wrapped layer functions) with
--trace 1.  The full record goes to .perfbench_work/results/.  Exit code 0
when every call passed its gate, 1 when one failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    BASE_SCENARIO, DEFAULT_SEED, ORACLE_N, WORKLOADS, argv, command, rho0_wave,
    write_scenario)

SETUP_REPS = 5
WORKER_TIMEOUT_S = 150  # beyond --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "oracle_l1_rho": "veh/m",
}
PER_LAYER_UNITS = {
    "parabolic.solve_s": "s", "parabolic.steps": "count", "parabolic.step_us": "us",
    "parabolic.node_steps": "count", "parabolic.ns_per_node_step": "ns",
    "parabolic.lapack_us": "us", "parabolic.loop_self_s": "s",
    "hyperbolic.solve_s": "s", "hyperbolic.steps": "count", "hyperbolic.step_us": "us",
    "hyperbolic.cell_steps": "count", "hyperbolic.loop_self_s": "s",
    "lagrangian.advance_s": "s", "lagrangian.rk4_steps": "count",
    "lagrangian.rk4_step_us": "us",
    "orchestrator.run_s": "s", "orchestrator.handoff_s": "s", "orchestrator.self_s": "s",
    "output.write_s": "s", "output.files": "count", "output.bytes": "bytes",
    "scenario_io.parse_s": "s", "cli.import_s": "s",
    "ops_attempted": "count", "ops_failed": "count", "phase_errors": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine(load) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(load),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def probe_setup(config: Path) -> dict:
    """Fresh interpreters up to a validated Scenario; medians over SETUP_REPS."""
    setups, imports, parses = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(config)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if data["violations"]:
            raise BenchError(f"generated scenario is invalid: {data['violations']}")
        if not Path(data["sigflow"]).resolve().is_relative_to((ROOT / "src").resolve()):
            raise BenchError(f"sigflow imported from {data['sigflow']}, not this checkout")
        setups.append(data["ready"] - t0)
        imports.append(data["import_s"])
        parses.append(data["parse_s"])
    return {"setup_s": statistics.median(setups), "import_s": statistics.median(imports),
            "parse_s": statistics.median(parses), "setup_samples_s": setups}


def run_worker(spec: dict, work: Path, seconds: int) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              stdout=sys.stderr, timeout=seconds + WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish within {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(spec["result_path"]).read_text())


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    load = os.getloadavg()
    if not (ROOT / BASE_SCENARIO).is_file() or not (ROOT / "src" / "sigflow").is_dir():
        raise BenchError(f"{ROOT} is not a sigflow checkout "
                         f"(needs {BASE_SCENARIO} and src/sigflow)")
    results = ROOT / ".perfbench_work" / "results"
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        n_cells = WORKLOADS[workload][0]
        seeded = write_scenario(ROOT, work / "seeded.yaml", n_cells, rho0_wave(seed))
        shipped = write_scenario(ROOT, work / "shipped.yaml", n_cells, None)
        setup = probe_setup(seeded)
        out = work / "out"
        spec = {
            "workload": workload,
            "argv": argv(workload, seeded, out),
            "reference_argv": argv(workload, shipped, out),
            "oracle_argv": None,
            "oracle_l1_rho_limit": json.loads(
                (HERE / "reference.json").read_text())["oracle_l1_rho_limit"],
            "out_dir": str(out),
            "seconds": seconds,
            "trace": trace,
            "result_path": str(work / "result.json"),
            "spans_path": str(results / f"{workload}.spans.npz"),
        }
        if command(workload) == "simulate":
            oracle_cfg = write_scenario(ROOT, work / "oracle.yaml", ORACLE_N, None)
            spec["oracle_argv"] = argv("oracle-600", oracle_cfg, out)
        res = run_worker(spec, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = res["ops"]
    failed = sum(not op["ok"] for op in ops)
    phase_errors = sum(op["phase_error"] for op in ops)
    amp, phase = rho0_wave(seed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rho0_wave": {"amp": amp, "phase": phase},
        "machine": dict(machine(load), versions=res["versions"], blas=res["blas"]),
        "setup": setup,
        "reference": res["reference"],
        "fingerprints": res["fingerprints"],
        "ops": ops,
    }
    if trace:
        layers = res.get("layers")
        if layers is None:
            raise BenchError("no traced call completed")
        metrics = dict(layers)
        metrics.update({"cli.import_s": setup["import_s"], "ops_attempted": len(ops),
                        "ops_failed": failed, "phase_errors": phase_errors})
        units = PER_LAYER_UNITS
        record["trace_accounting"] = res["trace_accounting"]
        record["spans_file"] = str(Path(spec["spans_path"]).relative_to(ROOT))
        correct = failed == 0 and res["trace_accounting"]["ok"]
    else:
        metrics = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                   "peak_rss_mb": res["peak_rss_mb"], "setup_s": setup["setup_s"],
                   "oracle_l1_rho": res["oracle_l1_rho"]}
        units = END_TO_END_UNITS
        correct = failed == 0
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result, record


def report(result: dict, record: dict):
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    ref = record["reference"]
    print(f"reference sha256={ref['sha256']} bitwise={ref['bitwise']} "
          f"max_rel_dev={ref['max_rel_dev']}")
    for sha in record["fingerprints"]:
        print(f"fingerprint sha256={sha}")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['kind']} call: {problem}")
    if "trace_accounting" in record:
        acc = record["trace_accounting"]
        print(f"trace: self times sum to {acc['self_sum_s']:.6f} s of {acc['wall_s']:.6f} s "
              f"traced wall per call; unattributed {acc['unattributed_s']:.6f} s")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))


def main(argv_list=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"sets the initial density wave (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=30,
                        help="how long the closed loop of timed calls runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv_list)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    report(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
