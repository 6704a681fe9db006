"""One workload's closed loop, in its own process.

    python3 perfbench/worker.py SPEC.json

SPEC names the CLI argument lists to run and where to write the result.
The worker imports sigflow from the checkout's `src/`, makes one warm-up
call on the shipped scenario (whose outputs are compared with the recorded
reference), then calls `sigflow.cli.main` on the seeded scenario again and
again until the time is up.  Every call is checked; timings, checks and
fingerprints go to the result file.  With tracing on, untraced and traced
calls alternate, so both medians come from the same process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sigflow  # noqa: E402
import sigflow.cli as cli  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

PHASES = ["free_flow", "upstream_braking", "downstream_release", "resume"]
LEDGER_TOL = 1e-9  # |global ledger residual| relative to the initial mass
ORACLE_RE = re.compile(
    r"oracle check, n=(\d+):\s+L1\(rho\)=(\S+)\s+L1\(v\)=(\S+)")


def fingerprint(rho: np.ndarray, v: np.ndarray) -> str:
    data = np.ascontiguousarray(rho, "<f8").tobytes() + np.ascontiguousarray(v, "<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def max_rel_dev(values, reference) -> float:
    """Largest |value - reference| over each array, relative to the largest
    |reference| entry of that array; inf if the shapes differ."""
    worst = 0.0
    for a, b in zip(values, reference):
        a, b = np.asarray(a, float), np.asarray(b, float)
        if a.shape != b.shape:
            return float("inf")
        scale = float(np.max(np.abs(b))) or 1.0
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def call(argv):
    """Run the CLI in-process; returns (exit code, stdout, wall s, cpu s)."""
    buf = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return code, buf.getvalue(), wall, cpu


def check_simulate(code: int, out: Path) -> dict:
    """Gate one `simulate` call on the files it wrote."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    report = json.loads((out / "report.json").read_text())
    phase_error = report.get("failed_phase") is not None
    if phase_error:
        problems.append(f"phase {report['failed_phase']} failed: {report.get('error')}")
    names = [p["name"] for p in report.get("phases", [])]
    if names != PHASES:
        problems.append(f"phases {names}, expected {PHASES}")
    glob = report.get("global", {})
    residual = glob.get("residual", float("nan"))
    mass = glob.get("initial_mass", float("nan"))
    if not abs(residual) <= LEDGER_TOL * mass:
        problems.append(f"global ledger residual {residual} exceeds {LEDGER_TOL} x mass {mass}")

    snaps = sorted(out.glob("*_[0-9][0-9][0-9][0-9].csv"))
    final = None
    for path in snaps:
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
        rho, v = data[:, 1], data[:, 2]
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(v))):
            problems.append(f"{path.name}: non-finite field values")
        if np.any(rho < 0):
            problems.append(f"{path.name}: negative density {rho.min()}")
        if path.name.startswith("resume_"):
            final = (rho, v)
    if final is None:
        problems.append("no resume snapshot written")
    files = [p for p in out.iterdir() if p.is_file()]
    return {
        "problems": problems,
        "phase_error": phase_error,
        "final": None if final is None else list(final),
        "fingerprint": None if final is None else fingerprint(*final),
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
    }


def check_oracle(code: int, stdout: str, l1_limit: float) -> dict:
    """Gate one `verify-oracle` call on what it printed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    rows = [(int(n), float(r), float(v)) for n, r, v in ORACLE_RE.findall(stdout)]
    if len(rows) != 2 or rows[1][0] != 2 * rows[0][0]:
        problems.append(f"expected two oracle rows at n and 2n, got {rows}")
        return {"problems": problems, "phase_error": False, "final": None}
    (_, rho_c, v_c), (_, rho_f, v_f) = rows
    if not rho_c <= l1_limit:
        problems.append(f"L1(rho) = {rho_c} exceeds the recorded limit {l1_limit}")
    if not rho_c > rho_f:
        problems.append(f"refinement ratio {rho_c / rho_f} is not above 1")
    text = "\n".join(ln for ln in stdout.splitlines() if ln.startswith("oracle check"))
    return {
        "problems": problems,
        "phase_error": False,
        "final": [[x] for x in (rho_c, v_c, rho_f, v_f)],
        "fingerprint": hashlib.sha256(text.encode()).hexdigest(),
        "l1_rho": rho_c,
    }


class Loop:
    def __init__(self, spec: dict):
        self.spec = spec
        self.out = Path(spec["out_dir"])
        self.ops = []
        self.finals = {}

    def run(self, kind: str, argv, tracer=None):
        """One entry-point call plus its gate; appends an op record."""
        simulate = argv[0] == "simulate"
        if simulate:
            shutil.rmtree(self.out, ignore_errors=True)
        index = len(self.ops)
        op = {"kind": kind, "traced": tracer is not None}
        try:
            if tracer is None:
                code, stdout, op["wall_s"], op["cpu_s"] = call(argv)
            else:
                tracer.install()
                try:
                    code, stdout, op["wall_s"], op["cpu_s"] = tracer.run_op(index, call, argv)
                finally:
                    tracer.uninstall()
            if simulate:
                checked = check_simulate(code, self.out)
            else:
                checked = check_oracle(code, stdout, self.spec["oracle_l1_rho_limit"])
            final = checked.pop("final")
            if final is not None:
                self.finals[kind] = final
        except Exception as e:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            checked = {"problems": [f"raised {e!r}"], "phase_error": False}
        op.update(checked)
        op["ok"] = not op["problems"]
        self.ops.append(op)
        return op


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(sigflow.__file__).resolve()
    if not src.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"sigflow imported from {src}, not from this checkout")
    ref = json.loads((HERE / "reference.json").read_text())[spec["workload"]]
    loop = Loop(spec)

    # Warm-up on the shipped scenario; its outputs are the fingerprinted reference.
    warm = loop.run("reference", spec["reference_argv"])
    reference = {
        "sha256": warm.get("fingerprint"),
        "recorded_sha256": ref["sha256"],
        "bitwise": warm.get("fingerprint") == ref["sha256"],
        "max_rel_dev": (max_rel_dev(loop.finals["reference"], ref["values"])
                        if "reference" in loop.finals else None),
    }

    # Closed loop: no call starts that would, at the median call time so far,
    # end after the deadline (a traced run makes one untraced and one traced
    # call at least).
    tracer = Tracer() if spec["trace"] else None
    deadline = time.perf_counter() + spec["seconds"]
    traced_walls = {}
    walls = []
    while True:
        use = tracer if tracer is not None and len(loop.ops) % 2 == 0 else None
        op = loop.run("timed", spec["argv"], use)
        walls.append(op.get("wall_s", 0.0))
        if use is not None and "wall_s" in op:
            traced_walls[len(loop.ops) - 1] = op["wall_s"]
        next_end = time.perf_counter() + statistics.median(walls)
        if next_end > deadline and (tracer is None or len(walls) >= 2):
            break

    # oracle_l1_rho always comes from the shipped scenario at n = 600, so it
    # is the same number in every workload and for every seed.
    oracle = loop.run("oracle", spec["oracle_argv"]) if spec["oracle_argv"] else warm

    timed = [op for op in loop.ops if op["kind"] == "timed" and "wall_s" in op]
    plain = [op for op in timed if not op["traced"]]
    result = {
        "ops": loop.ops,
        "wall_s": median([op["wall_s"] for op in plain]),
        "cpu_s": median([op["cpu_s"] for op in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_l1_rho": oracle.get("l1_rho"),
        "fingerprints": sorted({op.get("fingerprint") for op in timed if op.get("fingerprint")}),
        "reference": reference,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": blas_info(),
    }
    if traced_walls:
        layers, accounting = layer_metrics(tracer, traced_walls)
        traced = [op for op in timed if op["traced"]]
        layers["output.files"] = statistics.mean(op.get("files", 0) for op in traced)
        layers["output.bytes"] = statistics.mean(op.get("bytes", 0) for op in traced)
        layers["trace.overhead_s"] = median([op["wall_s"] for op in traced]) - result["wall_s"]
        result["layers"] = layers
        result["trace_accounting"] = accounting
        tracer.save(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result, indent=1))
    shutil.rmtree(loop.out, ignore_errors=True)
    return 0


def median(values):
    return statistics.median(values) if values else None


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as e:  # noqa: BLE001 - report, do not fail the run
        return {"error": repr(e)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
