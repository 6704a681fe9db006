"""scipy supplies only the viscous solver's tridiagonal solve and is imported
at the first one.  These checks run each command in a fresh interpreter and
fail when a sigflow module loads scipy.linalg where no viscous step is taken,
or when the simulate case stops loading it (the check would then be vacuous)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "scenarios" / "intersection.yaml")

SCRIPT = """
import json, sys
import sigflow, sigflow.cli
argv = json.loads(sys.argv[1])
code = sigflow.cli.main(argv) if argv else 0
print(json.dumps({"code": code, "loaded": "scipy.linalg" in sys.modules}))
"""


def run_fresh(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["validate", "--config", CONFIG],
    ["verify-oracle", "--config", CONFIG],
], ids=["import", "validate", "verify-oracle"])
def test_no_viscous_step_no_scipy(argv):
    got = run_fresh(argv)
    assert got == {"code": 0, "loaded": False}


def test_second_model_loads_scipy_at_its_first_solve(tmp_path):
    got = run_fresh(["simulate", "--config", CONFIG, "--model", "second",
                     "--out", str(tmp_path / "out")])
    assert got == {"code": 0, "loaded": True}
