"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced, each
for one second of timed calls, prints each run's metric lines, and checks
that the run passed its correctness gate and that its last line names
exactly the metrics BENCHMARK.json lists, each with a number and the
listed unit.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED  # noqa: E402

NULLABLE = {"parabolic.lapack_us"}  # null once scipy's banded solve is gone


def check(result: dict, expected: list) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    extra = sorted(set(metrics) - set(names))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{m['name']}: missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) and not (
                got.get("value") is None and m["name"] in NULLABLE):
            problems.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench["command"][1:] + [
                "--workload", workload, "--seed", str(DEFAULT_SEED),
                "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run([sys.executable] + cmd, capture_output=True,
                                  text=True, timeout=180, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} --trace {trace}: exit code {proc.returncode}")
            print("\n".join(lines[:-1]))
            try:
                problems = check(json.loads(lines[-1]), bench[kind])
            except (IndexError, json.JSONDecodeError):
                problems = [f"no result line; stderr:\n{proc.stderr}"]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            for p in problems:
                print(f"SELFTEST FAIL {workload} --trace {trace}: {p}")
            failures += bool(problems)
    print("selftest: " + ("ok" if failures == 0 else f"{failures} run(s) failed"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
