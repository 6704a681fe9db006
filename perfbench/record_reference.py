"""Record perfbench/reference.json from the current code.

    python3 perfbench/record_reference.py

For each workload it runs the shipped scenario once and stores the SHA-256
and values of its final (rho, v) (for oracle-600: of the four printed L1
errors).  It also sweeps the seeded initial wave over both ends of its
amplitude range and PHASES phases and stores 1 + LIMIT_MARGIN times the
largest L1(rho) at n = ORACLE_N as oracle_l1_rho_limit, the accuracy gate
of every verify-oracle call.  Re-record only when a change to the program's
output is intended, and say so with the change.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import worker
from workloads import AMP, AMP_SPREAD, ORACLE_N, WORKLOADS, argv, write_scenario

PHASES = 24
LIMIT_MARGIN = 0.10


def main() -> int:
    root = worker.ROOT
    (root / ".perfbench_work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    try:
        loop = worker.Loop({"out_dir": str(tmp / "out"),
                            "oracle_l1_rho_limit": math.inf})
        ref = {}
        for name, (n_cells, _) in WORKLOADS.items():
            config = write_scenario(root, tmp / f"{name}.yaml", n_cells, None)
            op = loop.run(name, argv(name, config, tmp / "out"))
            if not op["ok"]:
                raise SystemExit(f"{name}: {op['problems']}")
            ref[name] = {"sha256": op["fingerprint"],
                         "values": [list(map(float, a)) for a in loop.finals[name]]}

        worst = 0.0
        config = tmp / "sweep.yaml"
        for amp in (AMP * (1 - AMP_SPREAD), AMP * (1 + AMP_SPREAD)):
            for k in range(PHASES):
                write_scenario(root, config, ORACLE_N, (amp, 2 * math.pi * k / PHASES))
                op = loop.run("sweep", argv("oracle-600", config, tmp / "out"))
                if not op["ok"]:
                    raise SystemExit(f"sweep amp={amp} phase {k}: {op['problems']}")
                worst = max(worst, op["l1_rho"])
        ref["oracle_l1_rho_limit"] = (1 + LIMIT_MARGIN) * worst
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}: oracle_l1_rho_limit = {ref['oracle_l1_rho_limit']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
