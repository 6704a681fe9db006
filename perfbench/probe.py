"""Set-up probe: from a fresh interpreter to a parsed, validated Scenario.

    python3 perfbench/probe.py SCENARIO.yaml

Prints one JSON line: the CLOCK_MONOTONIC time at which the scenario was
ready (the parent subtracts its spawn time), the import and parse times, and
any validation violations.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


t_import = now()
import sigflow.cli  # noqa: E402
t_parse = now()
from sigflow.domain import validate_scenario  # noqa: E402
from sigflow.scenario_io import parse_scenario  # noqa: E402

scenario = parse_scenario(Path(sys.argv[1]).read_text())
t_validate = now()
violations = validate_scenario(scenario)
ready = now()

print(json.dumps({
    "ready": ready,
    "import_s": t_parse - t_import,
    "parse_s": t_validate - t_parse,
    "violations": violations,
    "sigflow": sigflow.cli.__file__,
}))
