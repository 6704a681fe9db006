"""The benchmark's workloads and the scenario files they run on.

Each workload is one `sigflow` CLI call run in a closed loop.  Its scenario
file is generated from `scenarios/intersection.yaml`: the seed sets the
phase and amplitude of the initial density wave, everything else is the
shipped scenario.  The reference scenario is the shipped one unchanged (only
the grid size is set where the CLI cannot set it).
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import yaml

DEFAULT_SEED = 0
BASE_SCENARIO = Path("scenarios") / "intersection.yaml"
RHO0 = "sine(base=0.08, amp={amp!r}, wavelength=300, phase={phase!r})"
AMP, AMP_SPREAD = 0.02, 0.25  # amplitude drawn from AMP * (1 +/- AMP_SPREAD)

# name -> (grid size written into the scenario file, CLI arguments after
# --config FILE; "{out}" is replaced by the output directory)
WORKLOADS = {
    "first-600": (None, ["--out", "{out}", "--model", "first", "--nx", "600",
                         "--plot", "rho"]),
    "second-150": (None, ["--out", "{out}", "--model", "second", "--plot", "rho"]),
    "oracle-600": (600, []),
}
ORACLE_N = 600


def command(workload: str) -> str:
    return "verify-oracle" if workload.startswith("oracle") else "simulate"


def rho0_wave(seed: int) -> tuple[float, float]:
    """(amplitude, phase) of the initial density wave for a workload seed."""
    rng = random.Random(seed)
    amp = AMP * (1.0 + rng.uniform(-AMP_SPREAD, AMP_SPREAD))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return amp, phase


def write_scenario(root: Path, path: Path, n_cells, wave) -> Path:
    """Write the shipped scenario with n_cells (if given) and, if wave is
    not None, the initial density wave (amp, phase)."""
    doc = yaml.safe_load((root / BASE_SCENARIO).read_text())
    if n_cells is not None:
        doc["grid"]["n_cells"] = n_cells
    if wave is not None:
        amp, phase = wave
        doc["profiles"]["rho0"] = RHO0.format(amp=amp, phase=phase)
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def argv(workload: str, config: Path, out: Path) -> list[str]:
    _, rest = WORKLOADS[workload]
    return [command(workload), "--config", str(config)] + [
        a.replace("{out}", str(out)) for a in rest]
