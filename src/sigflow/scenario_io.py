"""Scenario file parsing (YAML key-value documents)."""

from __future__ import annotations

from typing import Optional

import yaml

from .domain import (
    BoundaryData,
    ForceLaw,
    RoadGrid,
    Scenario,
    SignalTiming,
    validate_scenario,
)
from .presets import PresetError, parse_preset


class ScenarioFileError(ValueError):
    """Parse or validation failure; carries every located error."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


_TOP_KEYS = {"model", "grid", "signal", "force", "mu", "t_end", "numerics", "profiles"}
_GRID_KEYS = {"x_min", "x_max", "n_cells"}
_SIGNAL_KEYS = {"x0", "t0", "tau0", "tau1", "h"}
_FORCE_KEYS = {"f0", "v_star", "delta"}
_NUMERICS_KEYS = {"cfl", "snapshot_interval"}
_PROFILE_KEYS = {"rho0", "v0", "rho_in", "v_in"}


def _check_keys(doc: dict, allowed: set, errors: list, where: str):
    for key in doc:
        if key not in allowed:
            prefix = f"{where}.{key}" if where else key
            errors.append(f"{prefix}: unknown key")


def _number(val, path: str, errors: list) -> Optional[float]:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {val!r}")
        return None
    return float(val)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; raises ScenarioFileError listing every
    problem (syntax, unknown keys, bad values, invariant violations)."""
    errors: list[str] = []
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        loc = f" (line {mark.line + 1})" if mark else ""
        raise ScenarioFileError([f"document: not valid YAML{loc}: {e}"]) from e
    if not isinstance(doc, dict):
        raise ScenarioFileError(["document: expected a key-value mapping at top level"])

    _check_keys(doc, _TOP_KEYS, errors, "")

    model = doc.get("model", "first")
    grid = _parse_section(doc, "grid", _GRID_KEYS, errors)
    signal = _parse_section(doc, "signal", _SIGNAL_KEYS, errors)
    numerics = doc.get("numerics", {}) or {}
    if not isinstance(numerics, dict):
        errors.append("numerics: expected a mapping")
        numerics = {}
    _check_keys(numerics, _NUMERICS_KEYS, errors, "numerics")
    profiles = doc.get("profiles")
    if not isinstance(profiles, dict):
        errors.append("profiles: missing or not a mapping")
        profiles = {}
    _check_keys(profiles, _PROFILE_KEYS, errors, "profiles")

    mu = _number(doc["mu"], "mu", errors) if "mu" in doc else None
    if "mu" not in doc:
        errors.append("mu: missing required key")
    t_end = _number(doc["t_end"], "t_end", errors) if "t_end" in doc else None
    if "t_end" not in doc:
        errors.append("t_end: missing required key")

    grid_obj = _build(RoadGrid, grid, "grid", errors) if grid is not None else None
    timing = _build(SignalTiming, signal, "signal", errors) if signal is not None else None

    force = None
    if "force" in doc:
        fdoc = doc["force"]
        # YAML reads a bare `off` as boolean false
        if fdoc is None or fdoc is False or fdoc == "off":
            force = None
        elif isinstance(fdoc, dict):
            _check_keys(fdoc, _FORCE_KEYS, errors, "force")
            force = _build(ForceLaw, fdoc, "force", errors)
        else:
            errors.append(f"force: expected a mapping or 'off', got {fdoc!r}")
    else:
        errors.append("force: missing required key (use 'off' to disable)")

    # a missing or null key takes the default
    cfl, snapshot_interval = (
        None if numerics.get(key) is None
        else _number(numerics[key], f"numerics.{key}", errors)
        for key in ("cfl", "snapshot_interval")
    )

    fns = {}
    for name in sorted(_PROFILE_KEYS):
        if name not in profiles:
            errors.append(f"profiles.{name}: missing required key")
            continue
        try:
            fns[name] = parse_preset(profiles[name])
        except PresetError as e:
            errors.append(f"profiles.{name}: {e}")

    if errors:
        raise ScenarioFileError(errors)

    scenario = Scenario(
        model=model,
        grid=grid_obj,
        rho0=fns["rho0"],
        v0=fns["v0"],
        inflow=BoundaryData(rho_in=fns["rho_in"], v_in=fns["v_in"]),
        timing=timing,
        force=force,
        mu=mu,
        t_end=t_end,
        cfl=0.5 if cfl is None else cfl,
        snapshot_interval=t_end / 50.0 if snapshot_interval is None else snapshot_interval,
    )
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioFileError(violations)
    return scenario


def _parse_section(doc: dict, name: str, allowed: set, errors: list):
    if name not in doc:
        errors.append(f"{name}: missing required key")
        return None
    section = doc[name]
    if not isinstance(section, dict):
        errors.append(f"{name}: expected a mapping")
        return None
    _check_keys(section, allowed, errors, name)
    return section


def _build(cls, section: dict, where: str, errors: list):
    kwargs = {k: v for k, v in section.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        errors.append(f"{where}: {e}")
        return None
