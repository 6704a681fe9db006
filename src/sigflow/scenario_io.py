"""Scenario files: the one reader of YAML scenario documents.

``parse_scenario`` checks every value once and reports every problem
together, each named by its key path (``signal.h: missing required key``,
``signal.tau1: expected a number, got True``).  A number is a YAML int or
float; a YAML boolean (``true``, ``yes``, ``on``) is not a number.

A profile (``rho0``, ``v0``, ``rho_in``, ``v_in``) takes one of three forms:

- a number, the constant value everywhere;
- a preset call ``name(key=value, ...)`` naming one of ``PRESETS``, each
  key at most once, e.g. ``sine(base=0.1, amp=0.05, wavelength=200)``;
- a table ``{table: {x: [...], values: [...]}}`` with exactly the keys
  ``x`` and ``values``, interpolated linearly and constant beyond its ends.

Every profile builds a vectorized callable.
"""

from __future__ import annotations

import re
from dataclasses import fields
from typing import Callable, Optional

import numpy as np
import yaml

from .domain import (
    BoundaryData,
    ForceLaw,
    RoadGrid,
    Scenario,
    SignalTiming,
    validate_scenario,
)


class ScenarioFileError(ValueError):
    """Parse or validation failure; carries every located error."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def constant(value: float) -> Callable:
    """value everywhere: a float for a scalar x, else an array shaped like x."""

    def fn(x):
        if isinstance(x, (int, float)):
            return float(value)
        return np.full_like(np.asarray(x, dtype=float), float(value))

    return fn


def linear_ramp(start: float, end: float, x_start: float, x_end: float) -> Callable:
    if x_end <= x_start:
        raise ValueError(f"linear_ramp needs x_end > x_start, got {x_start}..{x_end}")

    def fn(x):
        frac = np.clip((np.asarray(x, dtype=float) - x_start) / (x_end - x_start), 0, 1)
        return start + (end - start) * frac

    return fn


def sine(base: float, amp: float, wavelength: float, phase: float = 0.0) -> Callable:
    if wavelength <= 0:
        raise ValueError(f"sine needs a positive wavelength, got {wavelength}")

    def fn(x):
        return base + amp * np.sin(2.0 * np.pi * np.asarray(x, dtype=float) / wavelength + phase)

    return fn


def plateau(inside: float, outside: float, x_left: float, x_right: float) -> Callable:
    if x_right <= x_left:
        raise ValueError(f"plateau needs x_right > x_left, got {x_left}..{x_right}")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= x_left) & (x <= x_right), inside, outside)

    return fn


def table(x: list, values: list) -> Callable:
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2:
        raise ValueError("table needs matching 1-D x/values lists of length >= 2")
    # also false for a NaN in x
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table x values must be strictly increasing")
    return lambda q: np.interp(np.asarray(q, dtype=float), xs, vs)


PRESETS = {
    "constant": constant,
    "linear_ramp": linear_ramp,
    "sine": sine,
    "plateau": plateau,
}

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)\s*$", re.S)

_TOP_KEYS = {"model", "grid", "signal", "force", "mu", "t_end", "numerics", "profiles"}
_NUMERICS_KEYS = {"cfl", "snapshot_interval"}
_PROFILE_KEYS = {"rho0", "v0", "rho_in", "v_in"}


def _check_keys(doc: dict, allowed, errors: list, where: str):
    for key in doc:
        if key not in allowed:
            prefix = f"{where}.{key}" if where else key
            errors.append(f"{prefix}: unknown key")


def _number(val, path: str, errors: list) -> Optional[float]:
    # YAML reads true/yes/on as booleans, which are ints to Python
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {val!r}")
        return None
    return float(val)


def _required(doc: dict, key: str, path: str, errors: list) -> Optional[float]:
    if key not in doc:
        errors.append(f"{path}: missing required key")
        return None
    return _number(doc[key], path, errors)


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

    grid = _section(doc, "grid", RoadGrid, errors)
    timing = _section(doc, "signal", SignalTiming, errors)
    fdoc = doc.get("force")
    # YAML reads a bare `off` as boolean false
    if fdoc is None or fdoc is False or fdoc == "off":
        force = None
        if "force" not in doc:
            errors.append("force: missing required key (use 'off' to disable)")
    else:
        force = _section(doc, "force", ForceLaw, errors)
    mu = _required(doc, "mu", "mu", errors)
    t_end = _required(doc, "t_end", "t_end", errors)

    numerics = doc.get("numerics", {}) or {}
    if not isinstance(numerics, dict):
        errors.append("numerics: expected a mapping")
        numerics = {}
    _check_keys(numerics, _NUMERICS_KEYS, errors, "numerics")
    # a missing or null key takes the default
    cfl, snapshot_interval = (
        None if numerics.get(key) is None
        else _number(numerics[key], f"numerics.{key}", errors)
        for key in ("cfl", "snapshot_interval")
    )

    profiles = doc.get("profiles")
    if not isinstance(profiles, dict):
        errors.append("profiles: missing or not a mapping")
        profiles = {}
    _check_keys(profiles, _PROFILE_KEYS, errors, "profiles")
    fns = {}
    for name in sorted(_PROFILE_KEYS):
        if name not in profiles:
            errors.append(f"profiles.{name}: missing required key")
        else:
            fns[name] = _profile(profiles[name], f"profiles.{name}", errors)

    if errors:
        raise ScenarioFileError(errors)

    scenario = Scenario(
        model=doc.get("model", "first"),
        grid=grid,
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
    # the numerics settings sit under numerics in the file
    violations = [f"numerics.{v}" if v.split(":", 1)[0] in _NUMERICS_KEYS else v
                  for v in validate_scenario(scenario)]
    if violations:
        raise ScenarioFileError(violations)
    return scenario


def _section(doc: dict, name: str, cls, errors: list):
    """cls built from the mapping doc[name], whose keys are cls's fields;
    None after an error, which is added to errors."""
    if name not in doc:
        errors.append(f"{name}: missing required key")
        return None
    section = doc[name]
    if not isinstance(section, dict):
        errors.append(f"{name}: expected a mapping, got {section!r}")
        return None
    keys = [f.name for f in fields(cls)]
    _check_keys(section, keys, errors, name)
    n_errors = len(errors)
    kwargs = {}
    for key in keys:
        if key == "n_cells" and key in section:
            kwargs[key] = section[key]  # a count: RoadGrid checks it is an integer
        else:
            kwargs[key] = _required(section, key, f"{name}.{key}", errors)
    if len(errors) > n_errors:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        errors.append(f"{name}: {e}")
        return None


def _profile(spec, path: str, errors: list) -> Optional[Callable]:
    """The callable a number, a preset call or a table mapping describes;
    None after an error, which is added to errors."""
    n_errors = len(errors)
    if isinstance(spec, dict):
        tab = spec.get("table")
        if not (set(spec) == {"table"} and isinstance(tab, dict)
                and set(tab) == {"x", "values"}
                and all(isinstance(col, list) for col in tab.values())):
            errors.append(f"{path}: table needs the form {{table: {{x: [...], values: [...]}}}} "
                          f"with exactly the lists x and values, got {spec!r}")
            return None
        build, kwargs = table, {
            key: [_number(val, f"{path}.table.{key}[{i}]", errors)
                  for i, val in enumerate(tab[key])]
            for key in ("x", "values")
        }
    elif isinstance(spec, str):
        m = _CALL_RE.match(spec)
        if not m:
            errors.append(f"{path}: cannot parse preset {spec!r}; expected name(key=value, ...)")
            return None
        name, body = m.group(1), m.group(2).strip()
        if name not in PRESETS:
            errors.append(f"{path}: unknown preset {name!r}; known: "
                          f"{', '.join(sorted(PRESETS))}, or a table mapping")
            return None
        build, kwargs = PRESETS[name], {}
        for part in body.split(",") if body else []:
            key, eq, val = (s.strip() for s in part.partition("="))
            if not eq:
                errors.append(f"{path}: bad argument {part.strip()!r} in preset {spec!r}")
            elif key in kwargs:
                errors.append(f"{path}: argument {key!r} repeated in preset {spec!r}")
            else:
                try:
                    val = float(val)
                except ValueError:
                    pass  # _number names the text
                kwargs[key] = _number(val, f"{path}.{key}", errors)
    else:
        value = _number(spec, path, errors)
        return None if value is None else constant(value)
    if len(errors) > n_errors:
        return None
    try:
        return build(**kwargs)
    except TypeError as e:
        errors.append(f"{path}: bad arguments for preset {spec!r}: {e}")
    except ValueError as e:
        errors.append(f"{path}: {e}")
    return None
