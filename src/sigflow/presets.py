"""Named analytic profiles for initial and boundary data.

Scenario files describe rho0/v0/inflow either as a call-style preset
string, e.g. ``sine(base=0.1, amp=0.05, wavelength=200)``, or as
an inline sampled table.  Every preset builds a vectorized callable.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np


class PresetError(ValueError):
    pass


def constant(value: float) -> Callable:
    """value everywhere: a float for a scalar x, else an array shaped like x."""

    def fn(x):
        if isinstance(x, (int, float)):
            return float(value)
        return np.full_like(np.asarray(x, dtype=float), float(value))

    return fn


def linear_ramp(start: float, end: float, x_start: float, x_end: float) -> Callable:
    if x_end <= x_start:
        raise PresetError(f"linear_ramp needs x_end > x_start, got {x_start}..{x_end}")

    def fn(x):
        frac = np.clip((np.asarray(x, dtype=float) - x_start) / (x_end - x_start), 0, 1)
        return start + (end - start) * frac

    return fn


def sine(base: float, amp: float, wavelength: float, phase: float = 0.0) -> Callable:
    if wavelength <= 0:
        raise PresetError(f"sine needs a positive wavelength, got {wavelength}")

    def fn(x):
        return base + amp * np.sin(2.0 * np.pi * np.asarray(x, dtype=float) / wavelength + phase)

    return fn


def plateau(inside: float, outside: float, x_left: float, x_right: float) -> Callable:
    if x_right <= x_left:
        raise PresetError(f"plateau needs x_right > x_left, got {x_left}..{x_right}")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= x_left) & (x <= x_right), inside, outside)

    return fn


def table(x: list, values: list) -> Callable:
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2:
        raise PresetError("table needs matching 1-D x/values lists of length >= 2")
    if np.any(np.diff(xs) <= 0):
        raise PresetError("table x values must be strictly increasing")
    return lambda q: np.interp(np.asarray(q, dtype=float), xs, vs)


PRESETS = {
    "constant": constant,
    "linear_ramp": linear_ramp,
    "sine": sine,
    "plateau": plateau,
}

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)\s*$", re.S)


def parse_preset(spec) -> Callable:
    """Build a profile callable from a preset string or mapping."""
    if isinstance(spec, (int, float)):
        return constant(_number(spec, "constant profile"))
    if isinstance(spec, str):
        m = _CALL_RE.match(spec)
        if not m:
            raise PresetError(
                f"cannot parse preset {spec!r}; expected name(key=value, ...)"
            )
        name, body = m.group(1), m.group(2).strip()
        kwargs = {}
        if body:
            for part in body.split(","):
                if "=" not in part:
                    raise PresetError(f"bad argument {part!r} in preset {spec!r}")
                key, val = part.split("=", 1)
                try:
                    kwargs[key.strip()] = float(val)
                except ValueError as e:
                    raise PresetError(
                        f"non-numeric value {val.strip()!r} in preset {spec!r}"
                    ) from e
        return _build(name, kwargs, spec)
    if isinstance(spec, dict):
        spec = dict(spec)
        if "table" in spec and len(spec) == 1:
            tab = spec["table"]
            cols = [tab.get(key) for key in ("x", "values")] if isinstance(tab, dict) else [None]
            if not all(isinstance(col, list) for col in cols):
                raise PresetError(f"table needs a mapping of x and values lists, got {tab!r}")
            return table(*([_number(val, "a table entry") for val in col] for col in cols))
        name = spec.pop("preset", None)
        if name is None:
            raise PresetError(f"preset mapping needs a 'preset' key: {spec!r}")
        kwargs = {key: _number(val, f"{key} of preset {name!r}") for key, val in spec.items()}
        return _build(name, kwargs, name)
    raise PresetError(f"unsupported preset specification: {spec!r}")


def _number(val, what: str) -> float:
    # YAML reads true/false as booleans, which are ints to Python
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise PresetError(f"non-numeric value {val!r} for {what}")
    return float(val)


def _build(name: str, kwargs: dict, label) -> Callable:
    if not isinstance(name, str) or name not in PRESETS:
        raise PresetError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}, table"
        )
    try:
        return PRESETS[name](**kwargs)
    except TypeError as e:
        raise PresetError(f"bad arguments for preset {label!r}: {e}") from e
