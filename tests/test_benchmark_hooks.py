"""The benchmark tracer wraps sigflow functions by name and reads some of
their arguments by name or position.  A rename would not fail the benchmark:
the metric would read 0 or None.  These checks fail instead."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import LAYER_FUNCS  # noqa: E402


TRACED = {(m, f) for _, m, f, _ in LAYER_FUNCS}
# write_outputs replaced these writers; the tracer skips them as missing
# until LAYER_FUNCS drops them
RETIRED = {("sigflow.output", "write_snapshot"), ("sigflow.output", "emit_plot")}


@pytest.mark.parametrize("module, name", sorted(TRACED - RETIRED))
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name", sorted(RETIRED))
def test_retired_function_is_gone(module, name):
    assert (module, name) in TRACED, "drop it from RETIRED"
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name, position, parameter", [
    ("sigflow.parabolic", "step_viscous", 0, "v"),
    ("sigflow.hyperbolic", "step", 0, "state"),
    ("sigflow.lagrangian", "advance_characteristics", 4, "n_steps"),
])
def test_counted_argument_keeps_its_place(module, name, position, parameter):
    fn = getattr(importlib.import_module(module), name)
    assert list(inspect.signature(fn).parameters)[position] == parameter
