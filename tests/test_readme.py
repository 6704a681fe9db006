"""README's Library section: its example runs, and its solver signature
lines are the code's."""

import inspect
import re
from pathlib import Path

import pytest

import sigflow

ROOT = Path(__file__).resolve().parents[1]


def library_blocks() -> list:
    """The python code blocks of README's Library section, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example opens the shipped scenario by a relative path
    namespace = {}
    exec(library_blocks()[0], namespace)
    assert namespace["final"] is namespace["trajectory"].final
    assert abs(float(capsys.readouterr().out)) < 1e-9  # the printed global residual


@pytest.mark.parametrize("name", ["solve_hyperbolic", "solve_parabolic", "step_viscous"])
def test_signature_line_matches_the_code(name):
    listed = " ".join(library_blocks()[1].split())
    line = re.search(rf"\b{name}(\([^)]*\))", listed)
    assert line, f"README lists no signature for {name}"
    sig = inspect.signature(getattr(sigflow, name))
    bare = sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )
    assert line.group(1) == str(bare)
