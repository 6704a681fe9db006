import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sigflow import (
    FlowState,
    RoadGrid,
    ScenarioError,
    Trajectory,
    parse_scenario,
    run,
)
from sigflow import lagrangian
from sigflow.cli import main
from sigflow.domain import sample_profile
from sigflow.lagrangian import BreakdownError, oracle_errors
from sigflow.output import write_outputs, write_report
from tests.conftest import reference_scenario

SRC = Path(__file__).resolve().parent.parent / "src"
SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "intersection.yaml"

GOOD_DOC = """
model: first
grid: {x_min: 0.0, x_max: 300.0, n_cells: 60}
signal: {x0: 200.0, t0: 6.0, tau0: 2.0, tau1: 3.0, h: 50.0}
force: {f0: 1.0, v_star: 16.0, delta: 4.0}
mu: 2.0
t_end: 10.0
numerics: {snapshot_interval: 1.0}
profiles:
  rho0: sine(base=0.1, amp=0.02, wavelength=150)
  v0: 10.0
  rho_in: 0.1
  v_in: 10.0
"""


RHO0 = "sine(base=0.1, amp=0.02, wavelength=150)"


def rho0_of(spec: str):
    """The rho0 profile GOOD_DOC gives with the YAML text spec for rho0."""
    return parse_scenario(GOOD_DOC.replace(RHO0, spec)).rho0


def rho0_errors(spec: str) -> list:
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(GOOD_DOC.replace(RHO0, spec))
    return exc.value.violations


class TestPresets:
    def test_constant_from_number(self):
        fn = rho0_of("0.25")
        np.testing.assert_allclose(fn(np.arange(5.0)), 0.25)

    def test_constant_is_a_float_for_a_scalar(self):
        fn = rho0_of("0.25")
        for t in (3.0, 3, np.float64(3.0)):
            assert type(fn(t)) is float and fn(t) == 0.25
        for x in (np.zeros((2, 3)), np.array(1.0), [0.0, 1.0]):
            out = fn(x)
            assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
            np.testing.assert_array_equal(out, 0.25)

    def test_sampled_constant_is_unchanged(self):
        xs = np.linspace(0.0, 10.0, 7)
        out = sample_profile(rho0_of("0.25"), xs)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.full_like(xs, 0.25))

    def test_call_string(self):
        fn = rho0_of("sine(base=0.1, amp=0.05, wavelength=200)")
        x = np.array([0.0, 50.0, 100.0])
        np.testing.assert_allclose(fn(x), 0.1 + 0.05 * np.sin(2 * np.pi * x / 200.0))

    def test_linear_ramp_clamps(self):
        fn = rho0_of("linear_ramp(start=2.0, end=6.0, x_start=10.0, x_end=20.0)")
        np.testing.assert_allclose(fn(np.array([0.0, 15.0, 30.0])), [2.0, 4.0, 6.0])

    def test_plateau(self):
        fn = rho0_of("plateau(inside=0.2, outside=0.05, x_left=10.0, x_right=20.0)")
        np.testing.assert_allclose(fn(np.array([5.0, 15.0, 25.0])), [0.05, 0.2, 0.05])

    def test_table(self):
        fn = rho0_of("{table: {x: [0.0, 10.0], values: [1.0, 3.0]}}")
        assert fn(5.0) == pytest.approx(2.0)

    def test_errors(self):
        for spec, error in [
            ("nope(a=1)", "unknown preset 'nope'"),
            ("sine(base=x)", "profiles.rho0.base: expected a number, got 'x'"),
            ("sine(base=0.1, amp=true, wavelength=100)",
             "profiles.rho0.amp: expected a number, got 'true'"),
            ("sine(base=0.1, amp=0.02)", "bad arguments for preset"),
            ("sine(base=0.1, amp=0.02, wavelength=-1)", "sine needs a positive wavelength"),
            ("sine(base=0.1, amp)", "bad argument 'amp'"),
            ("sine base=0.1", "cannot parse preset"),
            ("[1, 2, 3]", "profiles.rho0: expected a number, got [1, 2, 3]"),
            ("true", "profiles.rho0: expected a number, got True"),
            ("{table: {x: [0.0], values: [1.0]}}", "table needs matching 1-D"),
            ("{table: {x: [0.0, 10.0, 5.0], values: [1, 2, 3]}}", "strictly increasing"),
            ("{table: 5}", "profiles.rho0: table needs the form"),
            ("{table: {x: [a, 10.0], values: [1, 2]}}",
             "profiles.rho0.table.x[0]: expected a number, got 'a'"),
            ("{table: {x: [0.0, null], values: [1, 2]}}",
             "profiles.rho0.table.x[1]: expected a number, got None"),
            ("{table: {x: [0.0, 10.0], values: [1, true]}}",
             "profiles.rho0.table.values[1]: expected a number, got True"),
        ]:
            errors = rho0_errors(spec)
            assert len(errors) == 1 and errors[0].startswith("profiles.rho0"), errors
            assert error in errors[0]


HUGE = "1" + "0" * 400  # an integer a float cannot hold
TOO_LONG = "1" + "0" * 5000  # past Python's default limit of 4300 digits
TOO_LONG_HEX = "0x" + "f" * 5000  # read without a limit, but past it in decimal

# a boolean where a number goes, a repeated preset argument, a table key other
# than x and values, a profile mapping that is not a table, more snapshots
# than the cap of 10 000 (t_end = 10), numbers YAML holds but a float or a
# grid cannot, integers longer than Python reads or prints as decimal text, more cells than
# the cap of 10**6, a light beyond the road and a negative inflow: each is one
# located error, and `validate` exits 2 with it
REFUSED = [
    ("tau1: 3.0", "tau1: true", "signal.tau1: expected a number, got True"),
    ("f0: 1.0", "f0: yes", "force.f0: expected a number, got True"),
    ("x_min: 0.0", "x_min: true", "grid.x_min: expected a number, got True"),
    (RHO0, "sine(base=0.1, amp=0.02, wavelength=150, base=5)",
     "profiles.rho0: argument 'base' repeated in preset "
     "'sine(base=0.1, amp=0.02, wavelength=150, base=5)'"),
    (RHO0, "{table: {x: [0.0, 300.0], values: [0.1, 0.1], y: 3}}",
     "profiles.rho0: table needs the form {table: {x: [...], values: [...]}} with exactly "
     "the lists x and values, got {'table': {'x': [0.0, 300.0], 'values': [0.1, 0.1], 'y': 3}}"),
    (RHO0, "{preset: sine, base: 0.1, amp: 0.02, wavelength: 150}",
     "profiles.rho0: table needs the form {table: {x: [...], values: [...]}} with exactly "
     "the lists x and values, got {'preset': 'sine', 'base': 0.1, 'amp': 0.02, "
     "'wavelength': 150}"),
    ("snapshot_interval: 1.0}", "snapshot_interval: 1.0e-300}",
     "numerics.snapshot_interval: t_end / snapshot_interval = 1e+301 snapshots exceed "
     "the cap of 10000, got 1e-300"),
    ("snapshot_interval: 1.0}", "snapshot_interval: 1.0e-9}",
     "numerics.snapshot_interval: t_end / snapshot_interval = 1e+10 snapshots exceed "
     "the cap of 10000, got 1e-09"),
    ("x0: 200.0", "x0: .inf",
     "signal: x0, t0, tau0, tau1 and h must be finite, got x0=inf, t0=6.0, tau0=2.0, "
     "tau1=3.0, h=50.0"),
    ("mu: 2.0", f"mu: {HUGE}", "mu: expected a number, got an integer too large for a float"),
    ("n_cells: 60", f"n_cells: {HUGE}",
     f"grid: n_cells must be <= {np.iinfo(np.intp).max}, got {HUGE}"),
    ("n_cells: 60", "n_cells: 1000000000000000000",
     "grid.n_cells: 1000000000000000000 cells exceed the cap of 1000000"),
    ("mu: 2.0", f"mu: {TOO_LONG}", "mu: expected a number, got an integer of 5001 digits"),
    ("n_cells: 60", f"n_cells: {TOO_LONG}",
     "grid.n_cells: expected a number, got an integer of 5001 digits"),
    ("model: first", f"model: {TOO_LONG_HEX}",
     "model: must be 'first' or 'second', got an integer of 5000 digits"),
    ("n_cells: 60", f"n_cells: {TOO_LONG_HEX}",
     "grid.n_cells: expected a number, got an integer of 5000 digits"),
    ("x0: 200.0", "x0: 700.0", "signal.x0: light position 700.0 must lie below x_max = 300.0"),
    ("v_in: 10.0", "v_in: -1.0",
     "profiles.v_in: boundary velocity must be finite and non-negative for all t"),
]


@pytest.mark.parametrize("old, new, error", REFUSED,
                         ids=["bool-tau1", "bool-f0", "bool-x_min", "repeated-argument",
                              "table-extra-key", "preset-mapping", "tiny-interval",
                              "small-interval", "infinite-x0", "huge-mu", "huge-n_cells", "many-n_cells",
                              "too-many-digits", "too-many-digits-n_cells",
                              "too-many-hex-digits-model", "too-many-hex-digits-n_cells",
                              "light-beyond-road", "negative-v_in"])
def test_refused_input_is_located(old, new, error, tmp_path, capsys):
    doc = GOOD_DOC.replace(old, new)
    assert new in doc
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.violations == [error]
    p = tmp_path / "bad.yaml"
    p.write_text(doc)
    assert main(["validate", "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


# the shipped document's leaf values, as (line number, indent, key)
SHIPPED_LINES = SHIPPED.read_text().splitlines()
SLOTS = [(i, m.group(1), m.group(2)) for i, line in enumerate(SHIPPED_LINES)
         if (m := re.match(r"^( *)(\w+): *[^#\s]", line))]
# integers that no array can index or that are negative; a grid of more than
# 10**6 cells is refused before its cells are allocated
HUGE_INTS = [10**400, -10**400, 10**20, 2**63]
OTHER_TEXT = [".inf", "-.inf", ".nan", "true", "false", "yes", "off", "null", "~", "",
              "'abc'", "'1.0'", "abc", "2020-01-01", "2020-13-45", "[]", "[1, 2]",
              "[[0.0]]", "{}", "{a: 1}", "first", "second", "[1, 2", "'open",
              "sine(base=0.1, amp=.inf, wavelength=300)"]


# YAML text for one value: a number (huge ones too), a non-finite float, a
# boolean, null, a string, a list or a mapping
YAML_VALUES = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from(HUGE_INTS).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(OTHER_TEXT),
)


@st.composite
def edited_documents(draw) -> str:
    """The shipped document with one or two of its values replaced."""
    lines = list(SHIPPED_LINES)
    for i in draw(st.lists(st.sampled_from(range(len(SLOTS))), min_size=1, max_size=2,
                           unique=True)):
        line, indent, key = SLOTS[i]
        lines[line] = f"{indent}{key}: {draw(YAML_VALUES)}"
    return "\n".join(lines) + "\n"


def test_the_shipped_document_has_every_value_slot():
    assert [key for _, _, key in SLOTS] == [
        "model", "x_min", "x_max", "n_cells", "x0", "t0", "tau0", "tau1", "h", "f0",
        "v_star", "delta", "mu", "t_end", "cfl", "snapshot_interval", "rho0", "v0",
        "rho_in", "v_in"]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=edited_documents())
# on a road this long the sine of rho0 overflows: reported, not warned of
@example(doc=SHIPPED.read_text().replace("x_max: 600.0", "x_max: 2.8706864405588915e+307"))
def test_an_edited_document_parses_or_is_refused(doc, tmp_path, capsys):
    # one ScenarioError for every unusable document; validate exits 0 or 2 and
    # prints exactly its violations
    try:
        parse_scenario(doc)
        violations = []
    except ScenarioError as e:
        violations = e.violations
        assert violations
    p = tmp_path / "edited.yaml"
    p.write_text(doc)
    capsys.readouterr()
    assert main(["validate", "--config", str(p)]) == (2 if violations else 0)
    assert capsys.readouterr().err == "".join(f"error: {v}\n" for v in violations)


class TestParseScenario:
    def test_good_document(self):
        s = parse_scenario(GOOD_DOC)
        assert s.model == "first"
        assert s.grid.n_cells == 60
        assert s.timing.x0 == 200.0
        assert s.mu == 2.0
        assert s.cfl == 0.5  # default
        assert s.rho0(0.0) == pytest.approx(0.1)
        assert s.inflow.v_in(3.0) == pytest.approx(10.0)

    def test_snapshot_interval_defaults_to_horizon_fraction(self):
        doc = GOOD_DOC.replace("numerics: {snapshot_interval: 1.0}", "")
        s = parse_scenario(doc)
        assert s.snapshot_interval == pytest.approx(10.0 / 50.0)

    @pytest.mark.parametrize("old, new", [("f0: 1.0", "f0: .inf"),
                                          ("v_star: 16.0", "v_star: .inf"),
                                          ("delta: 4.0", "delta: .nan")])
    def test_non_finite_force_reported(self, old, new):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(GOOD_DOC.replace(old, new))
        assert any(e.startswith("force:") for e in exc.value.violations)

    @pytest.mark.parametrize("old, new", [("rho_in: 0.1", "rho_in: .nan"),
                                          ("v_in: 10.0", "v_in: .inf"),
                                          ("t_end: 10.0", "t_end: .inf"),
                                          ("mu: 2.0", "mu: .inf")])
    def test_non_finite_inflow_reported(self, old, new):
        # named as a violation, without a warning from sampling the inflow
        # up to t_end (RuntimeWarnings fail the suite)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(GOOD_DOC.replace(old, new))
        key = old.split(":")[0]
        where = f"profiles.{key}" if key.endswith("_in") else key
        assert any(e.startswith(f"{where}:") and "finite" in e
                   for e in exc.value.violations)

    @pytest.mark.parametrize("old, new", [("n_cells: 60", "n_cells: 60.0"),
                                          ("n_cells: 60", "n_cells: 60.5"),
                                          ("x_max: 300.0", "x_max: .inf")])
    def test_bad_grid_reported(self, old, new, tmp_path, capsys):
        # a count that is not an integer, or an end that is not finite, is a
        # grid error, not a failure inside simulate
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(GOOD_DOC.replace(old, new))
        assert all(e.startswith("grid:") for e in exc.value.violations)
        p = tmp_path / "bad.yaml"
        p.write_text(GOOD_DOC.replace(old, new))
        assert main(["validate", "--config", str(p)]) == 2
        assert "grid:" in capsys.readouterr().err

    def test_force_off(self):
        s = parse_scenario(GOOD_DOC.replace(
            "force: {f0: 1.0, v_star: 16.0, delta: 4.0}", "force: off"))
        assert s.force is None

    def test_unknown_key_reported(self):
        # cfl alone sets the viscous steps: a file that still caps them with
        # numerics.parabolic_dt is refused, not silently run uncapped
        for doc, line in [
            (GOOD_DOC + "\nturbo: true\n", "turbo: unknown key"),
            (GOOD_DOC.replace("numerics: {snapshot_interval: 1.0}",
                              "numerics: {parabolic_dt: 0.001, snapshot_interval: 1.0}"),
             "numerics.parabolic_dt: unknown key"),
        ]:
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(doc)
            assert line in exc.value.violations

    def test_bad_timing_reported_with_path(self):
        bad = GOOD_DOC.replace("tau0: 2.0", "tau0: -1.0")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any("signal" in e for e in exc.value.violations)

    @pytest.mark.parametrize("line", ["n_cells: 60", "h: 50.0", "delta: 4.0"])
    def test_missing_section_key_named(self, line):
        doc = GOOD_DOC.replace(f", {line}", "")
        assert line not in doc
        section = {"n_cells": "grid", "h": "signal", "delta": "force"}[line.split(":")[0]]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.violations == [f"{section}.{line.split(':')[0]}: missing required key"]

    def test_missing_keys_all_reported(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("model: first\n")
        errs = "\n".join(exc.value.violations)
        for key in ("grid", "signal", "mu", "t_end", "force", "profiles"):
            assert key in errs
        assert "mu: missing required key" in exc.value.violations

    def test_not_yaml(self):
        with pytest.raises(ScenarioError):
            parse_scenario("{:::")
        with pytest.raises(ScenarioError):
            parse_scenario("- just\n- a\n- list\n")

    def test_snapshot_cap_admits_exactly_the_cap(self):
        s = parse_scenario(GOOD_DOC.replace("snapshot_interval: 1.0", "snapshot_interval: 1.0e-3"))
        assert s.t_end / s.snapshot_interval == 10_000

    def test_invariant_violations_reported(self):
        bad = GOOD_DOC.replace("t_end: 10.0", "t_end: 7.0")  # red ends at 9
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any("t_end" in e for e in exc.value.violations)


class TestSnapshotFiles:
    def test_round_trip_bitwise(self, small_trajectory, tmp_path):
        write_outputs(small_trajectory, tmp_path)
        for phase in small_trajectory.phases:
            for i, snap in enumerate(phase.snapshots):
                path = tmp_path / f"{phase.name}_{i:04d}.csv"
                with path.open() as f:
                    t = float(f.readline().split("=", 1)[1])
                x, rho, v = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
                assert t == snap.t
                for got, want in ((x, snap.grid.centers), (rho, snap.rho), (v, snap.v)):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("signed, unsigned", [
        (RoadGrid(-0.0, 600.0, 600), RoadGrid(0.0, 600.0, 600)),
        (RoadGrid(-600.0, -0.0, 600), RoadGrid(-600.0, 0.0, 600)),
    ], ids=["x_min", "x_max"])
    def test_grids_with_signed_zero_ends_write_identical_x(self, signed, unsigned, tmp_path):
        # the two grids compare equal, so they share the centre memo; their
        # centres are bit-identical, so sharing it changes no byte
        rho, v = np.full(600, 0.1), np.full(600, 10.0)
        snaps = [FlowState(signed, rho, v, 0.0), FlowState(unsigned, rho, v, 1.0)]
        phase = SimpleNamespace(name="signed_zero", solver="none", t_start=0.0, t_end=1.0,
                                snapshots=snaps, ledger=[{"total_mass": 60.0}] * 2,
                                influx=0.0, outflux=0.0, clamped=0.0)
        write_outputs(Trajectory(parse_scenario(GOOD_DOC), [phase], None, 0.0, 0.0, {}),
                      tmp_path, "rho")
        columns = [(tmp_path / f"signed_zero_{i:04d}.csv").read_text().splitlines()[2:]
                   for i in range(2)]
        assert [[ln.split(",")[0] for ln in col] for col in columns] == [
            list(map(repr, g.centers.tolist())) for g in (signed, unsigned)]

    def test_deterministic_bytes(self, small_trajectory, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            write_outputs(small_trajectory, out, "rho")
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_header_format(self, tmp_path):
        write_outputs(two_snapshot_trajectory(), tmp_path)
        lines = (tmp_path / "hand_built_0001.csv").read_text().splitlines()
        assert lines[0] == "# t=1.0"
        assert lines[1] == "x,rho,v"
        assert lines[2] == "0.5,1.0,1.0"
        assert len(lines) == 6


@pytest.fixture(scope="module")
def small_trajectory():
    s = parse_scenario(GOOD_DOC)
    return run(s)


def _fmt(x):
    return repr(float(x))


def _color(frac):
    frac = min(max(frac, 0.0), 1.0)
    r = int(round(255 * frac))
    b = int(round(255 * (1.0 - frac)))
    g = int(round(80 * (1.0 - abs(2 * frac - 1.0))))
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_write_snapshot(state, path):
    """write_snapshot written with one Python call per value, as it was
    before it worked on whole arrays; write_snapshot must match its bytes."""
    lines = [f"# t={_fmt(state.t)}", "x,rho,v"]
    for x, r, v in zip(state.grid.centers, state.rho, state.v):
        lines.append(f"{_fmt(x)},{_fmt(r)},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_emit_plot(traj, field, csv_path, svg_path):
    """emit_plot written with one Python call per value, as it was before it
    worked on whole arrays; emit_plot must match its bytes."""
    snapshots = sorted((s for p in traj.phases for s in p.snapshots), key=lambda s: s.t)
    rows = []
    for snap in snapshots:
        vals = getattr(snap, field)
        for x, val in zip(snap.grid.centers, vals):
            rows.append((snap.t, x, val))
    lines = ["t,x,value"] + [f"{_fmt(t)},{_fmt(x)},{_fmt(v)}" for t, x, v in rows]
    Path(csv_path).write_text("\n".join(lines) + "\n")

    vmin = min(r[2] for r in rows)
    vmax = max(r[2] for r in rows)
    t_lo = min(r[0] for r in rows)
    t_hi = max(r[0] for r in rows)
    x_lo = min(r[1] for r in rows)
    x_hi = max(r[1] for r in rows)
    span_t = (t_hi - t_lo) or 1.0
    span_x = (x_hi - x_lo) or 1.0
    span_v = (vmax - vmin) or 1.0

    width, height, margin = 640, 420, 60
    pw, ph = width - 2 * margin, height - 2 * margin

    def px(t):
        return margin + pw * (t - t_lo) / span_t

    def py(x):
        return height - margin - ph * (x - x_lo) / span_x

    times = sorted({r[0] for r in rows})
    dt_plot = pw * (span_t / max(len(times) - 1, 1)) / span_t
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for snap in snapshots:
        xs = snap.grid.centers
        dx_plot = ph * (snap.grid.dx / span_x)
        vals = getattr(snap, field)
        for x, val in zip(xs, vals):
            c = _color((val - vmin) / span_v)
            parts.append(
                f'<rect x="{px(snap.t) - dt_plot / 2:.2f}" '
                f'y="{py(x) - dx_plot / 2:.2f}" width="{max(dt_plot, 1.0):.2f}" '
                f'height="{max(dx_plot, 1.0):.2f}" fill="{c}"/>'
            )

    tm = traj.scenario.timing
    for t_mark in (tm.t0 - tm.tau0, tm.t0, tm.t0 + tm.tau1):
        if t_lo <= t_mark <= t_hi:
            xpix = px(t_mark)
        else:
            xpix = px(min(max(t_mark, t_lo), t_hi))
        parts.append(
            f'<line class="phase-marker" x1="{xpix:.2f}" y1="{margin}" '
            f'x2="{xpix:.2f}" y2="{height - margin}" stroke="black" '
            'stroke-dasharray="4 3"/>'
        )

    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle">time t (s)</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:.0f})">position x (m)</text>'
    )
    parts.append(
        f'<text x="{width - margin}" y="20" text-anchor="end">'
        f"{field}: min={_fmt(vmin)} max={_fmt(vmax)}</text>"
    )
    parts.append("</svg>")
    Path(svg_path).write_text("\n".join(parts) + "\n")


def two_snapshot_trajectory():
    """Four cells of width 1 at t = 0 and t = 1.  rho spans [0, 2] with the
    mid value 1 and the value 2 / 64, whose green channel 80 / 32 = 2.5 rounds
    half to even; v has its first minimum at 0.0 and later ones at -0.0, an
    order in which np.min returns -0.0 but min() returns 0.0."""
    g = RoadGrid(0.0, 4.0, 4)
    snaps = [FlowState(g, np.array([0.0, 1.0, 2.0, 1.0]), np.array([0.0, 3.0, -0.0, 1.0]), 0.0),
             FlowState(g, np.array([1.0, 1.0, 2 / 64, 2.0]), np.array([1.0, 2.0, -0.0, 4.0]), 1.0)]
    # one closed phase, enough for write_report
    phase = SimpleNamespace(name="hand_built", solver="none", t_start=0.0, t_end=1.0,
                            snapshots=snaps, ledger=[{"total_mass": 4.0}] * 2,
                            influx=0.0, outflux=0.0, clamped=0.0)
    return Trajectory(parse_scenario(GOOD_DOC), [phase], None, 0.0, 0.0, {})


def trajectory(model, request):
    """The session trajectory of a model, or the hand-built one."""
    if model == "hand-built":
        return two_snapshot_trajectory()
    return request.getfixturevalue(f"{model}_model_trajectory")


class TestWriterParity:
    @pytest.mark.parametrize("model", ["first", "second"])
    def test_snapshots_match_reference_bytes(self, model, request, tmp_path):
        for traj in (request.getfixturevalue(f"{model}_model_trajectory"),
                     two_snapshot_trajectory()):
            write_outputs(traj, tmp_path)
            for phase in traj.phases:
                for i, snap in enumerate(phase.snapshots):
                    new, ref = tmp_path / f"{phase.name}_{i:04d}.csv", tmp_path / "ref.csv"
                    reference_write_snapshot(snap, ref)
                    assert new.read_bytes() == ref.read_bytes(), new.name

    @pytest.mark.parametrize("field", ["rho", "v"])
    @pytest.mark.parametrize("model", ["first", "second", "hand-built"])
    def test_plot_matches_reference_bytes(self, model, field, request, tmp_path):
        traj = trajectory(model, request)
        write_outputs(traj, tmp_path, field)
        reference_emit_plot(traj, field, tmp_path / "ref.csv", tmp_path / "ref.svg")
        for ext in ("csv", "svg"):
            assert ((tmp_path / f"plot_{field}.{ext}").read_bytes()
                    == (tmp_path / f"ref.{ext}").read_bytes())

    @pytest.mark.parametrize("plot", ["rho", "v", None])
    @pytest.mark.parametrize("model", ["first", "second", "hand-built"])
    def test_write_outputs_matches_reference_bytes(self, model, plot, request, tmp_path):
        # every file, from the snapshot pass's strings, as the reference
        # writers format each value afresh
        traj = trajectory(model, request)
        new, ref = tmp_path / "new", tmp_path / "ref"
        new.mkdir()
        ref.mkdir()
        write_outputs(traj, new, plot, timings={"total": 1.5})
        for phase in traj.phases:
            for i, snap in enumerate(phase.snapshots):
                reference_write_snapshot(snap, ref / f"{phase.name}_{i:04d}.csv")
        write_report(traj, ref / "report.json", timings={"total": 1.5})
        if plot is not None:
            reference_emit_plot(traj, plot, ref / f"plot_{plot}.csv",
                                ref / f"plot_{plot}.svg")
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in new.iterdir()) == names
        for name in names:
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name

    def test_write_outputs_rejects_unknown_field_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="field must be"):
            write_outputs(two_snapshot_trajectory(), tmp_path, "speed")
        assert not any(tmp_path.iterdir())

    def test_rect_geometry_and_colour_ramp(self, tmp_path):
        write_outputs(two_snapshot_trajectory(), tmp_path, "rho")
        rects = [ln for ln in (tmp_path / "plot_rho.svg").read_text().splitlines()
                 if ln.startswith("<rect x=")]
        assert len(rects) == 8
        # px(0) = 60, dt_plot = 520; py(0.5) = 360, dx_plot = 300 / 3
        assert rects[0] == ('<rect x="-200.00" y="310.00" width="520.00" '
                            'height="100.00" fill="#0000ff"/>')
        assert rects[2].endswith('fill="#ff0000"/>')
        # rho = 1 is half-way: 255 * 0.5 = 127.5 rounds to 128
        assert rects[1].endswith('fill="#805080"/>')
        assert rects[6].endswith('fill="#0402fb"/>')

    def test_zero_minimum_keeps_its_first_sign(self, tmp_path):
        write_outputs(two_snapshot_trajectory(), tmp_path, "v")
        assert "v: min=0.0 max=4.0</text>" in (tmp_path / "plot_v.svg").read_text()


class TestReportAndPlot:
    def test_report_document(self, small_trajectory, tmp_path):
        p = tmp_path / "report.json"
        write_report(small_trajectory, p, timings={"total": 0.5})
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == 1
        assert doc["failed_phase"] is None
        assert len(doc["phases"]) == 4
        assert doc["mass_closure_residual"] == abs(doc["global"]["residual"])
        assert doc["phase_timings_s"] == {"total": 0.5}

    def test_failed_report_document(self, tmp_path):
        p = tmp_path / "report.json"
        write_report(None, p, failed_phase="upstream_braking", error="boom")
        doc = json.loads(p.read_text())
        assert doc["failed_phase"] == "upstream_braking"
        assert doc["error"] == "boom"

    def test_plot_outputs(self, small_trajectory, tmp_path):
        write_outputs(small_trajectory, tmp_path, "rho")
        csv, svg = tmp_path / "plot_rho.csv", tmp_path / "plot_rho.svg"

        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x,value"
        n_rows = sum(s.grid.n_cells for p in small_trajectory.phases for s in p.snapshots)
        assert len(lines) == 1 + n_rows

        text = svg.read_text()
        assert text.count('class="phase-marker"') == 3
        vals = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert f"min={min(vals)!r}" in text
        assert f"max={max(vals)!r}" in text
        assert "time t (s)" in text and "position x (m)" in text

    def test_plot_rejects_unknown_field(self, small_trajectory, tmp_path):
        with pytest.raises(ValueError, match="field must be 'rho' or 'v', got 'speed'"):
            write_outputs(small_trajectory, tmp_path, "speed")


class TestCli:
    @pytest.fixture()
    def config(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(GOOD_DOC)
        return p

    def test_validate_ok(self, config, capsys):
        assert main(["validate", "--config", str(config)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.yaml")]) == 2

    def test_validate_a_file_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.yaml"
        p.write_bytes(b"model: first\n\xff\xfe bad\n")
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {p}: ")

    @pytest.mark.parametrize("value, stderr", [
        ("basic_format", ""), ("_styles", ""),
        ("info", r"INFO sigflow: run finished in \d+\.\d\d s\n")])
    def test_sigflow_log_takes_only_a_level_name(self, config, tmp_path, value, stderr):
        # a fresh interpreter: under pytest the root logger has handlers, so
        # basicConfig ignores the level it is given
        env = dict(os.environ, PYTHONPATH=str(SRC), SIGFLOW_LOG=value)
        done = subprocess.run([sys.executable, "-m", "sigflow.cli", "simulate", "--config",
                               str(config), "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert re.fullmatch(stderr, done.stderr), done.stderr

    def test_validate_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(GOOD_DOC.replace("mu: 2.0", "mu: -2.0"))
        assert main(["validate", "--config", str(p)]) == 2
        assert "mu" in capsys.readouterr().err

    def test_validate_bad_preset_mapping(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(GOOD_DOC.replace("rho0: sine(base=0.1, amp=0.02, wavelength=150)",
                                      "rho0: {table: 5}"))
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: profiles.rho0: table needs")

    @pytest.mark.parametrize("nx", ["2", "0"])
    def test_simulate_rejects_a_bad_nx(self, config, tmp_path, capsys, nx):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--nx", nx, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --nx: n_cells must be >= 4, got {nx}\n"
        assert not out.exists()

    def test_simulate_rejects_an_nx_past_the_cap(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--nx", "1000001",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --nx: 1000001 cells exceed the cap of 1000000\n")
        assert not out.exists()

    def test_simulate_refuses_a_grid_too_coarse_to_split_before_writing(
            self, config, tmp_path, capsys):
        # GOOD_DOC's braking zone starts at x = 150: face 2 of 5 cells
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--nx", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: signal.x0/h: braking zone start x0 - h = 150.0 snaps to face 2 of 5; "
            "the road is split there and each side needs at least 4 cells\n")
        assert not out.exists()

    def test_simulate_writes_outputs(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--plot", "rho"])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "plot_rho.csv").exists()
        assert (out / "plot_rho.svg").exists()
        snaps = sorted(out.glob("free_flow_*.csv"))
        assert snaps, "free-flow snapshots missing"
        doc = json.loads((out / "report.json").read_text())
        assert doc["mass_closure_residual"] < 1e-9

    @pytest.mark.parametrize("name, what", [("free_flow_0000.csv", "snapshot"),
                                            ("report.json", "report"),
                                            ("plot_rho.csv", "plot data"),
                                            ("plot_rho.svg", "plot")])
    def test_simulate_cannot_write_a_file(self, config, tmp_path, capsys, name, what):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--plot", "rho"]) == 1
        assert f"error: cannot write {what} to {out / name}: " in capsys.readouterr().err

    def test_simulate_out_is_a_file(self, config, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_simulate_model_override(self, config, tmp_path):
        out = tmp_path / "out2"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--model", "second", "--nx", "40"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert all(p["solver"] == "parabolic" for p in doc["phases"])

    def test_verify_oracle(self, config, capsys):
        assert main(["verify-oracle", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "L1(rho)" in out and "refinement ratio" in out

    def test_verify_oracle_breakdown_fails_cleanly_under_warnings_as_errors(
            self, tmp_path, capsys):
        # the shipped scenario with an inflow faster than the road (and a
        # Courant number the inflow's ghost speed allows): the reference's
        # tau reaches 0 at t = 0.08 s (density became infinite), which must
        # end in exit code 1 and a message, not in a numpy warning raised as
        # an error
        text = (Path(__file__).resolve().parent.parent / "scenarios"
                / "intersection.yaml").read_text()
        text = text.replace("  v_in: 10.0", "  v_in: linear_ramp(start=30.0, end=38.0, "
                            "x_start=0.0, x_end=8.0)")
        text = text.replace("  cfl: 0.5 ", "  cfl: 0.1 ")
        p = tmp_path / "fast_inflow.yaml"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify-oracle", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "oracle comparison failed" in err and "became infinite" in err

    def test_verify_oracle_rejects_vacuum(self, tmp_path, capsys):
        p = tmp_path / "vac.yaml"
        p.write_text(GOOD_DOC.replace(
            "rho0: sine(base=0.1, amp=0.02, wavelength=150)", "rho0: 0.0"))
        assert main(["verify-oracle", "--config", str(p)]) == 2
        assert "rho0" in capsys.readouterr().err

    def test_verify_oracle_names_the_file_cell_count_past_the_cap(
            self, tmp_path, capsys, monkeypatch):
        # 130000 cells pass the cap, their 8x reference does not; the
        # refusal comes before any refined state is built
        p = tmp_path / "fine.yaml"
        p.write_text(GOOD_DOC.replace("n_cells: 60", "n_cells: 130000"))
        monkeypatch.setattr(lagrangian, "initial_state", None)
        assert main(["verify-oracle", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: grid.n_cells: 130000 cells need a reference on 8 x 130000 = 1040000 "
            "cells, past the cap of 1000000\n")


VACUUM_ERROR = ("profiles.rho0: initial density must be strictly positive everywhere when "
                "the mass-coordinate reference solution is requested (the coordinate "
                "transformation is otherwise not invertible)")


def test_oracle_check_rejects_vacuum():
    # the density is checked first: this velocity breaks the horizon too
    s = reference_scenario(v0_amp=8.0)
    with pytest.raises(ValueError, match="^horizon 8.0 is past half"):
        oracle_errors(s)
    s = replace(s, rho0=lambda x: np.zeros_like(np.asarray(x, float)))
    with pytest.raises(ScenarioError) as exc:
        oracle_errors(s)
    assert exc.value.violations == [VACUUM_ERROR]


def failing_solves(monkeypatch, fails_n, fails_2n):
    """Make the finite-volume solve of GOOD_DOC's 60-cell comparison raise
    fails_n, and that of the 120-cell one fails_2n, where not None; returns
    the cell counts of the solves started."""
    started = []
    real = lagrangian.solve_hyperbolic

    def solve(initial, *args, **kwargs):
        n_cells = initial.grid.n_cells
        started.append(n_cells)
        fails = {60: fails_n, 120: fails_2n}[n_cells]
        if fails is not None:
            raise fails
        return real(initial, *args, **kwargs)

    monkeypatch.setattr(lagrangian, "solve_hyperbolic", solve)
    return started


ORACLE_FAILURES = [
    ("n_raises", ValueError("horizon at n"), None, "horizon at n"),
    ("2n_breaks_down", None, BreakdownError("breakdown at 2n"), "breakdown at 2n"),
    ("both_raise", ValueError("horizon at n"), BreakdownError("breakdown at 2n"),
     "horizon at n"),
    ("2n_type_error", None, TypeError("bad argument at 2n"), TypeError),
]


class TestVerifyOracleChild:
    """`verify-oracle` prints what `lagrangian.oracle_errors` computes: its n
    and 2n comparisons, one after the other in this process, against one
    shared reference.  The first check to fail gives the message and exit
    code."""

    @pytest.mark.parametrize("config", [pytest.param(SHIPPED, id="inline")])
    def test_output_is_the_sequential_computation(self, capsys, config):
        s = parse_scenario(config.read_text())
        n = s.grid.n_cells
        (rho_n, v_n), (rho_2n, v_2n) = oracle_errors(s)
        assert main(["verify-oracle", "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"oracle check, n={n}:   L1(rho)={rho_n:.6e}  L1(v)={v_n:.6e}",
            f"oracle check, n={2 * n}: L1(rho)={rho_2n:.6e}  L1(v)={v_2n:.6e}",
            f"refinement ratio (rho): {rho_n / rho_2n:.2f}",
        ]

    @pytest.mark.parametrize("n, lines", [
        (150, ["oracle check, n=150:   L1(rho)=1.082341e-03  L1(v)=2.955886e-02",
               "oracle check, n=300: L1(rho)=6.547680e-04  L1(v)=1.483143e-02",
               "refinement ratio (rho): 1.65"]),
        (600, ["oracle check, n=600:   L1(rho)=3.950068e-04  L1(v)=7.493903e-03",
               "oracle check, n=1200: L1(rho)=2.651194e-04  L1(v)=3.772923e-03",
               "refinement ratio (rho): 1.49"]),
    ], ids=["n150", "n600"])
    def test_shipped_file_prints_the_recorded_lines(self, tmp_path, capsys, n, lines):
        # the lines the shipped file has printed since the reference was
        # shared between both grids; a change to either solver that moves a
        # printed digit shows here
        text = SHIPPED.read_text().replace("n_cells: 150", f"n_cells: {n}")
        assert f"n_cells: {n}" in text
        p = tmp_path / "scenario.yaml"
        p.write_text(text)
        assert main(["verify-oracle", "--config", str(p)]) == 0
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == (lines, "")

    def test_fresh_process_warns_of_nothing(self):
        # every warning an error, in a fresh interpreter: Python reports some
        # warnings (a ResourceWarning, one raised during shutdown) on stderr
        # but keeps exit code 0
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "sigflow.cli",
             "verify-oracle", "--config", str(SHIPPED)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("oracle check, n=150:")

    @pytest.mark.parametrize("fails_n, fails_2n, expected", [
        pytest.param(*case[1:], id=f"inline-{case[0]}") for case in ORACLE_FAILURES])
    def test_failures_keep_their_messages_and_exit_codes(
            self, monkeypatch, tmp_path, capsys, fails_n, fails_2n, expected):
        p = tmp_path / "scenario.yaml"
        p.write_text(GOOD_DOC)
        started = failing_solves(monkeypatch, fails_n, fails_2n)
        if expected is TypeError:
            with pytest.raises(TypeError, match="bad argument at 2n"):
                main(["verify-oracle", "--config", str(p)])
        else:
            assert main(["verify-oracle", "--config", str(p)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: oracle comparison failed: {expected}\n")
        # a failing n comparison ends the call before the 2n solve
        assert started == ([60] if fails_n is not None else [60, 120])

    def test_both_horizons_are_checked_before_anything_is_solved(
            self, monkeypatch, tmp_path, capsys):
        # a breakdown estimate that only the 2n grid's check refuses
        p = tmp_path / "scenario.yaml"
        p.write_text(GOOD_DOC)
        monkeypatch.setattr(lagrangian, "estimate_breakdown_time",
                            lambda state: 1.0 if state.grid.n_cells == 120 else np.inf)
        started = failing_solves(monkeypatch, None, None)
        advanced = []
        monkeypatch.setattr(lagrangian, "advance_characteristics",
                            lambda *args: advanced.append(args))
        assert main(["verify-oracle", "--config", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: oracle comparison failed: horizon 4.0 is past half the "
            "characteristic-crossing estimate 1.0; the smooth reference solution "
            "is not valid there\n")
        assert started == [] and advanced == []

    # the shipped file's grids: n = 150 cells of 4 m, centres at 2, 6, ...; the
    # reference's 8n samples at 0.25, 0.75, ...; the 2n grid's centres at 1, 3, ...
    @pytest.mark.parametrize("zero_at, neighbours", [(0.75, (0.25, 1.25)), (2.0, (1.75, 2.25))],
                             ids=["reference_sample", "n_centre"])
    def test_a_zero_density_is_judged_on_the_reference_samples(
            self, monkeypatch, tmp_path, capsys, zero_at, neighbours):
        table = (f"{{table: {{x: [0.0, {neighbours[0]}, {zero_at}, {neighbours[1]}, 600.0], "
                 "values: [0.08, 0.08, 0.0, 0.08, 0.08]}}")
        text = re.sub(r"(?m)^  rho0: .*$", f"  rho0: {table}", SHIPPED.read_text())
        assert table in text
        p = tmp_path / "scenario.yaml"
        p.write_text(text)
        solved = []
        real = lagrangian.solve_hyperbolic
        monkeypatch.setattr(lagrangian, "solve_hyperbolic",
                            lambda init, *args, **kwargs:
                                solved.append(init) or real(init, *args, **kwargs))
        code = main(["verify-oracle", "--config", str(p)])
        captured = capsys.readouterr()
        if zero_at == 0.75:
            assert (code, captured.out, captured.err) == (2, "", f"error: {VACUUM_ERROR}\n")
            assert solved == []
        else:
            assert (code, captured.err) == (0, "")
            assert len(captured.out.splitlines()) == 3
            assert [init.grid.n_cells for init in solved] == [150, 300]
            assert np.min(solved[0].rho) == 0.0


def shipped_with(**profiles) -> str:
    """The shipped file's text with the given profiles' lines replaced."""
    text = SHIPPED.read_text()
    for key, value in profiles.items():
        text, count = re.subn(rf"(?m)^  {key}: .*$", f"  {key}: {value}", text)
        assert count == 1, key
    return text


RAMP = "linear_ramp(start=8.0, end=12.0, x_start=0.0, x_end=600.0)"
# the shipped file's reference has 8 x 150 cells of 0.5 m
UPPER_LIMIT = ("profiles.rho0: initial density {} passes 6.7039e+153, the most the "
               "mass-coordinate reference takes on its cells of 0.5 m (rho * dx <= 2**510)")
FLOOR = ("profiles.rho0: initial density {} lies at or below the mass-coordinate "
         "reference's positivity floor 1e-12")


@pytest.fixture()
def oracle(tmp_path, capsys, monkeypatch):
    """Run verify-oracle on the shipped file with the given profiles, every
    warning an error; returns (exit code, stdout, stderr, calls made)."""
    calls = []
    for name in ("advance_characteristics", "solve_hyperbolic"):
        real = getattr(lagrangian, name)
        monkeypatch.setattr(lagrangian, name, lambda *args, real=real, name=name, **kw:
                            calls.append(name) or real(*args, **kw))

    def run(**profiles):
        p = tmp_path / "scenario.yaml"
        p.write_text(shipped_with(**profiles))
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify-oracle", "--config", str(p)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, list(calls)
    return run


class TestOracleDensityRange:
    """verify-oracle refuses an initial density its mass-coordinate reference
    cannot carry as profiles.rho0, exit 2, before any reference step or solve.
    YAML floats are written 1.0e+200: PyYAML reads 1.0e200 as a string."""

    def test_a_density_in_range_scales_the_density_errors(self, oracle):
        # rho0 = rho_in = R leaves v alone and scales rho: at R = 1e100 the
        # comparison prints 1e100 x the R = 1 density errors
        runs = [oracle(rho0=r, rho_in=r, v0=RAMP, v_in=8.0) for r in ("1.0", "1.0e+100")]
        assert [(code, err) for code, _, err, _ in runs] == [(0, ""), (0, "")]
        (rho_one, rest_one), (rho_big, rest_big) = (
            ([float(x) for x in re.findall(r"L1\(rho\)=(\S+)", out)],
             re.sub(r"L1\(rho\)=\S+", "", out)) for _, out, _, _ in runs)
        np.testing.assert_allclose(rho_big, 1e100 * np.array(rho_one), rtol=1e-6)
        assert rest_big == rest_one  # L1(v) and the refinement ratio

    def test_a_density_whose_xi_weights_overflow_is_refused(self, oracle):
        # unchecked, the comparison ran with zeroed interior weights and exited 0
        assert oracle(rho0="1.0e+200", rho_in="1.0e+200", v0=RAMP, v_in=8.0) == (
            2, "", f"error: {UPPER_LIMIT.format('1e+200')}\n", [])

    def test_a_density_whose_mass_coordinate_overflows_is_refused(self, oracle):
        # not the vacuum message: the density is positive
        assert oracle(rho0="1.0e+306") == (
            2, "", f"error: {UPPER_LIMIT.format('1e+306')}\n", [])

    @pytest.mark.parametrize("rho0", ["1.0e-13", "1.0e-300"])
    def test_a_density_below_the_floor_is_refused(self, oracle, rho0):
        # not a breakdown: the density starts below the floor
        assert oracle(rho0=rho0) == (
            2, "", f"error: {FLOOR.format(f'{float(rho0):g}')}\n", [])

    def test_a_density_too_steep_for_the_mass_coordinate_is_refused(self, oracle):
        # in range everywhere, but 2e-12 veh/m over the last 9 m, after 590 m
        # of 1e5 veh/m, adds less to xi than its rounding there
        table = ("{table: {x: [0.0, 590.0, 591.0, 600.0], "
                 "values: [1.0e+5, 1.0e+5, 2.0e-12, 2.0e-12]}}")
        assert oracle(rho0=table) == (
            2, "", "error: profiles.rho0: initial density too steep for the mass-coordinate "
                   "reference to resolve (xi must be strictly increasing)\n", [])


NO_INFLOW_DENSITY = ("profiles.rho_in: inflow density {} at t = {} lies at or below the "
                     "mass-coordinate reference's positivity floor 1e-12")
NO_INFLOW_SPEED = ("profiles.v_in: inflow velocity 0 at t = {} is not positive, so no traffic "
                   "enters the mass-coordinate reference")
INFLUX_TOO_LARGE = ("error: oracle comparison failed: profiles.rho_in: the mass influx "
                    "rho_in * v_in is too large for the reference's mass coordinate: it "
                    "rounds away the samples' spacing\n")


class TestOracleInflow:
    """verify-oracle refuses an inflow that lets no traffic into its reference
    (exit 2, before any reference step or solve), and names the inflow when
    its influx is too large for the reference's mass coordinate (exit 1)."""

    @pytest.mark.parametrize("profiles, violations", [
        ({"rho_in": "0.0"}, [NO_INFLOW_DENSITY.format(0, 0)]),
        ({"rho_in": "1.0e-13"}, [NO_INFLOW_DENSITY.format("1e-13", 0)]),
        ({"v_in": "0.0"}, [NO_INFLOW_SPEED.format(0)]),
        ({"rho_in": "0.0", "v_in": "0.0"},
         [NO_INFLOW_DENSITY.format(0, 0), NO_INFLOW_SPEED.format(0)]),
        # zero from t = 4.02 on, the 201st of the reference's 0.02 s steps to the handoff
        ({"rho_in": "{table: {x: [0.0, 4.0, 4.02, 25.0], values: [0.08, 0.08, 0.0, 0.0]}}"},
         [NO_INFLOW_DENSITY.format(0, 4.02)]),
    ], ids=["rho_in_zero", "rho_in_below_floor", "v_in_zero", "both_zero", "rho_in_zero_later"])
    def test_an_inflow_that_lets_no_traffic_in_is_refused(self, oracle, profiles, violations):
        # unchecked, the zero inflows exited 0 with a comparison that does not converge
        assert oracle(**profiles) == (
            2, "", "".join(f"error: {v}\n" for v in violations), [])

    @pytest.mark.parametrize("rho_in", ["1.0e+20", "1.0e+200"])
    def test_an_influx_that_rounds_away_xi_names_the_inflow(self, oracle, rho_in):
        # was "oracle comparison failed: xi must be strictly increasing"
        assert oracle(rho_in=rho_in) == (1, "", INFLUX_TOO_LARGE, ["advance_characteristics"])

    def test_a_dense_inflow_that_keeps_xi_runs(self, oracle):
        code, out, err, calls = oracle(rho_in="1.0e+12")
        assert (code, err, len(out.splitlines())) == (0, "", 3)
        assert calls == ["advance_characteristics", "solve_hyperbolic", "solve_hyperbolic"]


def without_timings(report: Path) -> dict:
    doc = json.loads(report.read_text())
    doc.pop("phase_timings_s")
    return doc


class TestSimulateCalls:
    def test_no_state_carries_over_between_calls(self, tmp_path, capsys):
        # two calls in one process, each against a fresh process running the
        # same command: a formatting memo that outlived a call would show as
        # a stale grid or field in the second call's files
        commands = [["simulate", "--config", str(SHIPPED), "--nx", n, "--plot", field]
                    for n, field in [("150", "rho"), ("600", "v")]]
        for k, argv in enumerate(commands):
            assert main(argv + ["--out", str(tmp_path / f"in_process_{k}")]) == 0
        capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for k, argv in enumerate(commands):
            subprocess.run([sys.executable, "-m", "sigflow.cli", *argv,
                            "--out", str(tmp_path / f"fresh_{k}")],
                           check=True, capture_output=True, env=env)
            inproc, fresh = tmp_path / f"in_process_{k}", tmp_path / f"fresh_{k}"
            names = sorted(p.name for p in fresh.iterdir())
            assert sorted(p.name for p in inproc.iterdir()) == names
            assert f"plot_{argv[-1]}.svg" in names
            for name in names:
                if name == "report.json":
                    assert (without_timings(inproc / name)
                            == without_timings(fresh / name))
                else:
                    assert (inproc / name).read_bytes() == (fresh / name).read_bytes(), name


class TestSampleScenarioFile:
    def test_shipped_example_parses(self):
        from pathlib import Path

        text = (Path(__file__).resolve().parent.parent
                / "scenarios" / "intersection.yaml").read_text()
        s = parse_scenario(text)
        assert s.model == "first"
