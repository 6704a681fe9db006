"""Core value types for the signalized-intersection traffic model.

Everything here is an immutable value object: grids, flow states, the
driver acceleration law, signal timing, the braking boundary, and the
full scenario description consumed by the solvers.  Units are SI
throughout (m, s, veh/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Cells with less mass than this are treated as vacuum (v := 0).
VACUUM_RHO = 1e-12
# Most snapshots a run may ask for, t_end / snapshot_interval: every phase
# writes one file per snapshot.
MAX_SNAPSHOTS = 10_000
# Most cells a scenario grid may have: the profiles are sampled on them.
MAX_CELLS = 10**6


class ScenarioError(ValueError):
    """Raised when a scenario is unusable; carries its violations by key path."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations

    def __reduce__(self):  # a copy rebuilt from this keeps its violations
        return type(self), (self.violations,)


def sample_profile(fn: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Evaluate a profile callable on an array, accepting scalar-only callables."""
    xs = np.asarray(xs, dtype=float)
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(x)) for x in xs], dtype=float)


@dataclass(frozen=True)
class RoadGrid:
    """Uniform cell grid on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(
                f"x_min and x_max must be finite, got x_min={self.x_min}, x_max={self.x_max}"
            )
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        # a float count, even 150.0, fails later in array sizing and indexing
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, (int, np.integer)):
            raise TypeError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be >= 4, got {self.n_cells}")
        if self.n_cells > np.iinfo(np.intp).max:
            # more cells than an array can index
            raise ValueError(f"n_cells must be <= {np.iinfo(np.intp).max}, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx

    def face_index(self, x: float) -> int:
        """Index of the cell face nearest x."""
        return int(round((x - self.x_min) / self.dx))

    def nearest_face(self, x: float) -> float:
        """Position of the cell face nearest x."""
        return self.x_min + self.face_index(x) * self.dx


def check_flow_fields(rho: np.ndarray, v: np.ndarray) -> float:
    """Raise ValueError unless rho and v are finite, rho >= 0 and v >= -1e-9
    (the solvers' noise); returns max(v).  Both arrays must be non-empty."""
    rho_lo, v_lo = np.minimum.reduce(rho), np.minimum.reduce(v)
    v_hi = np.maximum.reduce(v)
    # min and max propagate NaN, so together they flag any non-finite entry
    if not (math.isfinite(rho_lo) and math.isfinite(np.maximum.reduce(rho))
            and math.isfinite(v_lo) and math.isfinite(v_hi)):
        raise ValueError("rho and v must be finite")
    if rho_lo < 0.0:
        raise ValueError(f"negative density: min rho = {rho_lo}")
    if v_lo < -1e-9:
        raise ValueError(f"negative velocity: min v = {v_lo}")
    return float(v_hi)


@dataclass(frozen=True)
class FlowState:
    """Density and velocity sampled on a grid at one time instant."""

    grid: RoadGrid
    rho: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        v = np.asarray(self.v, dtype=float)
        n = self.grid.n_cells
        if rho.shape != (n,) or v.shape != (n,):
            raise ValueError(
                f"rho/v must have {n} entries, got {rho.shape} and {v.shape}"
            )
        check_flow_fields(rho, v)
        # Round tiny solver noise up to the admissible set.
        v = np.where(v < 0.0, 0.0, v)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "v", v)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.rho) * self.grid.dx)


@dataclass(frozen=True)
class ForceLaw:
    """Piecewise driver acceleration: constant f0 at low speed, zero above
    the speed limit v_star, linear ramp on the closing interval of width delta."""

    f0: float
    v_star: float
    delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.f0, self.v_star, self.delta))):
            raise ValueError(
                f"f0, v_star and delta must be finite, got f0={self.f0}, "
                f"v_star={self.v_star}, delta={self.delta}"
            )
        if not self.f0 > 0:
            raise ValueError(f"f0 must be positive, got {self.f0}")
        if not 0 < self.delta < self.v_star:
            raise ValueError(
                f"need 0 < delta < v_star, got delta={self.delta}, v_star={self.v_star}"
            )

    def __call__(self, v):
        """Acceleration applied by drivers at speed v (vectorized).

        f0 below v_star - delta, so also at every negative speed, +0.0 above
        v_star, and the ramp f0 (v_star - v) / delta clipped to [0, f0] in
        between; NaN stays NaN.  A scalar speed gives a float, an array a
        new array.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            return float(self(v.reshape(1))[0])
        out = self.v_star - v
        np.multiply(self.f0, out, out=out)
        np.divide(out, self.delta, out=out)
        np.maximum(out, 0.0, out=out)
        np.minimum(out, self.f0, out=out)
        # above v_star the clipped ramp is +0.0, or -0.0 where f0 (v_star - v)
        # underflows; adding +0.0 maps -0.0 to +0.0 and leaves every other value
        np.add(out, 0.0, out=out)
        np.copyto(out, self.f0, where=v < self.v_star - self.delta)
        return out


@dataclass(frozen=True)
class SignalTiming:
    """Intersection position and red-phase timing.

    x0: light position; t0: red onset; tau0: braking lead time;
    tau1: red duration; h: length of the braking approach zone.
    """

    x0: float
    t0: float
    tau0: float
    tau1: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.t0, self.tau0, self.tau1, self.h))):
            raise ValueError(
                f"x0, t0, tau0, tau1 and h must be finite, got x0={self.x0}, "
                f"t0={self.t0}, tau0={self.tau0}, tau1={self.tau1}, h={self.h}"
            )
        if not (self.t0 > self.tau0 > 0):
            raise ValueError(f"need t0 > tau0 > 0, got t0={self.t0}, tau0={self.tau0}")
        if not self.tau1 > 0:
            raise ValueError(f"tau1 must be positive, got {self.tau1}")
        if not 0 < self.h < self.x0:
            raise ValueError(f"need 0 < h < x0, got h={self.h}, x0={self.x0}")


@dataclass(frozen=True)
class BrakingProfile:
    """Moving braking boundary gamma(t) with prescribed velocity V(t),
    both defined on [t0 - tau0, infinity)."""

    gamma: Callable[[float], float]
    V: Callable[[float], float]


@dataclass(frozen=True)
class BoundaryData:
    """Upstream inflow data: density and velocity as functions of time."""

    rho_in: Callable[[float], float]
    v_in: Callable[[float], float]


# A sealed upstream end: nothing enters (the hyperbolic ghost cell and the
# viscous Dirichlet data are both zero).
CLOSED = BoundaryData(rho_in=lambda t: 0.0, v_in=lambda t: 0.0)


def default_braking_profile(timing: SignalTiming, v_handoff: float) -> BrakingProfile:
    """Cosine-ease braking boundary.

    gamma rises from x0 - h to x0 over the flashing-green interval and
    stays at x0 afterwards; V eases from v_handoff down to 0 on the same
    interval and is identically 0 from t0 on.  C1-smooth, so the boundary
    velocity and position are compatible with the handoff by construction.
    """
    if v_handoff < 0:
        raise ValueError(f"v_handoff must be >= 0, got {v_handoff}")
    x0, h, t0, tau0 = timing.x0, timing.h, timing.t0, timing.tau0
    t_start = t0 - tau0

    def ease(t: float) -> float:
        # 1 up to t_start, falling to 0 at t0; gamma and velocity answer t >= t0 themselves
        if t <= t_start:
            return 1.0
        return (1.0 + math.cos(math.pi * (t - t_start) / tau0)) / 2.0

    def gamma(t: float) -> float:
        if t >= t0:
            return x0
        return x0 - h * ease(t)

    def velocity(t: float) -> float:
        if t >= t0:
            return 0.0
        return v_handoff * ease(t)

    return BrakingProfile(gamma=gamma, V=velocity)


@dataclass(frozen=True)
class Scenario:
    """Full problem description for one signal cycle; checked when built."""

    model: str  # "first" or "second"
    grid: RoadGrid
    rho0: Callable[[float], float]
    v0: Callable[[float], float]
    inflow: BoundaryData
    timing: SignalTiming
    force: Optional[ForceLaw]
    mu: float
    t_end: float
    snapshot_interval: float
    cfl: float = 0.5  # sets the steps of both solvers

    def __post_init__(self):
        violations = validate_scenario(self)
        if violations:
            raise ScenarioError(violations)


def initial_state(scenario: Scenario) -> FlowState:
    grid = scenario.grid
    return FlowState(
        grid=grid,
        rho=sample_profile(scenario.rho0, grid.centers),
        v=sample_profile(scenario.v0, grid.centers),
        t=0.0,
    )


def validate_scenario(s: Scenario) -> list[str]:
    """Collect every invariant violation in the scenario; empty means valid.

    Violations are data, not failures: each entry names the offending value
    by its key path in a scenario file and the condition it breaks.
    """
    out: list[str] = []

    if s.model not in ("first", "second"):
        out.append(f"model: must be 'first' or 'second', got {s.model!r}")
    if not (s.mu > 0 and math.isfinite(s.mu)):
        out.append(f"mu: viscosity must be finite and positive, got {s.mu}")
    if not 0 < s.cfl <= 1:
        out.append(f"numerics.cfl: must lie in (0, 1], got {s.cfl}")
    if not s.snapshot_interval > 0:
        out.append(f"numerics.snapshot_interval: must be positive, got {s.snapshot_interval}")
    elif math.isfinite(s.t_end) and s.t_end > MAX_SNAPSHOTS * s.snapshot_interval:
        out.append(
            f"numerics.snapshot_interval: t_end / snapshot_interval = "
            f"{s.t_end / s.snapshot_interval:g} snapshots exceed the cap of "
            f"{MAX_SNAPSHOTS}, got {s.snapshot_interval}"
        )

    tm = s.timing
    if not math.isfinite(s.t_end):
        out.append(f"t_end: must be finite, got {s.t_end}")
    elif not s.t_end >= tm.t0 + tm.tau1:
        out.append(
            f"t_end: must reach the end of the red phase t0 + tau1 = "
            f"{tm.t0 + tm.tau1}, got {s.t_end}"
        )
    g = s.grid
    if g.n_cells > MAX_CELLS:
        out.append(f"grid.n_cells: {g.n_cells} cells exceed the cap of {MAX_CELLS}")
    # a light beyond the road leaves no braking zone to check
    if not tm.x0 < g.x_max:
        out.append(f"signal.x0: light position {tm.x0} must lie below x_max = {g.x_max}")
    elif not g.x_min < tm.x0 - tm.h:
        out.append(
            f"signal.x0/h: braking zone start x0 - h = {tm.x0 - tm.h} must lie "
            f"inside the grid (x_min = {g.x_min})"
        )
    else:
        i = g.face_index(tm.x0 - tm.h)
        x_split = g.nearest_face(tm.x0 - tm.h)
        x_light = g.nearest_face(tm.x0)
        if i < 4 or g.n_cells - i < 4:
            out.append(
                f"signal.x0/h: braking zone start x0 - h = {tm.x0 - tm.h} snaps to "
                f"face {i} of {g.n_cells}; the road is split there and each side "
                f"needs at least 4 cells"
            )
        elif not 0 < x_split < x_light:
            # run() rebuilds the signal timing on these faces; a zone shorter
            # than half a cell snaps to nothing
            out.append(
                f"signal.x0/h: braking zone [{tm.x0 - tm.h}, {tm.x0}] snaps to the "
                f"faces [{x_split}, {x_light}] (dx = {g.dx}), which break "
                f"0 < x0 - h < x0"
            )

    # a profile that overflows is reported as non-finite, not warned of; the
    # cells of a grid past the cap are not allocated
    centers = g.centers if g.n_cells <= MAX_CELLS else np.empty(0)
    with np.errstate(all="ignore"):
        rho0 = sample_profile(s.rho0, centers)
        v0 = sample_profile(s.v0, centers)
        # the inflow is sampled on [0, t_end]
        ts = np.linspace(0.0, s.t_end, 64) if math.isfinite(s.t_end) else np.empty(0)
        rho_in = sample_profile(s.inflow.rho_in, ts)
        v_in = sample_profile(s.inflow.v_in, ts)
    if np.any(rho0 < 0) or not np.all(np.isfinite(rho0)):
        out.append("profiles.rho0: initial density must be finite and non-negative everywhere")
    if np.any(v0 < 0) or not np.all(np.isfinite(v0)):
        out.append("profiles.v0: initial velocity must be finite and non-negative everywhere")
    if np.any(rho_in < 0) or not np.all(np.isfinite(rho_in)):
        out.append("profiles.rho_in: boundary density must be finite and non-negative for all t")
    if np.any(v_in < 0) or not np.all(np.isfinite(v_in)):
        out.append("profiles.v_in: boundary velocity must be finite and non-negative for all t")

    return out
