"""sigflow: 1-D macroscopic traffic flow through a signalized intersection."""

from .domain import (
    CLOSED,
    BoundaryData,
    FlowState,
    ForceLaw,
    RoadGrid,
    Scenario,
    ScenarioError,
    SignalTiming,
    default_braking_profile,
    initial_state,
    validate_scenario,
)
from .hyperbolic import (
    ConservedState,
    numerical_flux,
    solve_hyperbolic,
)
from .lagrangian import (
    MassField,
    advance_characteristics,
    estimate_breakdown_time,
    reconstruct_physical,
    to_mass_coordinates,
)
from .orchestrator import (
    PhaseError,
    Trajectory,
    mass_balance_report,
    merge,
    run,
    split_at,
)
from .parabolic import (
    solve_parabolic,
    step_viscous,
)
from .scenario_io import parse_scenario

__version__ = "0.1.0"
