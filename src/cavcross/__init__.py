"""Coordination of connected automated vehicles through a signal-free intersection.

Two-level scheme: an upper-level planner assigns each arriving vehicle a lane
and the minimum feasible control-zone exit time against the shared crossing
protocol, and a closed-form low-level solver turns that exit time into the
energy-optimal trajectory the vehicle then follows exactly.
"""

from .geometry import (
    ALL_MOVEMENTS,
    Cardinal,
    IntersectionLayout,
    LaneId,
    MergingWindow,
    Movement,
    Route,
    TurnKind,
    conflicts,
    sample_zone_path,
)
from .planner import (
    BindingConstraint,
    LaneOutcome,
    PlanResult,
    PlanningError,
    feasible_tf,
    lateral_separation,
    min_feasible_tf,
    plan,
    rear_end_margin,
)
from .protocol import (
    CrossingProtocol,
    DuplicateVehicleError,
    Occupancy,
    ProtocolEntry,
)
from .scenario import (
    ScenarioError,
    generate_random_scenario,
    load_scenario,
    parse_scenario_dict,
    save_scenario,
    scenario_to_dict,
)
from .simulation import (
    Arrival,
    MetricsReport,
    Policy,
    RunResult,
    SafetyReport,
    Samples,
    Scenario,
    SimulationError,
    Violation,
    compare_policies,
    integrate_dynamics,
    monitor,
    run,
    schedule,
    snapshot,
)
from .trajectory import (
    CubicTrajectory,
    InvalidHorizonError,
    InverseFit,
    NonMonotoneError,
    OutOfDomainError,
    TrajectorySample,
    VehicleParams,
    solve_boundary,
)

__version__ = "0.1.0"
