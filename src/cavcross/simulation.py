"""Deterministic scenario execution: plan on arrival, register, roll forward.

Vehicles are planned in arrival order against the crossing protocol as it
stands when they reach the control zone, then follow their closed-form
trajectories exactly; the fixed-step loop below only samples those closed
forms for logging and safety monitoring, so two runs of one scenario are
bit-identical.  A classical fixed-step integration of the vehicle dynamics
under the same control input is kept as an independent cross-check of the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .geometry import IntersectionLayout, LaneId, Movement, conflicts
from .planner import (
    PlanRequest,
    PlanResult,
    PlanningError,
    Policy,
    lateral_separation,
    plan,
)
from .protocol import CrossingProtocol, ProtocolEntry
from .trajectory import CubicTrajectory, VehicleParams


class VehiclePhase(str, Enum):
    APPROACH = "approach"
    MERGING_ZONE = "merging_zone"
    EXIT = "exit"
    DONE = "done"


@dataclass(frozen=True)
class Arrival:
    vehicle_id: str
    time: float
    movement: Movement
    v0: float
    params: VehicleParams


@dataclass(frozen=True)
class Scenario:
    layout: IntersectionLayout
    arrivals: tuple[Arrival, ...]
    policy: Policy = Policy.OPTIMAL
    dt: float = 0.01
    lateral_buffer: float = 0.0
    horizon_cap: float = 120.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # A plain "fifo" string would otherwise be planned as optimal.
        object.__setattr__(self, "policy", Policy(self.policy))
        for name in ("dt", "lateral_buffer", "horizon_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.lateral_buffer < 0:
            raise ValueError("lateral_buffer must be non-negative")
        if self.horizon_cap <= 0:
            raise ValueError("horizon_cap must be positive")
        seen: set[str] = set()
        prev = -math.inf
        for arrival in self.arrivals:
            if arrival.vehicle_id in seen:
                raise ValueError(f"duplicate vehicle id {arrival.vehicle_id!r}")
            seen.add(arrival.vehicle_id)
            if not math.isfinite(arrival.time):
                raise ValueError(f"arrival time of {arrival.vehicle_id!r} must be finite")
            if arrival.time < prev:
                raise ValueError("arrival times must be non-decreasing")
            prev = arrival.time


@dataclass(frozen=True)
class VehicleState:
    vehicle_id: str
    position: float
    speed: float
    accel: float
    lane: LaneId
    phase: VehiclePhase
    gap: Optional[float]  # scaled distance to the nearest leader, if any


@dataclass(frozen=True)
class Violation:
    time: float
    kind: str  # "rear_end" | "lateral" | "speed_bound" | "accel_bound"
    vehicle_ids: tuple[str, ...]
    value: float
    message: str


@dataclass(frozen=True)
class LogRow:
    t: float
    vehicle_id: str
    lane: LaneId
    position: float
    speed: float
    accel: float
    rear_margin: Optional[float]


@dataclass(frozen=True)
class VehicleMetrics:
    travel_time: float
    energy: float
    min_rear_margin: Optional[float]
    min_lateral_margin: Optional[float]
    t0: float
    tf: float
    lane: LaneId
    movement: str
    binding_constraint: str


@dataclass(frozen=True)
class AggregateMetrics:
    vehicle_count: int
    throughput_per_min: float
    total_energy: float
    total_travel_time: float
    max_abs_accel: float
    max_speed: float
    min_speed: float
    makespan: float


@dataclass(frozen=True)
class MetricsReport:
    policy: Policy
    per_vehicle: dict[str, VehicleMetrics]
    aggregate: AggregateMetrics

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.value,
            "per_vehicle": {
                vid: {
                    "travel_time_s": m.travel_time,
                    "energy_cost": m.energy,
                    "min_rear_margin_m": m.min_rear_margin,
                    "min_lateral_margin_s": m.min_lateral_margin,
                    "t0_s": m.t0,
                    "tf_s": m.tf,
                    "lane": m.lane,
                    "movement": m.movement,
                    "binding_constraint": m.binding_constraint,
                }
                for vid, m in self.per_vehicle.items()
            },
            "aggregate": {
                "vehicle_count": self.aggregate.vehicle_count,
                "throughput_veh_per_min": self.aggregate.throughput_per_min,
                "total_energy_cost": self.aggregate.total_energy,
                "total_travel_time_s": self.aggregate.total_travel_time,
                "max_abs_accel_mps2": self.aggregate.max_abs_accel,
                "max_speed_mps": self.aggregate.max_speed,
                "min_speed_mps": self.aggregate.min_speed,
                "makespan_s": self.aggregate.makespan,
            },
        }


@dataclass(frozen=True)
class IntegrationCheck:
    """Worst deviation between integrated and closed-form states."""

    max_position_error: float
    max_speed_error: float


@dataclass
class RunResult:
    scenario: Scenario
    metrics: MetricsReport
    log: list[LogRow]
    protocol: CrossingProtocol
    violations: list[Violation]
    plans: dict[str, PlanResult]
    integration_checks: dict[str, IntegrationCheck]

    @property
    def ok(self) -> bool:
        return not self.violations


class SimulationError(RuntimeError):
    """Planning failed during a run; carries the offending vehicle."""

    def __init__(self, vehicle_id: str, cause: PlanningError):
        self.vehicle_id = vehicle_id
        self.cause = cause
        super().__init__(str(cause))


# ---------------------------------------------------------------------------
# Monitoring
# ---------------------------------------------------------------------------

def snapshot(
    protocol: CrossingProtocol, t: float, params_by_id: dict[str, VehicleParams]
) -> list[VehicleState]:
    """Closed-form states of all active vehicles at time t."""
    states: list[VehicleState] = []
    active = protocol.active_entries(t)
    for entry in active:
        sample = entry.trajectory.eval(t)
        window = protocol.layout.merging_window(entry.movement)
        if sample.position < window.entry:
            phase = VehiclePhase.APPROACH
        elif sample.position < window.exit:
            phase = VehiclePhase.MERGING_ZONE
        else:
            phase = VehiclePhase.EXIT
        leader = _nearest_leader(protocol, entry, t, sample.position)
        gap = None
        if leader is not None:
            params = params_by_id[entry.vehicle_id]
            gap = params.reaction_gain * (
                leader.trajectory.eval(t).position - sample.position
            )
        states.append(
            VehicleState(
                vehicle_id=entry.vehicle_id,
                position=sample.position,
                speed=sample.speed,
                accel=sample.accel,
                lane=entry.lane,
                phase=phase,
                gap=gap,
            )
        )
    return states


def _nearest_leader(
    protocol: CrossingProtocol, entry: ProtocolEntry, t: float, position: float
) -> Optional[ProtocolEntry]:
    best: Optional[ProtocolEntry] = None
    best_pos = math.inf
    for other in protocol.active_entries(t):
        if other.vehicle_id == entry.vehicle_id:
            continue
        if other.movement.origin != entry.movement.origin:
            continue
        if other.lane != entry.lane:
            continue
        pos = other.trajectory.eval(t).position
        if pos >= position and pos < best_pos:
            best, best_pos = other, pos
    return best


def monitor(
    states: list[VehicleState],
    protocol: CrossingProtocol,
    params_by_id: dict[str, VehicleParams],
    t: float,
) -> list[Violation]:
    """Instantaneous safety and bound checks; violations are data, not errors."""
    violations: list[Violation] = []
    for state in states:
        params = params_by_id[state.vehicle_id]
        if not params.v_min <= state.speed <= params.v_max:
            violations.append(
                Violation(
                    t,
                    "speed_bound",
                    (state.vehicle_id,),
                    state.speed,
                    f"speed {state.speed:.6f} outside [{params.v_min}, {params.v_max}]",
                )
            )
        if not params.u_min <= state.accel <= params.u_max:
            violations.append(
                Violation(
                    t,
                    "accel_bound",
                    (state.vehicle_id,),
                    state.accel,
                    f"accel {state.accel:.6f} outside [{params.u_min}, {params.u_max}]",
                )
            )
        if state.gap is not None:
            margin = state.gap - params.safe_distance(state.speed)
            if margin < 0.0:
                violations.append(
                    Violation(
                        t,
                        "rear_end",
                        (state.vehicle_id,),
                        margin,
                        f"rear-end margin {margin:.6f} m negative",
                    )
                )
    # Lateral: conflicting movements may not co-occupy the merging zone.
    in_zone = [s for s in states if s.phase is VehiclePhase.MERGING_ZONE]
    for i, a in enumerate(in_zone):
        entry_a = protocol.get(a.vehicle_id)
        for b in in_zone[i + 1 :]:
            entry_b = protocol.get(b.vehicle_id)
            if conflicts(entry_a.movement, entry_b.movement):
                violations.append(
                    Violation(
                        t,
                        "lateral",
                        (a.vehicle_id, b.vehicle_id),
                        0.0,
                        "conflicting movements co-occupy the merging zone",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Dynamics cross-check
# ---------------------------------------------------------------------------

def integrate_dynamics(
    traj: CubicTrajectory, dt: float = 0.01
) -> IntegrationCheck:
    """Fixed-step 4th-order Runge-Kutta re-integration of the vehicle motion.

    Integrates dp/dt = v, dv/dt = u(t) with the trajectory's own control
    input and reports the worst deviation from the closed form.
    """

    def control(t: float) -> float:
        tau = min(max(t - traj.t0, 0.0), traj.duration)
        return 6.0 * traj.c3 * tau + 2.0 * traj.c2

    t, p, v = traj.t0, 0.0, traj.eval(traj.t0).speed
    max_dp = 0.0
    max_dv = 0.0
    steps = int(math.ceil(traj.duration / dt))
    for k in range(steps):
        h = min(dt, traj.tf - t)
        if h <= 0:
            break
        # RK4 on state (p, v); the control depends only on time.
        k1p, k1v = v, control(t)
        k2p, k2v = v + 0.5 * h * k1v, control(t + 0.5 * h)
        k3p, k3v = v + 0.5 * h * k2v, control(t + 0.5 * h)
        k4p, k4v = v + h * k3v, control(t + h)
        p += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = min(traj.tf, t + h)
        ref = traj.eval(t)
        max_dp = max(max_dp, abs(p - ref.position))
        max_dv = max(max_dv, abs(v - ref.speed))
    return IntegrationCheck(max_dp, max_dv)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def schedule(
    scenario: Scenario, until: Optional[str] = None
) -> tuple[CrossingProtocol, dict[str, PlanResult]]:
    """Plan each arrival in order and register its plan in a fresh protocol.

    With `until`, stop once that vehicle is planned, leaving it unregistered:
    the protocol is then the one its plan was made against.
    """
    protocol = CrossingProtocol(scenario.layout)
    plans: dict[str, PlanResult] = {}
    for arrival in scenario.arrivals:
        request = PlanRequest(
            vehicle_id=arrival.vehicle_id,
            movement=arrival.movement,
            t0=arrival.time,
            v0=arrival.v0,
            params=arrival.params,
        )
        try:
            result = plan(
                request,
                protocol,
                scenario.layout,
                policy=scenario.policy,
                lateral_buffer=scenario.lateral_buffer,
                horizon_cap=scenario.horizon_cap,
            )
        except PlanningError as exc:
            raise SimulationError(arrival.vehicle_id, exc) from exc
        plans[arrival.vehicle_id] = result
        if arrival.vehicle_id == until:
            break
        protocol.register(
            ProtocolEntry(
                vehicle_id=arrival.vehicle_id,
                trajectory=result.trajectory,
                lane=result.lane,
                movement=arrival.movement,
            )
        )
    return protocol, plans


def run(scenario: Scenario) -> RunResult:
    """Execute a scenario: plan each arrival, then sample, monitor, and score."""
    protocol, plans = schedule(scenario)
    params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}

    log: list[LogRow] = []
    violations: list[Violation] = []
    if plans:
        t_start = min(a.time for a in scenario.arrivals)
        t_end = max(p.tf for p in plans.values())
        k0 = int(math.floor(t_start / scenario.dt + 1e-9))
        k1 = int(math.ceil(t_end / scenario.dt - 1e-9))
        for k in range(k0, k1 + 1):
            t = k * scenario.dt
            states = snapshot(protocol, t, params_by_id)
            violations.extend(monitor(states, protocol, params_by_id, t))
            for state in states:
                params = params_by_id[state.vehicle_id]
                margin = (
                    state.gap - params.safe_distance(state.speed)
                    if state.gap is not None
                    else None
                )
                log.append(
                    LogRow(
                        t=t,
                        vehicle_id=state.vehicle_id,
                        lane=state.lane,
                        position=state.position,
                        speed=state.speed,
                        accel=state.accel,
                        rear_margin=margin,
                    )
                )

    integration_checks = {
        vid: integrate_dynamics(result.trajectory)
        for vid, result in plans.items()
    }
    metrics = _build_metrics(scenario, protocol, plans, log)
    return RunResult(
        scenario=scenario,
        metrics=metrics,
        log=log,
        protocol=protocol,
        violations=violations,
        plans=plans,
        integration_checks=integration_checks,
    )


def _build_metrics(
    scenario: Scenario,
    protocol: CrossingProtocol,
    plans: dict[str, PlanResult],
    log: list[LogRow],
) -> MetricsReport:
    per_vehicle: dict[str, VehicleMetrics] = {}
    min_rear: dict[str, Optional[float]] = {vid: None for vid in plans}
    for row in log:
        if row.rear_margin is not None:
            prev = min_rear[row.vehicle_id]
            if prev is None or row.rear_margin < prev:
                min_rear[row.vehicle_id] = row.rear_margin

    arrivals = {a.vehicle_id: a for a in scenario.arrivals}
    for vid, result in plans.items():
        entry = protocol.get(vid)
        occ = protocol.merging_occupancy(entry)
        # Same-approach movements never conflict, so the vehicle's own
        # occupancy is not among these.
        lat = min(
            (
                lateral_separation(occ, other)
                for other in protocol.conflicting_occupancies(entry.movement)
            ),
            default=None,
        )
        arrival = arrivals[vid]
        per_vehicle[vid] = VehicleMetrics(
            travel_time=result.tf - arrival.time,
            energy=result.trajectory.energy_cost(),
            min_rear_margin=min_rear[vid],
            min_lateral_margin=lat,
            t0=arrival.time,
            tf=result.tf,
            lane=result.lane,
            movement=str(arrival.movement),
            binding_constraint=result.binding_constraint.value,
        )

    if plans:
        feas = {
            vid: protocol.get(vid).trajectory.feasibility(arrivals[vid].params)
            for vid in plans
        }
        t_start = min(a.time for a in scenario.arrivals)
        makespan = max(p.tf for p in plans.values()) - t_start
        aggregate = AggregateMetrics(
            vehicle_count=len(plans),
            throughput_per_min=60.0 * len(plans) / makespan if makespan > 0 else 0.0,
            total_energy=sum(m.energy for m in per_vehicle.values()),
            total_travel_time=sum(m.travel_time for m in per_vehicle.values()),
            max_abs_accel=max(
                max(abs(r.min_accel), abs(r.max_accel)) for r in feas.values()
            ),
            max_speed=max(r.max_speed for r in feas.values()),
            min_speed=min(r.min_speed for r in feas.values()),
            makespan=makespan,
        )
    else:
        aggregate = AggregateMetrics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return MetricsReport(scenario.policy, per_vehicle, aggregate)


# ---------------------------------------------------------------------------
# Policy comparison
# ---------------------------------------------------------------------------

@dataclass
class PolicyComparison:
    optimal: Optional[RunResult]
    fifo: Optional[RunResult]
    errors: dict[str, str] = field(default_factory=dict)

    def travel_time_delta(self) -> Optional[float]:
        """FIFO total travel time minus optimal total travel time."""
        if self.optimal is None or self.fifo is None:
            return None
        return (
            self.fifo.metrics.aggregate.total_travel_time
            - self.optimal.metrics.aggregate.total_travel_time
        )


def compare_policies(scenario: Scenario) -> PolicyComparison:
    """Run the same arrivals under both policies; failures are reported."""
    results: dict[str, Optional[RunResult]] = {}
    errors: dict[str, str] = {}
    for policy in (Policy.OPTIMAL, Policy.FIFO):
        try:
            results[policy.value] = run(replace(scenario, policy=policy))
        except SimulationError as exc:
            results[policy.value] = None
            errors[policy.value] = str(exc)
    return PolicyComparison(
        optimal=results[Policy.OPTIMAL.value],
        fifo=results[Policy.FIFO.value],
        errors=errors,
    )
