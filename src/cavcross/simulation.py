"""Deterministic scenario execution: plan on arrival, register, sample.

Vehicles are planned in arrival order against the crossing protocol as it
stands when they reach the control zone, then follow their closed-form
trajectories exactly.  A run samples those closed forms on the grid
t = k*dt in one columnar pass (`snapshot`, numpy arrays with one row per
grid time and active vehicle, no object per sample) and checks the samples
for safety and bound violations (`monitor`), so two runs of one scenario
are bit-identical.  A classical fixed-step RK4 integration of the vehicle
dynamics under the same control input is kept as an independent
cross-check of the closed forms (`integrate_dynamics`, one call per
vehicle); as the control depends only on time, it takes all steps of a
vehicle in array passes, with the results of a scalar step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import IntersectionLayout, LaneId, conflicts
from .planner import (
    Arrival,
    PlanResult,
    PlanningError,
    Policy,
    _check_options,
    lateral_separation,
    plan,
)
from .protocol import CrossingProtocol, ProtocolEntry
from .trajectory import CubicTrajectory, VehicleParams


class VehiclePhase(str, Enum):
    APPROACH = "approach"
    MERGING_ZONE = "merging_zone"
    EXIT = "exit"


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
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        _check_options(self.lateral_buffer, self.horizon_cap)
        seen: set[str] = set()
        prev = -math.inf
        for arrival in self.arrivals:
            if arrival.vehicle_id in seen:
                raise ValueError(f"duplicate vehicle id {arrival.vehicle_id!r}")
            seen.add(arrival.vehicle_id)
            if arrival.time < prev:
                raise ValueError("arrival times must be non-decreasing")
            prev = arrival.time


@dataclass(frozen=True, eq=False)
class Samples:
    """Sampled closed-form states as columns.

    One row per (grid time, active vehicle), ordered by time, then by
    registration order.  `vehicle` indexes `vehicle_ids` and `lanes`, and
    `phase` indexes `PHASES`.  `gap` is the reaction-scaled distance to the
    nearest leader, `rear_margin` that gap less the safe distance; both are
    NaN for a vehicle without a leader.
    """

    PHASES = (VehiclePhase.APPROACH, VehiclePhase.MERGING_ZONE, VehiclePhase.EXIT)
    COLUMNS = ("t", "vehicle", "position", "speed", "accel", "phase", "gap", "rear_margin")

    vehicle_ids: tuple[str, ...]
    lanes: tuple[LaneId, ...]
    t: np.ndarray
    vehicle: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    phase: np.ndarray
    gap: np.ndarray
    rear_margin: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Samples):
            return NotImplemented
        return (
            self.vehicle_ids == other.vehicle_ids
            and self.lanes == other.lanes
            and all(
                np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
                for c in self.COLUMNS
            )
        )


@dataclass(frozen=True)
class Violation:
    time: float
    kind: str  # "rear_end" | "lateral" | "speed_bound" | "accel_bound"
    vehicle_ids: tuple[str, ...]
    value: float
    message: str


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
    log: Samples
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
    protocol: CrossingProtocol,
    times: Sequence[float],
    params_by_id: dict[str, VehicleParams],
) -> Samples:
    """Closed-form states of the registered vehicles at ascending `times`.

    A vehicle has a row at t exactly when t0 <= t <= tf, as in
    `CrossingProtocol.active_entries`; each cubic is evaluated with the
    clamping of tau and the Horner order of `CubicTrajectory.eval`.
    """
    times = np.asarray(times)
    entries = protocol.entries
    # Each vehicle's rows are one run of grid steps.  Rows are numbered by
    # step, then registration order (a stable sort of the vehicle-by-vehicle
    # layout); `row_of` maps the vehicle-by-vehicle layout to that order.
    lo = np.searchsorted(times, [e.t0 for e in entries], side="left")
    hi = np.searchsorted(times, [e.tf for e in entries], side="right")
    counts = np.maximum(hi - lo, 0)
    vehicle = np.repeat(np.arange(len(entries)), counts)
    step = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    order = np.argsort(step, kind="stable")
    step, vehicle = step[order], vehicle[order]
    row_of = np.empty_like(order)
    row_of[order] = np.arange(len(order))

    position = np.empty(len(order))
    speed = np.empty(len(order))
    accel = np.empty(len(order))
    phase = np.empty(len(order), dtype=np.int8)
    first_row = 0
    for entry, first, count in zip(entries, lo.tolist(), counts.tolist()):
        rows = row_of[first_row : first_row + count]
        first_row += count
        tr = entry.trajectory
        tau = np.minimum(np.maximum(times[first : first + count] - tr.t0, 0.0), tr.duration)
        p = ((tr.c3 * tau + tr.c2) * tau + tr.c1) * tau + tr.c0
        position[rows] = p
        speed[rows] = (3.0 * tr.c3 * tau + 2.0 * tr.c2) * tau + tr.c1
        accel[rows] = 6.0 * tr.c3 * tau + 2.0 * tr.c2
        window = protocol.layout.merging_window(entry.movement)
        phase[rows] = (p >= window.entry).astype(np.int8) + (p >= window.exit)

    # Rear-end followers share an approach and a lane.  The leader is the
    # nearest other vehicle of that group at or ahead of this one: the next
    # in position order, or an equal-position one before it.
    groups: dict[tuple, int] = {}
    group = np.array(
        [groups.setdefault((e.movement.origin, e.lane), len(groups)) for e in entries],
        dtype=np.intp,
    )[vehicle]
    by_pos = np.lexsort((position, group, step))
    ranked = position[by_pos]
    same = (step[by_pos][1:] == step[by_pos][:-1]) & (group[by_pos][1:] == group[by_pos][:-1])
    lead = np.full(len(ranked), np.nan)
    lead[:-1] = np.where(same, ranked[1:], np.nan)
    tied = np.flatnonzero(same & (ranked[1:] == ranked[:-1])) + 1
    lead[tied] = ranked[tied]
    leader_position = np.empty_like(lead)
    leader_position[by_pos] = lead

    params = [params_by_id[e.vehicle_id] for e in entries]
    gain, standstill_gap, headway = np.array(
        [(p.reaction_gain, p.standstill_gap, p.headway) for p in params], dtype=float
    ).reshape(-1, 3)[vehicle].T
    gap = gain * (leader_position - position)
    return Samples(
        vehicle_ids=tuple(e.vehicle_id for e in entries),
        lanes=tuple(e.lane for e in entries),
        t=times[step],
        vehicle=vehicle,
        position=position,
        speed=speed,
        accel=accel,
        phase=phase,
        gap=gap,
        rear_margin=gap - (standstill_gap + headway * speed),
    )


def monitor(
    samples: Samples,
    protocol: CrossingProtocol,
    params_by_id: dict[str, VehicleParams],
) -> list[Violation]:
    """Safety and bound checks at every sampled row; violations are data.

    They come in time order.  Within one time: each vehicle in registration
    order (speed, then acceleration, then rear-end), then the pairs of
    conflicting movements that co-occupy the merging zone.
    """
    ids = samples.vehicle_ids
    params = [params_by_id[vid] for vid in ids]
    bounds = np.array(
        [(p.v_min, p.v_max, p.u_min, p.u_max) for p in params], dtype=float
    ).reshape(-1, 4)[samples.vehicle]
    speed, accel, margin = samples.speed, samples.accel, samples.rear_margin
    checks = (
        (
            "speed_bound",
            ~((bounds[:, 0] <= speed) & (speed <= bounds[:, 1])),
            speed,
            lambda p, x: f"speed {x:.6f} outside [{p.v_min}, {p.v_max}]",
        ),
        (
            "accel_bound",
            ~((bounds[:, 2] <= accel) & (accel <= bounds[:, 3])),
            accel,
            lambda p, x: f"accel {x:.6f} outside [{p.u_min}, {p.u_max}]",
        ),
        (
            "rear_end",
            margin < 0.0,
            margin,
            lambda p, x: f"rear-end margin {x:.6f} m negative",
        ),
    )
    found: list[tuple[tuple, Violation]] = []
    for rank, (kind, bad, values, message) in enumerate(checks):
        rows = np.flatnonzero(bad)
        for row, t, x, i in zip(
            rows.tolist(),
            samples.t[rows].tolist(),
            values[rows].tolist(),
            samples.vehicle[rows].tolist(),
        ):
            found.append(
                ((t, 0, row, rank), Violation(t, kind, (ids[i],), x, message(params[i], x)))
            )

    # Lateral: conflicting movements may not co-occupy the merging zone.
    # Rows of one time are adjacent, so the pairs at one time are the rows d
    # apart, for d = 1, 2, ... until no two rows d apart share a time.
    zone = np.flatnonzero(samples.phase == Samples.PHASES.index(VehiclePhase.MERGING_ZONE))
    firsts, seconds = [], []
    for d in range(1, len(zone)):
        a, b = zone[:-d], zone[d:]
        together = samples.t[a] == samples.t[b]
        if not together.any():
            break
        firsts.append(a[together])
        seconds.append(b[together])
    if firsts:
        a = np.concatenate(firsts)
        b = np.concatenate(seconds)
        pairs = list(zip(samples.vehicle[a].tolist(), samples.vehicle[b].tolist()))
        movements = [protocol.get(vid).movement for vid in ids]
        conflicting = {
            (i, j): conflicts(movements[i], movements[j]) for i, j in dict.fromkeys(pairs)
        }
        for t, row_a, row_b, (i, j) in zip(samples.t[a].tolist(), a.tolist(), b.tolist(), pairs):
            if conflicting[i, j]:
                found.append(
                    (
                        (t, 1, row_a, row_b),
                        Violation(
                            t,
                            "lateral",
                            (ids[i], ids[j]),
                            0.0,
                            "conflicting movements co-occupy the merging zone",
                        ),
                    )
                )
    found.sort(key=lambda item: item[0])
    return [violation for _, violation in found]


# ---------------------------------------------------------------------------
# Dynamics cross-check
# ---------------------------------------------------------------------------

def integrate_dynamics(
    traj: CubicTrajectory, dt: float = 0.01
) -> IntegrationCheck:
    """Fixed-step 4th-order Runge-Kutta re-integration of the vehicle motion.

    Integrates dp/dt = v, dv/dt = u(t) with the trajectory's own control
    input and reports the worst deviation from the closed form.  Steps are
    h = min(dt, tf - t), then t = min(tf, t + h).  The control depends only
    on time, so each RK4 stage is one array pass over all steps and the
    states are running sums (`np.add.accumulate` adds in sequence): the
    result is bit for bit that of a scalar step loop.
    """
    t0, tf, duration = traj.t0, traj.tf, traj.duration

    def control(t):
        tau = np.minimum(np.maximum(t - t0, 0.0), duration)
        return 6.0 * traj.c3 * tau + 2.0 * traj.c2

    # Leading steps of h = dt as a running sum; the scalar loop finishes the
    # tail (usually one step) from the first time that is not one.
    steps = int(math.ceil(duration / dt))
    grid = np.add.accumulate(np.r_[t0, np.full(max(steps, 0), dt)])
    full = (dt <= tf - grid[:-1]) & (grid[:-1] + dt <= tf)
    m = int(np.argmin(np.append(full, False)))
    times, sizes = [float(grid[m])], []
    for _ in range(m, steps):
        h = min(dt, tf - times[-1])
        if h <= 0:
            break
        sizes.append(h)
        times.append(min(tf, times[-1] + h))
    h = np.r_[np.full(m, dt), sizes]
    t = np.r_[grid[:m], times]
    t, t_next = t[:-1], t[1:]

    # RK4 stages on (p, v); k3v equals k2v, both at t + h/2.
    k1v, k2v, k4v = control(t), control(t + 0.5 * h), control(t + h)
    dv = h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k2v + k4v)
    v = np.add.accumulate(np.r_[traj.eval(t0).speed, dv])
    vk, v = v[:-1], v[1:]
    k2p, k3p, k4p = vk + 0.5 * h * k1v, vk + 0.5 * h * k2v, vk + h * k2v
    p = np.add.accumulate(np.r_[0.0, h / 6.0 * (vk + 2.0 * k2p + 2.0 * k3p + k4p)])[1:]

    # Closed form at each step's end, as `CubicTrajectory.eval` computes it.
    tau = np.minimum(np.maximum(t_next - t0, 0.0), duration)
    ref_p = ((traj.c3 * tau + traj.c2) * tau + traj.c1) * tau + traj.c0
    ref_v = (3.0 * traj.c3 * tau + 2.0 * traj.c2) * tau + traj.c1
    return IntegrationCheck(
        float(np.max(np.abs(p - ref_p), initial=0.0)),
        float(np.max(np.abs(v - ref_v), initial=0.0)),
    )


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
        try:
            result = plan(
                arrival,
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
        entry = ProtocolEntry(arrival.vehicle_id, result.trajectory, result.lane, arrival.movement)
        protocol.register(entry, occupancy=result.occupancy)
    return protocol, plans


def run(scenario: Scenario) -> RunResult:
    """Execute a scenario: plan each arrival, then sample, monitor, and score."""
    protocol, plans = schedule(scenario)
    params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}

    times = np.empty(0)
    if plans:
        t_start = min(a.time for a in scenario.arrivals)
        t_end = max(p.tf for p in plans.values())
        k0 = int(math.floor(t_start / scenario.dt + 1e-9))
        k1 = int(math.ceil(t_end / scenario.dt - 1e-9))
        times = np.arange(k0, k1 + 1) * scenario.dt
    log = snapshot(protocol, times, params_by_id)
    violations = monitor(log, protocol, params_by_id)

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
    log: Samples,
) -> MetricsReport:
    per_vehicle: dict[str, VehicleMetrics] = {}
    min_rear: dict[str, Optional[float]] = {vid: None for vid in plans}
    led = np.flatnonzero(~np.isnan(log.rear_margin))
    led = led[np.argsort(log.vehicle[led], kind="stable")]
    vehicles, starts = np.unique(log.vehicle[led], return_index=True)
    for i, rows in zip(vehicles.tolist(), np.split(led, starts[1:])):
        # argmin takes the earliest of equal minima, so of 0.0 and -0.0 the
        # one sampled first is reported.
        margins = log.rear_margin[rows]
        min_rear[log.vehicle_ids[i]] = margins[np.argmin(margins)].item()

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
        extrema = [result.trajectory.extrema for result in plans.values()]
        totals = plan_totals(plans)
        aggregate = AggregateMetrics(
            vehicle_count=len(plans),
            throughput_per_min=totals.throughput_per_min,
            total_energy=sum(m.energy for m in per_vehicle.values()),
            total_travel_time=totals.total_travel_time,
            max_abs_accel=max(max(abs(e.min_accel), abs(e.max_accel)) for e in extrema),
            max_speed=max(e.max_speed for e in extrema),
            min_speed=min(e.min_speed for e in extrema),
            makespan=totals.makespan,
        )
    else:
        aggregate = AggregateMetrics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return MetricsReport(scenario.policy, per_vehicle, aggregate)


# ---------------------------------------------------------------------------
# Policy comparison
# ---------------------------------------------------------------------------

class PlanTotals(NamedTuple):
    total_travel_time: float
    makespan: float
    throughput_per_min: float


def plan_totals(plans: dict[str, PlanResult]) -> PlanTotals:
    """Totals of one policy's plans of every arrival, summed in arrival
    order; each plan's trajectory starts at its arrival time."""
    if not plans:
        return PlanTotals(0.0, 0.0, 0.0)
    results = plans.values()
    travel = sum(r.tf - r.trajectory.t0 for r in results)
    makespan = max(r.tf for r in results) - min(r.trajectory.t0 for r in results)
    return PlanTotals(travel, makespan, 60.0 * len(plans) / makespan if makespan > 0 else 0.0)


@dataclass
class PolicyComparison:
    """Each policy's plans, or None where one of its arrivals was refused."""

    optimal: Optional[dict[str, PlanResult]]
    fifo: Optional[dict[str, PlanResult]]
    errors: dict[str, str] = field(default_factory=dict)

    def travel_time_delta(self) -> Optional[float]:
        """FIFO total travel time minus optimal total travel time."""
        if self.optimal is None or self.fifo is None:
            return None
        return (
            plan_totals(self.fifo).total_travel_time
            - plan_totals(self.optimal).total_travel_time
        )


def compare_policies(scenario: Scenario) -> PolicyComparison:
    """Schedule the same arrivals under both policies; failures are reported."""
    plans: dict[str, Optional[dict[str, PlanResult]]] = {}
    errors: dict[str, str] = {}
    for policy in (Policy.OPTIMAL, Policy.FIFO):
        try:
            plans[policy.value] = schedule(replace(scenario, policy=policy))[1]
        except SimulationError as exc:
            plans[policy.value] = None
            errors[policy.value] = str(exc)
    return PolicyComparison(plans[Policy.OPTIMAL.value], plans[Policy.FIFO.value], errors)
