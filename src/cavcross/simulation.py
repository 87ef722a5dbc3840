"""Deterministic scenario execution: plan on arrival, register, check, sample.

Vehicles are planned in arrival order against the crossing protocol as it
stands when they reach the control zone, then follow their closed-form
trajectories exactly.  A run checks the registered plans exactly, pair by
pair, and scores them (`monitor`), whatever the logging step; it samples
them for the log on the grid t = k*dt in one columnar pass (`snapshot`), so
two runs of one scenario are bit-identical.  A fixed-step RK4 integration
of the dynamics under the same control input cross-checks each closed form
(`integrate_dynamics`), in array passes with the results of a step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import IntersectionLayout, LaneId, Movement, conflicts
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
from .trajectory import CubicTrajectory, VehicleParams, _speed_vertex


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
        if isinstance(self.dt, bool) or not math.isfinite(self.dt):
            raise ValueError(f"dt must be a finite number, got {self.dt!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        seed = self.seed
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
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
    registration order.  `vehicle` indexes `vehicle_ids` and `lanes`.
    `rear_margin` is the least reaction-scaled distance to an active
    earlier-registered vehicle on the lane (`_rear_end_pairs`, as the monitor
    pairs them) less the safe distance, NaN where there is none.
    """

    COLUMNS = ("t", "vehicle", "position", "speed", "accel", "rear_margin")

    vehicle_ids: tuple[str, ...]
    lanes: tuple[LaneId, ...]
    t: np.ndarray
    vehicle: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    accel: np.ndarray
    rear_margin: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Samples):
            return NotImplemented
        columns = [(getattr(self, c), getattr(other, c)) for c in self.COLUMNS]
        return (self.vehicle_ids, self.lanes) == (other.vehicle_ids, other.lanes) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in columns
        )


@dataclass(frozen=True)
class Violation:
    time: float
    kind: str  # "rear_end" | "lateral" | "speed_bound" | "accel_bound"
    vehicle_ids: tuple[str, ...]
    value: float
    message: str


class SafetyReport(NamedTuple):
    """Violations in time order; per vehicle, least rear-end margin (m) and lateral gap (s)."""

    violations: list[Violation]
    min_rear_margin: dict[str, Optional[float]]
    min_lateral_margin: dict[str, Optional[float]]


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
# Sampling and monitoring
# ---------------------------------------------------------------------------

def snapshot(
    protocol: CrossingProtocol,
    times: Sequence[float],
    params_by_id: dict[str, VehicleParams],
) -> Samples:
    """Closed-form states of the registered vehicles at ascending `times`.

    A vehicle has a row at t exactly when t0 <= t <= tf, as in
    `CrossingProtocol.active_entries`; each cubic is evaluated with the
    clamping of tau and the Horner order of `CubicTrajectory.eval`.  A row's
    rear margin is the least behind its leaders of `_rear_end_pairs`.
    """
    times = np.asarray(times)
    entries = protocol.entries

    def runs(first, count):  # the ranges [first, first + count), concatenated
        return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)

    # Each vehicle's rows are one run of grid steps.  Rows are numbered by
    # step, then registration order (a stable sort of the vehicle-by-vehicle
    # layout); `row_of` maps the vehicle-by-vehicle layout to that order.
    lo = np.searchsorted(times, [e.t0 for e in entries], side="left")
    hi = np.searchsorted(times, [e.tf for e in entries], side="right")
    counts = np.maximum(hi - lo, 0)
    step = runs(lo, counts)
    order = np.argsort(step, kind="stable")
    step, vehicle = step[order], np.repeat(np.arange(len(entries)), counts)[order]
    row_of = np.empty_like(order)
    row_of[order] = np.arange(len(order))

    position = np.empty(len(order))
    speed = np.empty(len(order))
    accel = np.empty(len(order))
    first_row = 0
    for entry, first, count in zip(entries, lo.tolist(), counts.tolist()):
        rows = row_of[first_row : first_row + count]
        first_row += count
        tr = entry.trajectory
        tau = np.minimum(np.maximum(times[first : first + count] - tr.t0, 0.0), tr.duration)
        position[rows] = ((tr.c3 * tau + tr.c2) * tau + tr.c1) * tau + tr.c0
        speed[rows] = (3.0 * tr.c3 * tau + 2.0 * tr.c2) * tau + tr.c1
        accel[rows] = 6.0 * tr.c3 * tau + 2.0 * tr.c2

    # The follower's and the leader's rows at each step of a pair's shared run.
    follower, leader = _rear_end_pairs(entries)
    start = np.maximum(lo[follower], lo[leader])
    shared = np.maximum(np.minimum(hi[follower], hi[leader]) - start, 0)
    before = np.cumsum(counts) - counts - lo  # a step's vehicle-by-vehicle index, less the step
    behind = row_of[runs(before[follower] + start, shared)]
    ahead = row_of[runs(before[leader] + start, shared)]
    gain, standstill_gap, headway = np.array(
        [(p.reaction_gain, p.standstill_gap, p.headway)
         for p in (params_by_id[e.vehicle_id] for e in entries)], dtype=float
    ).reshape(-1, 3)[vehicle[behind]].T
    gap = gain * (position[ahead] - position[behind])
    rear_margin = np.full(len(order), np.nan)
    np.fmin.at(rear_margin, behind, gap - (standstill_gap + headway * speed[behind]))
    return Samples(
        vehicle_ids=tuple(e.vehicle_id for e in entries),
        lanes=tuple(e.lane for e in entries),
        t=times[step],
        vehicle=vehicle,
        position=position,
        speed=speed,
        accel=accel,
        rear_margin=rear_margin,
    )


def monitor(
    protocol: CrossingProtocol, params_by_id: dict[str, VehicleParams]
) -> SafetyReport:
    """Exact safety and bound checks of the registered plans; violations are data.

    Bounds: each trajectory's extrema, one violation per vehicle and kind,
    at the worst.  Rear-end: each vehicle behind every earlier-registered
    vehicle on its lane whose window overlaps its own, one violation per
    pair, at its least margin.  Lateral: each conflicting pair whose zone
    occupancies overlap, at the later zone entry.
    """
    entries = protocol.entries
    ids = [e.vehicle_id for e in entries]
    params = [params_by_id[vid] for vid in ids]
    violations: list[Violation] = []
    for e, vid, p in zip(entries, ids, params):
        tr = e.trajectory
        for kind, low, high, extrema, column in (
            ("speed", p.v_min, p.v_max, tr.extrema[:2], 1),
            ("accel", p.u_min, p.u_max, tr.extrema[2:], 2),
        ):
            worst = max(extrema, key=lambda x: max(low - x, x - high))
            if not low <= worst <= high:
                # An extremum lies at an end of the window or at the speed vertex.
                taus = (0.0, tr.duration, _speed_vertex(tr.c3, tr.c2, tr.duration))
                tau = next(t for t in taus if t is not None and tr._pva(t)[column] == worst)
                message = f"{kind} {worst:.6f} outside [{low}, {high}]"
                violations.append(Violation(tr.t0 + tau, f"{kind}_bound", (vid,), worst, message))
    rear = _rear_end_margins(entries, ids, params, violations)
    lateral = _lateral_margins(protocol, ids, violations)
    violations.sort(key=lambda v: v.time)
    return SafetyReport(violations, rear, lateral)


def _rear_end_pairs(entries) -> np.ndarray:
    """The (follower, leader) indices of rear-end safety, as two rows: each
    vehicle and every earlier-registered vehicle on its lane whose window
    overlaps its own, found in order of window start."""
    live: dict[LaneId, list[int]] = {}  # per lane, the windows not ended yet
    pairs = []
    for i in sorted(range(len(entries)), key=lambda i: entries[i].t0):
        lane, t0 = entries[i].lane, entries[i].t0
        live[lane] = [k for k in live.get(lane, ()) if entries[k].tf >= t0] + [i]
        pairs += [(max(i, k), min(i, k)) for k in live[lane][:-1]]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def _rear_end_margins(entries, ids, params, violations) -> dict[str, Optional[float]]:
    """Each follower's least margin behind its leaders; a violation per pair below 0."""
    follower, leader = _rear_end_pairs(entries)
    tr = np.array([
        (t.c3, t.c2, t.c1, t.c0, t.t0, t.tf, p.reaction_gain, p.standstill_gap, p.headway)
        for t, p in zip((e.trajectory for e in entries), params)
    ]).reshape(-1, 9)
    xi, gap0, rho = tr[follower, 6:].T
    start = np.maximum(tr[follower, 4], tr[leader, 4])
    span = np.minimum(tr[follower, 5], tr[leader, 5]) - start

    def recentred(k):  # the coefficients of cubics `k` in s = t - start
        c3, c2, c1, c0, d = *tr[k, :4].T, start - tr[k, 4]
        b0 = ((c3 * d + c2) * d + c1) * d + c0
        return c3, 3 * c3 * d + c2, (3 * c3 * d + 2 * c2) * d + c1, b0

    (f3, f2, f1, f0), (l3, l2, l1, l0) = recentred(follower), recentred(leader)
    # The margin is a cubic in s: least at 0, span or a root of a*s^2 + b*s + c.
    a, b, c = 3 * xi * (l3 - f3), 2 * (xi * (l2 - f2) - 3 * rho * f3), xi * (l1 - f1) - 2 * rho * f2
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        s = np.vstack([0 * span, span, np.clip(np.nan_to_num([q / a, c / q]), 0, span)])
    gap = xi * ((((l3 * s + l2) * s + l1) * s + l0) - (((f3 * s + f2) * s + f1) * s + f0))
    margin = gap - (gap0 + rho * ((3.0 * f3 * s + 2.0 * f2) * s + f1))
    at = np.argmin(margin, axis=0), np.arange(len(follower))
    least, when = margin[at].tolist(), (start + s[at]).tolist()
    margins = dict.fromkeys(ids)
    margins.update((ids[i], m) for m, i in sorted(zip(least, follower), reverse=True))
    for i, k, value, t in zip(follower, leader, least, when):
        if value < 0.0:
            message = f"rear-end margin {value:.6f} m negative"
            violations.append(Violation(t, "rear_end", (ids[i], ids[k]), value, message))
    return margins


def _lateral_margins(protocol, ids, violations) -> dict[str, Optional[float]]:
    """Each vehicle's least `lateral_separation`; a violation per overlapping pair."""
    entries = protocol.entries
    occupancy = [protocol.merging_occupancy(e) for e in entries]
    times = np.array(occupancy, dtype=float).reshape(-1, 2)
    margins = dict.fromkeys(ids)
    by_movement: dict[Movement, list[int]] = {}
    for i, e in enumerate(entries):
        by_movement.setdefault(e.movement, []).append(i)
    for movement, own in by_movement.items():
        other = [k for m, ks in by_movement.items() if conflicts(movement, m) for k in ks]
        # From an occupancy with an earlier midpoint the separation is t_in less
        # its t_out, from a later one its t_in less t_out: so in midpoint order,
        # the latest t_out before and the earliest t_in after.  A float sum below
        # another is below it exactly; equal float midpoints are checked apart.
        other = np.array(other, dtype=np.intp)[np.argsort(times[other].sum(1), kind="stable")]
        mid, (a_in, a_out) = times[other].sum(1), times[own].T
        latest_out = np.r_[-np.inf, np.maximum.accumulate(times[other, 1])]
        earliest_in = np.r_[np.minimum.accumulate(times[other[::-1], 0])[::-1], np.inf]
        lo, hi = (np.searchsorted(mid, a_in + a_out, side) for side in ("left", "right"))
        least = np.minimum(a_in - latest_out[lo], earliest_in[hi] - a_out).tolist()
        for i, first, stop, value in zip(own, lo, hi, least):
            tied = [lateral_separation(occupancy[i], occupancy[k]) for k in other[first:stop]]
            value = min([value, *tied])
            margins[ids[i]] = None if value == math.inf else value
            for k in other[other < i] if value < 0.0 else ():
                gap = lateral_separation(occupancy[k], occupancy[i])
                if gap < 0.0:
                    t = max(occupancy[k].t_in, occupancy[i].t_in)
                    message = "conflicting movements co-occupy the merging zone"
                    violations.append(Violation(t, "lateral", (ids[k], ids[i]), gap, message))
    return margins


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
    """Execute a scenario: plan each arrival, then monitor, score and sample."""
    protocol, plans = schedule(scenario)
    params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}

    times = np.empty(0)
    if plans:
        k0 = int(math.floor(min(a.time for a in scenario.arrivals) / scenario.dt + 1e-9))
        k1 = int(math.ceil(max(p.tf for p in plans.values()) / scenario.dt - 1e-9))
        times = np.arange(k0, k1 + 1) * scenario.dt
    log = snapshot(protocol, times, params_by_id)
    safety = monitor(protocol, params_by_id)

    integration_checks = {vid: integrate_dynamics(r.trajectory) for vid, r in plans.items()}
    metrics = _build_metrics(scenario, plans, safety)
    return RunResult(scenario, metrics, log, protocol, safety.violations, plans, integration_checks)


def _build_metrics(
    scenario: Scenario, plans: dict[str, PlanResult], safety: SafetyReport
) -> MetricsReport:
    per_vehicle: dict[str, VehicleMetrics] = {}
    for arrival in scenario.arrivals:
        vid, result = arrival.vehicle_id, plans[arrival.vehicle_id]
        per_vehicle[vid] = VehicleMetrics(
            travel_time=result.tf - arrival.time,
            energy=result.trajectory.energy_cost(),
            min_rear_margin=safety.min_rear_margin[vid],
            min_lateral_margin=safety.min_lateral_margin[vid],
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
