"""Independent reference computations used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: boundary solving is
redone as a dense linear system, extrema and safety margins by dense
sampling, energy by quadrature, arc lengths by numeric integration, the
planner's minimum exit time by brute-force grid search over the library's
feasibility predicate, the planner's indexed and pruned search and its
float probes by the original full-scan search (which builds a trajectory
per probe and evaluates it with verbatim copies of the original methods),
its skips over the 1 ms grid by its previous search, which probes every
grid point, the protocol's indexed predecessor query by a scan of every
entry, the run's sampled log by the original per-step object loop, whose
sampled violations the exact monitor must all report, and its rear margins
by a per-row scan of the earlier-registered vehicles on each lane, the
protocol's live conflicting occupancies by a scan of every entry, the RK4
cross-check by its original scalar step loop, the streamed CSV artifacts by the
original whole-run writer, which formats every cell at once and pivots
each plot through a times x vehicles grid, a layout's route records and
an arrival's planning bounds by the methods that computed them on every
call, and a search context's lane leader and live conflicting occupancies
by the gather each plan made before registration filed them.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from cavcross import (
    Arrival,
    BindingConstraint,
    Cardinal,
    CrossingProtocol,
    CubicTrajectory,
    IntersectionLayout,
    LaneId,
    LaneOutcome,
    MergingWindow,
    Movement,
    Occupancy,
    PlanResult,
    PlanningError,
    Policy,
    ProtocolEntry,
    TurnKind,
    VehicleParams,
    Violation,
    conflicts,
    feasible_tf,
    plan,
    sample_zone_path,
)
from cavcross import planner
from cavcross.planner import (
    _BOUNDS_EDGE_FLOATS,
    _FAIL_TO_BINDING,
    BOUND_MARGIN,
    DEFAULT_HORIZON_CAP,
    DEFAULT_RESOLUTION,
    SAFETY_SLACK,
    _bounds_lower_bracket,
    _Fail,
    _rear_end_margin,
    _shift_cubic,
    _within_caps,
)
from cavcross.protocol import Filed
from cavcross.simulation import IntegrationCheck, RunResult, Samples
from cavcross.trajectory import (
    _INVERT_TOL,
    Extrema,
    InvalidHorizonError,
    NonMonotoneError,
    OutOfDomainError,
    _absolute_coefficients,
    _boundary_cubic,
    _cubic_extrema,
    _invert,
    _least_horizon_behind,
    _require_monotone,
    solve_boundary,
)


def solve_cubic_linear_system(v0: float, s_total: float, T: float) -> np.ndarray:
    """Boundary cubic via an explicit 4x4 solve in the monomial basis.

    Conditions: p(0)=0, p'(0)=v0, p(T)=s_total, p''(T)=0.  Returns
    coefficients ordered (c3, c2, c1, c0).
    """
    A = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],       # p(0)
            [0.0, 0.0, 1.0, 0.0],       # v(0)
            [T**3, T**2, T, 1.0],       # p(T)
            [6.0 * T, 2.0, 0.0, 0.0],   # u(T)
        ]
    )
    b = np.array([0.0, v0, s_total, 0.0])
    return np.linalg.solve(A, b)


def dense_speed_accel_extrema(traj: CubicTrajectory, dtau: float = 1e-3):
    """Speed/accel extrema by dense sampling of the closed form."""
    n = int(math.floor(traj.duration / dtau))
    taus = np.append(np.arange(0.0, n + 1) * dtau, traj.duration)
    taus = taus[taus <= traj.duration + 1e-12]
    v = (3.0 * traj.c3 * taus + 2.0 * traj.c2) * taus + traj.c1
    u = 6.0 * traj.c3 * taus + 2.0 * traj.c2
    return float(v.min()), float(v.max()), float(u.min()), float(u.max())


def trapezoid_energy(traj: CubicTrajectory, panels: int = 10_000) -> float:
    """Control cost by composite trapezoid quadrature of (1/2) u^2."""
    taus = np.linspace(0.0, traj.duration, panels + 1)
    u = 6.0 * traj.c3 * taus + 2.0 * traj.c2
    return float(np.trapezoid(0.5 * u * u, taus))


def quarter_arc_length(radius: float, n: int = 200_001) -> float:
    """Arc length of a quarter circle by integrating the speed of the
    parameterization (independent of the closed-form pi*R/2)."""
    thetas = np.linspace(0.0, math.pi / 2.0, n)
    x = radius * np.cos(thetas)
    y = radius * np.sin(thetas)
    return float(np.sum(np.hypot(np.diff(x), np.diff(y))))


def dense_path_min_distance(a: Movement, b: Movement, n: int = 1500) -> float:
    """Minimum distance between two movements' in-zone paths by sampling."""
    from scipy.spatial.distance import cdist

    pa = np.array(sample_zone_path(a, 1.0, n))
    pb = np.array(sample_zone_path(b, 1.0, n))
    return float(cdist(pa, pb).min())


def dense_rear_end_min(
    candidate: CubicTrajectory,
    leader: CubicTrajectory,
    params: VehicleParams,
    dt: float = 1e-3,
) -> float:
    """Worst rear-end margin over the overlap window by dense sampling."""
    lo = max(candidate.t0, leader.t0)
    hi = min(candidate.tf, leader.tf)
    if hi < lo:
        return math.inf
    n = int(math.floor((hi - lo) / dt))
    times = np.append(lo + np.arange(0.0, n + 1) * dt, hi)
    times = times[times <= hi + 1e-12]
    pi, vi = _position_speed(candidate, times)
    pk, _ = _position_speed(leader, times)
    margins = params.reaction_gain * (pk - pi) - params.safe_distance(vi)
    return float(margins.min())


def _position_speed(traj: CubicTrajectory, times: np.ndarray):
    """Position and speed at absolute `times`, with the clamping of tau and
    the Horner order of `CubicTrajectory.eval`."""
    tau = np.minimum(np.maximum(times - traj.t0, 0.0), traj.duration)
    p = ((traj.c3 * tau + traj.c2) * tau + traj.c1) * tau + traj.c0
    v = (3.0 * traj.c3 * tau + 2.0 * traj.c2) * tau + traj.c1
    return p, v


def grid_min_tf(
    request: Arrival,
    lane: int,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    *,
    lateral_buffer: float = 0.0,
    horizon_cap: float = 120.0,
    step: float = 1e-3,
    min_zone_entry: Optional[float] = None,
) -> Optional[float]:
    """Brute-force minimum exit time: first feasible point of a uniform grid.

    Uses the library's own feasibility predicate, as the planner does; only
    the minimization strategy differs.  Horizons needing a mean speed above
    the limit are skipped outright (mean value theorem), which changes
    nothing about the first feasible grid point.
    """
    s_total = layout.total_distance(request.movement)
    k = max(1, int(math.floor(s_total / request.params.v_max / step)))
    while True:
        tf = request.time + k * step
        if tf > request.time + horizon_cap:
            return None
        if feasible_tf(
            request,
            lane,
            tf,
            protocol,
            layout,
            lateral_buffer=lateral_buffer,
            min_zone_entry=min_zone_entry,
        ):
            return tf
        k += 1


def assert_same_outcome(call, reference) -> None:
    """Both calls return the same bits (by `repr`), or raise the same
    exception with the same message."""

    def outcome(fn):
        try:
            return repr(fn())
        except (ValueError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(call) == outcome(reference)


def admitted_protocol(scenario) -> CrossingProtocol:
    """Plan a scenario's arrivals in order with `plan` and register each
    plan; a vehicle that cannot be planned is left out."""
    protocol = CrossingProtocol(scenario.layout)
    for a in scenario.arrivals:
        try:
            result = plan(
                a,
                protocol,
                scenario.layout,
                policy=scenario.policy,
                lateral_buffer=scenario.lateral_buffer,
                horizon_cap=scenario.horizon_cap,
            )
        except PlanningError:
            continue
        protocol.register(ProtocolEntry(a.vehicle_id, result.trajectory, result.lane, a.movement))
    return protocol


def make_entry(
    vehicle_id: str,
    traj: CubicTrajectory,
    movement: Movement,
    lane: int,
) -> ProtocolEntry:
    """Protocol entry helper for hand-built trajectories."""
    return ProtocolEntry(
        vehicle_id=vehicle_id, trajectory=traj, lane=lane, movement=movement
    )


# ---------------------------------------------------------------------------
# What each plan computed anew before a layout kept one route record per
# movement and an arrival its planning bounds: verbatim copies of
# `IntersectionLayout.allowed_lanes`, `total_distance` and `merging_window`,
# and of the planner's `_tightened_params`, which built a `VehicleParams`.
# ---------------------------------------------------------------------------

def allowed_lanes_reference(self: IntersectionLayout, movement: Movement) -> tuple[LaneId, ...]:
    """Lanes a movement may occupy on approach.

    Turning vehicles must be in the outermost lane on their turning side
    before the merging zone; straight traffic may use any approach lane.
    """
    lanes = self.lanes_for_approach(movement.origin)
    kind = movement.turn_kind
    if kind is TurnKind.RIGHT:
        return (lanes[-1],)
    if kind is TurnKind.LEFT:
        return (lanes[0],)
    return lanes


def total_distance_reference(self: IntersectionLayout, movement: Movement) -> float:
    """Full path length through the control zone for this movement."""
    return 2.0 * self.control_zone_length + self.zone_path_length(movement)


def merging_window_reference(self: IntersectionLayout, movement: Movement) -> MergingWindow:
    """Positions along the path where the merging zone starts and ends."""
    entry = self.control_zone_length
    return MergingWindow(entry, entry + self.zone_path_length(movement))


def tightened_params_reference(params: VehicleParams, v0: float) -> VehicleParams:
    """Bounds pulled in by the planning margin.

    The given arrival speed is exempt: a vehicle arriving exactly at a speed
    limit would otherwise be unplannable, since no exit time changes v(t0).
    """
    return VehicleParams(
        u_min=params.u_min + BOUND_MARGIN,
        u_max=params.u_max - BOUND_MARGIN,
        v_min=min(params.v_min + BOUND_MARGIN, v0),
        v_max=max(params.v_max - BOUND_MARGIN, v0),
        headway=params.headway,
        standstill_gap=params.standstill_gap,
        reaction_gain=params.reaction_gain,
    )


# ---------------------------------------------------------------------------
# What each search context gathered anew before registration filed what a
# follower reads of a lane entry: verbatim copies of the planner's
# `_make_context` and of `CrossingProtocol.predecessor_on_lane`, which
# evaluated each active lane entry's trajectory, over the lane files that
# registration kept then (the entries, keyed on their end times).
# ---------------------------------------------------------------------------

class _EntryLaneFiles:
    """A protocol's layout and its entries filed by lane, keyed on tf, in
    registration order: the state `predecessor_on_lane` read."""

    def __init__(self, protocol: CrossingProtocol):
        self.layout = protocol.layout
        self._by_lane: dict[LaneId, Filed] = {}
        for entry in protocol:
            self._by_lane.setdefault(entry.lane, Filed([], [])).add(entry, entry.tf)


def predecessor_on_lane_reference(
    protocol: CrossingProtocol, lane: LaneId, approach: Cardinal, t: float
) -> Optional[ProtocolEntry]:
    return _predecessor_on_lane(_EntryLaneFiles(protocol), lane, approach, t)


def _predecessor_on_lane(
    self, lane: LaneId, approach: Cardinal, t: float
) -> Optional[ProtocolEntry]:
    """Nearest active vehicle ahead on the given approach lane at time t;
    entries whose running maximum end time is below `t` are skipped."""
    if self.layout.lane_approach(lane) != approach:
        raise ValueError(f"lane {lane} does not belong to approach {approach.value}")
    filed = self._by_lane.get(lane)
    if filed is None:
        return None
    best: Optional[ProtocolEntry] = None
    best_pos = float("inf")
    for entry in filed.items[bisect_left(filed.latest, t):]:
        if entry.movement.origin != approach:
            continue
        if not entry.t0 <= t <= entry.tf:
            continue
        if entry.lane != lane:
            continue
        pos = entry.trajectory.eval(t).position
        if pos < best_pos:
            best, best_pos = entry, pos
    return best


def make_context_reference(
    request: Arrival,
    lane: LaneId,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    lateral_buffer: float,
    min_zone_entry: Optional[float],
) -> planner._SearchContext:
    route = layout.route(request.movement)
    lead = predecessor_on_lane_reference(protocol, lane, request.movement.origin, request.time)
    leader = None if lead is None else (
        lead.trajectory.absolute_coefficients(), lead.t0, lead.tf
    )
    # Every candidate enters the zone at t_in >= t0, so an occupancy dropped
    # here passes the check's `t_in - buffer > t_out + slack` for all of them.
    # Per conflicting movement, the occupancies before the first whose running
    # maximum exit time (plus slack) reaches `earliest` are all dropped.  The
    # protocol's files of the conflicting movements are read directly.
    earliest = request.time - lateral_buffer
    conflicting: list[Occupancy] = []
    for filed in protocol._conflicting[request.movement]:
        start = bisect_left(filed.latest, earliest, key=lambda t_out: t_out + SAFETY_SLACK)
        conflicting += [o for o in filed.items[start:] if not earliest > o.t_out + SAFETY_SLACK]
    conflicting.sort()
    return planner._SearchContext(
        arrival=request,
        s_total=route.total_distance,
        window_entry=route.window.entry,
        window_exit=route.window.exit,
        caps=request.caps,
        leader=leader,
        conflicting=conflicting,
        lateral_buffer=lateral_buffer,
        min_zone_entry=min_zone_entry,
    )


# ---------------------------------------------------------------------------
# The planner's original search: every registered entry scanned for
# conflicts, every conflicting occupancy checked on every probe, and a full
# `BoundsReport` built per probe.  Kept as the reference for the indexed,
# pruned search with the cached bounds check.
# ---------------------------------------------------------------------------

def conflicting_occupancies_scan(
    protocol: CrossingProtocol, movement: Movement
) -> list[Occupancy]:
    """Conflicting occupancies by scanning every registered entry."""
    return sorted(
        protocol.merging_occupancy(entry)
        for entry in protocol
        if conflicts(movement, entry.movement)
    )


def predecessor_scan(
    protocol: CrossingProtocol, lane: LaneId, approach, t: float
) -> Optional[ProtocolEntry]:
    """Nearest active vehicle ahead on an approach lane at time t, by
    scanning every registered entry."""
    best: Optional[ProtocolEntry] = None
    best_pos = float("inf")
    for entry in protocol:
        if entry.movement.origin != approach:
            continue
        if not entry.t0 <= t <= entry.tf:
            continue
        if entry.lane != lane:
            continue
        pos = entry.trajectory.eval(t).position
        if pos < best_pos:
            best, best_pos = entry, pos
    return best


def min_speed_reference(traj: CubicTrajectory) -> float:
    """Minimum speed over the window from the endpoint and vertex speeds."""
    T = traj.duration
    candidates = [traj._pva(0.0).speed, traj._pva(T).speed]
    if traj.c3 != 0.0:
        vertex = -traj.c2 / (3.0 * traj.c3)
        if 0.0 < vertex < T:
            candidates.append(traj._pva(vertex).speed)
    return min(candidates)


class ExceededBound(NamedTuple):
    bound: str  # "v_min" | "v_max" | "u_min" | "u_max"
    magnitude: float
    time: float


@dataclass(frozen=True)
class BoundsReport:
    """Exact speed/acceleration extrema of a trajectory against bounds, and
    the worst bound exceeded with its time: the report the library made
    before the planner and the metrics read `extrema` instead."""

    speed_ok: bool
    accel_ok: bool
    min_speed: float
    max_speed: float
    min_accel: float
    max_accel: float
    worst_violation: Optional[ExceededBound]

    @property
    def ok(self) -> bool:
        return self.speed_ok and self.accel_ok


def feasibility_reference(traj: CubicTrajectory, params: VehicleParams) -> BoundsReport:
    """Exact bound check: speed is quadratic (endpoint or interior vertex
    extrema), acceleration is linear (endpoint extrema)."""
    T = traj.duration
    speed_pts = [(0.0, traj._pva(0.0).speed), (T, traj._pva(T).speed)]
    if traj.c3 != 0.0:
        vertex = -traj.c2 / (3.0 * traj.c3)
        if 0.0 < vertex < T:
            speed_pts.append((vertex, traj._pva(vertex).speed))
    accel_pts = [(0.0, traj._pva(0.0).accel), (T, traj._pva(T).accel)]

    t_vmin, min_speed = min(speed_pts, key=lambda kv: kv[1])
    t_vmax, max_speed = max(speed_pts, key=lambda kv: kv[1])
    t_umin, min_accel = min(accel_pts, key=lambda kv: kv[1])
    t_umax, max_accel = max(accel_pts, key=lambda kv: kv[1])

    violations = []
    if min_speed < params.v_min:
        violations.append(ExceededBound("v_min", params.v_min - min_speed, traj.t0 + t_vmin))
    if max_speed > params.v_max:
        violations.append(ExceededBound("v_max", max_speed - params.v_max, traj.t0 + t_vmax))
    if min_accel < params.u_min:
        violations.append(ExceededBound("u_min", params.u_min - min_accel, traj.t0 + t_umin))
    if max_accel > params.u_max:
        violations.append(ExceededBound("u_max", max_accel - params.u_max, traj.t0 + t_umax))

    speed_ok = params.v_min <= min_speed and max_speed <= params.v_max
    accel_ok = params.u_min <= min_accel and max_accel <= params.u_max
    worst = max(violations, key=lambda v: v.magnitude) if violations else None
    return BoundsReport(
        speed_ok, accel_ok, min_speed, max_speed, min_accel, max_accel, worst
    )


# The trajectory methods as they were before their arithmetic moved into
# float kernels, copied verbatim as functions of the trajectory; the search
# below builds a trajectory per probe and evaluates it with these.

def solve_boundary_reference(v0: float, s_total: float, t0: float, tf: float) -> CubicTrajectory:
    if tf <= t0:
        raise InvalidHorizonError(f"tf={tf} must exceed t0={t0}")
    if v0 <= 0:
        raise ValueError("entry speed must be positive")
    if s_total <= 0:
        raise ValueError("total distance must be positive")
    T = tf - t0
    c3 = (v0 * T - s_total) / (2.0 * T**3)
    c2 = 3.0 * (s_total - v0 * T) / (2.0 * T**2)
    return CubicTrajectory(c3, c2, v0, 0.0, t0, tf, s_total)


def absolute_coefficients_reference(self: CubicTrajectory) -> tuple[float, float, float, float]:
    """Coefficients (a3, a2, a1, a0) of the same cubic in absolute time."""
    a = self.t0
    a3 = self.c3
    a2 = self.c2 - 3.0 * self.c3 * a
    a1 = self.c1 - 2.0 * self.c2 * a + 3.0 * self.c3 * a * a
    a0 = self.c0 - self.c1 * a + self.c2 * a * a - self.c3 * a**3
    return (a3, a2, a1, a0)


def _speed_vertex_reference(self: CubicTrajectory) -> Optional[float]:
    """Offset of the speed parabola's vertex if it lies inside the window."""
    if self.c3 != 0.0:
        vertex = -self.c2 / (3.0 * self.c3)
        if 0.0 < vertex < self.duration:
            return vertex
    return None


def extrema_reference(self: CubicTrajectory) -> Extrema:
    """Exact speed and acceleration extrema over the window."""
    c3, c2, c1 = self.c3, self.c2, self.c1
    T = self.duration
    v_start = (3.0 * c3 * 0.0 + 2.0 * c2) * 0.0 + c1
    v_end = (3.0 * c3 * T + 2.0 * c2) * T + c1
    min_speed, max_speed = min(v_start, v_end), max(v_start, v_end)
    vertex = _speed_vertex_reference(self)
    if vertex is not None:
        v_vertex = (3.0 * c3 * vertex + 2.0 * c2) * vertex + c1
        min_speed, max_speed = min(min_speed, v_vertex), max(max_speed, v_vertex)
    a_start = 6.0 * c3 * 0.0 + 2.0 * c2
    a_end = 6.0 * c3 * T + 2.0 * c2
    return Extrema(min_speed, max_speed, min(a_start, a_end), max(a_start, a_end))


def invert_reference(self: CubicTrajectory, position: float) -> float:
    """Absolute time at which the vehicle is at `position`."""
    if not self.is_monotone:
        raise NonMonotoneError("cannot invert a non-monotone trajectory")
    if position < -1e-9 or position > self.s_total + 1e-9:
        raise OutOfDomainError(
            f"position {position} outside [0, {self.s_total}]"
        )
    position = min(max(position, 0.0), self.s_total)
    T = self.duration
    if position == 0.0:
        return self.t0
    if position == self.s_total:
        return self.tf
    c3, c2, c1 = self.c3, self.c2, self.c1
    step_tol = _INVERT_TOL * max(1.0, T)
    lo, hi = 0.0, T
    tau = T * position / self.s_total
    for _ in range(100):
        err = ((c3 * tau + c2) * tau + c1) * tau - position
        speed = (3.0 * c3 * tau + 2.0 * c2) * tau + c1
        if err > 0.0:
            hi = tau
        else:
            lo = tau
        if speed > 0.0:
            delta = err / speed
            if abs(delta) <= step_tol:
                tau = min(max(tau - delta, 0.0), T)
                break
            candidate = tau - delta
            tau = candidate if lo < candidate < hi else 0.5 * (lo + hi)
        else:
            tau = 0.5 * (lo + hi)
        if hi - lo <= step_tol:
            tau = 0.5 * (lo + hi)
            break
    return self.t0 + tau


def rear_end_margin_reference(
    candidate: CubicTrajectory, leader: ProtocolEntry, params: VehicleParams
) -> float:
    """Worst value of scaled_gap - safe_distance over the shared time window."""
    lo = max(candidate.t0, leader.t0)
    hi = min(candidate.tf, leader.tf)
    if hi < lo:
        return math.inf
    xi = params.reaction_gain
    rho = params.headway
    pk = absolute_coefficients_reference(leader.trajectory)
    pi = absolute_coefficients_reference(candidate)
    # The follower speed polynomial is 3*a3*t^2 + 2*a2*t + a1.
    g3 = xi * (pk[0] - pi[0])
    g2 = xi * (pk[1] - pi[1]) - rho * 3.0 * pi[0]
    g1 = xi * (pk[2] - pi[2]) - rho * 2.0 * pi[1]
    g0 = xi * (pk[3] - pi[3]) - rho * pi[2] - params.standstill_gap
    # Re-center on the overlap start to limit cancellation at large t.
    g3, g2, g1, g0 = _shift_cubic((g3, g2, g1, g0), lo)
    span = hi - lo

    def g(s: float) -> float:
        return ((g3 * s + g2) * s + g1) * s + g0

    values = [g(0.0), g(span)]
    # Stationary points of the cubic: roots of 3*g3*s^2 + 2*g2*s + g1.
    qa, qb, qc = 3.0 * g3, 2.0 * g2, g1
    if abs(qa) > 0.0:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for root in ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)):
                if 0.0 < root < span:
                    values.append(g(root))
    elif abs(qb) > 0.0:
        root = -qc / qb
        if 0.0 < root < span:
            values.append(g(root))
    return min(values)


@dataclass
class _SearchContext:
    request: Arrival
    s_total: float
    window_entry: float
    window_exit: float
    caps: VehicleParams
    leader: Optional[ProtocolEntry]
    conflicting: list[Occupancy]
    lateral_buffer: float
    min_zone_entry: Optional[float]

    def check(self, tf: float) -> tuple[bool, Optional[_Fail], Optional[float]]:
        """Full feasibility of one candidate exit time.

        Returns (ok, failed-constraint, detail): the zone-entry time to reach
        for an entry-order or lateral rejection, the margin for a rear-end one.
        """
        req = self.request
        traj = solve_boundary_reference(req.v0, self.s_total, req.time, tf)
        if not feasibility_reference(traj, self.caps).ok:
            return False, _Fail.BOUNDS, None
        t_in = invert_reference(traj, self.window_entry)
        if self.min_zone_entry is not None and t_in < self.min_zone_entry - SAFETY_SLACK:
            return False, _Fail.ORDER, self.min_zone_entry
        if self.leader is not None:
            margin = rear_end_margin_reference(traj, self.leader, req.params)
            if margin < SAFETY_SLACK:
                return False, _Fail.REAR_END, margin
        t_out = invert_reference(traj, self.window_exit)
        for occ in self.conflicting:
            separated = (
                t_out + self.lateral_buffer < occ.t_in - SAFETY_SLACK
                or t_in - self.lateral_buffer > occ.t_out + SAFETY_SLACK
            )
            if not separated:
                return False, _Fail.LATERAL, occ.t_out + self.lateral_buffer + 2.0 * SAFETY_SLACK
        return True, None, None

    def zone_entry(self, tf: float) -> float:
        traj = solve_boundary_reference(self.request.v0, self.s_total, self.request.time, tf)
        return invert_reference(traj, self.window_entry)


def _make_context(
    request: Arrival,
    lane: LaneId,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    lateral_buffer: float,
    min_zone_entry: Optional[float],
) -> _SearchContext:
    window = layout.merging_window(request.movement)
    leader = predecessor_scan(protocol, lane, request.movement.origin, request.time)
    return _SearchContext(
        request=request,
        s_total=layout.total_distance(request.movement),
        window_entry=window.entry,
        window_exit=window.exit,
        caps=tightened_params_reference(request.params, request.v0),
        leader=leader,
        conflicting=conflicting_occupancies_scan(protocol, request.movement),
        lateral_buffer=lateral_buffer,
        min_zone_entry=min_zone_entry,
    )


def _tf_for_zone_entry(
    ctx: _SearchContext, target: float, lo: float, hi: float
) -> Optional[float]:
    """Smallest tf in [lo, hi] whose merging-zone entry time reaches `target`.

    Valid only on the regime where the entry time grows with tf, which holds
    for horizons up to twice the constant-speed horizon; callers cap `hi`
    accordingly and fall back to plain stepping beyond it.
    """
    if ctx.zone_entry(hi) < target:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ctx.zone_entry(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9:
            break
    return hi


def _search_min_tf(
    ctx: _SearchContext, horizon_cap: float
) -> tuple[Optional[float], Optional[CubicTrajectory], BindingConstraint]:
    req = ctx.request
    v0, s_total = req.v0, ctx.s_total
    t_lb = _bounds_lower_bracket(v0, s_total, ctx.caps)
    # Beyond this horizon the terminal speed drops below the floor for good.
    t_ub = 3.0 * s_total / (v0 + 2.0 * ctx.caps.v_min)
    tf_max = req.time + min(horizon_cap, t_ub)
    jump_hi = req.time + min(2.0 * s_total / v0, min(horizon_cap, t_ub))

    tf = req.time + t_lb
    last_bad: Optional[float] = None
    last_fail = _Fail.BOUNDS
    while tf <= tf_max + 1e-12:
        ok, fail, zone_target = ctx.check(tf)
        if ok:
            if last_bad is None:
                traj = solve_boundary_reference(v0, s_total, req.time, tf)
                return tf, traj, BindingConstraint.BOUNDS
            lo, hi = last_bad, tf
            fail_at_lo = last_fail
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                ok_mid, fail_mid, _ = ctx.check(mid)
                if ok_mid:
                    hi = mid
                else:
                    lo, fail_at_lo = mid, fail_mid
            traj = solve_boundary_reference(v0, s_total, req.time, hi)
            return hi, traj, _FAIL_TO_BINDING[fail_at_lo]
        nxt = tf + DEFAULT_RESOLUTION
        if fail in (_Fail.ORDER, _Fail.LATERAL) and tf < jump_hi:
            jumped = _tf_for_zone_entry(ctx, zone_target, tf, jump_hi)
            if jumped is not None:
                nxt = max(nxt, jumped)
        last_bad, last_fail = tf, fail
        tf = nxt
    return None, None, _FAIL_TO_BINDING[last_fail]


def plan_reference(
    request: Arrival,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    *,
    policy: Policy = Policy.OPTIMAL,
    lateral_buffer: float = 0.0,
    horizon_cap: float = DEFAULT_HORIZON_CAP,
) -> PlanResult:
    """Lane and minimum exit time for an arriving vehicle.

    Under `Policy.FIFO` the vehicle may not enter the merging zone before any
    earlier-registered vehicle does (strict entry-order queue).  Ties between
    lanes break toward the lowest lane index.
    """
    min_zone_entry: Optional[float] = None
    if Policy(policy) is Policy.FIFO:
        min_zone_entry = max(
            (protocol.merging_occupancy(entry).t_in for entry in protocol), default=None
        )
    searches = []
    for lane in layout.allowed_lanes(request.movement):
        ctx = _make_context(request, lane, protocol, layout, lateral_buffer, min_zone_entry)
        searches.append((lane, *_search_min_tf(ctx, horizon_cap)))
    outcomes = tuple(LaneOutcome(lane, tf, binding) for lane, tf, _, binding in searches)
    feasible = [search for search in searches if search[1] is not None]
    if not feasible:
        raise PlanningError(
            request.vehicle_id, {o.lane: o.binding_constraint for o in outcomes}
        )
    lane, tf, traj, binding = min(feasible, key=lambda search: (search[1], search[0]))
    return PlanResult(lane, tf, traj, binding, outcomes)


# ---------------------------------------------------------------------------
# The exact-edges search as it was before it skipped grid points: it lands
# on the bounds, lateral and entry-order edges in closed form and otherwise
# probes every point of the 1 ms scan.  Kept as the reference whose every
# decision the skipping search must reproduce bit for bit.
# ---------------------------------------------------------------------------

@dataclass
class _ScanContext:
    arrival: Arrival
    s_total: float
    window_entry: float
    window_exit: float
    caps: VehicleParams
    leader: Optional[tuple[tuple[float, float, float, float], float, float]]
    conflicting: list[Occupancy]
    lateral_buffer: float
    min_zone_entry: Optional[float]

    def check(self, tf: float) -> tuple[bool, Optional[_Fail], Optional[float]]:
        """(ok, failed-constraint, zone-entry target to jump past)."""
        req = self.arrival
        v0, t0, s_total = req.v0, req.time, self.s_total
        c3, c2, T = _boundary_cubic(v0, s_total, t0, tf)
        extrema = _cubic_extrema(c3, c2, v0, T)
        if not _within_caps(extrema, self.caps):
            return False, _Fail.BOUNDS, None
        _require_monotone(extrema[0])
        t_in = _invert(c3, c2, v0, t0, tf, s_total, self.window_entry)
        if self.min_zone_entry is not None and t_in < self.min_zone_entry - SAFETY_SLACK:
            return False, _Fail.ORDER, self.min_zone_entry
        if self.leader is not None:
            coeffs = _absolute_coefficients(c3, c2, v0, 0.0, t0)
            if _rear_end_margin(coeffs, t0, tf, *self.leader, req.params) < SAFETY_SLACK:
                return False, _Fail.REAR_END, None
        t_out = _invert(c3, c2, v0, t0, tf, s_total, self.window_exit)
        for occ in self.conflicting:
            if t_out + self.lateral_buffer < occ.t_in - SAFETY_SLACK:
                break
            if not t_in - self.lateral_buffer > occ.t_out + SAFETY_SLACK:
                return False, _Fail.LATERAL, occ.t_out + self.lateral_buffer + 2.0 * SAFETY_SLACK
        return True, None, None


def search_min_tf_scan(
    ctx: _ScanContext, horizon_cap: float
) -> tuple[Optional[float], Optional[CubicTrajectory], BindingConstraint]:
    req = ctx.arrival
    v0, t0, s_total = req.v0, req.time, ctx.s_total
    t_lb = _bounds_lower_bracket(v0, s_total, ctx.caps)
    t_ub = 3.0 * s_total / (v0 + 2.0 * ctx.caps.v_min)
    tf_max = t0 + min(horizon_cap, t_ub)
    jump_hi = t0 + min(2.0 * s_total / v0, min(horizon_cap, t_ub))

    tf = t0 + t_lb
    edge = tf
    for _ in range(_BOUNDS_EDGE_FLOATS):
        c3, c2, T = _boundary_cubic(v0, s_total, t0, edge)
        if _within_caps(_cubic_extrema(c3, c2, v0, T), ctx.caps):
            tf = edge
            break
        edge = math.nextafter(edge, math.inf)
    last_bad: Optional[float] = None
    last_fail = _Fail.BOUNDS
    while tf <= tf_max + 1e-12:
        ok, fail, zone_target = ctx.check(tf)
        if ok:
            if last_bad is None:
                traj = solve_boundary(v0, s_total, t0, tf)
                return tf, traj, BindingConstraint.BOUNDS
            lo, hi = last_bad, tf
            fail_at_lo = last_fail
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                ok_mid, fail_mid, _ = ctx.check(mid)
                if ok_mid:
                    hi = mid
                else:
                    lo, fail_at_lo = mid, fail_mid
            traj = solve_boundary(v0, s_total, t0, hi)
            return hi, traj, _FAIL_TO_BINDING[fail_at_lo]
        last_bad, last_fail = tf, fail
        nxt = tf + DEFAULT_RESOLUTION
        if zone_target is not None and tf < jump_hi:
            above = _least_horizon_behind(
                v0, s_total, ctx.window_entry, zone_target - t0, tf - t0, jump_hi - t0
            )
            if above is not None and t0 + above > tf:
                below = _least_horizon_behind(
                    v0, s_total, ctx.window_entry,
                    zone_target - 2.0 * SAFETY_SLACK - t0, tf - t0, above,
                )
                last_bad, nxt = t0 + below, t0 + above
        tf = nxt
    return None, None, _FAIL_TO_BINDING[last_fail]


def plan_scan(
    request: Arrival,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    *,
    policy: Policy = Policy.OPTIMAL,
    lateral_buffer: float = 0.0,
    horizon_cap: float = DEFAULT_HORIZON_CAP,
) -> PlanResult:
    """`plan` with `search_min_tf_scan` on the planner's own search contexts."""
    min_zone_entry: Optional[float] = None
    if Policy(policy) is Policy.FIFO:
        min_zone_entry = protocol.latest_zone_entry
    searches = []
    for lane in layout.allowed_lanes(request.movement):
        ctx = planner._make_context(
            request, lane, protocol, layout, lateral_buffer, min_zone_entry
        )
        searches.append((lane, *search_min_tf_scan(_ScanContext(**vars(ctx)), horizon_cap)))
    outcomes = tuple(LaneOutcome(lane, tf, binding) for lane, tf, _, binding in searches)
    feasible = [search for search in searches if search[1] is not None]
    if not feasible:
        raise PlanningError(
            request.vehicle_id, {o.lane: o.binding_constraint for o in outcomes}
        )
    lane, tf, traj, binding = min(feasible, key=lambda search: (search[1], search[0]))
    return PlanResult(lane, tf, traj, binding, outcomes)


# ---------------------------------------------------------------------------
# Per-step sampling and monitoring: the simulation's original object loop,
# kept as the reference for its columnar replacement.
# ---------------------------------------------------------------------------

class VehiclePhase(str, Enum):
    """Where along its path a sampled vehicle is: the per-step monitor
    checks lateral safety only between vehicles in the merging zone."""

    APPROACH = "approach"
    MERGING_ZONE = "merging_zone"
    EXIT = "exit"


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
class LogRow:
    t: float
    vehicle_id: str
    lane: LaneId
    position: float
    speed: float
    accel: float
    rear_margin: Optional[float]


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


def per_step_log(
    protocol: CrossingProtocol,
    params_by_id: dict[str, VehicleParams],
    times,
) -> tuple[list[LogRow], list[Violation]]:
    """The run's original sampling loop over `times`: log rows and
    violations, both in time then registration order."""
    log: list[LogRow] = []
    violations: list[Violation] = []
    for t in times:
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
    return log, violations


def rear_margins_per_row(
    protocol: CrossingProtocol, params_by_id: dict[str, VehicleParams], times
) -> list[Optional[float]]:
    """Each row's rear margin, rows in time then registration order as in
    `per_step_log`: the least, over the earlier-registered vehicles on its
    lane that are active at that time, of the reaction-scaled gap to it less
    the safe distance, by `CubicTrajectory.eval`; None where there is none."""
    margins: list[Optional[float]] = []
    for t in times:
        active = protocol.active_entries(t)
        for i, entry in enumerate(active):
            own = entry.trajectory.eval(t)
            params = params_by_id[entry.vehicle_id]
            margins.append(min(
                (
                    params.reaction_gain * (leader.trajectory.eval(t).position - own.position)
                    - params.safe_distance(own.speed)
                    for leader in active[:i]
                    if leader.lane == entry.lane
                ),
                default=None,
            ))
    return margins


def integrate_dynamics_loop(
    traj: CubicTrajectory, dt: float = 0.01
) -> IntegrationCheck:
    """The original scalar RK4 loop of `simulation.integrate_dynamics`.

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


class _Cells:
    """The original writer's formatted run: a run's sampled values, each
    formatted once with `repr`."""

    def __init__(self, log: Samples):
        new_time = np.ones(len(log.t), dtype=bool)
        new_time[1:] = log.t[1:] != log.t[:-1]
        # Each distinct sample time, ascending, and per row its index here.
        self.times = list(map(repr, log.t[new_time].tolist()))
        self.time_index = np.cumsum(new_time) - 1
        # Per row; "" where there is no value.
        self.columns = {
            name: list(map(repr, getattr(log, name).tolist()))
            for name in ("position", "speed", "accel")
        }
        self.columns["rear_margin"] = [
            "" if math.isnan(m) else repr(m) for m in log.rear_margin.tolist()
        ]


def _csv_row(fields: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


TRAJECTORY_CSV_HEADER_REFERENCE = [
    "t", "vehicle_id", "lane", "position_m", "speed_mps", "accel_mps2", "rear_margin_m",
]


def _trajectory_csv_whole(log: Samples, cells: _Cells) -> str:
    parts = [","] * (9 * len(log) + 2)
    parts[0] = _csv_row(TRAJECTORY_CSV_HEADER_REFERENCE)
    starts = ["\n" + t for t in cells.times]
    parts[1:-1:9] = [starts[i] for i in cells.time_index.tolist()]
    labels = [_csv_row(["", vid, lane, ""]) for vid, lane in zip(log.vehicle_ids, log.lanes)]
    parts[2:-1:9] = [labels[i] for i in log.vehicle.tolist()]
    for offset, column in enumerate(("position", "speed", "accel", "rear_margin")):
        parts[3 + 2 * offset : -1 : 9] = cells.columns[column]
    parts[-1] = "\n"
    return "".join(parts)


def _wide_series_grid(log: Samples, column: str, cells: _Cells) -> str:
    grid = np.full((len(cells.times), len(log.vehicle_ids)), "", dtype=object)
    grid[cells.time_index, log.vehicle] = cells.columns[column]
    lines = [_csv_row(["t", *log.vehicle_ids])]
    lines += (t + "," + ",".join(row) for t, row in zip(cells.times, grid.tolist()))
    lines.append("")
    return "\n".join(lines)


def csv_artifacts_whole_run(result: RunResult) -> dict[str, str]:
    """The five CSV artifacts of a run, by their path under the output
    directory, as the original whole-run writer formats them."""
    log = result.log
    cells = _Cells(log)
    texts = {"trajectory.csv": _trajectory_csv_whole(log, cells)}
    for column in ("position", "speed", "accel", "rear_margin"):
        texts[f"plots/{column}.csv"] = _wide_series_grid(log, column, cells)
    return texts
