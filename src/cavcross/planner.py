"""Upper-level planning: pick a lane and the minimum feasible exit time.

For an arriving vehicle the planner searches, per admissible lane, for the
smallest exit time whose induced boundary trajectory (a) keeps speed and
acceleration inside slightly tightened bounds, so the executed plan never
rides a hard limit, (b) keeps the scaled gap to the lane predecessor at or
above the speed-dependent safe distance at every instant, and (c) occupies
the merging zone disjointly in time from every conflicting registered
vehicle.  Under the first-in-first-out policy the vehicle may, in
addition, not enter the merging zone before any earlier-registered vehicle
does.

The search lands on three edges in closed form and scans a 1 ms grid only
where none applies.  It starts at the bounds' edge: a closed-form
bounds-only lower bracket, stepped up float by float to the first exit time
the bounds admit.  A lateral or entry-order rejection names the zone-entry
time to reach; while the entry time grows with the horizon (up to 2*s/v0),
the horizons entering then and 2 slack earlier are roots of a cubic, which
the trajectory module's `_least_horizon_behind` finds to float resolution,
and the search probes the first and bisects down to the second.  The grid
points a rejection proves infeasible (up to 2*s/v0 if no horizon there
enters in time; those a rear-end margin cannot climb out of, by
`_rear_end_reach`) it passes over, probing only the last; it steps 1 ms
from there and bisects back onto the feasibility boundary after the first
feasible step, so every decision is the plain scan's, bit for bit.

Each probe does only the work that can change its verdict, in plain
floats: the trajectory module's float kernels give it the bits, and the
exceptions, of building and evaluating a `CubicTrajectory`; only the
returned plan is built as one.  A plan computes each quantity once: the
route is the layout's, the tightened bounds are the `Arrival`'s (`caps`),
the lane leader's coefficients are filed at its registration, the first
probe reuses the bounds edge's cubic, and registration takes the accepted
probe's zone times (`PlanResult.occupancy`).
The lateral check sees only the conflicting occupancies that the vehicle
can still meet (`CrossingProtocol.conflicting_occupancies` since its arrival
less the buffer), as every plan enters the zone at or after its arrival.
Sorted by entry time, the first one that rejects a candidate, and with it
the jump target, is the same as over the full set, and the scan stops at the
first one that starts after the candidate has left the zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .geometry import IntersectionLayout, LaneId, Movement
from .protocol import SAFETY_SLACK, CrossingProtocol, Occupancy, ProtocolEntry
from .trajectory import CubicTrajectory, VehicleParams, solve_boundary
from .trajectory import _absolute_coefficients, _boundary_cubic, _cubic_extrema
from .trajectory import _invert, _least_horizon_behind, _require_monotone

# Margin by which planned extrema stay inside the hard bounds, so that "no
# constraint becomes active" holds of executed plans.  `SAFETY_SLACK` is the
# protocol's, re-exported here.
BOUND_MARGIN = 1e-6

DEFAULT_HORIZON_CAP = 120.0
DEFAULT_RESOLUTION = 1e-3
# How far above the bounds-only bracket, in floats, the search looks for the
# bounds' edge before scanning at `DEFAULT_RESOLUTION` instead.
_BOUNDS_EDGE_FLOATS = 8


class Policy(str, Enum):
    OPTIMAL = "optimal"
    FIFO = "fifo"


class PlanningError(RuntimeError):
    """No feasible exit time exists on any admissible lane."""

    def __init__(self, vehicle_id: str, lane_failures: dict[LaneId, "BindingConstraint"]):
        self.vehicle_id = vehicle_id
        self.lane_failures = lane_failures
        detail = ", ".join(
            f"lane {lane}: blocked by {kind.value}" for lane, kind in lane_failures.items()
        )
        super().__init__(f"no feasible plan for vehicle {vehicle_id!r} ({detail})")


class BindingConstraint(str, Enum):
    # NONE marks a FIFO plan pinned by entry order rather than by physics.
    NONE = "none"
    BOUNDS = "bounds"
    REAR_END = "rear_end"
    LATERAL = "lateral"


class _Fail(Enum):
    BOUNDS = "bounds"
    ORDER = "order"
    REAR_END = "rear_end"
    LATERAL = "lateral"


_FAIL_TO_BINDING = {
    _Fail.BOUNDS: BindingConstraint.BOUNDS,
    _Fail.ORDER: BindingConstraint.NONE,
    _Fail.REAR_END: BindingConstraint.REAR_END,
    _Fail.LATERAL: BindingConstraint.LATERAL,
}


class _Caps(NamedTuple):
    """The speed and acceleration bounds a search plans within."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float


@dataclass(frozen=True)
class Arrival:
    """A vehicle reaching the control zone: what the planner plans."""

    vehicle_id: str
    time: float
    movement: Movement
    v0: float
    params: VehicleParams
    caps: _Caps = field(init=False, repr=False, compare=False)  # planning bounds, once

    def __post_init__(self) -> None:
        # The scenario parser reports these as errors of the arrival.
        if not isinstance(self.vehicle_id, str) or not self.vehicle_id:
            raise ValueError(f"vehicle id must be a non-empty string, got {self.vehicle_id!r}")
        if not isinstance(self.movement, Movement):
            raise ValueError(f"movement must be a Movement, got {self.movement!r}")
        if not isinstance(self.params, VehicleParams):
            raise ValueError(f"params must be VehicleParams, got {self.params!r}")
        if not math.isfinite(self.time):
            raise ValueError(f"arrival time of {self.vehicle_id!r} must be finite")
        self.__dict__["caps"] = _tightened_params(self.params, self.v0)


@dataclass(frozen=True)
class LaneOutcome:
    """Search outcome on one admissible lane; `tf` is None if infeasible."""

    lane: LaneId
    tf: Optional[float]
    binding_constraint: BindingConstraint


@dataclass(frozen=True)
class PlanResult:
    lane: LaneId
    tf: float
    trajectory: CubicTrajectory
    binding_constraint: BindingConstraint
    lanes: tuple[LaneOutcome, ...]
    occupancy: Optional[Occupancy] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Safety predicates
# ---------------------------------------------------------------------------

# Coefficients (a3, a2, a1, a0) of a cubic in absolute time.
_Coefficients = tuple[float, float, float, float]


def _shift_cubic(coeffs: tuple[float, float, float, float], origin: float):
    """Re-center an absolute-time cubic at `origin` (Taylor coefficients)."""
    a3, a2, a1, a0 = coeffs
    b0 = ((a3 * origin + a2) * origin + a1) * origin + a0
    b1 = (3.0 * a3 * origin + 2.0 * a2) * origin + a1
    b2 = 3.0 * a3 * origin + a2
    return (a3, b2, b1, b0)


def rear_end_margin(
    candidate: CubicTrajectory, leader: ProtocolEntry, params: VehicleParams
) -> float:
    """Worst value of scaled_gap - safe_distance over the shared time window.

    The gap term and the follower speed are both polynomials, so the margin
    g(t) is a cubic whose minimum over the closed overlap lies at an endpoint
    or at a root of its quadratic derivative.  Returns +inf when the two
    windows do not overlap.
    """
    lead = leader.trajectory
    return _rear_end_margin(
        candidate.absolute_coefficients(), candidate.t0, candidate.tf,
        lead.absolute_coefficients(), lead.t0, lead.tf, params,
    )


def _rear_end_margin(
    pi: _Coefficients, t0: float, tf: float,
    pk: _Coefficients, lead_t0: float, lead_tf: float,
    params: VehicleParams,
) -> float:
    """`rear_end_margin` on absolute-time coefficients and windows: the
    follower's (`pi` over [t0, tf]) and the leader's (`pk`)."""
    lo = max(t0, lead_t0)
    hi = min(tf, lead_tf)
    if hi < lo:
        return math.inf
    xi = params.reaction_gain
    rho = params.headway
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


def _rear_end_reach(
    v0: float, s_total: float, T: float, margin: float, params: VehicleParams
) -> float:
    """How far past horizon T, rejected with rear-end `margin` below
    SAFETY_SLACK, every horizon keeps the margin below it.

    The shared window only grows with T, and over it x = tau/T lies in
    [0, 1].  At a fixed tau the boundary cubic has
    dp/dT = v0*x^2*(1.5 - x) - 1.5*(s/T)*x^2*(2 - x) and
    dv/dT = -((s/T)*(6x - 4.5x^2) - 3*v0*x*(1 - x))/T.  On [0, 1],
    x^2*(1.5 - x) <= 0.5, x^2*(2 - x) <= 1, 6x - 4.5x^2 <= 2 and
    3x*(1 - x) <= 0.75, so |dp/dT| <= 0.5*v0 + 1.5*s/T and
    |dv/dT| <= (0.75*v0 + 2*s/T)/T, both non-increasing in T.  So the
    margin rises by at most K = xi*|dp/dT| + rho*|dv/dT| per second of
    horizon, and half the headroom over K is a safe reach.
    """
    xi, rho, pace = params.reaction_gain, params.headway, s_total / T
    k = xi * (0.5 * v0 + 1.5 * pace) + rho * (0.75 * v0 + 2.0 * pace) / T
    return 0.5 * (SAFETY_SLACK - margin) / k


def lateral_separation(
    occupancy_a: tuple[float, float] | Occupancy,
    occupancy_b: tuple[float, float] | Occupancy,
) -> float:
    """Signed time gap between two occupancy intervals (negative = overlap)."""
    a_in, a_out = occupancy_a
    b_in, b_out = occupancy_b
    return max(b_in - a_out, a_in - b_out)


# ---------------------------------------------------------------------------
# Minimum-exit-time search
# ---------------------------------------------------------------------------

def _tightened_params(params: VehicleParams, v0: float) -> _Caps:
    """Bounds pulled in by the planning margin.

    The given arrival speed is exempt: a vehicle arriving exactly at a speed
    limit would otherwise be unplannable, since no exit time changes v(t0).
    Raises ValueError for an arrival speed outside the bounds, and where the
    margin leaves bounds `VehicleParams` rejects.
    """
    if not params.v_min <= v0 <= params.v_max:
        raise ValueError(f"arrival speed {v0} outside [{params.v_min}, {params.v_max}]")
    u_min, u_max = params.u_min + BOUND_MARGIN, params.u_max - BOUND_MARGIN
    v_min, v_max = min(params.v_min + BOUND_MARGIN, v0), max(params.v_max - BOUND_MARGIN, v0)
    if not (u_min < 0 < u_max and 0 < v_min < v_max):
        raise ValueError(f"bounds too tight for the planning margin {BOUND_MARGIN} at speed {v0}")
    return _Caps(u_min, u_max, v_min, v_max)


def _bounds_lower_bracket(v0: float, s_total: float, caps: _Caps) -> float:
    """Smallest horizon not violating the speed cap or the acceleration cap.

    Below s_total/v0 the vehicle accelerates the whole way, so the speed
    maximum is the terminal speed (3*s - v0*T)/(2*T) and the acceleration
    maximum is the initial one 3*(s - v0*T)/T^2; both relax as T grows.
    """
    t_speed = 3.0 * s_total / (v0 + 2.0 * caps.v_max)
    disc = 9.0 * v0 * v0 + 12.0 * caps.u_max * s_total
    t_accel = (math.sqrt(disc) - 3.0 * v0) / (2.0 * caps.u_max)
    return max(t_speed, t_accel)


def _within_caps(extrema: tuple[float, ...], caps: _Caps) -> bool:
    """Whether speed and acceleration extrema stay inside `caps`."""
    min_speed, max_speed, min_accel, max_accel = extrema
    return (
        caps.v_min <= min_speed
        and max_speed <= caps.v_max
        and caps.u_min <= min_accel
        and max_accel <= caps.u_max
    )


@dataclass
class _SearchContext:
    """One lane's search: the arrival, what it must avoid, and the probes."""

    arrival: Arrival
    s_total: float
    window_entry: float
    window_exit: float
    caps: _Caps
    # The lane leader's absolute-time coefficients, t0 and tf, if any.
    leader: Optional[tuple[_Coefficients, float, float]]
    conflicting: list[Occupancy]
    lateral_buffer: float
    min_zone_entry: Optional[float]

    def check(self, tf: float) -> tuple[bool, Optional[_Fail], Optional[float]]:
        """Full feasibility of one candidate exit time: `probe` without the occupancy."""
        return self.probe(tf)[:3]

    def probe(
        self, tf: float, cubic: Optional[tuple[float, float, tuple[float, ...]]] = None
    ) -> tuple[bool, Optional[_Fail], Optional[float], Optional[Occupancy]]:
        """One probe, given the candidate's (c3, c2, extrema) if computed.

        Returns (ok, failed-constraint, detail, occupancy): the detail of an
        entry-order or lateral rejection is the zone-entry time to reach, of
        a rear-end one the margin; the occupancy is an accepted candidate's.
        """
        arrival = self.arrival
        v0, t0, s_total = arrival.v0, arrival.time, self.s_total
        if cubic is None:
            c3, c2, T = _boundary_cubic(v0, s_total, t0, tf)
            cubic = c3, c2, _cubic_extrema(c3, c2, v0, T)
        c3, c2, extrema = cubic
        if not _within_caps(extrema, self.caps):
            return False, _Fail.BOUNDS, None, None
        _require_monotone(extrema[0])
        t_in = _invert(c3, c2, v0, t0, tf, s_total, self.window_entry)
        if self.min_zone_entry is not None and t_in < self.min_zone_entry - SAFETY_SLACK:
            return False, _Fail.ORDER, self.min_zone_entry, None
        if self.leader is not None:
            coeffs = _absolute_coefficients(c3, c2, v0, 0.0, t0)
            margin = _rear_end_margin(coeffs, t0, tf, *self.leader, arrival.params)
            if margin < SAFETY_SLACK:
                return False, _Fail.REAR_END, margin, None
        t_out = _invert(c3, c2, v0, t0, tf, s_total, self.window_exit)
        for occ in self.conflicting:
            if t_out + self.lateral_buffer < occ.t_in - SAFETY_SLACK:
                # Sorted by entry time: every later occupancy starts after
                # this one, so the candidate leaves before it too.
                break
            if not t_in - self.lateral_buffer > occ.t_out + SAFETY_SLACK:
                target = occ.t_out + self.lateral_buffer + 2.0 * SAFETY_SLACK
                return False, _Fail.LATERAL, target, None
        return True, None, None, Occupancy(t_in, t_out)


def _make_context(
    arrival: Arrival,
    lane: LaneId,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    lateral_buffer: float,
    min_zone_entry: Optional[float],
) -> _SearchContext:
    route = layout.route(arrival.movement)
    lead = protocol.lane_leader(lane, arrival.time)
    # Every candidate enters the zone at t_in >= t0, so an occupancy left out
    # passes the check's `t_in - buffer > t_out + slack` for all of them.
    conflicting = protocol.conflicting_occupancies(arrival.movement, arrival.time - lateral_buffer)
    return _SearchContext(
        arrival, route.total_distance, route.window.entry, route.window.exit, arrival.caps,
        None if lead is None else lead[1], conflicting, lateral_buffer, min_zone_entry,
    )


def _search_min_tf(ctx: _SearchContext, horizon_cap: float) -> tuple[
    Optional[float], Optional[CubicTrajectory], BindingConstraint, Optional[Occupancy]
]:
    arrival = ctx.arrival
    v0, t0, s_total = arrival.v0, arrival.time, ctx.s_total
    t_lb = _bounds_lower_bracket(v0, s_total, ctx.caps)
    # Beyond this horizon the terminal speed drops below the floor for good.
    t_ub = 3.0 * s_total / (v0 + 2.0 * ctx.caps.v_min)
    tf_max = t0 + min(horizon_cap, t_ub)
    jump_hi = t0 + min(2.0 * s_total / v0, min(horizon_cap, t_ub))

    # The bracket is the bounds' edge up to rounding: start from the first
    # exit time a few floats up that the bounds admit, if there is one, and
    # hand its cubic to the first probe.
    tf = t0 + t_lb
    edge, cubic = tf, None
    for _ in range(_BOUNDS_EDGE_FLOATS):
        c3, c2, T = _boundary_cubic(v0, s_total, t0, edge)
        if _within_caps(extrema := _cubic_extrema(c3, c2, v0, T), ctx.caps):
            tf, cubic = edge, (c3, c2, extrema)
            break
        edge = math.nextafter(edge, math.inf)

    def last_step_below(tf: float, reach: float) -> float:
        # The last point below `reach` (and within the horizon) that the
        # 1 ms scan from `tf` probes, or its first if none lies below.
        nxt = tf + DEFAULT_RESOLUTION
        while (after := nxt + DEFAULT_RESOLUTION) < reach and after <= tf_max + 1e-12:
            nxt = after
        return nxt

    last_bad: Optional[float] = None
    last_fail = _Fail.BOUNDS
    while tf <= tf_max + 1e-12:
        ok, fail, detail, occupancy = ctx.probe(tf, cubic)
        cubic = None
        if ok:
            binding = BindingConstraint.BOUNDS
            if last_bad is not None:
                lo, hi, fail_at_lo = last_bad, tf, last_fail
                while hi - lo > 1e-9:
                    mid = 0.5 * (lo + hi)
                    ok_mid, fail_mid, _, occupancy_mid = ctx.probe(mid)
                    if ok_mid:
                        hi, occupancy = mid, occupancy_mid
                    else:
                        lo, fail_at_lo = mid, fail_mid
                tf, binding = hi, _FAIL_TO_BINDING[fail_at_lo]
            return tf, solve_boundary(v0, s_total, t0, tf), binding, occupancy
        last_bad, last_fail = tf, fail
        nxt = tf + DEFAULT_RESOLUTION
        if fail is _Fail.REAR_END:
            # The scan's points up to the margin's reach are rejected too:
            # probe only the last of them.
            reach = tf + _rear_end_reach(v0, s_total, tf - t0, detail, arrival.params)
            nxt = last_step_below(tf, reach)
        elif detail is not None and tf < jump_hi:
            # Where the zone entry time grows with tf, land on the horizon
            # that enters at the target (`above`) and keep as the infeasible
            # end the one entering 2 slack earlier (`below`), which the same
            # constraint rejects, as it rejects all before `below` if no
            # horizon up to jump_hi enters at the target.
            above = _least_horizon_behind(
                v0, s_total, ctx.window_entry, detail - t0, tf - t0, jump_hi - t0
            )
            if above is None or t0 + above > tf:
                below = _least_horizon_behind(
                    v0, s_total, ctx.window_entry, detail - 2.0 * SAFETY_SLACK - t0,
                    tf - t0, jump_hi - t0 if above is None else above,
                )
                if above is not None:
                    last_bad, nxt = t0 + below, t0 + above
                else:
                    nxt = last_step_below(tf, jump_hi if below is None else t0 + below)
        tf = nxt
    return None, None, _FAIL_TO_BINDING[last_fail], None


# ---------------------------------------------------------------------------
# Public planning API
# ---------------------------------------------------------------------------

def _check_options(
    lateral_buffer: float,
    horizon_cap: float = DEFAULT_HORIZON_CAP,
    min_zone_entry: Optional[float] = None,
) -> None:
    """Reject a search option that a `Scenario` would reject, and a NaN
    entry-order bound, which every comparison would silently ignore."""
    for name, value in (("lateral_buffer", lateral_buffer), ("horizon_cap", horizon_cap)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if lateral_buffer < 0:
        raise ValueError("lateral_buffer must be non-negative")
    if horizon_cap <= 0:
        raise ValueError("horizon_cap must be positive")
    if min_zone_entry is not None and math.isnan(min_zone_entry):
        raise ValueError("min_zone_entry must not be NaN")


def _check_lane(arrival: Arrival, lane: LaneId, layout: IntersectionLayout) -> None:
    if lane not in layout.allowed_lanes(arrival.movement):
        raise ValueError(f"lane {lane} not admissible for movement {arrival.movement}")


def feasible_tf(
    arrival: Arrival,
    lane: LaneId,
    tf: float,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    *,
    lateral_buffer: float = 0.0,
    min_zone_entry: Optional[float] = None,
) -> bool:
    """The planner's full feasibility predicate for one candidate exit time.

    Exposed so independent searches (e.g. brute-force verification) can use
    exactly the predicate the planner optimizes over.
    """
    _check_options(lateral_buffer, min_zone_entry=min_zone_entry)
    _check_lane(arrival, lane, layout)
    if tf <= arrival.time:
        return False
    ctx = _make_context(arrival, lane, protocol, layout, lateral_buffer, min_zone_entry)
    return ctx.check(tf)[0]


def min_feasible_tf(
    arrival: Arrival,
    lane: LaneId,
    protocol: CrossingProtocol,
    layout: IntersectionLayout,
    *,
    lateral_buffer: float = 0.0,
    horizon_cap: float = DEFAULT_HORIZON_CAP,
    min_zone_entry: Optional[float] = None,
) -> Optional[float]:
    """Smallest feasible exit time on one lane, or None within the horizon."""
    _check_options(lateral_buffer, horizon_cap, min_zone_entry)
    _check_lane(arrival, lane, layout)
    ctx = _make_context(arrival, lane, protocol, layout, lateral_buffer, min_zone_entry)
    return _search_min_tf(ctx, horizon_cap)[0]


def plan(
    arrival: Arrival,
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
    _check_options(lateral_buffer, horizon_cap)
    min_zone_entry = protocol.latest_zone_entry if Policy(policy) is Policy.FIFO else None
    outcomes, best = [], None
    for lane in layout.allowed_lanes(arrival.movement):
        ctx = _make_context(arrival, lane, protocol, layout, lateral_buffer, min_zone_entry)
        tf, traj, binding, occupancy = _search_min_tf(ctx, horizon_cap)
        outcomes.append(LaneOutcome(lane, tf, binding))
        # Lanes ascend, so of equal exit times the first is the lowest lane's.
        if tf is not None and (best is None or tf < best[1]):
            best = lane, tf, traj, binding, occupancy
    if best is None:
        raise PlanningError(arrival.vehicle_id, {o.lane: o.binding_constraint for o in outcomes})
    lane, tf, traj, binding, occupancy = best
    return PlanResult(lane, tf, traj, binding, tuple(outcomes), occupancy)
