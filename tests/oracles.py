"""Independent reference computations used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: boundary solving is
redone as a dense linear system, extrema and safety margins by dense
sampling, energy by quadrature, arc lengths by numeric integration, the
planner's minimum exit time by brute-force grid search over the library's
feasibility predicate, and the run's sampled log and violations by the
original per-step object loop, and the RK4 cross-check by its original
scalar step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cavcross import (
    CrossingProtocol,
    CubicTrajectory,
    IntersectionLayout,
    LaneId,
    Movement,
    PlanRequest,
    ProtocolEntry,
    VehicleParams,
    VehiclePhase,
    Violation,
    conflicts,
    feasible_tf,
    sample_zone_path,
)
from cavcross.simulation import IntegrationCheck


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
    request: PlanRequest,
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
        tf = request.t0 + k * step
        if tf > request.t0 + horizon_cap:
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
# Per-step sampling and monitoring: the simulation's original object loop,
# kept as the reference for its columnar replacement.
# ---------------------------------------------------------------------------

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
) -> tuple[list[LogRow], list[Violation], list[VehicleState]]:
    """The run's original sampling loop over `times`: log rows, violations
    and the sampled states, all in time then registration order."""
    log: list[LogRow] = []
    violations: list[Violation] = []
    all_states: list[VehicleState] = []
    for t in times:
        states = snapshot(protocol, t, params_by_id)
        violations.extend(monitor(states, protocol, params_by_id, t))
        all_states.extend(states)
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
    return log, violations, all_states


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
