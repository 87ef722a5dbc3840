"""Independent reference computations used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: boundary solving is
redone as a dense linear system, extrema and safety margins by dense
sampling, energy by quadrature, arc lengths by numeric integration, and the
planner's minimum exit time by brute-force grid search over the library's
feasibility predicate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from cavcross import (
    CrossingProtocol,
    CubicTrajectory,
    IntersectionLayout,
    Movement,
    PlanRequest,
    ProtocolEntry,
    VehicleParams,
    feasible_tf,
    sample_zone_path,
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
