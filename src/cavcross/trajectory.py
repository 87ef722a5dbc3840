"""Closed-form energy-optimal trajectories between control-zone boundaries.

Minimizing the quadratic control effort (1/2)*integral(u^2) for double-
integrator motion between known entry and exit conditions gives a control
input that is linear in time, hence a quadratic speed and a cubic position
law.  This module constructs that cubic from boundary data, evaluates and
inverts it, finds its speed and acceleration extrema, and computes the
control cost.  Time is kept relative to the entry instant for numerical
conditioning; all public methods accept and return absolute times.

The arithmetic lives in private float kernels, which `CubicTrajectory` and
`solve_boundary` call after validating and the planner's probes call directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


class InvalidHorizonError(ValueError):
    """Exit time does not lie strictly after the entry time."""


class NonMonotoneError(ValueError):
    """Operation requires a strictly forward-moving trajectory."""


class OutOfDomainError(ValueError):
    """Query time or position outside the trajectory's window."""


@dataclass(frozen=True)
class VehicleParams:
    """Per-vehicle actuation bounds and car-following parameters.

    accel bounds in m/s^2, speed bounds in m/s, headway in seconds,
    standstill_gap in meters; reaction_gain scales the perceived gap to the
    vehicle ahead (dimensionless).
    """

    u_min: float = -3.0
    u_max: float = 3.0
    v_min: float = 2.0
    v_max: float = 18.0
    headway: float = 1.0
    standstill_gap: float = 1.5
    reaction_gain: float = 1.0

    def __post_init__(self) -> None:
        # Chained comparisons, so that NaN and infinities fail them too.
        if not -math.inf < self.u_min < 0 < self.u_max < math.inf:
            raise ValueError("accel bounds must be finite and satisfy u_min < 0 < u_max")
        if not 0 < self.v_min < self.v_max < math.inf:
            raise ValueError("speed bounds must be finite and satisfy 0 < v_min < v_max")
        for name in ("headway", "standstill_gap", "reaction_gain"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    def safe_distance(self, speed: float) -> float:
        """Minimum allowed gap to the vehicle ahead at a given own speed."""
        return self.standstill_gap + self.headway * speed


class TrajectorySample(NamedTuple):
    position: float
    speed: float
    accel: float


class Extrema(NamedTuple):
    """Speed and acceleration extrema of a trajectory over its window."""

    min_speed: float
    max_speed: float
    min_accel: float
    max_accel: float


@dataclass(frozen=True)
class InverseFit:
    """Least-squares cubic fit of time as a function of position.

    A diagnostic/serialization companion to the exact numeric inverse: the
    true inverse of a cubic position law is generally not itself a cubic,
    so the worst sample residual is carried alongside the coefficients.
    Never use the fit for safety checks.
    """

    c3: float
    c2: float
    c1: float
    c0: float
    max_residual: float

    def time_at(self, position: float) -> float:
        return ((self.c3 * position + self.c2) * position + self.c1) * position + self.c0


_INVERT_TOL = 1e-12


@dataclass(frozen=True)
class CubicTrajectory:
    """Position law p(tau) = c3*tau^3 + c2*tau^2 + c1*tau + c0, tau = t - t0.

    Covers [t0, tf] and travels s_total meters; c0 is zero because position
    is measured from the control-zone entry.  `extrema` is derived from the
    other fields once, at construction.
    """

    c3: float
    c2: float
    c1: float
    c0: float
    t0: float
    tf: float
    s_total: float
    extrema: Extrema = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tf > self.t0:
            raise InvalidHorizonError(f"tf={self.tf} must exceed t0={self.t0}")
        if self.s_total <= 0:
            raise ValueError("s_total must be positive")
        if abs(self.c0) > 1e-9:
            raise ValueError("entry position must be zero")
        T = self.tf - self.t0
        _check_terminal_position(self.c3, self.c2, self.c1, self.c0, T, self.s_total)
        object.__setattr__(
            self, "extrema", Extrema(*_cubic_extrema(self.c3, self.c2, self.c1, T))
        )

    # -- basic evaluation ----------------------------------------------------

    @property
    def duration(self) -> float:
        return self.tf - self.t0

    def _pva(self, tau: float) -> TrajectorySample:
        p = ((self.c3 * tau + self.c2) * tau + self.c1) * tau + self.c0
        v = (3.0 * self.c3 * tau + 2.0 * self.c2) * tau + self.c1
        a = 6.0 * self.c3 * tau + 2.0 * self.c2
        return TrajectorySample(p, v, a)

    def eval(self, t: float) -> TrajectorySample:
        """Position, speed and acceleration at absolute time t."""
        if t < self.t0 - 1e-9 or t > self.tf + 1e-9:
            raise OutOfDomainError(
                f"t={t} outside trajectory window [{self.t0}, {self.tf}]"
            )
        tau = min(max(t - self.t0, 0.0), self.duration)
        return self._pva(tau)

    def absolute_coefficients(self) -> tuple[float, float, float, float]:
        """Coefficients (a3, a2, a1, a0) of the same cubic in absolute time."""
        return _absolute_coefficients(self.c3, self.c2, self.c1, self.c0, self.t0)

    # -- extrema, monotonicity and inversion ----------------------------------

    @property
    def is_monotone(self) -> bool:
        """True when speed stays strictly positive over the whole window."""
        return self.extrema.min_speed > 0.0

    def invert(self, position: float) -> float:
        """Absolute time at which the vehicle is at `position`.

        Safeguarded Newton iteration bracketed by bisection; the trajectory
        must be strictly forward-moving so the inverse is unique.
        """
        _require_monotone(self.extrema.min_speed)
        if position < -1e-9 or position > self.s_total + 1e-9:
            raise OutOfDomainError(
                f"position {position} outside [0, {self.s_total}]"
            )
        return _invert(self.c3, self.c2, self.c1, self.t0, self.tf, self.s_total, position)

    def inverse_cubic_fit(self, samples: int = 101) -> InverseFit:
        """Cubic-in-position least-squares fit of the inverted motion law."""
        if not self.is_monotone:
            raise NonMonotoneError("cannot fit the inverse of a non-monotone trajectory")
        positions = np.linspace(0.0, self.s_total, samples)
        times = np.array([self.invert(p) for p in positions])
        coeffs = np.polyfit(positions, times, deg=3)
        fitted = np.polyval(coeffs, positions)
        residual = float(np.max(np.abs(fitted - times)))
        c3, c2, c1, c0 = (float(c) for c in coeffs)
        return InverseFit(c3, c2, c1, c0, residual)

    # -- cost -----------------------------------------------------------------

    def energy_cost(self) -> float:
        """Control cost (1/2)*integral(u^2) over the window, in closed form.

        With u(tau) = 6*c3*tau + 2*c2 the integrand is quadratic, so
        J = (1/2)*(12*c3^2*T^3 + 12*c3*c2*T^2 + 4*c2^2*T).
        """
        T = self.duration
        return 0.5 * (
            12.0 * self.c3**2 * T**3
            + 12.0 * self.c3 * self.c2 * T**2
            + 4.0 * self.c2**2 * T
        )


def solve_boundary(v0: float, s_total: float, t0: float, tf: float) -> CubicTrajectory:
    """Unique cubic meeting p(t0)=0, v(t0)=v0, p(tf)=s_total, u(tf)=0.

    Zero terminal acceleration is the free-terminal-speed closure for the
    quadratic-effort objective.  With T = tf - t0 the coefficients are
    c3 = (v0*T - s_total) / (2*T^3) and c2 = 3*(s_total - v0*T) / (2*T^2);
    when T equals s_total/v0 exactly, both vanish and the trajectory is the
    constant-speed line.  The result may violate monotonicity for extreme
    inputs; callers must reject it via `is_monotone` before inverting.
    """
    if tf <= t0:
        raise InvalidHorizonError(f"tf={tf} must exceed t0={t0}")
    if v0 <= 0:
        raise ValueError("entry speed must be positive")
    if s_total <= 0:
        raise ValueError("total distance must be positive")
    c3, c2, _ = _boundary_cubic(v0, s_total, t0, tf)
    return CubicTrajectory(c3, c2, v0, 0.0, t0, tf, s_total)


# Float kernels (see the module docstring).

def _boundary_cubic(
    v0: float, s_total: float, t0: float, tf: float
) -> tuple[float, float, float]:
    """(c3, c2, T) of the boundary cubic (see `solve_boundary`), with the
    horizon and terminal-position checks its `CubicTrajectory` makes."""
    if not tf > t0:
        raise InvalidHorizonError(f"tf={tf} must exceed t0={t0}")
    T = tf - t0
    c3 = (v0 * T - s_total) / (2.0 * T**3)
    c2 = 3.0 * (s_total - v0 * T) / (2.0 * T**2)
    _check_terminal_position(c3, c2, v0, 0.0, T, s_total)
    return c3, c2, T


def _least_horizon_behind(
    v0: float, s_total: float, position: float, tau: float, lo: float, hi: float
) -> Optional[float]:
    """Least horizon T in [lo, hi] whose boundary cubic is at or before
    `position` at offset `tau`, so reaches it no earlier; None if `hi` is not.

    With x = tau/T, p(tau; T) = v0*tau + (s_total - v0*T)/2 * x^2 * (3 - x),
    which falls strictly as T grows while tau < T < 2*s_total/v0; callers
    keep `hi` in that regime.  The crossing is a root of a cubic in T, found
    by Newton's method safeguarded by bisection down to adjacent floats, with
    p evaluated as `_boundary_cubic`'s coefficients give it.  A vehicle
    reaches a position past its start after offset 0 and before offset T, so
    tau <= 0 gives `lo`, and no horizon at or below tau qualifies.
    """
    if tau <= 0.0:
        return lo

    def excess(T: float) -> float:
        c3 = (v0 * T - s_total) / (2.0 * T**3)
        c2 = 3.0 * (s_total - v0 * T) / (2.0 * T**2)
        return ((c3 * tau + c2) * tau + v0) * tau - position

    if tau >= hi or excess(hi) > 0.0:
        return None
    if lo > tau and excess(lo) <= 0.0:
        return lo
    # Invariant: excess(lo) > 0 >= excess(hi); at T = tau the cubic is at s_total.
    lo = max(lo, tau)
    T, value = hi, excess(hi)
    for _ in range(200):
        x = tau / T
        slope = -0.5 * x * x * (3.0 * s_total / T * (2.0 - x) - v0 * (3.0 - 2.0 * x))
        nxt = T - value / slope if slope < 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == T:
            # Newton has converged: step one float toward the other bracket end.
            nxt = math.nextafter(T, -math.inf if value <= 0.0 else math.inf)
        if not lo < nxt < hi:
            break
        T, value = nxt, excess(nxt)
        if value <= 0.0:
            hi = T
        else:
            lo = T
    return hi


def _check_terminal_position(
    c3: float, c2: float, c1: float, c0: float, T: float, s_total: float
) -> None:
    end = ((c3 * T + c2) * T + c1) * T + c0
    if abs(end - s_total) > max(1e-6, 1e-9 * s_total):
        raise ValueError(f"terminal position {end} inconsistent with s_total {s_total}")


def _speed_vertex(c3: float, c2: float, T: float) -> Optional[float]:
    """Offset of the speed parabola's vertex if it lies inside (0, T)."""
    if c3 != 0.0:
        vertex = -c2 / (3.0 * c3)
        if 0.0 < vertex < T:
            return vertex
    return None


def _cubic_extrema(
    c3: float, c2: float, c1: float, T: float
) -> tuple[float, float, float, float]:
    """Exact (min speed, max speed, min accel, max accel) over [0, T].

    Speed is quadratic in time, so its extrema lie at the endpoints or at
    an interior vertex; acceleration is linear, so its extrema lie at the
    endpoints.  The values are those `CubicTrajectory.eval` gives there.
    """
    v_start = (3.0 * c3 * 0.0 + 2.0 * c2) * 0.0 + c1
    v_end = (3.0 * c3 * T + 2.0 * c2) * T + c1
    min_speed, max_speed = min(v_start, v_end), max(v_start, v_end)
    vertex = _speed_vertex(c3, c2, T)
    if vertex is not None:
        v_vertex = (3.0 * c3 * vertex + 2.0 * c2) * vertex + c1
        min_speed, max_speed = min(min_speed, v_vertex), max(max_speed, v_vertex)
    a_start = 6.0 * c3 * 0.0 + 2.0 * c2
    a_end = 6.0 * c3 * T + 2.0 * c2
    return min_speed, max_speed, min(a_start, a_end), max(a_start, a_end)


def _absolute_coefficients(
    c3: float, c2: float, c1: float, c0: float, t0: float
) -> tuple[float, float, float, float]:
    """(a3, a2, a1, a0) of the cubic in tau = t - t0, re-expressed in t."""
    a = t0
    a3 = c3
    a2 = c2 - 3.0 * c3 * a
    a1 = c1 - 2.0 * c2 * a + 3.0 * c3 * a * a
    a0 = c0 - c1 * a + c2 * a * a - c3 * a**3
    return (a3, a2, a1, a0)


def _require_monotone(min_speed: float) -> None:
    """Raise unless speed stays strictly positive, as inverting requires."""
    if not min_speed > 0.0:
        raise NonMonotoneError("cannot invert a non-monotone trajectory")


def _invert(
    c3: float, c2: float, c1: float, t0: float, tf: float, s_total: float, position: float
) -> float:
    """Absolute time at `position` of a strictly forward-moving cubic with
    c0 = 0, by safeguarded Newton iteration bracketed by bisection.

    Returns `t0` and `tf` themselves at the two ends of the path.
    """
    position = min(max(position, 0.0), s_total)
    T = tf - t0
    if position == 0.0:
        return t0
    if position == s_total:
        return tf
    step_tol = _INVERT_TOL * max(1.0, T)
    lo, hi = 0.0, T
    tau = T * position / s_total
    c3_speed, c2_speed = 3.0 * c3, 2.0 * c2
    for _ in range(100):
        err = ((c3 * tau + c2) * tau + c1) * tau - position
        speed = (c3_speed * tau + c2_speed) * tau + c1
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
    return t0 + tau
