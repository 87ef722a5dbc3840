"""Intersection geometry: layout dimensions, movements, lanes and conflict relations.

The intersection is two perpendicular roads crossing in a square merging zone.
Vehicles travel a control-zone approach of length ``control_zone_length``,
cross the merging zone (straight through, or on a quarter-circle turn arc),
and leave through an equally long exit segment.  All distances are measured
along each vehicle's own path, with zero at the control-zone entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

LaneId = int

_EPS = 1e-9

# The most lanes an approach may have.  Lanes are numbered with `range`,
# which a count past a C ssize_t overflows.
MAX_LANES_PER_APPROACH = 8


class Cardinal(str, Enum):
    """Compass point where a vehicle enters or exits the control zone."""

    N = "N"
    E = "E"
    S = "S"
    W = "W"


class TurnKind(str, Enum):
    STRAIGHT = "straight"
    RIGHT = "right"
    LEFT = "left"


# Exit cardinal reached by going straight / turning right / turning left
# from each entry, under right-hand traffic.
_STRAIGHT_EXIT = {Cardinal.W: Cardinal.E, Cardinal.E: Cardinal.W,
                  Cardinal.N: Cardinal.S, Cardinal.S: Cardinal.N}
_RIGHT_EXIT = {Cardinal.W: Cardinal.S, Cardinal.S: Cardinal.E,
               Cardinal.E: Cardinal.N, Cardinal.N: Cardinal.W}


@dataclass(frozen=True)
class Movement:
    """Ordered (entry, exit) pair of cardinal points; the turn kind follows."""

    origin: Cardinal
    exit: Cardinal

    def __post_init__(self) -> None:
        if not type(self.origin) is type(self.exit) is Cardinal:
            object.__setattr__(self, "origin", Cardinal(self.origin))
            object.__setattr__(self, "exit", Cardinal(self.exit))
        if self.origin == self.exit:
            raise ValueError(
                f"invalid movement {self.origin.value}->{self.exit.value}: "
                "U-turns are not supported"
            )

    @property
    def turn_kind(self) -> TurnKind:
        if _STRAIGHT_EXIT[self.origin] == self.exit:
            return TurnKind.STRAIGHT
        if _RIGHT_EXIT[self.origin] == self.exit:
            return TurnKind.RIGHT
        return TurnKind.LEFT

    def __str__(self) -> str:
        return f"{self.origin.value}->{self.exit.value}"


ALL_MOVEMENTS: tuple[Movement, ...] = tuple(
    Movement(o, d) for o in Cardinal for d in Cardinal if o != d
)


class MergingWindow(NamedTuple):
    """Arc-length bracket of the merging zone along a movement's path."""

    entry: float
    exit: float


class Route(NamedTuple):
    """A movement's admissible lanes, full path length and merging window."""

    lanes: tuple[LaneId, ...]
    total_distance: float
    window: MergingWindow


@dataclass(frozen=True)
class IntersectionLayout:
    """Dimensions of the control and merging zones, in meters.

    Turn radii default to quarter-circles sized from the merging-zone square
    (half the side for right turns, the full side for left turns) and are
    used only to measure path length; they must fit inside the zone.
    """

    control_zone_length: float = 125.0
    merging_zone_side: float = 25.0
    right_turn_radius: float | None = None
    left_turn_radius: float | None = None
    lanes_per_approach: int = 1
    _routes: dict[Movement, Route] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.right_turn_radius is None:
            object.__setattr__(self, "right_turn_radius", self.merging_zone_side / 2.0)
        if self.left_turn_radius is None:
            object.__setattr__(self, "left_turn_radius", self.merging_zone_side)
        # Chained comparisons, so that NaN and infinities fail them too.
        if not 0 <= self.control_zone_length < math.inf:
            raise ValueError("control_zone_length must be finite and non-negative")
        if not 0 < self.merging_zone_side < math.inf:
            raise ValueError("merging_zone_side must be finite and positive")
        for name in ("right_turn_radius", "left_turn_radius"):
            if not 0 < getattr(self, name) <= self.merging_zone_side + _EPS:
                raise ValueError(f"{name} must be positive and not exceed merging_zone_side")
        lanes = self.lanes_per_approach
        if isinstance(lanes, bool) or not isinstance(lanes, int):
            raise ValueError(f"lanes_per_approach must be an integer, got {lanes!r}")
        if not 1 <= lanes <= MAX_LANES_PER_APPROACH:
            raise ValueError(
                f"lanes_per_approach must be between 1 and {MAX_LANES_PER_APPROACH}"
            )
        entry, routes = self.control_zone_length, {}
        for m in ALL_MOVEMENTS:
            lanes, zone = self.lanes_for_approach(m.origin), self.zone_path_length(m)
            lanes = {TurnKind.RIGHT: lanes[-1:], TurnKind.LEFT: lanes[:1]}.get(m.turn_kind, lanes)
            routes[m] = Route(lanes, 2.0 * entry + zone, MergingWindow(entry, entry + zone))
        object.__setattr__(self, "_routes", routes)

    # -- lane numbering ----------------------------------------------------
    # Global lane ids: approaches in N, E, S, W order, each contributing
    # lanes_per_approach consecutive ids, ordered leftmost to rightmost from
    # the entering driver's perspective.

    @property
    def lane_count(self) -> int:
        return 4 * self.lanes_per_approach

    def lanes_for_approach(self, approach: Cardinal) -> tuple[LaneId, ...]:
        order = (Cardinal.N, Cardinal.E, Cardinal.S, Cardinal.W)
        base = order.index(approach) * self.lanes_per_approach
        return tuple(range(base + 1, base + self.lanes_per_approach + 1))

    def lane_approach(self, lane: LaneId) -> Cardinal:
        if not 1 <= lane <= self.lane_count:
            raise ValueError(f"lane {lane} outside 1..{self.lane_count}")
        order = (Cardinal.N, Cardinal.E, Cardinal.S, Cardinal.W)
        return order[(lane - 1) // self.lanes_per_approach]

    def route(self, movement: Movement) -> Route:
        """A movement's lanes, path length and merging window, computed once
        per layout.  Turning vehicles must be in the outermost lane on their
        turning side; straight traffic may use any approach lane."""
        return self._routes[movement]

    def allowed_lanes(self, movement: Movement) -> tuple[LaneId, ...]:
        """Lanes a movement may occupy on approach (see `route`)."""
        return self._routes[movement].lanes

    # -- path lengths ------------------------------------------------------

    def zone_path_length(self, movement: Movement) -> float:
        kind = movement.turn_kind
        if kind is TurnKind.STRAIGHT:
            return self.merging_zone_side
        if kind is TurnKind.RIGHT:
            return math.pi * self.right_turn_radius / 2.0
        return math.pi * self.left_turn_radius / 2.0

    def total_distance(self, movement: Movement) -> float:
        """Full path length through the control zone for this movement."""
        return self._routes[movement].total_distance

    def merging_window(self, movement: Movement) -> MergingWindow:
        """Positions along the path where the merging zone starts and ends."""
        return self._routes[movement].window


# ---------------------------------------------------------------------------
# Movement conflict relation.
#
# Built once by exact intersection tests between the in-zone paths of each
# movement pair on a canonical unit square (side 1, half-lane offsets 1/4):
# straights are lane-midline chords, turns are quarter arcs centered on the
# square corners.  The relation is scale free, so one table serves every
# layout.  Same-approach pairs are excluded here; they are governed by the
# rear-end constraint instead.
# ---------------------------------------------------------------------------

_H = 0.5   # half side of the canonical square
_Q = 0.25  # lane midline offset from the road centerline

_ENTRY_POINT = {
    Cardinal.W: (-_H, -_Q),
    Cardinal.E: (_H, _Q),
    Cardinal.N: (-_Q, _H),
    Cardinal.S: (_Q, -_H),
}
_EXIT_POINT = {
    Cardinal.E: (_H, -_Q),
    Cardinal.W: (-_H, _Q),
    Cardinal.S: (-_Q, -_H),
    Cardinal.N: (_Q, _H),
}
# Boundary line of the square crossed at each entry/exit cardinal:
# ("x", -H) means the line x = -H, etc.
_EDGE = {
    Cardinal.W: ("x", -_H),
    Cardinal.E: ("x", _H),
    Cardinal.N: ("y", _H),
    Cardinal.S: ("y", -_H),
}


@dataclass(frozen=True)
class _Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]


@dataclass(frozen=True)
class _Arc:
    center: tuple[float, float]
    radius: float
    angle0: float  # arc spans CCW from angle0 over `span` radians
    span: float


def _zone_path(movement: Movement) -> _Segment | _Arc:
    a = _ENTRY_POINT[movement.origin]
    b = _EXIT_POINT[movement.exit]
    if movement.turn_kind is TurnKind.STRAIGHT:
        return _Segment(a, b)
    # Quarter-circle corner arc: the center sits where the entry and exit
    # boundary lines meet, equidistant from both endpoints.
    ax_a, val_a = _EDGE[movement.origin]
    ax_b, val_b = _EDGE[movement.exit]
    center = (val_a, val_b) if ax_a == "x" else (val_b, val_a)
    radius = math.hypot(a[0] - center[0], a[1] - center[1])
    th_a = math.atan2(a[1] - center[1], a[0] - center[0])
    th_b = math.atan2(b[1] - center[1], b[0] - center[0])
    if math.isclose((th_b - th_a) % (2 * math.pi), math.pi / 2, abs_tol=1e-9):
        start = th_a
    else:
        start = th_b
    return _Arc(center, radius, start, math.pi / 2)


def _on_arc_angle(arc: _Arc, theta: float) -> bool:
    rel = (theta - arc.angle0) % (2 * math.pi)
    return rel <= arc.span + 1e-9 or rel >= 2 * math.pi - 1e-9


def _seg_seg_intersect(s1: _Segment, s2: _Segment) -> bool:
    (x1, y1), (x2, y2) = s1.p0, s1.p1
    (x3, y3), (x4, y4) = s2.p0, s2.p1
    d1x, d1y = x2 - x1, y2 - y1
    d2x, d2y = x4 - x3, y4 - y3
    denom = d1x * d2y - d1y * d2x
    rx, ry = x3 - x1, y3 - y1
    if abs(denom) < _EPS:
        # Parallel; overlap only if collinear and ranges touch.
        if abs(rx * d1y - ry * d1x) > _EPS:
            return False
        length2 = d1x * d1x + d1y * d1y
        if length2 < _EPS:
            return False
        t3 = (rx * d1x + ry * d1y) / length2
        t4 = ((x4 - x1) * d1x + (y4 - y1) * d1y) / length2
        lo, hi = min(t3, t4), max(t3, t4)
        return hi >= -_EPS and lo <= 1 + _EPS
    t = (rx * d2y - ry * d2x) / denom
    u = (rx * d1y - ry * d1x) / denom
    return -_EPS <= t <= 1 + _EPS and -_EPS <= u <= 1 + _EPS


def _seg_arc_intersect(seg: _Segment, arc: _Arc) -> bool:
    (x1, y1), (x2, y2) = seg.p0, seg.p1
    cx, cy = arc.center
    dx, dy = x2 - x1, y2 - y1
    fx, fy = x1 - cx, y1 - cy
    a = dx * dx + dy * dy
    b = 2 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - arc.radius * arc.radius
    disc = b * b - 4 * a * c
    if disc < -_EPS or a < _EPS:
        return False
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    for t in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)):
        if -_EPS <= t <= 1 + _EPS:
            px, py = x1 + t * dx, y1 + t * dy
            if _on_arc_angle(arc, math.atan2(py - cy, px - cx)):
                return True
    return False


def _arc_arc_intersect(a1: _Arc, a2: _Arc) -> bool:
    cx1, cy1 = a1.center
    cx2, cy2 = a2.center
    d = math.hypot(cx2 - cx1, cy2 - cy1)
    if d < _EPS:
        return False  # concentric arcs: distinct radii never meet
    if d > a1.radius + a2.radius + _EPS or d < abs(a1.radius - a2.radius) - _EPS:
        return False
    # Circle-circle intersection points (tangency collapses to one).
    a = (a1.radius**2 - a2.radius**2 + d * d) / (2 * d)
    h2 = a1.radius**2 - a * a
    h = math.sqrt(max(h2, 0.0))
    ux, uy = (cx2 - cx1) / d, (cy2 - cy1) / d
    mx, my = cx1 + a * ux, cy1 + a * uy
    for sign in (1.0, -1.0):
        px, py = mx + sign * h * -uy, my + sign * h * ux
        th1 = math.atan2(py - cy1, px - cx1)
        th2 = math.atan2(py - cy2, px - cx2)
        if _on_arc_angle(a1, th1) and _on_arc_angle(a2, th2):
            return True
    return False


def _paths_intersect(pa: _Segment | _Arc, pb: _Segment | _Arc) -> bool:
    if isinstance(pa, _Segment) and isinstance(pb, _Segment):
        return _seg_seg_intersect(pa, pb)
    if isinstance(pa, _Segment):
        return _seg_arc_intersect(pa, pb)
    if isinstance(pb, _Segment):
        return _seg_arc_intersect(pb, pa)
    return _arc_arc_intersect(pa, pb)


def _build_conflict_table() -> dict[tuple[Movement, Movement], bool]:
    table: dict[tuple[Movement, Movement], bool] = {}
    for ma in ALL_MOVEMENTS:
        for mb in ALL_MOVEMENTS:
            if ma.origin == mb.origin:
                table[(ma, mb)] = False
            else:
                table[(ma, mb)] = _paths_intersect(_zone_path(ma), _zone_path(mb))
    return table


_CONFLICTS = _build_conflict_table()


def conflicts(movement_a: Movement, movement_b: Movement) -> bool:
    """Whether two movements' merging-zone paths can collide laterally.

    Same-approach pairs are never lateral conflicts: vehicles from one
    approach interact through the rear-end constraint on their shared lane.
    """
    return _CONFLICTS[(movement_a, movement_b)]


def sample_zone_path(
    movement: Movement, merging_zone_side: float, n: int = 64
) -> list[tuple[float, float]]:
    """Sample a movement's in-zone path, scaled to a real zone side length.

    Coordinates are centered on the merging-zone square.  Intended for
    plotting and for cross-checking the conflict relation by dense sampling.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    path = _zone_path(movement)
    pts: list[tuple[float, float]] = []
    if isinstance(path, _Segment):
        for i in range(n):
            t = i / (n - 1)
            pts.append(
                (
                    (path.p0[0] + t * (path.p1[0] - path.p0[0])) * merging_zone_side,
                    (path.p0[1] + t * (path.p1[1] - path.p0[1])) * merging_zone_side,
                )
            )
    else:
        for i in range(n):
            th = path.angle0 + path.span * i / (n - 1)
            pts.append(
                (
                    (path.center[0] + path.radius * math.cos(th)) * merging_zone_side,
                    (path.center[1] + path.radius * math.sin(th)) * merging_zone_side,
                )
            )
    return pts
