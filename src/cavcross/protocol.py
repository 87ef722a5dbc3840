"""Crossing protocol: the intersection's shared store of planned trajectories.

Every vehicle that enters the control zone registers its planned motion law,
lane and movement here before it starts driving; all later arrivals
plan against the registered set.  Entries are append-only and are kept after
their vehicle exits (metrics need them) but drop out of the active set.
Reads are assumed instantaneous and exact.

Registration files each entry's merging-zone occupancy (the planner's, which
the run loop hands over, or computed once) under the entry's movement, and
files under its lane what a follower's plan reads of it.  Each file keeps a
running maximum of its occupancies' zone exit times or its entries' end
times, so a query can pass over the prefix that has ended.
Conflicting movements are looked up once per protocol, and the latest zone
entry time is kept as a running maximum for the first-in-first-out bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .geometry import ALL_MOVEMENTS, Cardinal, IntersectionLayout, LaneId, Movement, conflicts
from .trajectory import CubicTrajectory


# The minimum slack demanded from the safety constraints: it keeps the
# monitor's own exact arithmetic from a float-level sign flip at the optimum.
SAFETY_SLACK = 1e-9


class DuplicateVehicleError(ValueError):
    """A vehicle id was registered twice."""


@dataclass(frozen=True)
class ProtocolEntry:
    """One vehicle's published plan: motion law, lane, movement."""

    vehicle_id: str
    trajectory: CubicTrajectory
    lane: LaneId
    movement: Movement

    @property
    def t0(self) -> float:
        return self.trajectory.t0

    @property
    def tf(self) -> float:
        return self.trajectory.tf


class Occupancy(NamedTuple):
    """Time interval a vehicle spends inside the merging zone."""

    t_in: float
    t_out: float


class Filed(NamedTuple):
    """Items in registration order and the running maximum of a time of
    each: `latest[i]` is the largest time among `items[:i + 1]`."""

    items: list
    latest: list[float]

    def add(self, item, time: float) -> None:
        self.items.append(item)
        self.latest.append(max(self.latest[-1], time) if self.latest else time)


class CrossingProtocol:
    """Append-only registry of protocol entries for one intersection."""

    def __init__(self, layout: IntersectionLayout):
        self.layout = layout
        self._entries: list[ProtocolEntry] = []
        self._by_id: dict[str, ProtocolEntry] = {}
        self._occupancy: dict[str, Occupancy] = {}
        self._by_lane: dict[LaneId, Filed] = {}  # see `lane_leader`, keyed on tf
        # Occupancies, keyed on t_out, and the occupancies each movement meets.
        self._by_movement = {m: Filed([], []) for m in ALL_MOVEMENTS}
        self._conflicting = {
            m: tuple(f for other, f in self._by_movement.items() if conflicts(m, other))
            for m in ALL_MOVEMENTS
        }
        self._latest_zone_entry: Optional[float] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProtocolEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[ProtocolEntry, ...]:
        return tuple(self._entries)

    def get(self, vehicle_id: str) -> ProtocolEntry:
        return self._by_id[vehicle_id]

    def register(self, entry: ProtocolEntry, occupancy: Optional[Occupancy] = None) -> None:
        """File a plan; a given `occupancy` must be its zone times as `invert` gives them."""
        if entry.vehicle_id in self._by_id:
            raise DuplicateVehicleError(
                f"vehicle {entry.vehicle_id!r} is already registered"
            )
        if entry.lane not in self.layout.allowed_lanes(entry.movement):
            raise ValueError(
                f"vehicle {entry.vehicle_id!r}: lane {entry.lane} is not admissible "
                f"for movement {entry.movement}"
            )
        if not entry.trajectory.is_monotone:
            raise ValueError(
                f"vehicle {entry.vehicle_id!r}: trajectory must move strictly forward"
            )
        if occupancy is None:
            window = self.layout.merging_window(entry.movement)
            occupancy = Occupancy(*(entry.trajectory.invert(p) for p in window))
        self._entries.append(entry)
        self._by_id[entry.vehicle_id] = entry
        self._occupancy[entry.vehicle_id] = occupancy
        traj = entry.trajectory
        leader = traj.absolute_coefficients(), traj.t0, traj.tf
        position = traj.c3, traj.c2, traj.c1, traj.c0
        self._by_lane.setdefault(entry.lane, Filed([], [])).add((entry, leader, position), traj.tf)
        self._by_movement[entry.movement].add(occupancy, occupancy.t_out)
        if self._latest_zone_entry is None or occupancy.t_in > self._latest_zone_entry:
            self._latest_zone_entry = occupancy.t_in

    @property
    def latest_zone_entry(self) -> Optional[float]:
        """Latest merging-zone entry time of any registered entry (None if empty)."""
        return self._latest_zone_entry

    def active_entries(self, t: float) -> tuple[ProtocolEntry, ...]:
        """Entries whose trajectory window contains time t."""
        return tuple(e for e in self._entries if e.t0 <= t <= e.tf)

    def predecessor_on_lane(
        self, lane: LaneId, approach: Cardinal, t: float
    ) -> Optional[ProtocolEntry]:
        """Nearest active vehicle ahead on the given approach lane at time t."""
        if self.layout.lane_approach(lane) != approach:
            raise ValueError(f"lane {lane} does not belong to approach {approach.value}")
        lead = self.lane_leader(lane, t)
        return None if lead is None else lead[0]

    def lane_leader(self, lane: LaneId, t: float) -> Optional[tuple]:
        """The filed (entry, leader, position) of the active entry at time t
        nearest the lane's start (all come from the lane's approach): `leader`
        is its cubic's absolute-time coefficients, t0 and tf, `position` its
        c3..c0.  Entries whose running maximum end time is below t are skipped."""
        filed = self._by_lane.get(lane)
        if filed is None or filed.latest[-1] < t:
            return None
        best, best_pos = None, float("inf")
        for lead in filed.items[bisect_left(filed.latest, t):]:
            _, (_, t0, tf), (c3, c2, c1, c0) = lead
            if t0 <= t <= tf:
                # `CubicTrajectory.eval`'s position; t - t0 needs no clamping here.
                tau = t - t0
                pos = ((c3 * tau + c2) * tau + c1) * tau + c0
                if pos < best_pos:
                    best, best_pos = lead, pos
        return best

    def merging_occupancy(self, entry: ProtocolEntry) -> Occupancy:
        """Merging-zone entry/exit times of a registered entry (precomputed)."""
        try:
            return self._occupancy[entry.vehicle_id]
        except KeyError:
            raise KeyError(
                f"vehicle {entry.vehicle_id!r} is not registered with this protocol"
            ) from None

    def conflicting_occupancies(self, movement: Movement, since: float) -> list[Occupancy]:
        """Merging occupancies of the entries whose movement conflicts with
        `movement` and that do not end (plus `SAFETY_SLACK`) before `since`,
        sorted by entry then exit time.  Per conflicting movement, the walk
        back from the newest occupancy stops where the running maximum exit
        time (plus slack) falls short of `since`."""
        live: list[Occupancy] = []
        for items, latest in self._conflicting[movement]:
            i = len(items)
            while i and not since > latest[i - 1] + SAFETY_SLACK:
                i -= 1
                if not since > items[i].t_out + SAFETY_SLACK:
                    live.append(items[i])
        return sorted(live)

    def to_records(self) -> list[dict]:
        """Serializable dump: one record per entry, in registration order."""
        records = []
        for entry in self._entries:
            traj = entry.trajectory
            fit = traj.inverse_cubic_fit()
            records.append(
                {
                    "vehicle_id": entry.vehicle_id,
                    "movement": {
                        "from": entry.movement.origin.value,
                        "to": entry.movement.exit.value,
                        "turn": entry.movement.turn_kind.value,
                    },
                    "t0_s": traj.t0,
                    "tf_s": traj.tf,
                    "total_distance_m": traj.s_total,
                    # position coefficients in time shifted to t0, cubic first
                    "position_coeffs": [traj.c3, traj.c2, traj.c1, traj.c0],
                    # fitted time-of-position coefficients in absolute seconds
                    "time_of_position_coeffs": [fit.c3, fit.c2, fit.c1, fit.c0],
                    "time_of_position_max_residual_s": fit.max_residual,
                    "lane_intervals": [[traj.t0, traj.tf, entry.lane]],
                }
            )
        return records
