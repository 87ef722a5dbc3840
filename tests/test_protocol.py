import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavcross import (
    ALL_MOVEMENTS,
    Cardinal,
    CrossingProtocol,
    DuplicateVehicleError,
    IntersectionLayout,
    Movement,
    generate_random_scenario,
    schedule,
    solve_boundary,
)
from cavcross.protocol import SAFETY_SLACK

import oracles

W, E, N, S = Cardinal.W, Cardinal.E, Cardinal.N, Cardinal.S


def constant_speed_entry(vehicle_id, lane, movement, v0=10.0, t0=0.0, s=275.0):
    traj = solve_boundary(v0, s, t0, t0 + s / v0)
    return oracles.make_entry(vehicle_id, traj, movement, lane)


class TestRegister:
    def test_register_into_empty(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("v1", lane, Movement(W, E)))
        assert len(protocol) == 1
        assert protocol.get("v1").vehicle_id == "v1"

    def test_duplicate_rejected(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("v1", lane, Movement(W, E)))
        with pytest.raises(DuplicateVehicleError):
            protocol.register(constant_speed_entry("v1", lane, Movement(W, E)))

    def test_six_vehicles_query_consistent(self, layout):
        protocol = CrossingProtocol(layout)
        movements = [Movement(W, E), Movement(W, E), Movement(N, S),
                     Movement(E, W), Movement(N, E), Movement(W, S)]
        for i, (movement, t0) in enumerate(zip(movements, [0.0, 2.0, 2.5, 3.5, 5.0, 6.5])):
            lane = layout.allowed_lanes(movement)[0]
            s = layout.total_distance(movement)
            protocol.register(
                constant_speed_entry(f"v{i}", lane, movement, v0=10.0, t0=t0, s=s)
            )
        assert len(protocol) == 6
        assert {e.vehicle_id for e in protocol.entries} == {f"v{i}" for i in range(6)}

    def test_wrong_lane_rejected(self, layout):
        protocol = CrossingProtocol(layout)
        right_turn = Movement(W, S)
        wrong_lane = layout.allowed_lanes(Movement(N, S))[0]
        with pytest.raises(ValueError):
            protocol.register(
                constant_speed_entry("v1", wrong_lane, right_turn, s=269.0)
            )


class TestActiveEntries:
    def test_membership_by_window(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("a", lane, Movement(W, E), t0=0.0))
        protocol.register(constant_speed_entry("b", lane, Movement(W, E), t0=5.0))
        assert protocol.active_entries(-1.0) == ()
        assert [e.vehicle_id for e in protocol.active_entries(2.0)] == ["a"]
        assert [e.vehicle_id for e in protocol.active_entries(6.0)] == ["a", "b"]
        # first vehicle exits at 27.5
        assert [e.vehicle_id for e in protocol.active_entries(28.0)] == ["b"]

    def test_exited_entries_are_retained_but_inactive(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("a", lane, Movement(W, E)))
        assert protocol.active_entries(100.0) == ()
        assert len(protocol.entries) == 1


class TestPredecessorOnLane:
    def test_empty_lane(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        assert protocol.predecessor_on_lane(lane, W, 0.0) is None

    def test_single_vehicle_ahead(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("lead", lane, Movement(W, E), t0=0.0))
        found = protocol.predecessor_on_lane(lane, W, 3.0)
        assert found is not None and found.vehicle_id == "lead"

    def test_nearest_of_two(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("far", lane, Movement(W, E), t0=0.0))
        protocol.register(constant_speed_entry("near", lane, Movement(W, E), t0=3.0))
        found = protocol.predecessor_on_lane(lane, W, 5.0)
        assert found is not None and found.vehicle_id == "near"

    def test_other_approach_ignored(self, layout):
        protocol = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(Movement(N, S))[0]
        protocol.register(constant_speed_entry("cross", lane_ns, Movement(N, S)))
        lane_we = layout.allowed_lanes(Movement(W, E))[0]
        assert protocol.predecessor_on_lane(lane_we, W, 1.0) is None

    def test_lane_approach_mismatch_raises(self, layout):
        protocol = CrossingProtocol(layout)
        lane_we = layout.allowed_lanes(Movement(W, E))[0]
        with pytest.raises(ValueError):
            protocol.predecessor_on_lane(lane_we, N, 0.0)

    def test_slow_early_vehicle_keeps_later_ones_in_the_scan(self, layout):
        # "slow" ends last, so every later entry's running maximum end time
        # is its 68.75 s, not the entry's own end: none of them is skipped
        # while "slow" is active.  The nearest vehicle ahead of an arrival
        # is the one nearest the control-zone entry.
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("slow", lane, Movement(W, E), v0=4.0, t0=0.0))
        protocol.register(constant_speed_entry("fast", lane, Movement(W, E), v0=16.0, t0=5.0))
        protocol.register(constant_speed_entry("late", lane, Movement(W, E), v0=10.0, t0=30.0))
        for t, expected in [(-1.0, None), (6.0, "fast"), (10.0, "slow"), (35.0, "late"),
                            (60.0, "slow"), (68.75, "slow"), (69.0, None)]:
            found = protocol.predecessor_on_lane(lane, W, t)
            assert (found and found.vehicle_id) == expected, t
            assert found is oracles.predecessor_scan(protocol, lane, W, t)

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 2),
        queries=st.lists(st.floats(-50.0, 400.0), max_size=10),
    )
    def test_matches_full_scan(self, seed, n_vehicles, mean_gap, lanes, queries):
        """The indexed query finds the entry a scan of every entry finds:
        before the first arrival, exactly at each entry's t0 and tf, long
        after every exit, and at drawn times, queried out of time order."""
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=mean_gap,
        )
        layout = scenario.layout
        protocol = oracles.admitted_protocol(scenario)
        edges = [t for e in protocol for t in (e.t0, e.tf)]
        times = [*queries, -1e3, *reversed(edges), *edges, 1e4]
        for lane in range(1, layout.lane_count + 1):
            approach = layout.lane_approach(lane)
            for t in times:
                found = protocol.predecessor_on_lane(lane, approach, t)
                assert found is oracles.predecessor_scan(protocol, lane, approach, t)


class TestMergingOccupancy:
    def test_constant_speed_window(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("a", lane, Movement(W, E)))
        occ = protocol.merging_occupancy(protocol.get("a"))
        assert occ.t_in == pytest.approx(12.5, abs=1e-9)
        assert occ.t_out == pytest.approx(15.0, abs=1e-9)

    def test_ordering_and_containment(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        traj = solve_boundary(10.0, 275.0, 1.0, 23.0)
        protocol.register(oracles.make_entry("a", traj, Movement(W, E), lane))
        occ = protocol.merging_occupancy(protocol.get("a"))
        assert traj.t0 < occ.t_in < occ.t_out < traj.tf

    def test_right_turn_window_by_inversion(self, layout):
        movement = Movement(W, S)
        lane = layout.allowed_lanes(movement)[0]
        s = layout.total_distance(movement)
        protocol = CrossingProtocol(layout)
        traj = solve_boundary(10.0, s, 0.0, 24.0)
        protocol.register(oracles.make_entry("a", traj, movement, lane))
        occ = protocol.merging_occupancy(protocol.get("a"))
        window = layout.merging_window(movement)
        assert traj.eval(occ.t_in).position == pytest.approx(window.entry, abs=1e-7)
        assert traj.eval(occ.t_out).position == pytest.approx(window.exit, abs=1e-7)
        assert window.exit - window.entry == pytest.approx(math.pi * 6.25)

    def test_unregistered_entry_rejected(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        entry = constant_speed_entry("ghost", lane, Movement(W, E))
        with pytest.raises(KeyError):
            protocol.merging_occupancy(entry)


class TestConflictingOccupancies:
    def test_crossing_entries_sorted_and_same_approach_excluded(self, layout):
        protocol = CrossingProtocol(layout)
        lane_we = layout.allowed_lanes(Movement(W, E))[0]
        lane_ns = layout.allowed_lanes(Movement(N, S))[0]
        protocol.register(constant_speed_entry("late_we", lane_we, Movement(W, E), t0=6.0))
        protocol.register(constant_speed_entry("ns", lane_ns, Movement(N, S), t0=3.0))
        protocol.register(constant_speed_entry("early_we", lane_we, Movement(W, E), t0=0.0))
        occ = {e.vehicle_id: protocol.merging_occupancy(e) for e in protocol}
        assert protocol.conflicting_occupancies(Movement(N, S), -math.inf) == [
            occ["early_we"],
            occ["late_we"],
        ]
        assert protocol.conflicting_occupancies(Movement(W, E), -math.inf) == [occ["ns"]]
        assert CrossingProtocol(layout).conflicting_occupancies(Movement(W, E), -math.inf) == []
        # An occupancy that ends (plus slack) before `since` is left out.
        since = occ["early_we"].t_out + 1.0
        assert protocol.conflicting_occupancies(Movement(N, S), since) == [occ["late_we"]]

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_index_equals_full_scan(self, lanes, seed):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=30,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=2.5,
        )
        protocol, _ = schedule(scenario)
        assert len(protocol) == 30
        for movement in ALL_MOVEMENTS:
            assert protocol.conflicting_occupancies(
                movement, -math.inf
            ) == oracles.conflicting_occupancies_scan(protocol, movement)

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 3),
        drawn=st.lists(st.floats(-20.0, 250.0), max_size=6),
    )
    def test_live_query_equals_filtered_scan(self, seed, n_vehicles, mean_gap, lanes, drawn):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=mean_gap,
        )
        protocol = oracles.admitted_protocol(scenario)
        edges = []
        for entry in protocol:
            t_out = protocol.merging_occupancy(entry).t_out
            edge = t_out + SAFETY_SLACK
            edges += [t_out - SAFETY_SLACK, t_out, edge, math.nextafter(edge, math.inf)]
        for movement in ALL_MOVEMENTS:
            scan = oracles.conflicting_occupancies_scan(protocol, movement)
            for since in (-math.inf, *drawn, *edges):
                assert protocol.conflicting_occupancies(movement, since) == [
                    occ for occ in scan if not since > occ.t_out + SAFETY_SLACK
                ]


class TestLatestZoneEntry:
    def test_empty_protocol(self, layout):
        assert CrossingProtocol(layout).latest_zone_entry is None

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_running_maximum_over_entries(self, lanes):
        scenario = generate_random_scenario(
            seed=3, n_vehicles=25, layout=IntersectionLayout(lanes_per_approach=lanes)
        )
        full, _ = schedule(scenario)
        protocol = CrossingProtocol(scenario.layout)
        for entry in full:
            protocol.register(entry)
            expected = max(protocol.merging_occupancy(e).t_in for e in protocol)
            assert protocol.latest_zone_entry == expected

    def test_later_registration_with_earlier_entry_keeps_maximum(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        protocol.register(constant_speed_entry("late", lane, Movement(W, E), t0=6.0))
        late = protocol.merging_occupancy(protocol.get("late")).t_in
        lane_ns = layout.allowed_lanes(Movement(N, S))[0]
        protocol.register(constant_speed_entry("early", lane_ns, Movement(N, S), t0=1.0))
        assert protocol.latest_zone_entry == late


class TestSerialization:
    def test_records_round_trip_fields(self, layout):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(Movement(W, E))[0]
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        protocol.register(oracles.make_entry("a", traj, Movement(W, E), lane))
        (record,) = protocol.to_records()
        assert record["vehicle_id"] == "a"
        assert record["movement"] == {"from": "W", "to": "E", "turn": "straight"}
        assert record["position_coeffs"] == [traj.c3, traj.c2, traj.c1, traj.c0]
        assert record["t0_s"] == 0.0 and record["tf_s"] == 25.0
        assert record["lane_intervals"] == [[0.0, 25.0, lane]]
        assert record["time_of_position_max_residual_s"] >= 0.0

