import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from cavcross import (
    ALL_MOVEMENTS,
    Arrival,
    BindingConstraint,
    Cardinal,
    CrossingProtocol,
    CubicTrajectory,
    IntersectionLayout,
    Movement,
    Occupancy,
    PlanningError,
    Policy,
    ProtocolEntry,
    SimulationError,
    VehicleParams,
    generate_random_scenario,
    lateral_separation,
    load_scenario,
    min_feasible_tf,
    feasible_tf,
    parse_scenario_dict,
    plan,
    rear_end_margin,
    scenario_to_dict,
    schedule,
    solve_boundary,
)
from cavcross import planner, trajectory
from cavcross.planner import SAFETY_SLACK, _make_context

import oracles
from conftest import REFERENCE_SCENARIO

W, E, N, S = Cardinal.W, Cardinal.E, Cardinal.N, Cardinal.S
WE = Movement(W, E)
NS = Movement(N, S)


def request(vid="x", movement=WE, t0=0.0, v0=10.0, params=None):
    return Arrival(vid, t0, movement, v0, params or VehicleParams())


class TestRearEnd:
    def test_constant_speed_threshold(self, layout, params):
        # Identical constant-speed profiles offset by an entry-time gap h:
        # the distance gap is v*h, so safety needs v*h >= gap + headway*v,
        # i.e. h >= 1.15 s at v=10, gap 1.5 m, headway 1.0 s.
        lane = layout.allowed_lanes(WE)[0]
        v = 10.0
        threshold = (params.standstill_gap + params.headway * v) / v
        assert threshold == pytest.approx(1.15)
        leader = oracles.make_entry(
            "lead", solve_boundary(v, 275.0, 0.0, 27.5), WE, lane
        )
        for h, expect in [(1.3, True), (1.16, True), (1.15, True), (1.10, False), (0.5, False)]:
            follower = solve_boundary(v, 275.0, h, h + 27.5)
            assert (rear_end_margin(follower, leader, params) >= 0.0) is expect, h

    def test_no_temporal_overlap_vacuous(self, layout, params):
        lane = layout.allowed_lanes(WE)[0]
        leader = oracles.make_entry("lead", solve_boundary(10.0, 275.0, 0.0, 27.5), WE, lane)
        follower = solve_boundary(10.0, 275.0, 30.0, 57.5)
        assert rear_end_margin(follower, leader, params) == math.inf

    def test_pass_through_detected(self, layout, params):
        # Fast follower planned through a slow leader's position.
        lane = layout.allowed_lanes(WE)[0]
        leader = oracles.make_entry("lead", solve_boundary(6.0, 275.0, 0.0, 275 / 6), WE, lane)
        follower = solve_boundary(16.0, 275.0, 1.0, 1.0 + 275 / 16)
        assert rear_end_margin(follower, leader, params) < 0.0

    def test_analytic_minimum_matches_dense_sampling(self, layout, params):
        rng = np.random.default_rng(21)
        lane = layout.allowed_lanes(WE)[0]
        for _ in range(200):
            v_lead = rng.uniform(4.0, 16.0)
            v_follow = rng.uniform(4.0, 16.0)
            T_lead = 275.0 / rng.uniform(0.6 * v_lead, 1.4 * v_lead)
            T_follow = 275.0 / rng.uniform(0.6 * v_follow, 1.4 * v_follow)
            h = rng.uniform(0.0, 4.0)
            lead_traj = solve_boundary(v_lead, 275.0, 0.0, T_lead)
            follow_traj = solve_boundary(v_follow, 275.0, h, h + T_follow)
            if not (lead_traj.is_monotone and follow_traj.is_monotone):
                continue
            leader = oracles.make_entry("lead", lead_traj, WE, lane)
            analytic = rear_end_margin(follow_traj, leader, params)
            dense = oracles.dense_rear_end_min(follow_traj, lead_traj, params)
            assert analytic == pytest.approx(dense, abs=1e-6)
            # The dense sample can never find a smaller margin than the
            # true minimum.
            assert dense >= analytic - 1e-12

    def test_dense_oracle_equals_per_sample_eval(self, params):
        # The vectorized oracle must reproduce, bit for bit, sampling through
        # CubicTrajectory.eval at the same instants.
        rng = np.random.default_rng(5)
        dt = 0.05
        for _ in range(20):
            lead = solve_boundary(rng.uniform(6.0, 14.0), 275.0, 0.0, rng.uniform(22.0, 40.0))
            h = rng.uniform(0.0, 3.0)
            follow = solve_boundary(rng.uniform(6.0, 14.0), 275.0, h, h + rng.uniform(22.0, 40.0))
            lo, hi = max(follow.t0, lead.t0), min(follow.tf, lead.tf)
            n = int(math.floor((hi - lo) / dt))
            times = np.append(lo + np.arange(0.0, n + 1) * dt, hi)
            looped = min(
                params.reaction_gain * (lead.eval(float(t)).position - follow.eval(float(t)).position)
                - params.safe_distance(follow.eval(float(t)).speed)
                for t in times[times <= hi + 1e-12]
            )
            assert oracles.dense_rear_end_min(follow, lead, params, dt=dt) == looped


class TestLateral:
    """`lateral_separation` against a buffer: two occupancies are disjoint,
    with the candidate's inflated by the buffer on both sides, exactly when
    it exceeds the buffer."""

    def test_disjoint(self):
        assert lateral_separation((12.5, 15.0), (16.0, 18.5)) > 0.0

    def test_overlap(self):
        assert not lateral_separation((12.5, 15.0), (14.0, 16.0)) > 0.0

    def test_touching_counts_as_overlap(self):
        assert not lateral_separation((12.5, 15.0), (15.0, 16.0)) > 0.0

    def test_buffer_shrinks_schedule_by_two_buffers(self):
        # Buffer rho=1.0 inflates the candidate by 1 s on each side.
        assert lateral_separation((12.5, 15.0), (16.5, 18.0)) > 1.0
        assert not lateral_separation((12.5, 15.0), (15.9, 18.0)) > 1.0
        assert lateral_separation((17.0, 19.0), (12.0, 15.9)) > 1.0
        assert not lateral_separation((17.0, 19.0), (12.0, 16.1)) > 1.0


class TestMinFeasibleTf:
    def test_lone_vehicle_at_speed_cap(self, layout, params):
        protocol = CrossingProtocol(layout)
        req = request(v0=18.0)
        lane = layout.allowed_lanes(WE)[0]
        tf = min_feasible_tf(req, lane, protocol, layout)
        assert tf == pytest.approx(275.0 / 18.0, abs=1e-3)

    def test_lone_vehicle_matches_grid_oracle(self, layout, params):
        protocol = CrossingProtocol(layout)
        req = request(v0=10.0)
        lane = layout.allowed_lanes(WE)[0]
        tf = min_feasible_tf(req, lane, protocol, layout)
        oracle = oracles.grid_min_tf(req, lane, protocol, layout)
        assert tf == pytest.approx(oracle, abs=1e-3)

    def test_conflicting_occupancy_respected(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(NS)[0]
        blocker = oracles.make_entry(
            "blocker", solve_boundary(10.0, 275.0, 0.0, 27.5), NS, lane_ns
        )
        protocol.register(blocker)
        occ = protocol.merging_occupancy(blocker)  # (12.5, 15.0)
        req = request(v0=10.0, t0=2.0)
        lane = layout.allowed_lanes(WE)[0]
        tf = min_feasible_tf(req, lane, protocol, layout)
        traj = solve_boundary(req.v0, 275.0, req.time, tf)
        t_in = traj.invert(125.0)
        t_out = traj.invert(150.0)
        assert t_out <= occ.t_in or t_in >= occ.t_out

    def test_inadmissible_lane_rejected(self, layout):
        protocol = CrossingProtocol(layout)
        req = request(movement=Movement(W, S))
        lane_ns = layout.allowed_lanes(NS)[0]
        with pytest.raises(ValueError):
            min_feasible_tf(req, lane_ns, protocol, layout)

    def test_horizon_exhaustion_returns_none(self, layout, params):
        # Wall of conflicting occupancies denser than the vehicle can wait
        # out: arriving at t=10 its earliest zone entry (~20.2 s) falls
        # inside the wall, and it cannot dawdle past the wall's end.
        protocol = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(NS)[0]
        for i in range(14):
            t0 = i * 2.4
            blocker = solve_boundary(10.0, 275.0, t0, t0 + 27.5)
            protocol.register(oracles.make_entry(f"b{i}", blocker, NS, lane_ns))
        req = request(v0=10.0, t0=10.0)
        lane = layout.allowed_lanes(WE)[0]
        assert min_feasible_tf(req, lane, protocol, layout, horizon_cap=25.0) is None


class TestPlannerMinimalityRandomized:
    def test_single_vehicle_instances(self, layout):
        rng = np.random.default_rng(31)
        params = VehicleParams()
        for i in range(20):
            v0 = rng.uniform(2.0, 18.0)
            movement = [WE, NS, Movement(W, S), Movement(N, E)][i % 4]
            protocol = CrossingProtocol(layout)
            req = request(f"r{i}", movement, 0.0, v0, params)
            lane = layout.allowed_lanes(movement)[0]
            tf = min_feasible_tf(req, lane, protocol, layout)
            oracle = oracles.grid_min_tf(req, lane, protocol, layout)
            assert tf == pytest.approx(oracle, abs=1e-3), (v0, str(movement))

    def test_small_layout_instances(self):
        # A short approach at high speed puts the deceleration limit in
        # play (the bounds-feasible horizon set can even have a hole); the
        # scan must still agree with the grid oracle there.
        layout = IntersectionLayout(control_zone_length=20.0, merging_zone_side=8.0)
        params = VehicleParams()
        rng = np.random.default_rng(99)
        for i in range(24):
            v_first = float(rng.uniform(4.0, 17.5))
            v_second = float(rng.uniform(4.0, 17.5))
            gap = float(rng.uniform(0.5, 4.0))
            first_mv, second_mv = [(WE, NS), (WE, WE), (NS, WE)][i % 3]
            protocol = CrossingProtocol(layout)
            lane_first = layout.allowed_lanes(first_mv)[0]
            tf1 = min_feasible_tf(
                request("f", first_mv, 0.0, v_first, params), lane_first, protocol, layout
            )
            if tf1 is None:
                continue
            traj1 = solve_boundary(v_first, layout.total_distance(first_mv), 0.0, tf1)
            protocol.register(oracles.make_entry("f", traj1, first_mv, lane_first))
            req = request("s", second_mv, gap, v_second, params)
            lane2 = layout.allowed_lanes(second_mv)[0]
            got = min_feasible_tf(req, lane2, protocol, layout)
            want = oracles.grid_min_tf(req, lane2, protocol, layout)
            if got is None or want is None:
                assert got == want, (i, got, want)
            else:
                assert abs(got - want) <= 1e-3, (i, v_first, v_second, gap)

    def test_two_vehicle_instances(self, layout):
        rng = np.random.default_rng(32)
        params = VehicleParams()
        pairs = [(WE, NS), (WE, Movement(E, S)), (NS, Movement(W, E)), (WE, WE)]
        for i in range(20):
            first_mv, second_mv = pairs[i % 4]
            v_first = rng.uniform(6.0, 14.0)
            v_second = rng.uniform(6.0, 14.0)
            gap = rng.uniform(1.6, 6.0)
            protocol = CrossingProtocol(layout)
            lane_first = layout.allowed_lanes(first_mv)[0]
            first_req = request("first", first_mv, 0.0, v_first, params)
            first_tf = min_feasible_tf(first_req, lane_first, protocol, layout)
            first_traj = solve_boundary(v_first, layout.total_distance(first_mv), 0.0, first_tf)
            protocol.register(oracles.make_entry("first", first_traj, first_mv, lane_first))

            second_req = request("second", second_mv, gap, v_second, params)
            lane_second = layout.allowed_lanes(second_mv)[0]
            tf = min_feasible_tf(second_req, lane_second, protocol, layout)
            oracle = oracles.grid_min_tf(second_req, lane_second, protocol, layout)
            if tf is None or oracle is None:
                assert tf == oracle
                continue
            assert tf == pytest.approx(oracle, abs=1e-3), (i, v_first, v_second, gap)


class TestPlan:
    def test_single_lane_equals_min_feasible(self, layout, params):
        protocol = CrossingProtocol(layout)
        req = request(v0=10.0)
        result = plan(req, protocol, layout)
        lane = layout.allowed_lanes(WE)[0]
        protocol2 = CrossingProtocol(layout)
        assert result.lane == lane
        assert result.tf == min_feasible_tf(req, lane, protocol2, layout)
        assert result.binding_constraint is BindingConstraint.BOUNDS

    def test_blocked_lane_avoided(self, params):
        layout = IntersectionLayout(lanes_per_approach=2)
        lanes = layout.lanes_for_approach(W)
        protocol = CrossingProtocol(layout)
        # Crawling leader on the left lane.
        slow = solve_boundary(2.4, 275.0, 0.0, 275.0 / 2.4)
        protocol.register(oracles.make_entry("slow", slow, WE, lanes[0]))
        result = plan(request(v0=12.0, t0=1.0), protocol, layout)
        assert result.lane == lanes[1]

    def test_equal_lanes_tie_break_lowest(self, params):
        layout = IntersectionLayout(lanes_per_approach=2)
        protocol = CrossingProtocol(layout)
        result = plan(request(v0=12.0), protocol, layout)
        assert result.lane == layout.lanes_for_approach(W)[0]

    def test_result_trajectory_strictly_inside_bounds(self, layout, params):
        protocol = CrossingProtocol(layout)
        result = plan(request(v0=10.0), protocol, layout)
        report = result.trajectory.extrema
        assert report.min_speed > params.v_min
        assert report.max_speed < params.v_max
        assert report.min_accel > params.u_min
        assert report.max_accel < params.u_max

    def test_randomized_plans_never_activate_bounds(self, layout, params):
        # Arrival speeds strictly inside the limits: every planned extremum
        # must then stay strictly inside too, traffic or no traffic.
        rng = np.random.default_rng(51)
        movements = [WE, NS, Movement(E, W), Movement(W, S), Movement(N, E)]
        protocol = CrossingProtocol(layout)
        t0 = 0.0
        last_by_approach: dict = {}
        for k in range(12):
            movement = movements[int(rng.integers(0, len(movements)))]
            v0 = float(rng.uniform(6.0, 13.0))
            spacing = 1.3 * params.safe_distance(v0) / params.v_min
            t0 = max(t0 + float(rng.uniform(0.4, 2.0)),
                     last_by_approach.get(movement.origin, -1e9) + spacing)
            last_by_approach[movement.origin] = t0
            result = plan(request(f"v{k}", movement, t0, v0, params), protocol, layout)
            report = result.trajectory.extrema
            assert report.min_speed > params.v_min
            assert report.max_speed < params.v_max
            assert report.min_accel > params.u_min
            assert report.max_accel < params.u_max
            protocol.register(
                oracles.make_entry(f"v{k}", result.trajectory, movement, result.lane)
            )

    def test_planning_error_lists_lanes(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(NS)[0]
        for i in range(14):
            t0 = i * 2.4
            blocker = solve_boundary(10.0, 275.0, t0, t0 + 27.5)
            protocol.register(oracles.make_entry(f"b{i}", blocker, NS, lane_ns))
        with pytest.raises(PlanningError) as info:
            plan(request(v0=10.0, t0=10.0), protocol, layout, horizon_cap=25.0)
        assert "lateral" in str(info.value)

    def test_binding_constraint_rear_end(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        slow = solve_boundary(8.0, 275.0, 0.0, 32.0)
        protocol.register(oracles.make_entry("slow", slow, WE, lane))
        result = plan(request(v0=10.0, t0=3.0), protocol, layout)
        assert result.binding_constraint is BindingConstraint.REAR_END
        assert result.tf > 3.0 + 17.94  # pushed past the lone-vehicle optimum

    def test_binding_constraint_lateral(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(NS)[0]
        blocker = solve_boundary(10.0, 275.0, 0.0, 27.5)
        protocol.register(oracles.make_entry("blocker", blocker, NS, lane_ns))
        result = plan(request(v0=10.0, t0=2.0), protocol, layout)
        assert result.binding_constraint is BindingConstraint.LATERAL

    def test_safety_closure_after_registration(self, layout, params):
        # After planning and registering a chain of vehicles, every ordered
        # same-lane pair and every conflicting pair must re-check clean.
        protocol = CrossingProtocol(layout)
        scenario = [
            ("a", WE, 0.0, 10.0),
            ("b", WE, 1.9, 11.0),
            ("c", NS, 2.4, 9.0),
            ("d", WE, 4.1, 12.0),
            ("e", Movement(E, S), 5.0, 10.0),
        ]
        for vid, movement, t0, v0 in scenario:
            req = request(vid, movement, t0, v0, params)
            result = plan(req, protocol, layout)
            protocol.register(
                oracles.make_entry(vid, result.trajectory, movement, result.lane)
            )
        entries = protocol.entries
        for i, follower in enumerate(entries):
            for leader in entries[:i]:
                if (
                    leader.movement.origin == follower.movement.origin
                    and leader.lane == follower.lane
                ):
                    assert rear_end_margin(follower.trajectory, leader, params) >= 0.0
        from cavcross import conflicts

        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                if conflicts(a.movement, b.movement):
                    sep = lateral_separation(
                        protocol.merging_occupancy(a), protocol.merging_occupancy(b)
                    )
                    assert sep >= 0.0

    def test_monotone_congestion(self, layout, params):
        # An extra conflicting entry never lets a later vehicle exit sooner.
        base = CrossingProtocol(layout)
        lane_ns = layout.allowed_lanes(NS)[0]
        first = solve_boundary(10.0, 275.0, 0.0, 27.5)
        base.register(oracles.make_entry("b1", first, NS, lane_ns))
        req = request(v0=10.0, t0=1.0)
        tf_one = plan(req, base, layout).tf

        base.register(
            oracles.make_entry("b2", solve_boundary(10.0, 275.0, 2.6, 30.1), NS, lane_ns)
        )
        tf_two = plan(req, base, layout).tf
        assert tf_two >= tf_one - 1e-12


class TestFifoPlan:
    def test_empty_protocol_identical_to_plan(self, layout, params):
        req = request(v0=10.0)
        a = plan(req, CrossingProtocol(layout), layout)
        b = plan(req, CrossingProtocol(layout), layout, policy=Policy.FIFO)
        assert a.tf == b.tf and a.lane == b.lane

    def test_fifo_never_faster(self, layout, params):
        rng = np.random.default_rng(41)
        movements = [WE, NS, Movement(E, W), Movement(W, S), Movement(N, E)]
        for trial in range(25):
            n = int(rng.integers(2, 5))
            opt_protocol = CrossingProtocol(layout)
            fifo_protocol = CrossingProtocol(layout)
            t0 = 0.0
            last_by_approach: dict = {}
            for k in range(n):
                movement = movements[int(rng.integers(0, len(movements)))]
                v0 = float(rng.uniform(7.0, 13.0))
                gap_needed = 1.3 * (1.5 + v0) / 2.0
                earliest = max(t0, last_by_approach.get(movement.origin, -1e9) + gap_needed)
                t0 = earliest + float(rng.uniform(0.3, 2.5))
                last_by_approach[movement.origin] = t0
                req = request(f"t{trial}v{k}", movement, t0, v0, params)
                opt = plan(req, opt_protocol, layout)
                fifo = plan(req, fifo_protocol, layout, policy=Policy.FIFO)
                assert fifo.tf >= opt.tf - 1e-9, (trial, k)
                opt_protocol.register(
                    oracles.make_entry(req.vehicle_id, opt.trajectory, movement, opt.lane)
                )
                fifo_protocol.register(
                    oracles.make_entry(req.vehicle_id, fifo.trajectory, movement, fifo.lane)
                )

    def test_fifo_preserves_zone_entry_order(self, layout, params):
        protocol = CrossingProtocol(layout)
        # Earlier-registered vehicle from N reaches the zone at 13.7 s; a
        # later W arrival that could cross by 11.6 s must wait under FIFO.
        lead = solve_boundary(10.0, 275.0, 1.2, 28.7)
        lane_ns = layout.allowed_lanes(NS)[0]
        protocol.register(oracles.make_entry("lead", lead, NS, lane_ns))
        lead_occ = protocol.merging_occupancy(protocol.get("lead"))

        req = request(v0=10.0, t0=1.0)
        result = plan(req, protocol, layout, policy=Policy.FIFO)
        t_in = result.trajectory.invert(125.0)
        assert t_in >= lead_occ.t_in - 1e-9
        assert plan(req, protocol, layout, policy="fifo") == result
        # The optimal policy crosses first instead.
        opt = plan(req, protocol, layout)
        assert opt.trajectory.invert(125.0) < lead_occ.t_in
        assert opt.tf < result.tf


# How far `plan`'s exit times may lie from the original search's: twice the
# 1e-9 s resolution of that search's final bisection.
EXIT_TIME_TOLERANCE = 2e-9


def _assert_same_decision(got, expected, req, layout) -> None:
    """`got` has the binding constraint and lane outcomes of `expected`,
    with every exit time within EXIT_TIME_TOLERANCE, picks its lane by its
    own outcomes, and its trajectory is the boundary cubic of its exit time.

    It picks the lane `expected` picks, unless the original search's exit
    times of the two lanes lie within EXIT_TIME_TOLERANCE: lanes held by
    the same occupancy get equal exit times from `plan`, so the lowest index
    wins, while the original search's bisections tell them apart by less
    than their resolution.
    """
    assert got.binding_constraint is expected.binding_constraint
    assert [o.lane for o in got.lanes] == [o.lane for o in expected.lanes]
    for outcome, reference in zip(got.lanes, expected.lanes):
        assert outcome.binding_constraint is reference.binding_constraint, outcome.lane
        assert (outcome.tf is None) == (reference.tf is None), outcome.lane
        if outcome.tf is not None:
            assert abs(outcome.tf - reference.tf) <= EXIT_TIME_TOLERANCE, outcome.lane
    assert (got.tf, got.lane) == min((o.tf, o.lane) for o in got.lanes if o.tf is not None)
    tied = [
        o.lane for o in expected.lanes
        if o.tf is not None and o.tf - expected.tf <= EXIT_TIME_TOLERANCE
    ]
    assert got.lane in tied
    s_total = layout.total_distance(req.movement)
    assert got.trajectory == solve_boundary(req.v0, s_total, req.time, got.tf)


def _assert_same_plan(got, expected, req, layout) -> None:
    assert repr(got) == repr(expected)


def _plan_stream_against_reference(
    scenario, reference=oracles.plan_reference, assert_same=_assert_same_decision
) -> int:
    """Plan a scenario's arrivals with `plan` and with a reference search,
    by default the original one.

    Each vehicle must get the same decision (`assert_same`) or an equal
    PlanningError; the reference's plan is registered, and a vehicle
    neither planner admits is left out.  Returns the number of vehicles not
    admitted.
    """
    layout = scenario.layout
    protocol = CrossingProtocol(layout)
    options = dict(
        policy=scenario.policy,
        lateral_buffer=scenario.lateral_buffer,
        horizon_cap=scenario.horizon_cap,
    )
    refused = 0
    for arrival in scenario.arrivals:
        try:
            expected = reference(arrival, protocol, layout, **options)
        except PlanningError as exc:
            with pytest.raises(PlanningError) as info:
                plan(arrival, protocol, layout, **options)
            assert info.value.vehicle_id == exc.vehicle_id
            assert info.value.lane_failures == exc.lane_failures
            refused += 1
            continue
        assert_same(plan(arrival, protocol, layout, **options), expected, arrival, layout)
        protocol.register(
            ProtocolEntry(arrival.vehicle_id, expected.trajectory, expected.lane, arrival.movement)
        )
    return refused


class TestPlanMatchesReferenceSearch:
    """`plan` decides as the original full-scan search
    (`oracles.plan_reference`): same lane, binding constraint and lane
    outcomes, exit times within EXIT_TIME_TOLERANCE, or the same
    PlanningError."""

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 3),
        lateral_buffer=st.floats(0.0, 1.0),
        policy=st.sampled_from(list(Policy)),
    )
    # The last vehicle of each is held on two lanes by one occupancy: `plan`
    # ties the lanes and picks the lower, the original search the upper.
    @example(
        seed=8223, n_vehicles=21, mean_gap=2.0063283498282383, lanes=2,
        lateral_buffer=0.8318419998067315, policy=Policy.FIFO,
    )
    @example(
        seed=5800, n_vehicles=18, mean_gap=1.57198543147687, lanes=3,
        lateral_buffer=0.5781271541587845, policy=Policy.FIFO,
    )
    def test_generated_streams(self, seed, n_vehicles, mean_gap, lanes, lateral_buffer, policy):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            policy=policy,
            mean_gap=mean_gap,
            lateral_buffer=lateral_buffer,
        )
        _plan_stream_against_reference(scenario)

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize(
        "seed, n_vehicles, mean_gap", [(3, 80, 2.0), (4, 150, 3.0)]
    )
    def test_overloaded_streams(self, seed, n_vehicles, mean_gap, policy):
        scenario = generate_random_scenario(
            seed=seed, n_vehicles=n_vehicles, mean_gap=mean_gap, policy=policy
        )
        assert _plan_stream_against_reference(scenario) > 0


class TestPlanMatchesScanSearch:
    """`plan` makes every decision of the search that probes each point of
    its 1 ms scan (`oracles.plan_scan`) bit for bit: the same `PlanResult`
    by `repr`, lane outcomes included, or the same PlanningError."""

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 3),
        lateral_buffer=st.floats(0.0, 1.0),
        policy=st.sampled_from(list(Policy)),
    )
    def test_generated_streams(self, seed, n_vehicles, mean_gap, lanes, lateral_buffer, policy):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            policy=policy,
            mean_gap=mean_gap,
            lateral_buffer=lateral_buffer,
        )
        _plan_stream_against_reference(scenario, oracles.plan_scan, _assert_same_plan)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_dense_stream(self, policy):
        # The `dense_plan` benchmark's stream: the plain scan steps 2,110
        # times per policy through veh57's rear-end rejections.
        scenario = generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0, policy=policy)
        assert _plan_stream_against_reference(scenario, oracles.plan_scan, _assert_same_plan) == 0

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize(
        "seed, n_vehicles, mean_gap", [(3, 80, 2.0), (4, 150, 3.0)]
    )
    def test_overloaded_streams(self, seed, n_vehicles, mean_gap, policy):
        scenario = generate_random_scenario(
            seed=seed, n_vehicles=n_vehicles, mean_gap=mean_gap, policy=policy
        )
        assert _plan_stream_against_reference(scenario, oracles.plan_scan, _assert_same_plan) > 0


@st.composite
def rear_end_rejections(draw):
    """A leader and a follower on one approach, any two of its movements
    (N->W behind N->S among them), the follower arriving up to 8 s later,
    and a follower horizon of up to 3*s/v0."""
    layout = IntersectionLayout()
    params = VehicleParams()
    origin = draw(st.sampled_from(list(Cardinal)))
    same_approach = [m for m in ALL_MOVEMENTS if m.origin == origin]
    speeds = st.floats(params.v_min, params.v_max)
    lead_movement = draw(st.sampled_from(same_approach))
    movement = draw(st.sampled_from(same_approach))
    lead_t0, lead_v0 = draw(st.floats(0.0, 3600.0)), draw(speeds)
    lead_s = layout.total_distance(lead_movement)
    lead_tf = lead_t0 + draw(st.floats(0.6, 2.5)) * lead_s / lead_v0
    leader = oracles.make_entry(
        "leader", solve_boundary(lead_v0, lead_s, lead_t0, lead_tf), lead_movement,
        layout.allowed_lanes(lead_movement)[0],
    )
    t0, v0 = lead_t0 + draw(st.floats(0.0, 8.0)), draw(speeds)
    s_total = layout.total_distance(movement)
    # The margin rises fastest after short horizons: draw them half the time.
    T = draw(st.one_of(st.floats(0.05, 0.4), st.floats(0.05, 3.0))) * s_total / v0
    return leader, t0, v0, s_total, T, params


class TestRearEndReach:
    """From a horizon T that the rear-end margin rejects, every horizon up
    to the reach that `planner._rear_end_reach` gives (50 of them, both ends
    included) keeps the margin, computed by
    `oracles.rear_end_margin_reference`, below SAFETY_SLACK."""

    @staticmethod
    def margin(leader, t0, v0, s_total, T, params):
        traj = oracles.solve_boundary_reference(v0, s_total, t0, t0 + T)
        return oracles.rear_end_margin_reference(traj, leader, params)

    @settings(max_examples=300)
    @given(rejection=rear_end_rejections())
    def test_drawn_rejections(self, rejection):
        leader, t0, v0, s_total, T, params = rejection
        margin = self.margin(*rejection)
        assume(margin < SAFETY_SLACK)
        reach = T + planner._rear_end_reach(v0, s_total, T, margin, params)
        worst = max(
            self.margin(leader, t0, v0, s_total, float(horizon), params)
            for horizon in np.linspace(T, reach, 50)
        )
        # Steer the search toward the reach the bound leaves least room in.
        target((worst - margin) / (SAFETY_SLACK - margin))
        assert worst < SAFETY_SLACK


class TestRearEndSlopeBounds:
    """The slope bounds `planner._rear_end_reach` rests on: at a fixed
    tau = x*T, x in [0, 1], central differences in T of the boundary cubic
    (`oracles.solve_boundary_reference`) stay within
    |dp/dT| <= 0.5*v0 + 1.5*s/T and |dv/dT| <= (0.75*v0 + 2*s/T)/T, and the
    reach is half the headroom over xi*(first) + rho*(second)."""

    @settings(max_examples=500)
    @given(
        v0=st.floats(0.5, 30.0),
        s_total=st.floats(1.0, 400.0),
        ratio=st.floats(0.05, 3.0),
        x=st.floats(0.0, 1.0),
        xi=st.floats(0.1, 2.0),
        rho=st.floats(0.1, 3.0),
    )
    def test_finite_differences(self, v0, s_total, ratio, x, xi, rho):
        T = ratio * s_total / v0
        tau, h = x * T, 1e-5 * T

        def position_speed(horizon):
            traj = oracles.solve_boundary_reference(v0, s_total, 0.0, horizon)
            c3, c2 = traj.c3, traj.c2
            return ((c3 * tau + c2) * tau + v0) * tau, (3.0 * c3 * tau + 2.0 * c2) * tau + v0

        (p_hi, v_hi), (p_lo, v_lo) = position_speed(T + h), position_speed(T - h)
        dp, dv = (p_hi - p_lo) / (2.0 * h), (v_hi - v_lo) / (2.0 * h)
        dp_bound = 0.5 * v0 + 1.5 * s_total / T
        dv_bound = (0.75 * v0 + 2.0 * s_total / T) / T
        target(abs(dp) / dp_bound, label="dp/dT over its bound")
        target(abs(dv) / dv_bound, label="dv/dT over its bound")
        assert abs(dp) <= dp_bound * (1.0 + 1e-6)
        assert abs(dv) <= dv_bound * (1.0 + 1e-6)
        params = VehicleParams(headway=rho, reaction_gain=xi)
        reach = planner._rear_end_reach(v0, s_total, T, SAFETY_SLACK - 1.0, params)
        assert reach == pytest.approx(0.5 / (xi * dp_bound + rho * dv_bound), rel=1e-12)


class TestNearBoundary:
    """Every lane outcome of `plan` is feasible by `feasible_tf`, and 1 us
    earlier is not: the search lands on the feasibility boundary."""

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 3),
        lateral_buffer=st.floats(0.0, 1.0),
        policy=st.sampled_from(list(Policy)),
    )
    def test_generated_streams(self, seed, n_vehicles, mean_gap, lanes, lateral_buffer, policy):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            policy=policy,
            mean_gap=mean_gap,
            lateral_buffer=lateral_buffer,
        )
        layout = scenario.layout
        protocol = CrossingProtocol(layout)
        for arrival in scenario.arrivals:
            try:
                result = plan(
                    arrival, protocol, layout, policy=policy, lateral_buffer=lateral_buffer
                )
            except PlanningError:
                continue
            options = dict(
                lateral_buffer=lateral_buffer,
                min_zone_entry=protocol.latest_zone_entry if policy is Policy.FIFO else None,
            )
            for outcome in result.lanes:
                if outcome.tf is None:
                    continue
                assert feasible_tf(arrival, outcome.lane, outcome.tf, protocol, layout, **options)
                assert not feasible_tf(
                    arrival, outcome.lane, outcome.tf - 1e-6, protocol, layout, **options
                )
            protocol.register(
                ProtocolEntry(arrival.vehicle_id, result.trajectory, result.lane, arrival.movement)
            )


class TestProbeCount:
    """The search's work, in full probes (`_SearchContext.probe`) under both
    policies: on the 300-vehicle stream the `dense_plan` benchmark plans, on
    the reference scenario, and up to an overloaded stream's first refusal.
    The kernel that lands on the entry-time edges inverts no trajectory, and
    registration inverts none either: it takes the accepted probe's zone
    times.  A lane leader's absolute-time coefficients are computed only when
    its entry is registered.  On the 300-vehicle stream no plan builds a
    `VehicleParams`, evaluates a trajectory or looks up a lane's approach,
    each arrival's planning bounds are derived once, when the parser builds
    it, and the boundary cubic is computed once less per plan than when the
    first probe evaluated the bounds edge again."""

    # 1,155 probes when written; 5,289 while the scan probed each 1 ms step
    # through rear-end rejections, 13,366 when each edge was bisected anew.
    PROBE_BOUND = 1_500
    # 88 probes when written; 120 under the looser rear-end slope bound,
    # 2,675 while the scan probed each 1 ms step.
    REFERENCE_PROBE_BOUND = 120
    # Per policy, up to veh30's refusal: ~4,900 when written; ~30,500 while
    # the scan probed each 1 ms step.
    REFUSAL_PROBE_BOUND = 6_000
    # 2,029 boundary cubics when written (edge floats, probes and returned
    # plans); 2,629 while the first probe evaluated the bounds edge again.
    BOUNDARY_CUBIC_BOUND = 2_400

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict(
            probe=0, kernel=0, register=0, boundary_cubic=0, params=0,
            invert_in_kernel=0, invert_in_register=0, eval=0, lane_approach=0, tightened=0,
            coefficients_in_register=0, coefficients_elsewhere=0,
        )
        inside = dict(kernel=False, register=False)
        invert = trajectory._invert

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def watched(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                inside[name] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside[name] = False

            return wrapper

        def watched_invert(*args):
            calls["invert_in_kernel"] += inside["kernel"]
            calls["invert_in_register"] += inside["register"]
            return invert(*args)

        def watched_coefficients(traj):
            where = "in_register" if inside["register"] else "elsewhere"
            calls[f"coefficients_{where}"] += 1
            return coefficients(traj)

        coefficients = CubicTrajectory.absolute_coefficients
        tightened = counted("tightened", planner._tightened_params)

        cubic = counted("boundary_cubic", trajectory._boundary_cubic)
        monkeypatch.setattr(
            planner._SearchContext, "probe", counted("probe", planner._SearchContext.probe)
        )
        monkeypatch.setattr(
            planner, "_least_horizon_behind", watched("kernel", planner._least_horizon_behind)
        )
        monkeypatch.setattr(
            CrossingProtocol, "register", watched("register", CrossingProtocol.register)
        )
        monkeypatch.setattr(
            VehicleParams, "__post_init__", counted("params", VehicleParams.__post_init__)
        )
        monkeypatch.setattr(planner, "_invert", watched_invert)
        monkeypatch.setattr(trajectory, "_invert", watched_invert)
        monkeypatch.setattr(planner, "_boundary_cubic", cubic)
        monkeypatch.setattr(trajectory, "_boundary_cubic", cubic)
        monkeypatch.setattr(CubicTrajectory, "eval", counted("eval", CubicTrajectory.eval))
        monkeypatch.setattr(CubicTrajectory, "absolute_coefficients", watched_coefficients)
        monkeypatch.setattr(
            IntersectionLayout, "lane_approach",
            counted("lane_approach", IntersectionLayout.lane_approach),
        )
        monkeypatch.setattr(planner, "_tightened_params", tightened)
        yield calls
        assert calls["invert_in_kernel"] == 0
        assert calls["invert_in_register"] == 0
        assert calls["coefficients_elsewhere"] == 0
        assert calls["coefficients_in_register"] <= calls["register"]

    def test_dense_stream(self, calls):
        doc = scenario_to_dict(generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0))
        tightened = calls["tightened"]
        scenario = parse_scenario_dict(doc)
        params_built = calls["params"]
        for policy in Policy:
            _, plans = schedule(dataclasses.replace(scenario, policy=policy))
            assert len(plans) == 300
        assert calls["kernel"] > 0
        assert calls["register"] == 600
        assert calls["params"] == params_built, calls
        assert calls["tightened"] - tightened == 300, calls
        assert calls["eval"] == calls["lane_approach"] == 0, calls
        assert calls["probe"] < self.PROBE_BOUND, calls
        assert calls["boundary_cubic"] < self.BOUNDARY_CUBIC_BOUND, calls

    def test_reference_scenario(self, calls):
        scenario = load_scenario(REFERENCE_SCENARIO)
        for policy in Policy:
            _, plans = schedule(dataclasses.replace(scenario, policy=policy))
            assert len(plans) == len(scenario.arrivals)
        assert calls["register"] == 2 * len(scenario.arrivals)
        assert calls["probe"] <= self.REFERENCE_PROBE_BOUND, calls

    @pytest.mark.parametrize("policy", list(Policy))
    def test_overload_refusal(self, calls, policy):
        scenario = generate_random_scenario(
            seed=4, n_vehicles=150, mean_gap=3.0, policy=policy
        )
        with pytest.raises(SimulationError, match="veh30"):
            schedule(scenario)
        assert calls["register"] == 29
        assert calls["probe"] <= self.REFUSAL_PROBE_BOUND, calls


@st.composite
def probe_contexts(draw):
    """A request with its lane, a protocol of hand-built entries around it
    (a same-approach leader or none, and up to ten from other approaches), a lateral buffer
    of 0-1 s and a first-in-first-out bound or none."""
    layout = IntersectionLayout()
    params = VehicleParams()
    movement = draw(st.sampled_from(ALL_MOVEMENTS))
    lane = layout.allowed_lanes(movement)[0]
    t0 = draw(st.floats(0.0, 100.0))
    speeds = st.floats(params.v_min, params.v_max)
    # Horizons below 3*s/v0 keep every registered entry forward-moving.
    ratios = st.floats(0.6, 2.5)
    protocol = CrossingProtocol(layout)

    def register(vehicle_id, m, start, v0, ratio):
        s = layout.total_distance(m)
        traj = solve_boundary(v0, s, start, start + ratio * s / v0)
        protocol.register(oracles.make_entry(vehicle_id, traj, m, layout.allowed_lanes(m)[0]))

    if draw(st.booleans()):
        same_approach = [m for m in ALL_MOVEMENTS if m.origin == movement.origin]
        start = t0 - draw(st.floats(0.0, 6.0))
        register("leader", draw(st.sampled_from(same_approach)), start, draw(speeds), draw(ratios))
    crossing = [m for m in ALL_MOVEMENTS if m.origin != movement.origin]
    others = draw(
        st.lists(
            st.tuples(st.sampled_from(crossing), st.floats(-20.0, 20.0), speeds, ratios),
            max_size=10,
        )
    )
    for i, (m, offset, v0, ratio) in enumerate(others):
        register(f"o{i}", m, t0 + offset, v0, ratio)
    req = Arrival("x", t0, movement, draw(speeds), params)
    lateral_buffer = draw(st.floats(0.0, 1.0))
    min_zone_entry = draw(st.one_of(st.none(), st.floats(t0, t0 + 30.0)))
    return req, lane, protocol, layout, lateral_buffer, min_zone_entry


class TestProbeMatchesReference:
    """One probe of the search (`check`) gives the bits, or the exception,
    of the original search's probe, which builds a trajectory and evaluates
    it with the original methods: the verdict, the failed constraint and
    its detail, a rear-end rejection's margin included."""

    @settings(max_examples=150)
    @given(
        context=probe_contexts(),
        # Multiples of s/v0: past 2 the zone entry time no longer grows
        # with tf, past 3 the cubic runs backward, at or below 0 tf <= t0.
        ratios=st.lists(
            st.one_of(st.floats(-0.1, 4.0), st.floats(0.6, 2.2)), min_size=1, max_size=12
        ),
    )
    def test_drawn_contexts(self, context, ratios):
        req, lane, protocol, layout, lateral_buffer, min_zone_entry = context
        args = (req, lane, protocol, layout, lateral_buffer, min_zone_entry)
        probe, reference = _make_context(*args), oracles._make_context(*args)
        assert (probe.leader is None) == (reference.leader is None)
        s_over_v = layout.total_distance(req.movement) / req.v0
        for ratio in ratios:
            tf = req.time + ratio * s_over_v
            oracles.assert_same_outcome(lambda: probe.check(tf), lambda: reference.check(tf))


class TestLiveOccupancies:
    """The occupancies a search checks are today's filter (those the
    arrival can still meet) over the full conflicting list, in order."""

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 40),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 2),
        lateral_buffer=st.floats(0.0, 1.0),
        queries=st.lists(st.floats(-20.0, 250.0), max_size=8),
    )
    def test_equal_filter_over_conflicting_occupancies(
        self, seed, n_vehicles, mean_gap, lanes, lateral_buffer, queries
    ):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=mean_gap,
        )
        layout = scenario.layout
        protocol = oracles.admitted_protocol(scenario)
        occupancies = [protocol.merging_occupancy(e) for e in protocol]
        times = [*queries, *(o.t_out - lateral_buffer for o in occupancies)]
        for t0 in times:
            earliest = t0 - lateral_buffer
            for movement in ALL_MOVEMENTS:
                req = Arrival("q", t0, movement, 10.0, VehicleParams())
                ctx = _make_context(
                    req, layout.allowed_lanes(movement)[0], protocol, layout, lateral_buffer, None
                )
                assert ctx.conflicting == [
                    occ
                    for occ in oracles.conflicting_occupancies_scan(protocol, movement)
                    if not earliest > occ.t_out + SAFETY_SLACK
                ]


@st.composite
def bounds_and_speeds(draw):
    """Vehicle bounds, some within a few planning margins of degenerate, and
    an arrival speed inside them."""
    near_zero = st.floats(1e-9, 4e-6)
    u_min = -draw(st.one_of(near_zero, st.floats(0.1, 5.0)))
    u_max = draw(st.one_of(near_zero, st.floats(0.1, 5.0)))
    v_min = draw(st.floats(0.5, 5.0))
    v_max = v_min + draw(st.one_of(near_zero, st.floats(0.1, 20.0)))
    params = VehicleParams(u_min=u_min, u_max=u_max, v_min=v_min, v_max=v_max)
    return params, draw(st.floats(v_min, v_max))


class TestPlanningBounds:
    """An arrival's planning bounds (`caps`) are today's tightened
    `VehicleParams`, bit for bit, and an arrival whose bounds the margin
    leaves degenerate is rejected with ValueError where the tightened
    `VehicleParams` could not be built."""

    @settings(max_examples=300)
    @given(bounds=bounds_and_speeds())
    def test_matches_tightened_params(self, bounds):
        params, v0 = bounds
        try:
            reference = oracles.tightened_params_reference(params, v0)
        except ValueError:
            with pytest.raises(ValueError, match="planning margin"):
                request(v0=v0, params=params)
            return
        caps = request(v0=v0, params=params).caps
        expected = (reference.u_min, reference.u_max, reference.v_min, reference.v_max)
        assert repr(tuple(caps)) == repr(expected)

    @pytest.mark.parametrize(
        "params, v0",
        [
            (VehicleParams(u_max=5.0e-7), 10.0),
            (VehicleParams(u_min=-5.0e-7), 10.0),
            (VehicleParams(v_min=2.0, v_max=2.0000015), 2.000001),
        ],
        ids=["accel-max", "accel-min", "speed-band"],
    )
    def test_degenerate_bounds_rejected(self, params, v0):
        with pytest.raises(ValueError, match="planning margin"):
            request(v0=v0, params=params)

    def test_arrival_speed_is_exempt(self):
        # The band is too narrow for the margin around 2.000001 m/s, but not
        # at its upper limit, which the bounds keep.
        req = request(v0=2.0000015, params=VehicleParams(v_min=2.0, v_max=2.0000015))
        assert req.caps.v_min == 2.0 + 1e-6
        assert req.caps.v_max == 2.0000015


# Streams of 1-30 vehicles on 1-3 lanes per approach, under either policy,
# with a lateral buffer of 0-1 s (`scheduled_stream` cuts them before a refusal).
stream_args = dict(
    seed=st.integers(0, 10_000),
    n_vehicles=st.integers(1, 30),
    mean_gap=st.floats(1.5, 4.0),
    lanes=st.integers(1, 3),
    policy=st.sampled_from(list(Policy)),
    lateral_buffer=st.floats(0.0, 1.0),
)


def scheduled_stream(seed, n_vehicles, mean_gap, lanes, policy, lateral_buffer):
    """A generated stream and `schedule`'s protocol and plans for it, or for
    the arrivals before its first refusal."""
    scenario = generate_random_scenario(
        seed=seed,
        n_vehicles=n_vehicles,
        layout=IntersectionLayout(lanes_per_approach=lanes),
        policy=policy,
        mean_gap=mean_gap,
        lateral_buffer=lateral_buffer,
    )
    try:
        return (scenario, *schedule(scenario))
    except SimulationError as exc:
        refused = [a.vehicle_id for a in scenario.arrivals].index(exc.vehicle_id)
        assume(refused > 0)
        scenario = dataclasses.replace(scenario, arrivals=scenario.arrivals[:refused])
        return (scenario, *schedule(scenario))


class TestRegisteredOccupancy:
    """`schedule` registers each plan with the zone times its accepted
    probe computed; they equal what inverting the trajectory gives."""

    @settings(max_examples=25, deadline=None)
    @given(**stream_args)
    def test_equal_to_inverted_zone_times(self, **stream):
        scenario, protocol, plans = scheduled_stream(**stream)
        for entry in protocol:
            window = scenario.layout.merging_window(entry.movement)
            traj = entry.trajectory
            expected = repr(Occupancy(traj.invert(window.entry), traj.invert(window.exit)))
            assert repr(protocol.merging_occupancy(entry)) == expected
            assert repr(plans[entry.vehicle_id].occupancy) == expected

    def test_not_part_of_equality_or_repr(self, layout):
        result = plan(request(), CrossingProtocol(layout), layout)
        assert result.occupancy is not None
        bare = dataclasses.replace(result, occupancy=None)
        assert bare == result
        assert repr(bare) == repr(result)


class TestContextMatchesRecord:
    """Each search context's lane leader and live conflicting occupancies,
    read from what registration filed, equal by `repr` those of the gather
    each plan made before (`oracles.make_context_reference`), and
    `predecessor_on_lane` finds the same entry: as `schedule` plans a drawn
    stream, and on public calls out of time order, whose arrival precedes
    entries already registered (a `Scenario` orders its arrivals; the API
    does not)."""

    @settings(max_examples=25, deadline=None)
    @given(
        **stream_args,
        late=st.lists(
            st.tuples(st.sampled_from(ALL_MOVEMENTS), st.floats(0.0, 1.0), st.floats(2.0, 18.0)),
            max_size=4,
        ),
    )
    def test_drawn_streams(self, late, **stream):
        contexts = []
        make = planner._make_context

        def compared(request, lane, protocol, *rest):
            ctx = make(request, lane, protocol, *rest)
            reference = oracles.make_context_reference(request, lane, protocol, *rest)
            assert repr(ctx.leader) == repr(reference.leader)
            assert repr(ctx.conflicting) == repr(reference.conflicting)
            found = protocol.predecessor_on_lane(lane, request.movement.origin, request.time)
            assert found is oracles.predecessor_on_lane_reference(
                protocol, lane, request.movement.origin, request.time
            )
            contexts.append(ctx)
            return ctx

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "_make_context", compared)
            scenario, protocol, plans = scheduled_stream(**stream)
            assert len(contexts) >= len(plans)
            layout, buffer = scenario.layout, scenario.lateral_buffer
            last = scenario.arrivals[-1].time
            for i, (movement, share, v0) in enumerate(late):
                req = Arrival(f"late{i}", share * last, movement, v0, VehicleParams())
                with contextlib.suppress(PlanningError):
                    plan(req, protocol, layout, policy=scenario.policy, lateral_buffer=buffer)
                for lane in layout.allowed_lanes(movement):
                    min_feasible_tf(
                        req, lane, protocol, layout, lateral_buffer=buffer,
                        min_zone_entry=protocol.latest_zone_entry,
                    )


class TestOptionValidation:
    """The planner API rejects, with ValueError, the options that `Scenario`
    rejects, and `Arrival` the arrival times."""

    BAD_BUFFERS = [-0.1, -math.inf, math.nan, math.inf]
    BAD_CAPS = [0.0, -5.0, math.nan, math.inf]

    @pytest.mark.parametrize("lateral_buffer", BAD_BUFFERS)
    def test_lateral_buffer(self, layout, lateral_buffer):
        protocol = CrossingProtocol(layout)
        req, lane = request(), layout.allowed_lanes(WE)[0]
        with pytest.raises(ValueError, match="lateral_buffer"):
            plan(req, protocol, layout, lateral_buffer=lateral_buffer)
        with pytest.raises(ValueError, match="lateral_buffer"):
            min_feasible_tf(req, lane, protocol, layout, lateral_buffer=lateral_buffer)
        with pytest.raises(ValueError, match="lateral_buffer"):
            feasible_tf(req, lane, 30.0, protocol, layout, lateral_buffer=lateral_buffer)

    @pytest.mark.parametrize("horizon_cap", BAD_CAPS)
    def test_horizon_cap(self, layout, horizon_cap):
        protocol = CrossingProtocol(layout)
        req, lane = request(), layout.allowed_lanes(WE)[0]
        with pytest.raises(ValueError, match="horizon_cap"):
            plan(req, protocol, layout, horizon_cap=horizon_cap)
        with pytest.raises(ValueError, match="horizon_cap"):
            min_feasible_tf(req, lane, protocol, layout, horizon_cap=horizon_cap)

    def test_negative_buffer_would_admit_overlapping_occupancies(self, layout):
        # The N->S vehicle occupies the zone over [12.5, 15.0].  With a
        # buffer of -1 s, the W->E vehicle's fastest plan, which occupies it
        # over ~[11.5, 13.0], would pass the lateral check.
        protocol = CrossingProtocol(layout)
        blocker = solve_boundary(10.0, 275.0, 0.0, 27.5)
        protocol.register(oracles.make_entry("b", blocker, NS, layout.allowed_lanes(NS)[0]))
        with pytest.raises(ValueError, match="lateral_buffer must be non-negative"):
            plan(request(t0=2.2), protocol, layout, lateral_buffer=-1.0)

    def test_inadmissible_lane(self):
        # On two lanes per approach a right turn may use only the outer lane.
        layout = IntersectionLayout(lanes_per_approach=2)
        protocol = CrossingProtocol(layout)
        req = request(movement=Movement(N, E))
        (lane,) = layout.allowed_lanes(req.movement)
        (other,) = set(layout.lanes_for_approach(N)) - {lane}
        with pytest.raises(ValueError, match="not admissible"):
            feasible_tf(req, other, 30.0, protocol, layout)
        with pytest.raises(ValueError, match="not admissible"):
            min_feasible_tf(req, other, protocol, layout)
        assert feasible_tf(req, lane, 30.0, protocol, layout)

    def test_nan_entry_order_bound(self, layout):
        protocol = CrossingProtocol(layout)
        req, lane = request(), layout.allowed_lanes(WE)[0]
        with pytest.raises(ValueError, match="min_zone_entry"):
            feasible_tf(req, lane, 30.0, protocol, layout, min_zone_entry=math.nan)
        with pytest.raises(ValueError, match="min_zone_entry"):
            min_feasible_tf(req, lane, protocol, layout, min_zone_entry=math.nan)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_arrival_time(self, t0):
        with pytest.raises(ValueError, match="arrival time of 'x' must be finite"):
            request(t0=t0)
