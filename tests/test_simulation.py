import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavcross import (
    Arrival,
    Cardinal,
    CrossingProtocol,
    IntersectionLayout,
    Movement,
    Policy,
    Samples,
    Scenario,
    SimulationError,
    VehicleParams,
    VehiclePhase,
    compare_policies,
    conflicts,
    generate_random_scenario,
    integrate_dynamics,
    load_scenario,
    monitor,
    run,
    schedule,
    snapshot,
    solve_boundary,
)

from cavcross.simulation import plan_totals

import oracles

W, E, N, S = Cardinal.W, Cardinal.E, Cardinal.N, Cardinal.S
WE = Movement(W, E)
NS = Movement(N, S)


def make_scenario(arrivals, policy=Policy.OPTIMAL, **kwargs):
    params = VehicleParams()
    layout = IntersectionLayout()
    return Scenario(
        layout=layout,
        arrivals=tuple(
            Arrival(vid, t, movement, v0, params) for vid, t, movement, v0 in arrivals
        ),
        policy=policy,
        **kwargs,
    )


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([("a", 0.0, WE, 10.0), ("a", 1.0, WE, 10.0)])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([("a", 5.0, WE, 10.0), ("b", 1.0, WE, 10.0)])

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([("a", 0.0, WE, 10.0)], dt=0.0)

    @pytest.mark.parametrize(
        "arrival_time, kwargs",
        [
            (math.nan, {}),
            (0.0, {"dt": math.inf}),
            (0.0, {"horizon_cap": math.nan}),
            (0.0, {"lateral_buffer": math.nan}),
        ],
        ids=["arrival_time_nan", "dt_inf", "horizon_cap_nan", "lateral_buffer_nan"],
    )
    def test_non_finite_rejected(self, arrival_time, kwargs):
        with pytest.raises(ValueError, match="finite"):
            make_scenario([("a", arrival_time, WE, 10.0)], **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("vehicle_id", ""), ("vehicle_id", 5), ("movement", "W->E"), ("params", {})],
        ids=["empty_id", "int_id", "string_movement", "dict_params"],
    )
    def test_arrival_fields_validated(self, field, value):
        fields = dict(vehicle_id="a", time=0.0, movement=WE, v0=10.0, params=VehicleParams())
        fields[field] = value
        with pytest.raises(ValueError):
            Arrival(**fields)

    @pytest.mark.parametrize("v0", [math.nan, math.inf, 50.0, 1.0])
    def test_arrival_speed_within_bounds(self, v0):
        with pytest.raises(ValueError, match="arrival speed"):
            Arrival("a", 0.0, WE, v0, VehicleParams())

    def test_arrival_speed_on_the_bounds_accepted(self):
        params = VehicleParams()
        for v0 in (params.v_min, params.v_max):
            assert Arrival("a", 0.0, WE, v0, params).v0 == v0

    def test_policy_string_coerced_or_rejected(self):
        assert make_scenario([], policy="fifo").policy is Policy.FIFO
        with pytest.raises(ValueError):
            make_scenario([], policy="lifo")


class TestRun:
    def test_empty_scenario(self):
        result = run(make_scenario([]))
        assert len(result.log) == 0
        assert result.violations == []
        assert result.metrics.aggregate.vehicle_count == 0
        assert result.metrics.aggregate.throughput_per_min == 0.0

    def test_single_vehicle_consistency(self):
        result = run(make_scenario([("a", 0.0, WE, 10.0)]))
        plan_result = result.plans["a"]
        m = result.metrics.per_vehicle["a"]
        assert m.travel_time == plan_result.tf - 0.0
        assert m.energy == plan_result.trajectory.energy_cost()
        assert m.min_rear_margin is None
        assert m.min_lateral_margin is None
        assert result.ok

    def test_schedule_until_leaves_the_named_vehicle_unregistered(self):
        scenario = make_scenario(
            [("a", 0.0, WE, 10.0), ("b", 2.0, NS, 9.0), ("c", 4.0, WE, 11.0), ("d", 5.0, NS, 10.0)],
            policy=Policy.FIFO,
        )
        protocol, plans = schedule(scenario, until="c")
        assert [e.vehicle_id for e in protocol] == ["a", "b"]
        assert list(plans) == ["a", "b", "c"]
        assert plans["c"] == run(scenario).plans["c"]

    def test_executed_positions_are_the_closed_form(self):
        result = run(make_scenario([("a", 0.0, WE, 10.0), ("b", 2.0, NS, 9.0)]))
        log = result.log
        for t, i, position, speed, accel in zip(
            log.t.tolist(), log.vehicle.tolist(), log.position.tolist(),
            log.speed.tolist(), log.accel.tolist(),
        ):
            traj = result.plans[log.vehicle_ids[i]].trajectory
            sample = traj.eval(t)
            assert abs(position - sample.position) <= 1e-9
            assert abs(speed - sample.speed) <= 1e-9
            assert abs(accel - sample.accel) <= 1e-9

    def test_log_columns_within_windows(self):
        result = run(make_scenario([("a", 0.0, WE, 10.0)]))
        t0 = result.plans["a"].trajectory.t0
        tf = result.plans["a"].trajectory.tf
        times = result.log.t.tolist()
        assert min(times) >= t0 - 1e-9
        assert max(times) <= tf + result.scenario.dt

    def test_planning_failure_aborts_with_vehicle(self):
        # Fast arrival right behind a slow leader: the entry-instant gap is
        # already below the safe distance, so no exit time can fix it.
        scenario = make_scenario([("lead", 0.0, WE, 6.0), ("victim", 1.2, WE, 18.0)])
        with pytest.raises(SimulationError) as info:
            run(scenario)
        assert info.value.vehicle_id == "victim"
        assert "victim" in str(info.value)
        assert "rear_end" in str(info.value)

    def test_determinism_identical_objects(self):
        scenario = make_scenario([("a", 0.0, WE, 10.0), ("b", 1.9, WE, 11.0),
                                  ("c", 2.4, NS, 9.0)])
        first = run(scenario)
        second = run(scenario)
        assert first.log == second.log
        assert first.metrics == second.metrics


@pytest.fixture(scope="module")
def result():
    from conftest import REFERENCE_SCENARIO

    return run(load_scenario(REFERENCE_SCENARIO))


class TestReferenceScenario:

    def test_no_violations(self, result):
        assert result.violations == []

    def test_rear_margins_non_negative(self, result):
        for margin in result.log.rear_margin.tolist():
            if not math.isnan(margin):
                assert margin >= 0.0

    def test_bounds_never_active(self, result):
        agg = result.metrics.aggregate
        assert 2.0 < agg.min_speed and agg.max_speed < 18.0
        assert agg.max_abs_accel < 3.0

    def test_conflicting_occupancies_disjoint(self, result):
        entries = result.protocol.entries
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                if conflicts(a.movement, b.movement):
                    occ_a = result.protocol.merging_occupancy(a)
                    occ_b = result.protocol.merging_occupancy(b)
                    assert occ_a.t_out < occ_b.t_in or occ_b.t_out < occ_a.t_in

    def test_travel_times_match_plans(self, result):
        for vid, m in result.metrics.per_vehicle.items():
            assert m.travel_time == pytest.approx(
                result.plans[vid].tf - m.t0, abs=1e-12
            )


def _row(samples, vehicle_id):
    """The one row of `vehicle_id` in a single-instant snapshot."""
    (row,) = np.flatnonzero(samples.vehicle == samples.vehicle_ids.index(vehicle_id))
    return int(row)


# Hand-built protocols, not planned, that break the rules: (id, movement,
# entry speed, t0, tf) along the 275 m straight paths.
HAND_BUILT = {
    # Same lane, 0.5 s apart at 10 m/s.
    "tailgating": [("lead", WE, 10.0, 0.0, 27.5), ("tail", WE, 10.0, 0.5, 28.0)],
    # Conflicting movements through the zone together.
    "lateral": [("we", WE, 10.0, 0.0, 27.5), ("ns", NS, 10.0, 0.2, 27.7)],
    # Two vehicles abreast on one lane lead each other (equal positions
    # count), and a third follows them.
    "abreast": [
        ("left", WE, 10.0, 0.0, 27.5),
        ("right", WE, 10.0, 0.0, 27.5),
        ("behind", WE, 10.0, 3.0, 30.5),
    ],
    # 275 m in 10 s from 10 m/s: above v_max and u_max.
    "overspeed": [("fast", WE, 10.0, 0.0, 10.0)],
}


def hand_built_protocol(layout, name):
    protocol = CrossingProtocol(layout)
    for vid, movement, v0, t0, tf in HAND_BUILT[name]:
        traj = solve_boundary(v0, 275.0, t0, tf)
        protocol.register(
            oracles.make_entry(vid, traj, movement, layout.allowed_lanes(movement)[0])
        )
    return protocol


class TestMonitor:
    def test_margin_arithmetic(self, layout, params):
        # Gap 20 m at speed 10 with headway 1.0 and standstill 1.5:
        # margin = 20 - 11.5 = 8.5 m.
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        lead = solve_boundary(10.0, 275.0, 0.0, 27.5)
        protocol.register(oracles.make_entry("lead", lead, WE, lane))
        follow = solve_boundary(10.0, 275.0, 2.0, 29.5)
        protocol.register(oracles.make_entry("follow", follow, WE, lane))
        params_by_id = {"lead": params, "follow": params}
        samples = snapshot(protocol, [6.0], params_by_id)
        row = _row(samples, "follow")
        assert samples.gap[row] == pytest.approx(20.0, abs=1e-9)
        margin = samples.gap[row] - params.safe_distance(samples.speed[row])
        assert margin == pytest.approx(8.5, abs=1e-9)
        assert samples.rear_margin[row] == margin
        assert monitor(samples, protocol, params_by_id) == []

    def test_single_vehicle_never_violates(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        protocol.register(
            oracles.make_entry("solo", solve_boundary(10.0, 275.0, 0.0, 27.5), WE, lane)
        )
        params_by_id = {"solo": params}
        for t in (0.0, 10.0, 27.5):
            samples = snapshot(protocol, [t], params_by_id)
            assert monitor(samples, protocol, params_by_id) == []

    def test_forced_rear_end_violation_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "tailgating")
        params_by_id = {"lead": params, "tail": params}
        samples = snapshot(protocol, [5.0], params_by_id)
        found = monitor(samples, protocol, params_by_id)
        assert any(v.kind == "rear_end" and "tail" in v.vehicle_ids for v in found)

    def test_forced_lateral_violation_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "lateral")
        params_by_id = {"we": params, "ns": params}
        t = 13.5  # both inside the 12.5..15.0 occupancy band
        samples = snapshot(protocol, [t], params_by_id)
        assert Samples.PHASES[samples.phase[_row(samples, "we")]] is VehiclePhase.MERGING_ZONE
        assert Samples.PHASES[samples.phase[_row(samples, "ns")]] is VehiclePhase.MERGING_ZONE
        found = monitor(samples, protocol, params_by_id)
        assert any(v.kind == "lateral" for v in found)

    def test_forced_bound_violations_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "overspeed")
        params_by_id = {"fast": params}
        samples = snapshot(protocol, np.arange(1001) * 0.01, params_by_id)
        kinds = {v.kind for v in monitor(samples, protocol, params_by_id)}
        assert kinds == {"speed_bound", "accel_bound"}

    def test_phases(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        protocol.register(
            oracles.make_entry("a", solve_boundary(10.0, 275.0, 0.0, 27.5), WE, lane)
        )
        params_by_id = {"a": params}

        def phase_at(t):
            return Samples.PHASES[snapshot(protocol, [t], params_by_id).phase[0]]

        assert phase_at(5.0) is VehiclePhase.APPROACH
        assert phase_at(13.0) is VehiclePhase.MERGING_ZONE
        assert phase_at(20.0) is VehiclePhase.EXIT
        assert len(snapshot(protocol, [30.0], params_by_id)) == 0


def assert_bit_equal(actual, expected):
    """Equal bit for bit, NaN where the other is NaN."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def _optional(values):
    return [math.nan if v is None else v for v in values]


class TestColumnarMatchesPerStepOracle:
    """`snapshot` and `monitor` against the original per-step object loop
    (`oracles.per_step_log`) on the same grid."""

    def check(self, protocol, params_by_id, times):
        rows, violations, states = oracles.per_step_log(
            protocol, params_by_id, times.tolist()
        )
        samples = snapshot(protocol, times, params_by_id)
        assert len(samples) == len(rows)
        assert [samples.vehicle_ids[i] for i in samples.vehicle] == [r.vehicle_id for r in rows]
        assert [samples.lanes[i] for i in samples.vehicle] == [r.lane for r in rows]
        assert [Samples.PHASES[p] for p in samples.phase] == [s.phase for s in states]
        for column in ("t", "position", "speed", "accel"):
            assert_bit_equal(getattr(samples, column), [getattr(r, column) for r in rows])
        assert_bit_equal(samples.gap, _optional(s.gap for s in states))
        assert_bit_equal(samples.rear_margin, _optional(r.rear_margin for r in rows))
        found = monitor(samples, protocol, params_by_id)
        assert found == violations
        for v in found:
            assert type(v.time) is float and type(v.value) is float
        return samples, found

    def check_run(self, scenario):
        """The run's own log and violations, on the run's grid."""
        result = run(scenario)
        t_start = min(a.time for a in scenario.arrivals)
        t_end = max(p.tf for p in result.plans.values())
        k0 = int(math.floor(t_start / scenario.dt + 1e-9))
        k1 = int(math.ceil(t_end / scenario.dt - 1e-9))
        params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}
        times = np.arange(k0, k1 + 1) * scenario.dt
        samples, found = self.check(result.protocol, params_by_id, times)
        assert result.log == samples
        assert result.violations == found
        return result, times

    def test_reference_scenario(self):
        from conftest import REFERENCE_SCENARIO

        result, _ = self.check_run(load_scenario(REFERENCE_SCENARIO))
        assert np.count_nonzero(~np.isnan(result.log.rear_margin)) > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_generated(self, seed):
        self.check_run(generate_random_scenario(seed=seed, n_vehicles=8, mean_gap=2.0))

    def test_two_lanes_per_approach(self):
        layout = IntersectionLayout(lanes_per_approach=2)
        result, _ = self.check_run(
            generate_random_scenario(seed=6, n_vehicles=10, layout=layout, mean_gap=2.0)
        )
        assert len({e.lane for e in result.protocol}) > 4

    def test_gap_in_traffic(self):
        burst = generate_random_scenario(seed=3, n_vehicles=4)
        later = tuple(
            dataclasses.replace(a, vehicle_id=f"{a.vehicle_id}b", time=a.time + 100.0)
            for a in burst.arrivals
        )
        result, times = self.check_run(
            dataclasses.replace(burst, arrivals=burst.arrivals + later)
        )
        assert len(np.unique(result.log.t)) < len(times)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name, layout, params):
        protocol = hand_built_protocol(layout, name)
        params_by_id = {vid: params for vid, *_ in HAND_BUILT[name]}
        _, found = self.check(protocol, params_by_id, np.arange(2901) * 0.01)
        assert found


RK4_STEPS = [0.003, 0.01, 0.05]


def assert_same_check(traj, dt):
    """`integrate_dynamics` equals the original scalar loop, bit for bit."""
    check = integrate_dynamics(traj, dt)
    assert check == oracles.integrate_dynamics_loop(traj, dt)
    assert type(check.max_position_error) is float
    assert type(check.max_speed_error) is float


class TestIntegrationMatchesLoop:
    """The array RK4 cross-check against `oracles.integrate_dynamics_loop`."""

    @pytest.mark.parametrize("dt", RK4_STEPS)
    @pytest.mark.parametrize("policy", list(Policy))
    def test_reference_plans(self, policy, dt):
        from conftest import REFERENCE_SCENARIO

        scenario = dataclasses.replace(load_scenario(REFERENCE_SCENARIO), policy=policy)
        _, plans = schedule(scenario)
        assert len(plans) == 6
        for result in plans.values():
            assert_same_check(result.trajectory, dt)

    def test_generated_plans(self):
        _, plans = schedule(generate_random_scenario(seed=1, n_vehicles=40, mean_gap=2.0))
        assert len(plans) == 40
        for result in plans.values():
            assert_same_check(result.trajectory, 0.01)

    @given(
        v0=st.floats(2.0, 18.0),
        s_total=st.floats(20.0, 400.0),
        t0=st.floats(0.0, 3600.0),
        duration=st.floats(0.5, 40.0),
        dt=st.sampled_from(RK4_STEPS),
    )
    def test_drawn_boundary_cubics(self, v0, s_total, t0, duration, dt):
        assert_same_check(solve_boundary(v0, s_total, t0, t0 + duration), dt)

    @pytest.mark.parametrize(
        "t0, tf, dt",
        [
            (0.0, 10.0, 0.25),  # every step is a full step, no tail
            (0.0, 25.0, 0.01),  # the summed steps overshoot tf: one tail step
            (12.3, 37.3, 0.05),  # the last full step ends short of tf
            (3.0, 3.004, 0.01),  # shorter than one step
            (0.0, 10.0, -0.01),  # a negative step takes no step
        ],
    )
    def test_durations_on_and_off_the_step(self, t0, tf, dt):
        assert_same_check(solve_boundary(10.0, 10.0 * (tf - t0), t0, tf), dt)

    def test_non_monotone_cubic(self):
        traj = solve_boundary(15.0, 50.0, 4.0, 24.0)
        assert not traj.is_monotone
        for dt in RK4_STEPS:
            assert_same_check(traj, dt)


class TestIntegrationCrossCheck:
    def test_rk4_reproduces_closed_form(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        check = integrate_dynamics(traj, dt=0.01)
        assert check.max_position_error <= 1e-6
        assert check.max_speed_error <= 1e-6

    def test_run_collects_checks(self):
        result = run(make_scenario([("a", 0.0, WE, 10.0), ("b", 2.0, NS, 9.0)]))
        assert set(result.integration_checks) == {"a", "b"}
        for check in result.integration_checks.values():
            assert check.max_position_error <= 1e-6
            assert check.max_speed_error <= 1e-6


class TestComparePolicies:
    def test_empty_scenario_identical(self):
        comparison = compare_policies(make_scenario([]))
        assert comparison.travel_time_delta() == 0.0

    def test_fifo_penalty_scenario(self):
        # The later vehicle could clear the zone before the slow leader
        # reaches it; only FIFO ordering holds it back.
        scenario = make_scenario(
            [("lead", 0.0, NS, 6.0), ("late", 0.8, WE, 12.0)]
        )
        comparison = compare_policies(scenario)
        assert comparison.optimal is not None and comparison.fifo is not None
        assert comparison.optimal["late"].tf < comparison.fifo["late"].tf - 5.0
        assert comparison.travel_time_delta() > 0.0

    def test_reference_scenario_optimal_not_worse(self):
        from conftest import REFERENCE_SCENARIO

        comparison = compare_policies(load_scenario(REFERENCE_SCENARIO))
        assert comparison.travel_time_delta() >= 0.0
        for vid, optimal in comparison.optimal.items():
            assert optimal.tf <= comparison.fifo[vid].tf + 1e-9

    def test_plans_and_totals_are_the_runs(self):
        # `compare` schedules only; its plans and totals are those `run` reports.
        from conftest import REFERENCE_SCENARIO

        for scenario in (
            load_scenario(REFERENCE_SCENARIO),
            generate_random_scenario(seed=3, n_vehicles=12, mean_gap=2.0),
        ):
            comparison = compare_policies(scenario)
            for policy in Policy:
                plans = getattr(comparison, policy.value)
                result = run(dataclasses.replace(scenario, policy=policy))
                assert plans == result.plans
                aggregate = result.metrics.aggregate
                assert tuple(plan_totals(plans)) == (
                    aggregate.total_travel_time, aggregate.makespan, aggregate.throughput_per_min
                )

    def test_failures_reported_not_raised(self):
        scenario = make_scenario([("lead", 0.0, WE, 6.0), ("victim", 1.2, WE, 18.0)])
        comparison = compare_policies(scenario)
        assert comparison.optimal is None and comparison.fifo is None
        assert "victim" in comparison.errors["optimal"]
        assert "victim" in comparison.errors["fifo"]
        assert comparison.travel_time_delta() is None


class TestDenseTrafficSoak:
    def test_eight_vehicle_scenarios_stay_clean(self):
        from cavcross import generate_random_scenario, lateral_separation, rear_end_margin

        for seed in (1000, 1007, 1013, 1021, 1029, 1038):
            scenario = generate_random_scenario(seed=seed, n_vehicles=8, mean_gap=1.5)
            result = run(scenario)
            assert result.ok, (seed, result.violations[:2])
            entries = result.protocol.entries
            params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}
            for i, follower in enumerate(entries):
                for leader in entries[:i]:
                    if (
                        leader.movement.origin == follower.movement.origin
                        and leader.lane == follower.lane
                    ):
                        assert rear_end_margin(
                            follower.trajectory, leader, params_by_id[follower.vehicle_id]
                        ) >= 0.0, (seed, follower.vehicle_id)
            for i, a in enumerate(entries):
                for b in entries[i + 1 :]:
                    if conflicts(a.movement, b.movement):
                        sep = lateral_separation(
                            result.protocol.merging_occupancy(a),
                            result.protocol.merging_occupancy(b),
                        )
                        assert sep >= 0.0, (seed, a.vehicle_id, b.vehicle_id)


class TestThroughputBufferMonotonicity:
    def test_non_increasing_in_buffer(self):
        from conftest import REFERENCE_SCENARIO

        base = load_scenario(REFERENCE_SCENARIO)
        throughputs = []
        for buffer in (0.0, 0.5, 1.0):
            scenario = dataclasses.replace(base, lateral_buffer=buffer)
            result = run(scenario)
            assert result.ok
            throughputs.append(result.metrics.aggregate.throughput_per_min)
        assert throughputs[0] >= throughputs[1] >= throughputs[2]


_CLOCKWISE = {N: E, E: S, S: W, W: N}


def _turn(cardinal, quarter_turns):
    for _ in range(quarter_turns):
        cardinal = _CLOCKWISE[cardinal]
    return cardinal


def _decisions(scenario, quarter_turns=0):
    """Each vehicle's repr(tf), binding constraint and lane, with the lane
    mapped back by `quarter_turns` counter-clockwise; or the vehicle whose
    planning failed."""
    layout = scenario.layout
    try:
        _, plans = schedule(scenario)
    except SimulationError as exc:
        return exc.vehicle_id
    decisions = {}
    for vid, result in plans.items():
        approach = layout.lane_approach(result.lane)
        index = layout.lanes_for_approach(approach).index(result.lane)
        lane = layout.lanes_for_approach(_turn(approach, 4 - quarter_turns))[index]
        decisions[vid] = (repr(result.tf), result.binding_constraint, lane)
    return decisions


class TestCompassRotation:
    """The intersection is symmetric under quarter turns: rotating every
    movement, with lanes mapped along, changes no decision of `schedule`."""

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 30),
        mean_gap=st.floats(1.5, 4.0),
        lanes=st.integers(1, 2),
        quarter_turns=st.integers(1, 3),
        policy=st.sampled_from(list(Policy)),
    )
    def test_rotated_stream_plans_identically(
        self, seed, n_vehicles, mean_gap, lanes, quarter_turns, policy
    ):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=mean_gap,
            policy=policy,
        )
        rotated = dataclasses.replace(
            scenario,
            arrivals=tuple(
                dataclasses.replace(
                    a,
                    movement=Movement(
                        _turn(a.movement.origin, quarter_turns),
                        _turn(a.movement.exit, quarter_turns),
                    ),
                )
                for a in scenario.arrivals
            ),
        )
        assert _decisions(rotated, quarter_turns) == _decisions(scenario)
