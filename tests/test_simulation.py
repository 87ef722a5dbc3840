import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavcross import (
    ALL_MOVEMENTS,
    Arrival,
    BindingConstraint,
    Cardinal,
    CrossingProtocol,
    IntersectionLayout,
    Movement,
    Occupancy,
    Policy,
    Scenario,
    SimulationError,
    VehicleParams,
    compare_policies,
    conflicts,
    generate_random_scenario,
    integrate_dynamics,
    lateral_separation,
    load_scenario,
    monitor,
    rear_end_margin,
    run,
    schedule,
    snapshot,
    solve_boundary,
)

from cavcross.planner import SAFETY_SLACK
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

    @pytest.mark.parametrize(
        "kwargs",
        [{"dt": True}, {"seed": 1.5}, {"seed": True}, {"seed": "3"}],
        ids=["bool_dt", "float_seed", "bool_seed", "string_seed"],
    )
    def test_non_numeric_dt_and_seed_rejected(self, kwargs):
        with pytest.raises(ValueError, match="dt|seed"):
            make_scenario([("a", 0.0, WE, 10.0)], **kwargs)
        assert make_scenario([], seed=3).seed == 3

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
    # Two vehicles abreast on one lane, the later-registered following the
    # earlier, and a third following both.
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
        # margin = 20 - 11.5 = 8.5 m, throughout the shared window.
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        lead = solve_boundary(10.0, 275.0, 0.0, 27.5)
        protocol.register(oracles.make_entry("lead", lead, WE, lane))
        follow = solve_boundary(10.0, 275.0, 2.0, 29.5)
        protocol.register(oracles.make_entry("follow", follow, WE, lane))
        params_by_id = {"lead": params, "follow": params}
        samples = snapshot(protocol, [6.0], params_by_id)
        row = _row(samples, "follow")
        assert samples.rear_margin[row] == pytest.approx(8.5, abs=1e-9)
        report = monitor(protocol, params_by_id)
        assert report.violations == []
        assert report.min_rear_margin == {"lead": None, "follow": pytest.approx(8.5, abs=1e-9)}
        assert report.min_lateral_margin == {"lead": None, "follow": None}

    def test_single_vehicle_never_violates(self, layout, params):
        protocol = CrossingProtocol(layout)
        lane = layout.allowed_lanes(WE)[0]
        protocol.register(
            oracles.make_entry("solo", solve_boundary(10.0, 275.0, 0.0, 27.5), WE, lane)
        )
        assert monitor(protocol, {"solo": params}) == ([], {"solo": None}, {"solo": None})

    def test_forced_rear_end_violation_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "tailgating")
        report = monitor(protocol, {"lead": params, "tail": params})
        (found,) = report.violations
        assert (found.kind, found.vehicle_ids) == ("rear_end", ("tail", "lead"))
        # 5 m apart at 10 m/s: 5 - (1.5 + 10) over the whole shared window.
        assert found.value == pytest.approx(-6.5, abs=1e-9)
        assert report.min_rear_margin["tail"] == found.value

    def test_forced_lateral_violation_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "lateral")
        report = monitor(protocol, {"we": params, "ns": params})
        (found,) = report.violations
        # Occupancies [12.5, 15.0] and [12.7, 15.2] s: reported at the later entry.
        assert (found.kind, found.vehicle_ids) == ("lateral", ("we", "ns"))
        assert found.time == pytest.approx(12.7, abs=1e-9)
        assert found.value == pytest.approx(-2.3, abs=1e-9)
        assert report.min_lateral_margin == {"we": found.value, "ns": found.value}

    def test_forced_bound_violations_detected(self, layout, params):
        protocol = hand_built_protocol(layout, "overspeed")
        found = monitor(protocol, {"fast": params}).violations
        assert sorted(v.kind for v in found) == ["accel_bound", "speed_bound"]
        extrema = protocol.get("fast").trajectory.extrema
        speed = next(v for v in found if v.kind == "speed_bound")
        assert speed.value == extrema.max_speed > params.v_max
        accel = next(v for v in found if v.kind == "accel_bound")
        assert accel.value == extrema.max_accel and accel.time == 0.0

    def test_short_lateral_overlap_between_samples(self, layout, params):
        # W->E holds the zone over [12.5, 15.0] s and N->S over
        # [14.996, 17.496] s: they overlap for 4 ms, between two 10 ms samples.
        protocol = CrossingProtocol(layout)
        for vid, movement, t0 in (("we", WE, 0.0), ("ns", NS, 2.496)):
            traj = solve_boundary(10.0, 275.0, t0, t0 + 27.5)
            protocol.register(
                oracles.make_entry(vid, traj, movement, layout.allowed_lanes(movement)[0])
            )
        params_by_id = {"we": params, "ns": params}
        _, sampled = oracles.per_step_log(protocol, params_by_id, np.arange(3000) * 0.01)
        assert sampled == []
        (found,) = monitor(protocol, params_by_id).violations
        assert (found.kind, found.vehicle_ids) == ("lateral", ("we", "ns"))
        assert found.time == pytest.approx(14.996, abs=1e-9)
        assert found.value == pytest.approx(-0.004, abs=1e-9)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_result_does_not_depend_on_the_logging_step(self, policy):
        scenario = generate_random_scenario(
            seed=1, n_vehicles=40, mean_gap=2.0, policy=policy
        )
        results = [run(dataclasses.replace(scenario, dt=dt)) for dt in (0.003, 0.01, 0.05)]
        for result in results[1:]:
            assert result.violations == results[0].violations
            assert result.metrics.per_vehicle == results[0].metrics.per_vehicle
        led = [m for m in results[0].metrics.per_vehicle.values() if m.min_rear_margin is not None]
        assert len(led) > 10

    def test_rear_end_bound_plans_stay_safe(self):
        scenario = generate_random_scenario(seed=5, n_vehicles=8, mean_gap=1.0)
        result = run(scenario)
        bound = [
            vid for vid, r in result.plans.items()
            if r.binding_constraint is BindingConstraint.REAR_END
        ]
        assert len(bound) == 2
        params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}
        report = monitor(result.protocol, params_by_id)
        assert report.violations == []
        for vid in bound:
            # The planner demands SAFETY_SLACK of its own margin arithmetic;
            # the exact minimum keeps it.
            follower = result.protocol.get(vid)
            planned = min(
                rear_end_margin(follower.trajectory, leader, params_by_id[vid])
                for leader in result.protocol.entries[: result.protocol.entries.index(follower)]
                if leader.lane == follower.lane
            )
            assert report.min_rear_margin[vid] >= SAFETY_SLACK
            assert report.min_rear_margin[vid] == pytest.approx(planned, abs=1e-12)

    @settings(max_examples=200)
    @given(
        lead_v0=st.floats(6.0, 16.0),
        lead_pace=st.floats(0.6, 1.6),
        headstart=st.floats(0.5, 8.0),
        follow_v0=st.floats(6.0, 16.0),
        follow_pace=st.floats(0.6, 1.6),
        t0=st.floats(0.0, 3600.0),
    )
    def test_exact_minimum_against_dense_sampling(
        self, lead_v0, lead_pace, headstart, follow_v0, follow_pace, t0
    ):
        # Two boundary cubics over the 275 m path, the follower entering
        # `headstart` seconds after the leader; each horizon is the cruise
        # time at the entry speed, scaled by its pace.
        layout, params = IntersectionLayout(), VehicleParams()
        lane = layout.allowed_lanes(WE)[0]
        protocol = CrossingProtocol(layout)
        for vid, start, v0, pace in (
            ("lead", t0, lead_v0, lead_pace), ("follow", t0 + headstart, follow_v0, follow_pace)
        ):
            traj = solve_boundary(v0, 275.0, start, start + pace * 275.0 / v0)
            assume(traj.is_monotone)
            protocol.register(oracles.make_entry(vid, traj, WE, lane))
        report = monitor(protocol, {"lead": params, "follow": params})
        exact = report.min_rear_margin["follow"]
        follow, lead = (protocol.get(vid).trajectory for vid in ("follow", "lead"))
        if lead.tf < follow.t0:
            assert exact is None
            return
        # The samples include both ends of the shared window, and at an
        # interior minimum the margin is flat: 1 ms samples miss it by at
        # most max|g''| * (1 ms)^2 / 8, far below 1e-5 m on these paths.
        dense = oracles.dense_rear_end_min(follow, lead, params, dt=1e-3)
        assert dense - 1e-5 <= exact <= dense + 1e-9
        assert (exact < 0.0) == any(v.kind == "rear_end" for v in report.violations)


    # Zone times on a half-second grid, often with equal midpoints, or any floats.
    _zone_time = st.one_of(st.integers(0, 40).map(lambda k: 0.5 * k), st.floats(0.0, 100.0))
    _zone_stay = st.one_of(st.integers(1, 8).map(lambda k: 0.5 * k), st.floats(0.01, 10.0))

    @given(st.lists(st.tuples(st.sampled_from(ALL_MOVEMENTS), _zone_time, _zone_stay), max_size=14))
    def test_lateral_margins_match_a_scan_of_every_pair(self, drawn):
        layout, params = IntersectionLayout(), VehicleParams()
        protocol = CrossingProtocol(layout)
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)  # registered with drawn zone times
        for n, (movement, t_in, stay) in enumerate(drawn):
            entry = oracles.make_entry(f"v{n}", traj, movement, layout.allowed_lanes(movement)[0])
            protocol.register(entry, occupancy=Occupancy(t_in, t_in + stay))
        report = monitor(protocol, {e.vehicle_id: params for e in protocol})
        entries = protocol.entries
        for entry in entries:
            occ = protocol.merging_occupancy(entry)
            scanned = min(
                (
                    lateral_separation(occ, o)
                    for o in oracles.conflicting_occupancies_scan(protocol, entry.movement)
                ),
                default=None,
            )
            assert report.min_lateral_margin[entry.vehicle_id] == scanned
        overlapping = {
            (a.vehicle_id, b.vehicle_id)
            for i, a in enumerate(entries)
            for b in entries[i + 1 :]
            if conflicts(a.movement, b.movement)
            and lateral_separation(protocol.merging_occupancy(a), protocol.merging_occupancy(b)) < 0
        }
        assert {v.vehicle_ids for v in report.violations if v.kind == "lateral"} == overlapping


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


def assert_covers(exact, sampled, params_by_id):
    """Every vehicle the per-step monitor flags is in an exact violation of
    the same kind, at least as bad as the worst sample: a margin at or
    below the sampled one, a value at least as far outside the bounds."""
    def badness(v):
        if v.kind in ("rear_end", "lateral"):
            return -v.value
        p = params_by_id[v.vehicle_ids[0]]
        low, high = (p.v_min, p.v_max) if v.kind == "speed_bound" else (p.u_min, p.u_max)
        return max(low - v.value, v.value - high)

    for v in sampled:
        worst = max(
            (badness(e) for e in exact
             if e.kind == v.kind and set(v.vehicle_ids) <= set(e.vehicle_ids)),
            default=None,
        )
        assert worst is not None, v
        assert worst >= badness(v) - 1e-9, v


class TestColumnarMatchesPerStepOracle:
    """`snapshot` against the original per-step object loop
    (`oracles.per_step_log`) on the same grid, its rear margins against
    `oracles.rear_margins_per_row`, and the exact `monitor` against that
    loop's sampled checks."""

    def check(self, protocol, params_by_id, times):
        rows, violations = oracles.per_step_log(protocol, params_by_id, times.tolist())
        samples = snapshot(protocol, times, params_by_id)
        assert len(samples) == len(rows)
        assert [samples.vehicle_ids[i] for i in samples.vehicle] == [r.vehicle_id for r in rows]
        assert [samples.lanes[i] for i in samples.vehicle] == [r.lane for r in rows]
        for column in ("t", "position", "speed", "accel"):
            assert_bit_equal(getattr(samples, column), [getattr(r, column) for r in rows])
        margins = oracles.rear_margins_per_row(protocol, params_by_id, times.tolist())
        assert_bit_equal(samples.rear_margin, _optional(margins))
        found = monitor(protocol, params_by_id).violations
        for v in found:
            assert type(v.time) is float and type(v.value) is float
        assert_covers(found, violations, params_by_id)
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


class TestLogAgreesWithReport:
    """The log reads the monitor's rear-end pairs: a vehicle with a sampled
    rear margin has a reported least margin, and no sample lies below it."""

    def check(self, protocol, params_by_id, times):
        samples = snapshot(protocol, times, params_by_id)
        report = monitor(protocol, params_by_id)
        for i, vid in enumerate(samples.vehicle_ids):
            margins = samples.rear_margin[samples.vehicle == i]
            margins = margins[~np.isnan(margins)]
            if len(margins):
                assert report.min_rear_margin[vid] is not None, vid
                assert margins.min() >= report.min_rear_margin[vid] - 1e-9, vid

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(2, 20),
        mean_gap=st.floats(1.0, 3.0),
        lanes=st.integers(1, 3),
        policy=st.sampled_from(list(Policy)),
    )
    def test_drawn_streams(self, seed, n_vehicles, mean_gap, lanes, policy):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            mean_gap=mean_gap,
            policy=policy,
        )
        protocol = oracles.admitted_protocol(scenario)
        params_by_id = {a.vehicle_id: a.params for a in scenario.arrivals}
        t_end = max((e.tf for e in protocol), default=0.0)
        self.check(protocol, params_by_id, np.arange(int(t_end / 0.01) + 2) * 0.01)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name, layout, params):
        protocol = hand_built_protocol(layout, name)
        params_by_id = {vid: params for vid, *_ in HAND_BUILT[name]}
        self.check(protocol, params_by_id, np.arange(2901) * 0.01)


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
