"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import math
import time

import numpy as np
import pytest

from cavcross import (
    Arrival,
    Cardinal,
    CrossingProtocol,
    IntersectionLayout,
    Movement,
    VehicleParams,
    compare_policies,
    conflicts,
    generate_random_scenario,
    integrate_dynamics,
    load_scenario,
    min_feasible_tf,
    rear_end_margin,
    run,
    solve_boundary,
)
from cavcross.cli import metrics_json, trajectory_csv

import oracles
from conftest import REFERENCE_SCENARIO

W, E, N, S = Cardinal.W, Cardinal.E, Cardinal.N, Cardinal.S
WE = Movement(W, E)
NS = Movement(N, S)


def _passed(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def random_inputs(rng, n, v_lo=2.0, v_hi=18.0, s_lo=50.0, s_hi=500.0):
    out = []
    while len(out) < n:
        v0 = rng.uniform(v_lo, v_hi)
        s = rng.uniform(s_lo, s_hi)
        T = rng.uniform(0.3, 2.5) * s / v0
        out.append((v0, s, T))
    return out


def test_criterion_1_reference_scenario_properties():
    scenario = load_scenario(REFERENCE_SCENARIO)
    started = time.perf_counter()
    result = run(scenario)
    elapsed = time.perf_counter() - started

    assert result.violations == []
    # Rear-end margin non-negative at every sample.
    log = result.log
    for t, i, margin in zip(log.t.tolist(), log.vehicle.tolist(), log.rear_margin.tolist()):
        if not math.isnan(margin):
            assert margin >= 0.0, (log.vehicle_ids[i], t)
    # Conflicting merging-zone occupancies disjoint.
    entries = result.protocol.entries
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if conflicts(a.movement, b.movement):
                occ_a = result.protocol.merging_occupancy(a)
                occ_b = result.protocol.merging_occupancy(b)
                assert occ_a.t_out < occ_b.t_in or occ_b.t_out < occ_a.t_in
    # Speed strictly inside (2, 18), acceleration strictly inside (-3, 3):
    # no bound becomes active anywhere on any trajectory.
    for arrival in scenario.arrivals:
        report = result.plans[arrival.vehicle_id].trajectory.extrema
        assert 2.0 < report.min_speed and report.max_speed < 18.0
        assert -3.0 < report.min_accel and report.max_accel < 3.0
    for speed, accel in zip(log.speed.tolist(), log.accel.tolist()):
        assert 2.0 < speed < 18.0
        assert -3.0 < accel < 3.0
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    _passed(1, f"six-vehicle reference scenario, {elapsed:.2f}s")


def test_criterion_2_boundary_solver():
    rng = np.random.default_rng(1002)
    for v0, s, T in random_inputs(rng, 10_000):
        traj = solve_boundary(v0, s, 0.0, T)
        start = traj.eval(0.0)
        end = traj.eval(T)
        assert abs(start.position) <= 1e-9
        assert abs(start.speed - v0) <= 1e-9
        assert abs(end.position - s) <= 1e-9
        assert abs(end.accel) <= 1e-9

    traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
    assert abs(traj.c3 - (-0.0008)) <= 1e-12
    assert abs(traj.c2 - 0.06) <= 1e-12
    assert abs(traj.eval(25.0).speed - 11.5) <= 1e-12
    _passed(2, "boundary solver residuals <= 1e-9 on 10,000 random inputs")


def test_criterion_3_inversion():
    rng = np.random.default_rng(1003)
    checked = 0
    while checked < 100:
        v0, s, T = random_inputs(rng, 1)[0]
        traj = solve_boundary(v0, s, 0.0, T)
        if not traj.is_monotone:
            continue
        checked += 1
        times = np.linspace(0.0, T, 1000)
        previous = -math.inf
        for t in times:
            p = traj.eval(float(t)).position
            t_back = traj.invert(p)
            assert abs(t_back - t) <= 1e-8
        for p in np.linspace(0.0, s, 200):
            t_now = traj.invert(float(p))
            assert t_now > previous
            previous = t_now
    _passed(3, "inversion round-trip <= 1e-8 s and strictly increasing")


def test_criterion_4_energy_quadrature():
    # For this family the composite-trapezoid error is exactly J/(2 n^2), so
    # a 1e4-panel trapezoid sits at 5e-9 relative for every trajectory; the
    # 1e-9 relative check therefore runs against a 1e5-panel oracle, and the
    # structural 5e-9 ratio at 1e4 panels is asserted as further evidence
    # that the closed form is the exact value.
    rng = np.random.default_rng(1004)
    count = 0
    while count < 1000:
        v0, s, T = random_inputs(rng, 1)[0]
        if abs(T - s / v0) < 0.02 * s / v0:
            continue  # near-constant speed: J ~ 0, relative error undefined
        count += 1
        traj = solve_boundary(v0, s, 0.0, T)
        J = traj.energy_cost()
        quad = oracles.trapezoid_energy(traj, panels=100_000)
        assert abs(J - quad) <= 1e-9 * abs(quad) + 1e-15
        if count <= 50:
            coarse = oracles.trapezoid_energy(traj, panels=10_000)
            assert abs(coarse - J) / J == pytest.approx(5e-9, rel=0.02)

    for v0 in (4.0, 10.0, 18.0):
        traj = solve_boundary(v0, 275.0, 0.0, 275.0 / v0)
        assert traj.energy_cost() == 0.0
    _passed(4, "closed-form energy matches quadrature at 1e-9 relative")


def test_criterion_5_planner_minimality():
    layout = IntersectionLayout()
    params = VehicleParams()

    protocol = CrossingProtocol(layout)
    req = Arrival("cap", 0.0, WE, 18.0, params)
    lane = layout.allowed_lanes(WE)[0]
    tf = min_feasible_tf(req, lane, protocol, layout)
    assert abs(tf - 275.0 / 18.0) <= 1e-3

    rng = np.random.default_rng(1005)
    movements = [WE, NS, Movement(E, W), Movement(W, S), Movement(N, E), Movement(E, S)]
    single, pairs = 0, 0
    while single < 120:
        v0 = float(rng.uniform(2.0, 18.0))
        movement = movements[int(rng.integers(0, len(movements)))]
        protocol = CrossingProtocol(layout)
        req = Arrival(f"s{single}", 0.0, movement, v0, params)
        lane = layout.allowed_lanes(movement)[0]
        got = min_feasible_tf(req, lane, protocol, layout)
        want = oracles.grid_min_tf(req, lane, protocol, layout)
        assert got is not None and want is not None
        assert abs(got - want) <= 1e-3, (v0, str(movement))
        single += 1

    while pairs < 80:
        first_mv = movements[int(rng.integers(0, len(movements)))]
        second_mv = movements[int(rng.integers(0, len(movements)))]
        v_first = float(rng.uniform(6.0, 14.0))
        v_second = float(rng.uniform(6.0, 14.0))
        gap = float(rng.uniform(1.6, 6.0))
        protocol = CrossingProtocol(layout)
        lane_first = layout.allowed_lanes(first_mv)[0]
        first_req = Arrival("first", 0.0, first_mv, v_first, params)
        first_tf = min_feasible_tf(first_req, lane_first, protocol, layout)
        first = solve_boundary(v_first, layout.total_distance(first_mv), 0.0, first_tf)
        protocol.register(oracles.make_entry("first", first, first_mv, lane_first))

        second_req = Arrival("second", gap, second_mv, v_second, params)
        lane_second = layout.allowed_lanes(second_mv)[0]
        got = min_feasible_tf(second_req, lane_second, protocol, layout)
        want = oracles.grid_min_tf(second_req, lane_second, protocol, layout)
        if got is None or want is None:
            assert got == want
        else:
            assert abs(got - want) <= 1e-3, (str(first_mv), str(second_mv), gap)
        pairs += 1
    _passed(5, "planner matches brute-force grid on 200 randomized instances")


def test_criterion_6_safety_oracle_agreement():
    layout = IntersectionLayout()
    params = VehicleParams()
    lane = layout.allowed_lanes(WE)[0]
    rng = np.random.default_rng(1006)
    done = 0
    while done < 500:
        v_lead = float(rng.uniform(3.0, 17.0))
        v_follow = float(rng.uniform(3.0, 17.0))
        T_lead = 275.0 / float(rng.uniform(0.6 * v_lead, 1.5 * v_lead))
        T_follow = 275.0 / float(rng.uniform(0.6 * v_follow, 1.5 * v_follow))
        offset = float(rng.uniform(0.0, 5.0))
        lead = solve_boundary(v_lead, 275.0, 0.0, T_lead)
        follow = solve_boundary(v_follow, 275.0, offset, offset + T_follow)
        if not (lead.is_monotone and follow.is_monotone):
            continue
        done += 1
        analytic = rear_end_margin(follow, oracles.make_entry("k", lead, WE, lane), params)
        dense = oracles.dense_rear_end_min(follow, lead, params)
        assert abs(analytic - dense) <= 1e-6

    # Constant-speed threshold: equal profiles offset by h are safe exactly
    # when v*h >= standstill + headway*v, i.e. h >= 1.15 s at v = 10.
    v = 10.0
    threshold = params.safe_distance(v) / v
    assert threshold == pytest.approx(1.15)
    lead = oracles.make_entry("lead", solve_boundary(v, 275.0, 0.0, 27.5), WE, lane)
    at = solve_boundary(v, 275.0, threshold, threshold + 27.5)
    assert rear_end_margin(at, lead, params) >= 0.0
    early = solve_boundary(v, 275.0, threshold - 1e-3, threshold - 1e-3 + 27.5)
    assert rear_end_margin(early, lead, params) < 0.0
    _passed(6, "analytic rear-end minimum matches dense sampling on 500 pairs")


def test_criterion_7_fifo_dominance():
    feasible = 0
    seed = 0
    while feasible < 100:
        assert seed < 300, "generator failed to produce 100 feasible scenarios"
        scenario = generate_random_scenario(seed=seed, n_vehicles=5)
        seed += 1
        comparison = compare_policies(scenario)
        if comparison.optimal is None or comparison.fifo is None:
            continue
        feasible += 1
        for vid, optimal in comparison.optimal.items():
            assert optimal.tf <= comparison.fifo[vid].tf + 1e-9, (scenario.seed, vid)

    # Constructed strict improvement: the later vehicle clears the zone
    # before the slow leader arrives there; FIFO forbids exactly that.
    from cavcross import Policy, Scenario

    params = VehicleParams()
    scenario = Scenario(
        layout=IntersectionLayout(),
        arrivals=(
            Arrival("lead", 0.0, NS, 6.0, params),
            Arrival("late", 0.8, WE, 12.0, params),
        ),
        policy=Policy.OPTIMAL,
    )
    comparison = compare_policies(scenario)
    delta = comparison.travel_time_delta()
    assert delta is not None and delta > 1.0
    _passed(7, "optimal never slower than FIFO on 100 scenarios, strict case found")


def test_criterion_8_dynamics_cross_check():
    rng = np.random.default_rng(1008)
    # Horizons up to (and beyond) 30 s at the fixed 0.01 s step.
    for v0, s, T in random_inputs(rng, 50, s_lo=150.0, s_hi=600.0):
        traj = solve_boundary(v0, s, 0.0, max(T, 30.0))
        check = integrate_dynamics(traj, dt=0.01)
        assert check.max_position_error <= 1e-6
        assert check.max_speed_error <= 1e-6
    result = run(load_scenario(REFERENCE_SCENARIO))
    for chk in result.integration_checks.values():
        assert chk.max_position_error <= 1e-6 and chk.max_speed_error <= 1e-6
    _passed(8, "fixed-step integration reproduces closed forms within 1e-6")


def test_criterion_9_determinism():
    scenario = load_scenario(REFERENCE_SCENARIO)
    first = run(scenario)
    second = run(scenario)
    assert trajectory_csv(first) == trajectory_csv(second)
    assert metrics_json(first) == metrics_json(second)

    generated = generate_random_scenario(seed=77, n_vehicles=4)
    a, b = run(generated), run(generated)
    assert trajectory_csv(a) == trajectory_csv(b)
    assert metrics_json(a) == metrics_json(b)
    _passed(9, "repeated runs produce byte-identical logs")
