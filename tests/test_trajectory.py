import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cavcross import (
    ALL_MOVEMENTS,
    CubicTrajectory,
    IntersectionLayout,
    InvalidHorizonError,
    NonMonotoneError,
    OutOfDomainError,
    VehicleParams,
    solve_boundary,
)
from cavcross.planner import _within_caps
from cavcross.trajectory import _least_horizon_behind

import oracles


def random_boundary_inputs(rng, n):
    """(v0, s_total, T) triples that keep the cubic forward-moving."""
    out = []
    while len(out) < n:
        v0 = rng.uniform(2.0, 18.0)
        s = rng.uniform(50.0, 500.0)
        # Stay below the monotonicity limit T < 3*s/v0 with margin.
        T = rng.uniform(0.3 * s / v0, 2.5 * s / v0)
        out.append((v0, s, T))
    return out


class TestVehicleParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VehicleParams(u_min=0.5)
        with pytest.raises(ValueError):
            VehicleParams(v_min=-1.0)
        with pytest.raises(ValueError):
            VehicleParams(v_min=20.0, v_max=18.0)
        with pytest.raises(ValueError):
            VehicleParams(headway=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["u_min", "u_max", "v_min", "v_max", "headway", "standstill_gap", "reaction_gain"]
    )
    def test_non_finite_rejected(self, name, value):
        # A NaN headway made both the planner's and the monitor's rear-end
        # tests false, so a follower could be planned through its leader.
        with pytest.raises(ValueError, match="finite"):
            VehicleParams(**{name: value})

    def test_safe_distance(self):
        params = VehicleParams(headway=1.0, standstill_gap=1.5)
        assert params.safe_distance(10.0) == 11.5


class TestSolveBoundary:
    def test_constant_speed_degenerate(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)
        assert traj.c3 == 0.0
        assert traj.c2 == 0.0
        assert traj.c1 == 10.0
        assert traj.c0 == 0.0

    def test_worked_example_coefficients(self):
        # Frozen from the 4x4 linear-system oracle for (v0=10, s=275, T=25).
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        assert traj.c3 == pytest.approx(-0.0008, abs=1e-12)
        assert traj.c2 == pytest.approx(0.06, abs=1e-12)
        assert traj.eval(25.0).speed == pytest.approx(11.5, abs=1e-12)
        assert traj.eval(0.0).accel == pytest.approx(0.12, abs=1e-12)

        oracle = oracles.solve_cubic_linear_system(10.0, 275.0, 25.0)
        assert traj.c3 == pytest.approx(oracle[0], abs=1e-12)
        assert traj.c2 == pytest.approx(oracle[1], abs=1e-12)
        assert traj.c1 == pytest.approx(oracle[2], abs=1e-12)
        assert traj.c0 == pytest.approx(oracle[3], abs=1e-12)

    def test_time_shift_invariance(self):
        a = solve_boundary(10.0, 275.0, 0.0, 25.0)
        b = solve_boundary(10.0, 275.0, 5.0, 30.0)
        assert (a.c3, a.c2, a.c1, a.c0) == (b.c3, b.c2, b.c1, b.c0)

    def test_boundary_residuals_random(self):
        rng = np.random.default_rng(7)
        for v0, s, T in random_boundary_inputs(rng, 1000):
            traj = solve_boundary(v0, s, 0.0, T)
            start = traj.eval(0.0)
            end = traj.eval(T)
            assert abs(start.position) <= 1e-9
            assert abs(start.speed - v0) <= 1e-9
            assert abs(end.position - s) <= 1e-9
            assert abs(end.accel) <= 1e-9

    def test_matches_linear_system_random(self):
        rng = np.random.default_rng(8)
        for v0, s, T in random_boundary_inputs(rng, 200):
            traj = solve_boundary(v0, s, 0.0, T)
            oracle = oracles.solve_cubic_linear_system(v0, s, T)
            np.testing.assert_allclose(
                [traj.c3, traj.c2, traj.c1, traj.c0], oracle, rtol=1e-9, atol=1e-9
            )

    def test_invalid_horizon(self):
        with pytest.raises(InvalidHorizonError):
            solve_boundary(10.0, 100.0, 5.0, 5.0)
        with pytest.raises(InvalidHorizonError):
            solve_boundary(10.0, 100.0, 5.0, 4.0)

    def test_non_monotone_flagged(self):
        # T late enough that the terminal speed goes negative.
        traj = solve_boundary(10.0, 50.0, 0.0, 20.0)
        assert traj.eval(20.0).speed < 0.0
        assert not traj.is_monotone
        with pytest.raises(NonMonotoneError):
            traj.invert(25.0)


class TestEval:
    def test_constant_speed(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)
        assert traj.eval(10.0) == pytest.approx((100.0, 10.0, 0.0))

    def test_worked_example_terminal(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        p, v, u = traj.eval(25.0)
        assert p == pytest.approx(275.0, abs=1e-9)
        assert v == pytest.approx(11.5, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)

    def test_entry_conditions(self):
        traj = solve_boundary(12.0, 300.0, 3.0, 26.0)
        p, v, u = traj.eval(3.0)
        assert p == 0.0
        assert v == 12.0
        assert u == pytest.approx(2.0 * traj.c2)

    def test_out_of_domain(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        with pytest.raises(OutOfDomainError):
            traj.eval(-1.0)
        with pytest.raises(OutOfDomainError):
            traj.eval(25.1)


class TestInvert:
    def test_linear_inverse(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)
        assert traj.invert(100.0) == pytest.approx(10.0, abs=1e-9)

    def test_terminal_position(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        assert traj.invert(275.0) == pytest.approx(25.0, abs=1e-9)
        assert traj.invert(0.0) == 0.0

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(9)
        for v0, s, T in random_boundary_inputs(rng, 100):
            traj = solve_boundary(v0, s, 0.0, T)
            if not traj.is_monotone:
                continue
            for t in np.linspace(0.0, T, 50):
                p = traj.eval(float(t)).position
                assert abs(traj.invert(p) - t) <= 1e-8

    def test_strictly_increasing(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        positions = np.linspace(0.0, 275.0, 200)
        times = [traj.invert(float(p)) for p in positions]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_position_out_of_range(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        with pytest.raises(OutOfDomainError):
            traj.invert(-5.0)
        with pytest.raises(OutOfDomainError):
            traj.invert(300.0)


class TestInverseCubicFit:
    def test_constant_speed_exact(self):
        traj = solve_boundary(10.0, 275.0, 2.0, 29.5)
        fit = traj.inverse_cubic_fit()
        assert fit.c3 == pytest.approx(0.0, abs=1e-12)
        assert fit.c2 == pytest.approx(0.0, abs=1e-12)
        assert fit.c1 == pytest.approx(0.1, abs=1e-10)
        assert fit.c0 == pytest.approx(2.0, abs=1e-8)
        assert fit.max_residual <= 1e-8

    def test_residual_reported_for_curved_profile(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        fit = traj.inverse_cubic_fit()
        assert fit.max_residual > 0.0
        # The fit stays within its own reported residual of the exact inverse.
        for p in np.linspace(0.0, 275.0, 37):
            exact = traj.invert(float(p))
            assert abs(fit.time_at(float(p)) - exact) <= fit.max_residual + 1e-12

    def test_fit_is_diagnostic_not_exact(self):
        traj = solve_boundary(4.0, 275.0, 0.0, 40.0)
        fit = traj.inverse_cubic_fit()
        assert fit.max_residual > 1e-6  # the true inverse is not a cubic


class TestFeasibility:
    def test_reference_bounds_feasible(self, params):
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)
        assert _within_caps(traj.extrema, params)

    def test_worked_example_extrema(self, params):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        extrema = traj.extrema
        assert extrema.max_speed == pytest.approx(11.5, abs=1e-12)
        assert extrema.min_speed == pytest.approx(10.0, abs=1e-12)
        assert extrema.max_accel == pytest.approx(0.12, abs=1e-12)
        assert _within_caps(extrema, params)

    def test_mean_value_infeasible(self, params):
        # 275 m in 5 s needs a mean speed of 55 m/s; far beyond the limit.
        traj = solve_boundary(2.0, 275.0, 0.0, 5.0)
        assert traj.extrema.max_speed > params.v_max
        assert not _within_caps(traj.extrema, params)

    def test_extrema_match_dense_sampling(self):
        rng = np.random.default_rng(10)
        for v0, s, T in random_boundary_inputs(rng, 100):
            traj = solve_boundary(v0, s, 0.0, T)
            extrema = traj.extrema
            vmin, vmax, umin, umax = oracles.dense_speed_accel_extrema(traj)
            assert extrema.min_speed == pytest.approx(vmin, abs=1e-6)
            assert extrema.max_speed == pytest.approx(vmax, abs=1e-6)
            assert extrema.min_accel == pytest.approx(umin, abs=1e-6)
            assert extrema.max_accel == pytest.approx(umax, abs=1e-6)

    def test_tighter_horizon_never_relaxes_extremes(self):
        # Shrinking the horizon with fixed distance demands more speed/accel.
        v0, s = 10.0, 275.0
        prev_speed, prev_accel = -math.inf, -math.inf
        for T in [27.5, 25.0, 22.0, 20.0, 18.0, 16.5]:
            extrema = solve_boundary(v0, s, 0.0, T).extrema
            assert extrema.max_speed >= prev_speed - 1e-12
            assert extrema.max_accel >= prev_accel - 1e-12
            prev_speed, prev_accel = extrema.max_speed, extrema.max_accel


class TestEnergyCost:
    def test_zero_for_constant_speed(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 27.5)
        assert traj.energy_cost() == 0.0

    def test_constant_control_reduction(self):
        # With c3 = 0 the control is constant 2*c2 and J = (1/2) u^2 T.
        traj = CubicTrajectory(0.0, 0.06, 10.0, 0.0, 0.0, 25.0, 287.5)
        u = 2.0 * 0.06
        assert traj.energy_cost() == pytest.approx(0.5 * u * u * 25.0, abs=1e-15)

    def test_worked_example_vs_quadrature(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        quad = oracles.trapezoid_energy(traj, panels=10_000)
        assert traj.energy_cost() == pytest.approx(0.06, abs=1e-12)
        assert traj.energy_cost() == pytest.approx(quad, abs=1e-9)

    def test_matches_fine_quadrature_random(self):
        rng = np.random.default_rng(11)
        for v0, s, T in random_boundary_inputs(rng, 100):
            traj = solve_boundary(v0, s, 0.0, T)
            quad = oracles.trapezoid_energy(traj, panels=100_000)
            assert traj.energy_cost() == pytest.approx(quad, rel=1e-9, abs=1e-12)


class TestCubicTrajectoryInvariants:
    def test_entry_position_must_be_zero(self):
        with pytest.raises(ValueError):
            CubicTrajectory(0.0, 0.0, 10.0, 5.0, 0.0, 10.0, 100.0)

    def test_total_distance_consistency(self):
        with pytest.raises(ValueError):
            CubicTrajectory(0.0, 0.0, 10.0, 0.0, 0.0, 10.0, 42.0)

    def test_absolute_coefficients_match_eval(self):
        traj = solve_boundary(9.0, 300.0, 4.0, 31.0)
        a3, a2, a1, a0 = traj.absolute_coefficients()
        for t in np.linspace(4.0, 31.0, 23):
            direct = ((a3 * t + a2) * t + a1) * t + a0
            assert direct == pytest.approx(traj.eval(float(t)).position, abs=1e-8)


def _assert_extrema_agree(traj, caps):
    """Cached extrema against the per-call computation they replace."""
    assert traj.is_monotone == (oracles.min_speed_reference(traj) > 0.0)
    report = oracles.feasibility_reference(traj, caps)
    assert _within_caps(traj.extrema, caps) == report.ok
    assert tuple(traj.extrema) == (
        report.min_speed,
        report.max_speed,
        report.min_accel,
        report.max_accel,
    )


class TestCachedExtrema:
    """`extrema`, `is_monotone` and the planner's bounds test give exactly
    what the per-call endpoint-and-vertex computation gave."""

    @given(
        v0=st.floats(0.5, 20.0),
        s_total=st.floats(5.0, 400.0),
        ratio=st.floats(0.2, 3.5),
        t0=st.floats(0.0, 3600.0),
        v_min=st.floats(0.1, 6.0),
        v_span=st.floats(0.5, 20.0),
        u_min=st.floats(-6.0, -0.05),
        u_max=st.floats(0.05, 6.0),
    )
    @example(v0=10.0, s_total=275.0, ratio=1.0, t0=0.0, v_min=2.0, v_span=16.0, u_min=-3.0, u_max=3.0)
    @example(v0=2.0, s_total=275.0, ratio=0.05, t0=0.0, v_min=2.0, v_span=16.0, u_min=-3.0, u_max=3.0)
    def test_boundary_cubics(self, v0, s_total, ratio, t0, v_min, v_span, u_min, u_max):
        traj = solve_boundary(v0, s_total, t0, t0 + ratio * s_total / v0)
        _assert_extrema_agree(traj, VehicleParams(u_min, u_max, v_min, v_min + v_span))

    def test_constant_speed_has_no_vertex(self):
        # T = s/v0 exactly: c3 == 0 and the speed is flat.
        traj = solve_boundary(10.0, 275.0, 3.0, 30.5)
        assert traj.c3 == 0.0 and traj.c2 == 0.0
        assert traj.extrema == (10.0, 10.0, 0.0, 0.0)
        _assert_extrema_agree(traj, VehicleParams())

    def test_interior_vertex(self):
        # v(tau) = 0.03 tau^2 - 0.6 tau + 10 has its minimum 7 at tau = 10.
        traj = CubicTrajectory(0.01, -0.3, 10.0, 0.0, 2.0, 22.0, 160.0)
        assert traj.extrema.min_speed == pytest.approx(7.0)
        assert traj.extrema.max_speed == 10.0
        for v_min in (6.0, 7.5, traj.extrema.min_speed):
            _assert_extrema_agree(traj, VehicleParams(v_min=v_min))

    def test_caps_hit_exactly(self):
        traj = solve_boundary(10.0, 275.0, 0.0, 25.0)
        min_speed, max_speed, min_accel, max_accel = traj.extrema
        assert min_accel < 0.0 < max_accel
        at = VehicleParams(min_accel, max_accel, min_speed, max_speed)
        assert _within_caps(traj.extrema, at)
        _assert_extrema_agree(traj, at)
        for nudged in (
            VehicleParams(min_accel, math.nextafter(max_accel, 0.0), min_speed, max_speed),
            VehicleParams(math.nextafter(min_accel, 0.0), max_accel, min_speed, max_speed),
            VehicleParams(min_accel, max_accel, math.nextafter(min_speed, 99.0), max_speed),
            VehicleParams(min_accel, max_accel, min_speed, math.nextafter(max_speed, 0.0)),
        ):
            assert not _within_caps(traj.extrema, nudged)
            _assert_extrema_agree(traj, nudged)


def _assert_kernels_match_copies(traj, fractions):
    """Extrema, absolute coefficients and inverse give the bits of the
    original methods (verbatim copies in `oracles`), at both ends of the
    path and at the given fractions of it."""
    assert repr(tuple(traj.extrema)) == repr(tuple(oracles.extrema_reference(traj)))
    assert repr(traj.absolute_coefficients()) == repr(
        oracles.absolute_coefficients_reference(traj)
    )
    for p in (0.0, traj.s_total, *(f * traj.s_total for f in fractions)):
        oracles.assert_same_outcome(lambda: traj.invert(p), lambda: oracles.invert_reference(traj, p))
    if traj.is_monotone:
        assert repr(traj.invert(0.0)) == repr(traj.t0)
        assert repr(traj.invert(traj.s_total)) == repr(traj.tf)


class TestFloatKernelsMatchOriginalMethods:
    """The float kernels that the methods and the planner's probes share give
    exactly what the methods computed before the kernels were factored out."""

    @given(
        v0=st.floats(0.5, 20.0),
        s_total=st.floats(5.0, 400.0),
        ratio=st.floats(0.2, 3.5),
        t0=st.floats(0.0, 3600.0),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    # T = s/v0 exactly: c3 == 0.
    @example(v0=10.0, s_total=275.0, ratio=1.0, t0=3.0, fractions=[0.5])
    # Non-monotone: the inverse raises on both sides.
    @example(v0=10.0, s_total=275.0, ratio=3.2, t0=0.0, fractions=[0.5])
    def test_boundary_cubics(self, v0, s_total, ratio, t0, fractions):
        tf = t0 + ratio * s_total / v0
        oracles.assert_same_outcome(
            lambda: solve_boundary(v0, s_total, t0, tf),
            lambda: oracles.solve_boundary_reference(v0, s_total, t0, tf),
        )
        _assert_kernels_match_copies(solve_boundary(v0, s_total, t0, tf), fractions)

    @given(
        c3=st.floats(1e-4, 0.05),
        vertex_at=st.floats(0.01, 0.99),
        v_vertex=st.floats(0.5, 10.0),
        T=st.floats(5.0, 40.0),
        t0=st.floats(0.0, 3600.0),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    @example(c3=0.01, vertex_at=0.5, v_vertex=7.0, T=20.0, t0=2.0, fractions=[0.5])
    def test_interior_speed_vertex(self, c3, vertex_at, v_vertex, T, t0, fractions):
        # v(tau) = 3*c3*(tau - vertex)^2 + v_vertex has its minimum inside.
        vertex = vertex_at * T
        c2 = -3.0 * c3 * vertex
        c1 = 3.0 * c3 * vertex * vertex + v_vertex
        s_total = ((c3 * T + c2) * T + c1) * T
        traj = CubicTrajectory(c3, c2, c1, 0.0, t0, t0 + T, s_total)
        assert traj.extrema.min_speed < min(traj.eval(traj.t0).speed, traj.eval(traj.tf).speed)
        _assert_kernels_match_copies(traj, fractions)


@st.composite
def entry_targets(draw):
    """A movement's boundary-cubic setting, a horizon bracket [lo, hi] in the
    regime where zone entry grows with the horizon (hi at its end 2*s/v0 or
    at a cap below it), and an entry-time target: one the bracket's horizons
    reach (its ends included), at or before the start, at or past `hi`, or
    reached at T = s/v0 exactly, the constant-speed horizon."""
    layout = IntersectionLayout()
    params = VehicleParams()
    movement = draw(st.sampled_from(ALL_MOVEMENTS))
    s_total = layout.total_distance(movement)
    position = layout.merging_window(movement).entry
    v0 = draw(st.floats(params.v_min, params.v_max))
    t0 = draw(st.floats(0.0, 3600.0))
    regime = 2.0 * s_total / v0
    hi = draw(st.one_of(st.just(regime), st.floats(0.3, 1.0).map(lambda f: f * regime)))
    lo = draw(st.floats(0.2, 1.0, exclude_max=True)) * hi

    def entry_offset(T):
        return oracles.invert_reference(
            oracles.solve_boundary_reference(v0, s_total, 0.0, T), position
        )

    tau = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0]).map(lambda f: entry_offset(lo + f * (hi - lo))),
            st.floats(0.0, 1.0).map(lambda f: entry_offset(lo + f * (hi - lo))),
            st.floats(-10.0, 0.0),
            st.floats(0.0, 10.0).map(lambda d: hi + d),
            st.just(position / v0),
        )
    )
    return v0, s_total, position, t0, t0 + tau, lo, hi


class TestLeastHorizonBehind:
    """The kernel that finds the horizon whose zone entry reaches a target
    agrees with inverting the original search's trajectories: the horizon it
    returns enters at or after the target, and the next float down enters
    before it, both to within RESOLUTION_ULPS of the target; None means the
    bracket's last horizon enters before it."""

    RESOLUTION_ULPS = 8

    @given(query=entry_targets())
    @example(query=(10.0, 275.0, 125.0, 0.0, 12.5, 20.0, 55.0))  # T = s/v0 = 27.5 exactly
    @example(query=(10.0, 275.0, 125.0, 3600.0, 3612.5, 20.0, 55.0))
    @example(query=(10.0, 275.0, 125.0, 7.0, 7.0, 20.0, 55.0))  # tau = 0
    @example(query=(10.0, 275.0, 125.0, 7.0, 62.0, 20.0, 55.0))  # tau = hi
    def test_agrees_with_inversion(self, query):
        v0, s_total, position, t0, target, lo, hi = query

        def entry(T):
            traj = oracles.solve_boundary_reference(v0, s_total, t0, t0 + T)
            return oracles.invert_reference(traj, position)

        tol = self.RESOLUTION_ULPS * math.ulp(target)
        T = _least_horizon_behind(v0, s_total, position, target - t0, lo, hi)
        if T is None:
            assert entry(hi) < target + tol
            return
        assert lo <= T <= hi
        assert entry(T) >= target - tol
        if T > lo:
            assert entry(math.nextafter(T, -math.inf)) < target + tol

    def test_constant_speed_horizon(self):
        # At T = s/v0 the cubic is the line v0*tau, which is at 125 m at 12.5 s.
        assert _least_horizon_behind(10.0, 275.0, 125.0, 12.5, 20.0, 55.0) == pytest.approx(
            27.5, rel=1e-15
        )
        assert _least_horizon_behind(10.0, 275.0, 125.0, 0.0, 20.0, 55.0) == 20.0
        assert _least_horizon_behind(10.0, 275.0, 125.0, 55.0, 20.0, 55.0) is None
