import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavcross import (
    ALL_MOVEMENTS,
    Cardinal,
    IntersectionLayout,
    Movement,
    Route,
    TurnKind,
    conflicts,
)
from cavcross.geometry import MAX_LANES_PER_APPROACH

import oracles

W, E, N, S = Cardinal.W, Cardinal.E, Cardinal.N, Cardinal.S


class TestMovement:
    def test_u_turn_rejected(self):
        for c in Cardinal:
            with pytest.raises(ValueError):
                Movement(c, c)

    def test_turn_kinds(self):
        expected = {
            (W, E): TurnKind.STRAIGHT, (E, W): TurnKind.STRAIGHT,
            (N, S): TurnKind.STRAIGHT, (S, N): TurnKind.STRAIGHT,
            (W, S): TurnKind.RIGHT, (S, E): TurnKind.RIGHT,
            (E, N): TurnKind.RIGHT, (N, W): TurnKind.RIGHT,
            (W, N): TurnKind.LEFT, (N, E): TurnKind.LEFT,
            (E, S): TurnKind.LEFT, (S, W): TurnKind.LEFT,
        }
        for (o, d), kind in expected.items():
            assert Movement(o, d).turn_kind is kind

    def test_all_movements_has_twelve(self):
        assert len(ALL_MOVEMENTS) == 12

    def test_ends_coerced_to_cardinals(self):
        movement = Movement("W", "E")
        assert movement == Movement(W, E) and str(movement) == "W->E"
        assert type(movement.origin) is Cardinal and type(movement.exit) is Cardinal
        for origin, exit_ in (("X", "E"), ("W", "east"), (None, E), (W, 5)):
            with pytest.raises(ValueError):
                Movement(origin, exit_)


class TestLayoutValidation:
    def test_defaults_follow_zone_side(self):
        layout = IntersectionLayout(merging_zone_side=25.0)
        assert layout.right_turn_radius == 12.5
        assert layout.left_turn_radius == 25.0

    def test_radius_must_fit_zone(self):
        with pytest.raises(ValueError):
            IntersectionLayout(merging_zone_side=25.0, left_turn_radius=26.0)
        with pytest.raises(ValueError):
            IntersectionLayout(merging_zone_side=25.0, right_turn_radius=30.0)

    def test_positive_lengths(self):
        with pytest.raises(ValueError):
            IntersectionLayout(merging_zone_side=0.0)
        with pytest.raises(ValueError):
            IntersectionLayout(control_zone_length=-1.0)
        with pytest.raises(ValueError):
            IntersectionLayout(lanes_per_approach=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["control_zone_length", "merging_zone_side", "right_turn_radius", "left_turn_radius"],
    )
    def test_non_finite_dimensions_rejected(self, name, value):
        with pytest.raises(ValueError):
            IntersectionLayout(**{name: value})

    @pytest.mark.parametrize("lanes", [True, False, 2.5, 2.0, "2", None])
    def test_lane_count_must_be_an_integer(self, lanes):
        with pytest.raises(ValueError, match="lanes_per_approach must be an integer"):
            IntersectionLayout(lanes_per_approach=lanes)

    def test_lane_count_cap(self):
        layout = IntersectionLayout(lanes_per_approach=MAX_LANES_PER_APPROACH)
        assert layout.lanes_for_approach(W)[-1] == 4 * MAX_LANES_PER_APPROACH
        for lanes in (MAX_LANES_PER_APPROACH + 1, 10**400):
            with pytest.raises(ValueError, match="lanes_per_approach must be between"):
                IntersectionLayout(lanes_per_approach=lanes)


class TestTotalDistance:
    def test_straight_reference_values(self, layout):
        # 2 * 125 + 25 with the merging-zone entry at 125 m
        assert layout.total_distance(Movement(W, E)) == pytest.approx(275.0)

    def test_right_turn_matches_arc_length_quadrature(self, layout):
        quad = oracles.quarter_arc_length(12.5)
        dist = layout.total_distance(Movement(W, S))
        assert dist == pytest.approx(250.0 + quad, abs=1e-6)
        assert dist == pytest.approx(269.6349540849362, abs=1e-9)

    def test_left_turn_matches_arc_length_quadrature(self, layout):
        quad = oracles.quarter_arc_length(25.0)
        assert layout.total_distance(Movement(W, N)) == pytest.approx(
            250.0 + quad, abs=1e-5
        )

    def test_degenerate_zero_control_zone(self):
        layout = IntersectionLayout(control_zone_length=0.0, merging_zone_side=25.0)
        assert layout.total_distance(Movement(W, E)) == pytest.approx(25.0)

    @pytest.mark.parametrize("kind_movement", [
        Movement(W, E), Movement(W, S), Movement(W, N),
    ])
    def test_strictly_increasing_in_lengths(self, kind_movement):
        base = IntersectionLayout(125.0, 25.0)
        bigger_sc = IntersectionLayout(130.0, 25.0)
        assert bigger_sc.total_distance(kind_movement) > base.total_distance(kind_movement)
        if kind_movement.turn_kind is TurnKind.STRAIGHT:
            bigger = IntersectionLayout(125.0, 30.0, right_turn_radius=12.5,
                                        left_turn_radius=25.0)
        elif kind_movement.turn_kind is TurnKind.RIGHT:
            bigger = IntersectionLayout(125.0, 25.0, right_turn_radius=14.0)
        else:
            bigger = IntersectionLayout(125.0, 25.0, left_turn_radius=24.0)
            assert bigger.total_distance(kind_movement) < base.total_distance(kind_movement)
            return
        assert bigger.total_distance(kind_movement) > base.total_distance(kind_movement)


class TestMergingWindow:
    def test_straight_window(self, layout):
        assert layout.merging_window(Movement(W, E)) == (125.0, 150.0)

    def test_right_turn_window(self, layout):
        window = layout.merging_window(Movement(W, S))
        assert window.entry == 125.0
        assert window.exit == pytest.approx(125.0 + math.pi * 6.25)

    def test_entry_always_at_control_zone_length(self, layout):
        for movement in ALL_MOVEMENTS:
            assert layout.merging_window(movement).entry == 125.0

    def test_window_inside_total_distance(self, layout):
        for movement in ALL_MOVEMENTS:
            window = layout.merging_window(movement)
            assert 0.0 < window.entry < window.exit < layout.total_distance(movement)


class TestAllowedLanes:
    def test_single_lane_approach(self, layout):
        for movement in ALL_MOVEMENTS:
            assert len(layout.allowed_lanes(movement)) == 1

    def test_two_lane_approach(self):
        layout = IntersectionLayout(lanes_per_approach=2)
        lanes_w = layout.lanes_for_approach(W)
        assert layout.allowed_lanes(Movement(W, S)) == (lanes_w[-1],)  # rightmost
        assert layout.allowed_lanes(Movement(W, N)) == (lanes_w[0],)  # leftmost
        assert layout.allowed_lanes(Movement(W, E)) == lanes_w

    def test_lane_approach_mapping(self):
        layout = IntersectionLayout(lanes_per_approach=2)
        for approach in Cardinal:
            for lane in layout.lanes_for_approach(approach):
                assert layout.lane_approach(lane) == approach
        with pytest.raises(ValueError):
            layout.lane_approach(9)


@st.composite
def layouts(draw):
    """A valid layout: any lane count, drawn zone sizes, default or drawn radii."""
    side = draw(st.floats(0.5, 200.0))
    radius = st.one_of(st.none(), st.floats(1e-3, 1.0).map(lambda f: f * side))
    return IntersectionLayout(
        control_zone_length=draw(st.floats(0.0, 1000.0)),
        merging_zone_side=side,
        right_turn_radius=draw(radius),
        left_turn_radius=draw(radius),
        lanes_per_approach=draw(st.integers(1, MAX_LANES_PER_APPROACH)),
    )


class TestRouteRecord:
    """Each movement's route record, computed once per layout, holds what the
    methods it replaced computed on every call, bit for bit."""

    @given(layout=layouts())
    def test_matches_per_call_methods(self, layout):
        for movement in ALL_MOVEMENTS:
            route = layout.route(movement)
            expected = Route(
                oracles.allowed_lanes_reference(layout, movement),
                oracles.total_distance_reference(layout, movement),
                oracles.merging_window_reference(layout, movement),
            )
            assert repr(route) == repr(expected)
            assert layout.allowed_lanes(movement) == expected.lanes
            assert repr(layout.total_distance(movement)) == repr(expected.total_distance)
            assert repr(layout.merging_window(movement)) == repr(expected.window)

    def test_not_part_of_equality_or_repr(self):
        layout = IntersectionLayout(lanes_per_approach=2)
        assert layout == IntersectionLayout(lanes_per_approach=2)
        assert hash(layout) == hash(IntersectionLayout(lanes_per_approach=2))
        assert "_routes" not in repr(layout)
        wider = dataclasses.replace(layout, lanes_per_approach=3)
        assert wider.allowed_lanes(Movement(W, E)) == (10, 11, 12)


class TestConflicts:
    def test_perpendicular_straights_cross(self):
        assert conflicts(Movement(W, E), Movement(N, S)) is True

    def test_opposing_straights_do_not(self):
        assert conflicts(Movement(W, E), Movement(E, W)) is False

    def test_same_approach_never_lateral(self):
        for a in ALL_MOVEMENTS:
            for b in ALL_MOVEMENTS:
                if a.origin == b.origin:
                    assert conflicts(a, b) is False

    def test_symmetry(self):
        for a in ALL_MOVEMENTS:
            for b in ALL_MOVEMENTS:
                assert conflicts(a, b) == conflicts(b, a)

    def test_classic_pairs(self):
        # opposing left crosses the straight; opposing right does not
        assert conflicts(Movement(W, E), Movement(E, S)) is True
        assert conflicts(Movement(W, E), Movement(E, N)) is False
        # merges into the same exit lane count as conflicts
        assert conflicts(Movement(W, E), Movement(N, E)) is True
        assert conflicts(Movement(W, E), Movement(S, E)) is True
        # right turn merging with the crossing straight it feeds into
        assert conflicts(Movement(W, S), Movement(N, S)) is True
        assert conflicts(Movement(W, S), Movement(S, N)) is False

    def test_matches_dense_sampling_oracle(self):
        # Geometric intersection agrees with a dense min-distance sweep of
        # the same canonical paths; 1e-3 separates touching from clear pairs.
        for a in ALL_MOVEMENTS:
            for b in ALL_MOVEMENTS:
                if a.origin == b.origin:
                    continue
                dist = oracles.dense_path_min_distance(a, b)
                assert conflicts(a, b) == (dist < 1e-3), (str(a), str(b), dist)
