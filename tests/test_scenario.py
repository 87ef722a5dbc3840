import textwrap

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from cavcross import (
    Cardinal,
    IntersectionLayout,
    Policy,
    ScenarioError,
    generate_random_scenario,
    load_scenario,
    parse_scenario_dict,
    save_scenario,
    scenario_to_dict,
)


MINIMAL = textwrap.dedent(
    """
    layout:
      control_zone_length_m: 125.0
      merging_zone_side_m: 25.0
    defaults:
      accel_min_mps2: -3.0
      accel_max_mps2: 3.0
      speed_min_mps: 2.0
      speed_max_mps: 18.0
      headway_s: 1.0
      standstill_gap_m: 1.5
    arrivals:
      - id: a
        time_s: 0.0
        from: W
        to: E
        speed_mps: 10.0
    """
)


def parse_text(text):
    return parse_scenario_dict(yaml.safe_load(text))


class TestParsing:
    def test_minimal_document(self):
        scenario = parse_text(MINIMAL)
        assert scenario.layout.control_zone_length == 125.0
        assert scenario.layout.right_turn_radius == 12.5  # defaulted
        assert scenario.policy is Policy.OPTIMAL
        assert scenario.dt == 0.01
        (arrival,) = scenario.arrivals
        assert arrival.vehicle_id == "a"
        assert arrival.movement.origin is Cardinal.W

    def test_reference_file(self, reference_path):
        scenario = load_scenario(reference_path)
        assert len(scenario.arrivals) == 6
        assert scenario.layout.merging_zone_side == 25.0
        assert scenario.arrivals[0].params.v_max == 18.0

    def test_per_arrival_param_override(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"][0]["params"] = {"speed_max_mps": 15.0}
        scenario = parse_scenario_dict(doc)
        assert scenario.arrivals[0].params.v_max == 15.0
        assert scenario.arrivals[0].params.v_min == 2.0  # inherited


class TestValidation:
    def test_unknown_top_level_key(self):
        doc = yaml.safe_load(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown keys.*extra"):
            parse_scenario_dict(doc)

    def test_unknown_layout_key(self):
        doc = yaml.safe_load(MINIMAL)
        doc["layout"]["width"] = 3.0
        with pytest.raises(ScenarioError, match="layout.*width"):
            parse_scenario_dict(doc)

    def test_missing_section(self):
        doc = yaml.safe_load(MINIMAL)
        del doc["defaults"]
        with pytest.raises(ScenarioError, match="defaults"):
            parse_scenario_dict(doc)

    def test_bad_cardinal(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"][0]["from"] = "Q"
        with pytest.raises(ScenarioError, match=r"arrivals\[0\].from"):
            parse_scenario_dict(doc)

    def test_u_turn_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"][0]["to"] = "W"
        with pytest.raises(ScenarioError, match="U-turn"):
            parse_scenario_dict(doc)

    def test_non_numeric_field(self):
        doc = yaml.safe_load(MINIMAL)
        doc["defaults"]["headway_s"] = "fast"
        with pytest.raises(ScenarioError, match="defaults.headway_s"):
            parse_scenario_dict(doc)

    def test_bad_policy(self):
        doc = yaml.safe_load(MINIMAL)
        doc["policy"] = "greedy"
        with pytest.raises(ScenarioError, match="policy"):
            parse_scenario_dict(doc)

    def test_arrival_speed_out_of_bounds(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"][0]["speed_mps"] = 50.0
        with pytest.raises(ScenarioError, match="arrival speed 50.0 outside") as info:
            parse_scenario_dict(doc)
        assert info.value.field == "arrivals[0]"

    def test_decreasing_arrivals(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"].append(
            {"id": "b", "time_s": -1.0, "from": "N", "to": "S", "speed_mps": 9.0}
        )
        with pytest.raises(ScenarioError, match="non-decreasing"):
            parse_scenario_dict(doc)

    def test_invalid_yaml_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("layout: [unclosed\n")
        with pytest.raises(ScenarioError, match="YAML") as info:
            load_scenario(path)
        assert info.value.field == "line 2"


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, reference_path):
        scenario = load_scenario(reference_path)
        doc = scenario_to_dict(scenario)
        again = parse_scenario_dict(doc)
        assert again == scenario

    def test_save_and_load(self, tmp_path, reference_path):
        scenario = load_scenario(reference_path)
        out = tmp_path / "copy.yaml"
        save_scenario(scenario, out)
        assert load_scenario(out) == scenario

    def test_round_trip_with_overrides_and_seed(self):
        doc = yaml.safe_load(MINIMAL)
        doc["arrivals"][0]["params"] = {"speed_max_mps": 15.0}
        doc["sim"] = {"seed": 42, "lateral_buffer_s": 1.0}
        scenario = parse_scenario_dict(doc)
        assert parse_scenario_dict(scenario_to_dict(scenario)) == scenario

    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(0, 30),
        mean_gap=st.floats(0.5, 10.0),
        policy=st.sampled_from(list(Policy)),
        lanes=st.sampled_from([1, 2, 3]),
    )
    def test_generated_scenarios_round_trip(self, seed, n_vehicles, mean_gap, policy, lanes):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            policy=policy,
            mean_gap=mean_gap,
        )
        doc = scenario_to_dict(scenario)
        assert parse_scenario_dict(doc) == scenario
        assert parse_scenario_dict(yaml.safe_load(yaml.safe_dump(doc))) == scenario


class TestGenerator:
    def test_reproducible(self):
        a = generate_random_scenario(seed=5, n_vehicles=5)
        b = generate_random_scenario(seed=5, n_vehicles=5)
        assert a == b
        assert a.seed == 5

    def test_distinct_seeds_differ(self):
        assert generate_random_scenario(seed=1) != generate_random_scenario(seed=2)

    def test_generated_scenarios_are_valid_and_runnable(self):
        from cavcross import run

        for seed in range(3):
            scenario = generate_random_scenario(seed=seed, n_vehicles=4)
            result = run(scenario)
            assert result.ok
