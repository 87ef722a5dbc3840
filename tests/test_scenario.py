import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavcross import (
    Arrival,
    Cardinal,
    IntersectionLayout,
    Movement,
    Policy,
    Scenario,
    ScenarioError,
    VehicleParams,
    generate_random_scenario,
    load_scenario,
    parse_scenario_dict,
    save_scenario,
    scenario_to_dict,
)
from cavcross import scenario as scenario_module


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

    @pytest.mark.parametrize("key", [1, None, 2.5, True])
    @pytest.mark.parametrize("section", ["<root>", "layout"])
    def test_non_string_key(self, section, key):
        doc = yaml.safe_load(MINIMAL)
        (doc if section == "<root>" else doc[section])[key] = 2
        with pytest.raises(ScenarioError, match="expected string keys") as info:
            parse_scenario_dict(doc)
        assert info.value.field == section

    def test_integer_too_large_for_a_float(self):
        doc = yaml.safe_load(MINIMAL)
        doc["layout"]["control_zone_length_m"] = 10**400
        with pytest.raises(ScenarioError, match="out of range") as info:
            parse_scenario_dict(doc)
        assert info.value.field == "layout.control_zone_length_m"

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"# caf\xff\xfe\n" + MINIMAL.encode())
        with pytest.raises(ScenarioError, match="not valid YAML") as info:
            load_scenario(path)
        assert info.value.field == "document"

    def test_utf16_with_bom(self, tmp_path):
        path = tmp_path / "utf16.yaml"
        path.write_bytes(MINIMAL.encode("utf-16"))
        assert load_scenario(path) == parse_text(MINIMAL)


# Where in the minimal document drawn entries go, and the keys allowed there.
_SECTIONS = {
    "<root>": (lambda doc: doc, scenario_module._TOP_KEYS),
    "layout": (lambda doc: doc["layout"], scenario_module._LAYOUT_KEYS),
    "defaults": (lambda doc: doc["defaults"], scenario_module._PARAM_KEYS),
    "sim": (lambda doc: doc.setdefault("sim", {}), scenario_module._SIM_KEYS),
    "arrival": (lambda doc: doc["arrivals"][0], scenario_module._ARRIVAL_KEYS),
    "params": (
        lambda doc: doc["arrivals"][0].setdefault("params", {}), scenario_module._PARAM_KEYS
    ),
}
_SCALARS = st.one_of(
    st.one_of(st.integers(), st.integers(10**300, 10**400), st.floats()),
    st.one_of(st.none(), st.booleans(), st.text(max_size=5)),
    st.sampled_from(["N", "E", "S", "W", "optimal", "fifo"]),
)


class TestArbitraryEntries:
    """Any keys with any scalar values, placed in any section of a valid
    document, parse or raise ScenarioError: nothing else escapes."""

    @settings(max_examples=250)
    @given(section=st.sampled_from(sorted(_SECTIONS)), data=st.data())
    def test_parse_or_scenario_error(self, section, data):
        doc = yaml.safe_load(MINIMAL)
        node, known = _SECTIONS[section]
        keys = st.one_of(
            st.sampled_from(sorted(known)),
            st.one_of(st.text(max_size=5), st.integers(), st.none(), st.booleans(), st.floats()),
        )
        node(doc).update(data.draw(st.dictionaries(keys, _SCALARS, max_size=4)))
        try:
            parse_scenario_dict(doc)
        except ScenarioError:
            pass


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


@st.composite
def scenarios(draw):
    """Scenarios with 1-3 lanes, either policy, any non-empty vehicle ids,
    times over many magnitudes and per-arrival parameter overrides."""
    times = sorted(draw(st.lists(st.floats(-1e12, 1e12), max_size=8)))
    # Printable ASCII ids go through libyaml; others through PyYAML's emitter.
    printable = st.text(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=200
    )
    ids = st.one_of(st.text(min_size=1), printable)
    ids = draw(st.lists(ids, min_size=len(times), max_size=len(times), unique=True))
    base = VehicleParams()
    arrivals = []
    for vid, time in zip(ids, times):
        params = base
        if draw(st.booleans()):
            params = dataclasses.replace(
                base,
                v_max=draw(st.floats(base.v_min * 2.0, 40.0)),
                headway=draw(st.floats(1e-7, 1e7)),
                reaction_gain=draw(st.floats(0.1, 2.0)),
            )
        origin = draw(st.sampled_from(list(Cardinal)))
        dest = draw(st.sampled_from([c for c in Cardinal if c != origin]))
        v0 = draw(st.floats(params.v_min, params.v_max))
        arrivals.append(Arrival(vid, time, Movement(origin, dest), v0, params))
    return Scenario(
        layout=IntersectionLayout(lanes_per_approach=draw(st.integers(1, 3))),
        arrivals=tuple(arrivals),
        policy=draw(st.sampled_from(list(Policy))),
        dt=draw(st.floats(1e-7, 1.0)),
        lateral_buffer=draw(st.floats(0.0, 1e7)),
        seed=draw(st.none() | st.integers(0, 2**63)),
    )


class TestWriter:
    """`save_scenario` writes the bytes PyYAML's pure-Python safe_dump
    gives, through libyaml's emitter where PyYAML has it and through the
    pure one otherwise, and the file loads back to an equal scenario."""

    @pytest.fixture(params=["libyaml", "pure"])
    def emitter(self, request, monkeypatch):
        if request.param == "libyaml":
            if not yaml.__with_libyaml__:
                pytest.skip("PyYAML was built without libyaml")
        else:
            # What the module picks where PyYAML has no libyaml.
            monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
            monkeypatch.setattr(scenario_module, "_DUMPER", yaml.SafeDumper)
        return request.param

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=scenarios())
    def test_bytes_match_safe_dump(self, emitter, tmp_path, scenario):
        path = tmp_path / "drawn.yaml"
        save_scenario(scenario, path)
        expected = yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)
        assert path.read_bytes() == expected.encode()
        assert load_scenario(path) == scenario

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
    def test_pure_emitter_unused(self, tmp_path, monkeypatch):
        def refuse(self, event):
            raise AssertionError("the pure-Python emitter was called")

        monkeypatch.setattr(yaml.emitter.Emitter, "emit", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            yaml.safe_dump({"a": 1})
        scenario = generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0)
        save_scenario(scenario, tmp_path / "dense.yaml")
        assert load_scenario(tmp_path / "dense.yaml") == scenario

    def test_signed_zero_keeps_its_sign(self, emitter, tmp_path, reference_path):
        # `lateral_buffer_s: -0.0` comes before the first arrival's `time_s: 0.0`,
        # and -0.0 == 0.0: a writer that reused float scalars by value would
        # write `time_s: -0.0`, which loads back to an equal scenario.
        scenario = dataclasses.replace(load_scenario(reference_path), lateral_buffer=-0.0)
        path = tmp_path / "signed.yaml"
        save_scenario(scenario, path)
        expected = yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False).encode()
        assert path.read_bytes() == expected
        assert expected.count(b"-0.0") == 1 and b"time_s: 0.0\n" in expected

    def test_pyyaml_representer_unused(self, emitter, tmp_path, monkeypatch):
        scenario = generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0)
        expected = yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False).encode()

        def refuse(self, data):
            raise AssertionError("PyYAML's representer built a node graph")

        monkeypatch.setattr(yaml.representer.BaseRepresenter, "represent", refuse)
        with pytest.raises(AssertionError, match="node graph"):
            yaml.safe_dump({"a": 1})
        save_scenario(scenario, tmp_path / "dense.yaml")
        assert (tmp_path / "dense.yaml").read_bytes() == expected

    def test_module_without_libyaml(self, tmp_path, reference_path):
        # A fresh interpreter whose PyYAML lacks the libyaml classes.
        program = textwrap.dedent(
            """
            import sys
            import yaml
            for name in ("CSafeLoader", "CSafeDumper"):
                if hasattr(yaml, name):
                    delattr(yaml, name)
            from cavcross import scenario
            assert scenario._LOADER is yaml.SafeLoader
            assert scenario._DUMPER is yaml.SafeDumper
            scenario.save_scenario(scenario.load_scenario(sys.argv[1]), sys.argv[2])
            """
        )
        out = tmp_path / "pure.yaml"
        src = str(Path(scenario_module.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-c", program, str(reference_path), str(out)], check=True, env=env
        )
        expected = yaml.safe_dump(scenario_to_dict(load_scenario(reference_path)), sort_keys=False)
        assert out.read_bytes() == expected.encode()


# Strings that resolve to other types when plain, so the dumper quotes them.
_LOOKALIKES = [
    "1", "-0", "0x1F", "0o17", "017", "1_000", "190:20:30", "1.5e3", "6.8523015e+5",
    ".inf", "-.Inf", ".NaN", "true", "No", "off", "~", "null", "", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "<<", "=", " a", "a: b", "- x", "#c", "!x", "&a", "*a",
]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(_LOOKALIKES),
)
_KEYS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                  st.sampled_from(_LOOKALIKES))
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)

_HAND_WRITTEN = {
    # name: (bytes, whether the event reader builds them itself)
    "alias": (b"a: &x [1]\nb: *x\n", False),
    "anchor": (b"a: &x 1\n", False),
    "merge-key": (b"base: &b {x: 1}\nm:\n  <<: *b\n  y: 2\n", False),
    "merge-key-inline": (b"m:\n  <<: {x: 1}\n  y: 2\n", False),
    "value-key": (b"=: 1\n", False),
    "timestamp": (b"t: 2001-12-14\n", False),
    "set": (b"!!set {a, b}\n", False),
    "explicit-tag": (b"a: !!str 12\n", False),
    "unknown-tag": (b"a: !point 1\n", False),
    "collection-key": (b"? [a, b]\n: 1\n", False),
    "two-documents": (b"a: 1\n---\nb: 2\n", False),
    "empty-stream": (b"", False),
    "comment-only": (b"# nothing\n", False),
    # Past int()'s default limit of 4,300 digits, where it raises ValueError.
    "long-integer": (b"a: " + b"1" * 5000 + b"\n", False),
    "long-integer-then-error": (b"a: " + b"1" * 5000 + b"\nb: [\n", False),
    "bare-scalar": (b"42\n", True),
    "yaml-directive": (b"%YAML 1.1\n---\na: 1\n", True),
    "utf8-bom": (b"\xef\xbb\xbfa: [1, b]\n", True),
    "utf16-bom": ("a: [1, b]\n".encode("utf-16"), True),
    "non-specific-tag": (b"a: ! 12\nb: ! [1]\n", True),
    "duplicate-keys": (b"a: 1\nb: 2\na: 3\n1: x\ntrue: y\n1.0: z\n", True),
    "nulls-and-bools": (b"a: ~\nb: null\nc:\nd: yes\ne: Off\n? f\n", True),
    "null-key": (b"~: 1\n", True),
    "invalid-utf8": (b"a: 1\nb: caf\xff\n", True),
    "syntax-error": (b"a: 1\nb: [1, 2\nc: 3\n", True),
    "unclosed-quote": (b"a: 1\nb: 'x\n", True),
}


def _outcome(read, data):
    """`repr` of what `read` builds, or the type and text of what it raises."""
    try:
        return repr(read(data))
    except Exception as exc:
        return type(exc), str(exc)


class TestEventReader:
    """`_read_document` builds what PyYAML's safe loader builds, or declines."""

    def assert_reads_as_pyyaml(self, data, loader, plain=True):
        expected = _outcome(lambda d: yaml.load(d, Loader=loader), data)
        got = _outcome(scenario_module._read_document, data)
        if plain:
            assert got == expected
        else:
            assert got == (scenario_module._NotPlain, "")

    @given(doc=_DOCUMENTS)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dumps(self, yaml_loader, doc):
        for flow in (False, True, None):
            data = yaml.safe_dump(doc, default_flow_style=flow).encode()
            self.assert_reads_as_pyyaml(data, yaml_loader)
        # Every node carries an explicit tag.
        self.assert_reads_as_pyyaml(yaml.safe_dump(doc, canonical=True).encode(), yaml_loader, False)

    @pytest.mark.parametrize("name", _HAND_WRITTEN)
    def test_hand_written(self, yaml_loader, name):
        data, plain = _HAND_WRITTEN[name]
        self.assert_reads_as_pyyaml(data, yaml_loader, plain)

    def test_path_resolvers_decline(self, yaml_loader, monkeypatch):
        class Resolving(yaml_loader):
            pass

        # The list under the root's key `a` is an ordered map.
        Resolving.add_path_resolver("tag:yaml.org,2002:omap", ["a"], list)
        monkeypatch.setattr(scenario_module, "_LOADER", Resolving)
        data = b"a: [{x: 1}, {y: 2}]\nb: [{x: 1}]\n"
        self.assert_reads_as_pyyaml(data, Resolving, False)
        assert yaml.load(data, Loader=Resolving) == {"a": [("x", 1), ("y", 2)], "b": [{"x": 1}]}

    def test_stream_skips_pyyaml_constructor(self, yaml_loader, tmp_path, monkeypatch):
        scenario = generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0)
        save_scenario(scenario, tmp_path / "dense.yaml")

        def refuse(self, node):
            raise AssertionError("PyYAML's constructor built a plain scenario file")

        monkeypatch.setattr(yaml.constructor.BaseConstructor, "construct_document", refuse)
        assert load_scenario(tmp_path / "dense.yaml") == scenario

    def test_fallback_reads_other_files(self, yaml_loader, tmp_path):
        # An anchor and a merge key: PyYAML's constructor builds the file.
        text = MINIMAL.replace("layout:", "layout: &layout", 1) + "sim: {<<: {dt_s: 0.02}}\n"
        (tmp_path / "anchors.yaml").write_text(text)
        assert load_scenario(tmp_path / "anchors.yaml") == parse_text(text)


# Plain trees with the scalars PyYAML words specially: lookalike strings,
# infinities, NaN, signed zeros and integers far past 64 bits.
_TREES = st.recursive(
    _SCALARS | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 10**400, -(2**64)]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)


class TestEventWriter:
    """`_write_document` emits what `yaml.dump` emits through the same dumper."""

    @pytest.fixture(params=["libyaml", "pure"])
    def dumper(self, request):
        if request.param == "libyaml":
            if not yaml.__with_libyaml__:
                pytest.skip("PyYAML was built without libyaml")
            return yaml.CSafeDumper
        return yaml.SafeDumper

    @given(doc=_TREES)
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_dumps(self, dumper, doc):
        expected = yaml.dump(doc, Dumper=dumper, sort_keys=False)
        assert scenario_module._write_document(doc, dumper) == expected


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

    @pytest.mark.parametrize("mean_gap", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_mean_gap_named(self, mean_gap):
        with pytest.raises(ValueError, match="mean_gap must be positive and finite"):
            generate_random_scenario(seed=1, mean_gap=mean_gap)

    def test_negative_vehicle_count_named(self):
        with pytest.raises(ValueError, match="n_vehicles must be non-negative"):
            generate_random_scenario(seed=1, n_vehicles=-3)
        assert generate_random_scenario(seed=1, n_vehicles=0).arrivals == ()

    @pytest.mark.parametrize("n_vehicles", [2.5, 3.0, True, "4", None])
    def test_non_integer_vehicle_count_named(self, n_vehicles):
        with pytest.raises(ValueError, match="n_vehicles must be an integer"):
            generate_random_scenario(seed=1, n_vehicles=n_vehicles)
        assert len(generate_random_scenario(seed=1, n_vehicles=np.int64(3)).arrivals) == 3
