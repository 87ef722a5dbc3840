"""Scenario files: schema, parsing, serialization, and random generation.

A scenario is a YAML mapping with four sections.  Unknown and non-string
keys anywhere are rejected, and so are numbers out of a float's range.
Units are part of every field name.  Files are read as bytes and decoded by
the YAML reader.  Both directions go through libyaml where PyYAML has it,
and through its event stream: a saved file is emitted from events, and a
file of one document of untagged maps, lists and plain scalars is built
straight from them; PyYAML's safe composer and constructor build every
other file, and give every error text.

layout:
  control_zone_length_m: float   # approach length up to the merging zone
  merging_zone_side_m: float     # side of the central square
  right_turn_radius_m: float     # optional, default merging_zone_side_m / 2
  left_turn_radius_m: float      # optional, default merging_zone_side_m
  lanes_per_approach: int        # optional, default 1, at most 8

defaults:                        # vehicle parameters, overridable per arrival
  accel_min_mps2: float          # < 0
  accel_max_mps2: float          # > 0
  speed_min_mps: float           # > 0
  speed_max_mps: float
  headway_s: float               # minimum time headway to the leader
  standstill_gap_m: float        # gap when both vehicles are stopped
  reaction_gain: float           # optional, default 1.0; scales perceived gap

policy: optimal | fifo           # optional, default optimal

sim:                             # optional section
  dt_s: float                    # logging step, default 0.01
  lateral_buffer_s: float        # occupancy separation pad, default 0.0
  horizon_cap_s: float           # planning search limit, default 120.0
  seed: int                      # provenance of generated scenarios

arrivals:                        # list, times non-decreasing, ids unique
  - id: str
    time_s: float
    from: N | E | S | W
    to: N | E | S | W
    speed_mps: float
    params: {...}                # optional partial override of defaults
"""

from __future__ import annotations

import io
import math
import numbers
import random
from itertools import chain
from pathlib import Path
from typing import Any, Optional

import yaml
from yaml import DocumentEndEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent
from yaml import ScalarEvent, ScalarNode, SequenceEndEvent, StreamEndEvent

from .geometry import Cardinal, IntersectionLayout, Movement
from .simulation import Arrival, Policy, Scenario
from .trajectory import VehicleParams

# libyaml's parser and emitter when PyYAML was built with it, else the pure
# ones; both share PyYAML's Safe constructors and representer.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ScenarioError(ValueError):
    """A scenario document failed validation; `field` is the dotted path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


_LAYOUT_KEYS = {
    "control_zone_length_m",
    "merging_zone_side_m",
    "right_turn_radius_m",
    "left_turn_radius_m",
    "lanes_per_approach",
}
_PARAM_KEYS = {
    "accel_min_mps2",
    "accel_max_mps2",
    "speed_min_mps",
    "speed_max_mps",
    "headway_s",
    "standstill_gap_m",
    "reaction_gain",
}
_SIM_KEYS = {"dt_s", "lateral_buffer_s", "horizon_cap_s", "seed"}
_ARRIVAL_KEYS = {"id", "time_s", "from", "to", "speed_mps", "params"}
_TOP_KEYS = {"layout", "defaults", "policy", "sim", "arrivals"}


def _require_mapping(node: Any, field: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(field, f"expected a mapping, got {type(node).__name__}")
    return node

def _reject_unknown(node: dict, allowed: set[str], field: str) -> None:
    for key in node:
        if not isinstance(key, str):
            raise ScenarioError(field, f"expected string keys, got {key!r}")
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ScenarioError(field, f"unknown keys: {', '.join(unknown)}")


def _number(node: dict, key: str, field: str, default: Optional[float] = None) -> float:
    if key not in node:
        if default is not None:
            return default
        raise ScenarioError(f"{field}.{key}", "missing required value")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field}.{key}", f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ScenarioError(f"{field}.{key}", "value out of range for a float") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{field}.{key}", "value must be finite")
    return value


def _cardinal(node: dict, key: str, field: str) -> Cardinal:
    value = node.get(key)
    try:
        return Cardinal(value)
    except ValueError:
        raise ScenarioError(
            f"{field}.{key}", f"expected one of N/E/S/W, got {value!r}"
        ) from None


def _parse_params(node: dict, field: str, base: Optional[VehicleParams]) -> VehicleParams:
    _reject_unknown(node, _PARAM_KEYS, field)
    if base is None:
        defaults = VehicleParams()
        need_all = True
    else:
        defaults = base
        need_all = False

    def pick(key: str, fallback: float) -> float:
        if need_all and key not in node and key != "reaction_gain":
            raise ScenarioError(f"{field}.{key}", "missing required value")
        return _number(node, key, field, default=fallback)

    values = dict(
        u_min=pick("accel_min_mps2", defaults.u_min),
        u_max=pick("accel_max_mps2", defaults.u_max),
        v_min=pick("speed_min_mps", defaults.v_min),
        v_max=pick("speed_max_mps", defaults.v_max),
        headway=pick("headway_s", defaults.headway),
        standstill_gap=pick("standstill_gap_m", defaults.standstill_gap),
        reaction_gain=pick("reaction_gain", defaults.reaction_gain),
    )
    try:
        return VehicleParams(**values)
    except ValueError as exc:
        raise ScenarioError(field, str(exc)) from None


def parse_scenario_dict(doc: Any) -> Scenario:
    doc = _require_mapping(doc, "<root>")
    _reject_unknown(doc, _TOP_KEYS, "<root>")
    for key in ("layout", "defaults", "arrivals"):
        if key not in doc:
            raise ScenarioError(key, "missing required section")

    layout_node = _require_mapping(doc["layout"], "layout")
    _reject_unknown(layout_node, _LAYOUT_KEYS, "layout")
    lanes = layout_node.get("lanes_per_approach", 1)
    if isinstance(lanes, bool) or not isinstance(lanes, int):
        raise ScenarioError("layout.lanes_per_approach", f"expected an integer, got {lanes!r}")
    values = dict(
        control_zone_length=_number(layout_node, "control_zone_length_m", "layout"),
        merging_zone_side=_number(layout_node, "merging_zone_side_m", "layout"),
        right_turn_radius=(
            _number(layout_node, "right_turn_radius_m", "layout")
            if "right_turn_radius_m" in layout_node
            else None
        ),
        left_turn_radius=(
            _number(layout_node, "left_turn_radius_m", "layout")
            if "left_turn_radius_m" in layout_node
            else None
        ),
        lanes_per_approach=lanes,
    )
    try:
        layout = IntersectionLayout(**values)
    except ValueError as exc:
        raise ScenarioError("layout", str(exc)) from None

    defaults = _parse_params(_require_mapping(doc["defaults"], "defaults"), "defaults", None)

    policy_raw = doc.get("policy", "optimal")
    try:
        policy = Policy(policy_raw)
    except ValueError:
        raise ScenarioError("policy", f"expected optimal or fifo, got {policy_raw!r}") from None

    sim_node = _require_mapping(doc.get("sim", {}), "sim")
    _reject_unknown(sim_node, _SIM_KEYS, "sim")
    dt = _number(sim_node, "dt_s", "sim", default=0.01)
    lateral_buffer = _number(sim_node, "lateral_buffer_s", "sim", default=0.0)
    horizon_cap = _number(sim_node, "horizon_cap_s", "sim", default=120.0)
    seed = sim_node.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ScenarioError("sim.seed", f"expected an integer, got {seed!r}")

    arrivals_node = doc["arrivals"]
    if not isinstance(arrivals_node, list):
        raise ScenarioError("arrivals", "expected a list")
    arrivals: list[Arrival] = []
    for idx, item in enumerate(arrivals_node):
        field = f"arrivals[{idx}]"
        node = _require_mapping(item, field)
        _reject_unknown(node, _ARRIVAL_KEYS, field)
        vid = node.get("id")
        if not isinstance(vid, str) or not vid:
            raise ScenarioError(f"{field}.id", f"expected a non-empty string, got {vid!r}")
        origin = _cardinal(node, "from", field)
        dest = _cardinal(node, "to", field)
        try:
            movement = Movement(origin, dest)
        except ValueError as exc:
            raise ScenarioError(field, str(exc)) from None
        params = defaults
        if "params" in node:
            params = _parse_params(
                _require_mapping(node["params"], f"{field}.params"), f"{field}.params", defaults
            )
        time = _number(node, "time_s", field)
        v0 = _number(node, "speed_mps", field)
        try:
            arrivals.append(Arrival(vid, time, movement, v0, params))
        except ValueError as exc:
            raise ScenarioError(field, str(exc)) from None

    try:
        return Scenario(
            layout=layout,
            arrivals=tuple(arrivals),
            policy=policy,
            dt=dt,
            lateral_buffer=lateral_buffer,
            horizon_cap=horizon_cap,
            seed=seed,
        )
    except ValueError as exc:
        raise ScenarioError("arrivals", str(exc)) from None


# Deepest nesting read (a valid scenario has 4 levels); PyYAML's pure scanner is quadratic in it.
_MAX_DEPTH = 32
_STR_TAG = "tag:yaml.org,2002:str"
_PLAIN_TAGS = {_STR_TAG} | {f"tag:yaml.org,2002:{t}" for t in ("int", "float", "bool", "null")}


class _NotPlain(Exception):
    """The document needs PyYAML's composer and constructor."""


class _Pairs(list):
    """The keys and values of an open mapping, alternating."""


def _read_document(data: bytes) -> Any:
    """`yaml.load(data, Loader=_LOADER)` built from the parser's events.

    Takes one document of untagged maps, lists and str/int/float/bool/null
    scalars without anchors, nested at most `_MAX_DEPTH` deep (else a
    `ScenarioError`), and raises `_NotPlain` on anything else.
    """
    loader = _LOADER(data)
    try:
        get_event, resolve = loader.get_event, loader.resolve
        constructors = loader.yaml_constructors
        get_event()
        if loader.yaml_path_resolvers or type(get_event()) is not DocumentStartEvent:
            raise _NotPlain
        tags: dict[tuple, str] = {}
        stack: list[list] = [[]]
        while True:
            event = get_event()
            kind = type(event)
            if kind is MappingEndEvent or kind is SequenceEndEvent:
                items = stack.pop()
                if kind is MappingEndEvent:
                    # A repeated key keeps its first place and its last value.
                    items = dict(zip(items[::2], items[1::2]))
                stack[-1].append(items)
                continue
            if kind is DocumentEndEvent:
                break
            # An alias's `anchor` is the name it refers to.
            if event.anchor is not None or event.tag not in (None, "!"):
                raise _NotPlain
            if kind is ScalarEvent:
                value = event.value
                key = (value, event.implicit)
                tag = tags.get(key) or tags.setdefault(key, resolve(ScalarNode, *key))
                if tag != _STR_TAG:
                    if tag not in _PLAIN_TAGS:
                        raise _NotPlain
                    try:
                        value = constructors[tag](loader, ScalarNode(tag, value))
                    except ValueError:  # past int's digit limit; PyYAML parses the whole file first
                        raise _NotPlain from None
                stack[-1].append(value)
            elif type(stack[-1]) is _Pairs and not len(stack[-1]) % 2:
                raise _NotPlain  # a collection as a mapping key
            elif len(stack) > _MAX_DEPTH:
                where = f"line {event.start_mark.line + 1}"
                raise ScenarioError(where, f"nesting deeper than {_MAX_DEPTH} levels")
            else:
                stack.append(_Pairs() if kind is MappingStartEvent else [])
        if type(get_event()) is not StreamEndEvent:
            raise _NotPlain
        return stack[0][0]
    finally:
        loader.dispose()


def load_scenario(path: str | Path) -> Scenario:
    # Bytes: the YAML reader decodes them, so bad encodings are YAML errors.
    data = Path(path).read_bytes()
    try:
        try:
            doc = _read_document(data)
        except (_NotPlain, yaml.YAMLError):
            # PyYAML builds the rest, and words every error as it always has.
            doc = yaml.load(data, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "document"
        raise ScenarioError(where, f"not valid YAML: {exc}") from None
    return parse_scenario_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of parsing: a mapping that reparses to an equal scenario."""

    def params_dict(p: VehicleParams) -> dict:
        return {
            "accel_min_mps2": p.u_min,
            "accel_max_mps2": p.u_max,
            "speed_min_mps": p.v_min,
            "speed_max_mps": p.v_max,
            "headway_s": p.headway,
            "standstill_gap_m": p.standstill_gap,
            "reaction_gain": p.reaction_gain,
        }

    defaults = (
        scenario.arrivals[0].params if scenario.arrivals else VehicleParams()
    )
    doc: dict[str, Any] = {
        "layout": {
            "control_zone_length_m": scenario.layout.control_zone_length,
            "merging_zone_side_m": scenario.layout.merging_zone_side,
            "right_turn_radius_m": scenario.layout.right_turn_radius,
            "left_turn_radius_m": scenario.layout.left_turn_radius,
            "lanes_per_approach": scenario.layout.lanes_per_approach,
        },
        "defaults": params_dict(defaults),
        "policy": scenario.policy.value,
        "sim": {
            "dt_s": scenario.dt,
            "lateral_buffer_s": scenario.lateral_buffer,
            "horizon_cap_s": scenario.horizon_cap,
        },
        "arrivals": [],
    }
    if scenario.seed is not None:
        doc["sim"]["seed"] = scenario.seed
    for arrival in scenario.arrivals:
        node: dict[str, Any] = {
            "id": arrival.vehicle_id,
            "time_s": arrival.time,
            "from": arrival.movement.origin.value,
            "to": arrival.movement.exit.value,
            "speed_mps": arrival.v0,
        }
        if arrival.params != defaults:
            node["params"] = params_dict(arrival.params)
        doc["arrivals"].append(node)
    return doc


def _write_document(doc: Any, dumper_class: type) -> str:
    """`yaml.dump(doc, Dumper=dumper_class, sort_keys=False)` of a tree with no dict or list
    in it twice, emitted as events: the dumper words each scalar and resolves its flags."""
    stream = io.StringIO()
    dumper = dumper_class(stream)
    try:
        emit, represent, resolve = dumper.emit, dumper.represent_data, dumper.resolve
        strings: dict[str, ScalarEvent] = {}  # str keys only: 0.0 == -0.0, 1 == True
        emit(yaml.StreamStartEvent())
        emit(DocumentStartEvent())
        stack = [(iter((doc,)), DocumentEndEvent())]
        while stack:
            for item in stack[-1][0]:
                if type(item) is dict:
                    emit(MappingStartEvent(None, None, True, flow_style=False))
                    stack.append((chain.from_iterable(item.items()), MappingEndEvent()))
                    break
                if type(item) is list:
                    emit(yaml.SequenceStartEvent(None, None, True, flow_style=False))
                    stack.append((iter(item), SequenceEndEvent()))
                    break
                event = strings.get(item)
                if event is None:
                    node = represent(item)
                    plain = resolve(ScalarNode, node.value, (True, False))
                    quoted = resolve(ScalarNode, node.value, (False, True))
                    implicit = (node.tag == plain, node.tag == quoted)
                    event = ScalarEvent(None, node.tag, implicit, node.value, style=node.style)
                    if type(item) is str:
                        strings[item] = event
                emit(event)
            else:
                emit(stack.pop()[1])
        emit(StreamEndEvent())
    finally:
        dumper.dispose()
    return stream.getvalue()


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the bytes of `yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)`,
    built from events before the file is opened.  Ids outside printable ASCII go through
    PyYAML's own emitter: libyaml folds their escapes at other columns."""
    plain = all(a.vehicle_id.isascii() and a.vehicle_id.isprintable() for a in scenario.arrivals)
    dumper = _DUMPER if plain else yaml.SafeDumper
    Path(path).write_text(_write_document(scenario_to_dict(scenario), dumper))


def generate_random_scenario(
    seed: int,
    n_vehicles: int = 6,
    layout: Optional[IntersectionLayout] = None,
    params: Optional[VehicleParams] = None,
    policy: Policy = Policy.OPTIMAL,
    mean_gap: float = 2.0,
    lateral_buffer: float = 0.0,
) -> Scenario:
    """Reproducible random scenario with admissible arrival spacing.

    Same-approach arrivals are separated enough that the entry-instant
    rear-end constraint is satisfiable even behind a leader that has slowed
    to the speed floor.
    """
    if not 0.0 < mean_gap < math.inf:
        raise ValueError(f"mean_gap must be positive and finite, got {mean_gap!r}")
    if isinstance(n_vehicles, bool) or not isinstance(n_vehicles, numbers.Integral):
        raise ValueError(f"n_vehicles must be an integer, got {n_vehicles!r}")
    if n_vehicles < 0:
        raise ValueError(f"n_vehicles must be non-negative, got {n_vehicles!r}")
    rng = random.Random(seed)
    layout = layout or IntersectionLayout()
    params = params or VehicleParams()
    origins = list(Cardinal)
    last_on_approach: dict[Cardinal, float] = {}
    arrivals: list[Arrival] = []
    t = 0.0
    for i in range(n_vehicles):
        origin = rng.choice(origins)
        exits = [c for c in Cardinal if c != origin]
        movement = Movement(origin, rng.choice(exits))
        v0 = rng.uniform(max(params.v_min + 2.0, 6.0), min(params.v_max - 4.0, 13.0))
        # Worst-case leader progress is v_min * gap; demand headroom on top
        # of the follower's safe distance at entry.
        min_gap = 1.3 * params.safe_distance(v0) / params.v_min
        earliest = max(t, last_on_approach.get(origin, -math.inf) + min_gap)
        t = earliest + rng.expovariate(1.0 / mean_gap)
        t = round(t, 3)
        last_on_approach[origin] = t
        arrivals.append(
            Arrival(
                vehicle_id=f"veh{i + 1}",
                time=t,
                movement=movement,
                v0=round(v0, 3),
                params=params,
            )
        )
    return Scenario(
        layout=layout,
        arrivals=tuple(arrivals),
        policy=policy,
        lateral_buffer=lateral_buffer,
        seed=seed,
    )
