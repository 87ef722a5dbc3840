"""Command-line front end: run scenarios, inspect plans, compare policies.

Exit codes: 0 clean run, 1 run finished with safety violations, 2 scenario
parse/validation error, 3 planning failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Optional

from .scenario import ScenarioError, load_scenario
from .simulation import (
    Policy,
    RunResult,
    SimulationError,
    compare_policies,
    run,
    schedule,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PLANNING = 3
EXIT_IO = 4

ENV_OUT_DIR = "CAVCROSS_OUT"

TRAJECTORY_CSV_HEADER = [
    "t",
    "vehicle_id",
    "lane",
    "position_m",
    "speed_mps",
    "accel_mps2",
    "rear_margin_m",
]


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(value)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trajectory_csv(result: RunResult) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAJECTORY_CSV_HEADER)
    for row in result.log:
        writer.writerow(
            [
                repr(row.t),
                row.vehicle_id,
                row.lane,
                repr(row.position),
                repr(row.speed),
                repr(row.accel),
                _fmt(row.rear_margin),
            ]
        )
    return buf.getvalue()


def _wide_series_csv(result: RunResult, column: str) -> str:
    import io

    vehicle_ids = list(result.plans)
    by_time: dict[float, dict[str, float]] = {}
    for row in result.log:
        by_time.setdefault(row.t, {})[row.vehicle_id] = getattr(row, column)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + vehicle_ids)
    for t in sorted(by_time):
        values = by_time[t]
        writer.writerow([repr(t)] + [_fmt(values.get(vid)) for vid in vehicle_ids])
    return buf.getvalue()


def metrics_json(result: RunResult) -> str:
    doc = result.metrics.to_dict()
    doc["violations"] = [
        {
            "time_s": v.time,
            "kind": v.kind,
            "vehicle_ids": list(v.vehicle_ids),
            "value": v.value,
            "message": v.message,
        }
        for v in result.violations
    ]
    doc["integration_check"] = {
        vid: {
            "max_position_error_m": chk.max_position_error,
            "max_speed_error_mps": chk.max_speed_error,
        }
        for vid, chk in result.integration_checks.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_outputs(result: RunResult, out_dir: Path) -> None:
    _atomic_write(out_dir / "trajectory.csv", trajectory_csv(result))
    _atomic_write(out_dir / "metrics.json", metrics_json(result))
    _atomic_write(
        out_dir / "protocol.json",
        json.dumps({"entries": result.protocol.to_records()}, indent=2, sort_keys=True)
        + "\n",
    )
    panels = {
        "position": "position",
        "speed": "speed",
        "accel": "accel",
        "rear_margin": "rear_margin",
    }
    for name, column in panels.items():
        _atomic_write(out_dir / "plots" / f"{name}.csv", _wide_series_csv(result, column))


def _resolve_out_dir(arg: Optional[str]) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("cavcross_out")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.policy:
        scenario = dataclasses.replace(scenario, policy=Policy(args.policy))
    result = run(scenario)
    out_dir = _resolve_out_dir(args.out)
    write_outputs(result, out_dir)
    agg = result.metrics.aggregate
    print(
        f"policy={scenario.policy.value} vehicles={agg.vehicle_count} "
        f"violations={len(result.violations)} "
        f"total_travel_time={agg.total_travel_time:.3f}s "
        f"total_energy={agg.total_energy:.6f} -> {out_dir}"
    )
    return EXIT_OK if result.ok else EXIT_VIOLATIONS


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    target = next((a for a in scenario.arrivals if a.vehicle_id == args.vehicle), None)
    if target is None:
        print(f"error: vehicle {args.vehicle!r} not found in scenario", file=sys.stderr)
        return EXIT_PARSE

    protocol, plans = schedule(scenario, until=target.vehicle_id)
    result = plans[target.vehicle_id]
    # The conflict set depends only on the movement, so every lane lists the
    # same intervals.
    rejected = [
        [occ.t_in - scenario.lateral_buffer, occ.t_out + scenario.lateral_buffer]
        for occ in protocol.conflicting_occupancies(target.movement)
    ]
    fit = result.trajectory.inverse_cubic_fit()
    record = {
        "vehicle_id": target.vehicle_id,
        "movement": str(target.movement),
        "arrival_time_s": target.time,
        "arrival_speed_mps": target.v0,
        "chosen_lane": result.lane,
        "chosen_tf_s": result.tf,
        "binding_constraint": result.binding_constraint.value,
        "position_coeffs": [
            result.trajectory.c3,
            result.trajectory.c2,
            result.trajectory.c1,
            result.trajectory.c0,
        ],
        "time_of_position_coeffs": [fit.c3, fit.c2, fit.c1, fit.c0],
        "lanes": [
            {
                "lane": o.lane,
                "tf_s": o.tf,
                "binding_constraint": o.binding_constraint.value,
                "rejected_occupancy_intervals_s": rejected,
            }
            for o in result.lanes
        ],
    }
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    comparison = compare_policies(scenario)
    for policy_name, error in comparison.errors.items():
        print(f"{policy_name}: FAILED ({error})")
    if comparison.optimal is None or comparison.fifo is None:
        return EXIT_PLANNING

    opt = comparison.optimal.metrics
    fifo = comparison.fifo.metrics
    print(f"{'vehicle':<12}{'optimal tf':>14}{'fifo tf':>14}{'saving':>12}")
    for vid in opt.per_vehicle:
        o = opt.per_vehicle[vid]
        f = fifo.per_vehicle[vid]
        print(f"{vid:<12}{o.tf:>14.3f}{f.tf:>14.3f}{f.tf - o.tf:>12.3f}")
    print(
        f"{'TOTAL':<12}{opt.aggregate.total_travel_time:>14.3f}"
        f"{fifo.aggregate.total_travel_time:>14.3f}"
        f"{fifo.aggregate.total_travel_time - opt.aggregate.total_travel_time:>12.3f}"
    )
    print(
        f"throughput veh/min: optimal={opt.aggregate.throughput_per_min:.3f} "
        f"fifo={fifo.aggregate.throughput_per_min:.3f}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavcross",
        description="Signal-free intersection coordination for automated vehicles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write outputs")
    p_run.add_argument("scenario", help="path to a scenario YAML file")
    p_run.add_argument("--policy", choices=[p.value for p in Policy])
    p_run.add_argument("--out", help=f"output directory (default $"
                                     f"{ENV_OUT_DIR} or ./cavcross_out)")
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="show the upper-level plan for one vehicle")
    p_plan.add_argument("scenario")
    p_plan.add_argument("--vehicle", required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_cmp = sub.add_parser("compare", help="run optimal and FIFO policies side by side")
    p_cmp.add_argument("scenario")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SimulationError as exc:
        print(f"planning failure: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
