"""Command-line front end: run scenarios, inspect plans, compare policies.

Exit codes: 0 clean run, 1 run finished with safety violations, 2 scenario
parse/validation error, 3 planning failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .scenario import ScenarioError, load_scenario
from .simulation import (
    Policy,
    RunResult,
    Samples,
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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            # In slices, so that no encoded copy of the whole text is made.
            for start in range(0, len(text), 1 << 16):
                handle.write(text[start : start + (1 << 16)])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Cells:
    """A run's sampled values, each formatted once with `repr`."""

    def __init__(self, log: Samples):
        # Python floats: under numpy 2 the repr of an np.float64 names the type.
        new_time = np.ones(len(log.t), dtype=bool)
        new_time[1:] = log.t[1:] != log.t[:-1]
        # Each distinct sample time, ascending, and per row its index here.
        self.times = list(map(repr, log.t[new_time].tolist()))
        self.time_index = np.cumsum(new_time) - 1
        # Per row; "" where there is no value.
        self.columns = {
            name: list(map(repr, getattr(log, name).tolist()))
            for name in ("position", "speed", "accel")
        }
        self.columns["rear_margin"] = [
            "" if math.isnan(m) else repr(m) for m in log.rear_margin.tolist()
        ]


def _csv_row(fields: list) -> str:
    """Fields as the csv module writes them, without the line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def trajectory_csv(result: RunResult, cells: Optional[_Cells] = None) -> str:
    log = result.log
    cells = _Cells(log) if cells is None else cells
    # Every field and separator is one list item, joined once, so no string
    # per row is built: a row is "\n<t>" ",<id>,<lane>," p "," v "," a "," m.
    parts = [","] * (9 * len(log) + 2)
    parts[0] = _csv_row(TRAJECTORY_CSV_HEADER)
    starts = ["\n" + t for t in cells.times]
    parts[1:-1:9] = [starts[i] for i in cells.time_index.tolist()]
    labels = [_csv_row(["", vid, lane, ""]) for vid, lane in zip(log.vehicle_ids, log.lanes)]
    parts[2:-1:9] = [labels[i] for i in log.vehicle.tolist()]
    for offset, column in enumerate(("position", "speed", "accel", "rear_margin")):
        parts[3 + 2 * offset : -1 : 9] = cells.columns[column]
    parts[-1] = "\n"
    return "".join(parts)


def _wide_series_csv(result: RunResult, column: str, cells: _Cells) -> str:
    """One row per sample time, one column per vehicle in registration order;
    a cell is empty where the vehicle has no value at that time."""
    log = result.log
    grid = np.full((len(cells.times), len(log.vehicle_ids)), "", dtype=object)
    grid[cells.time_index, log.vehicle] = cells.columns[column]
    lines = [_csv_row(["t", *log.vehicle_ids])]
    lines += (t + "," + ",".join(row) for t, row in zip(cells.times, grid.tolist()))
    lines.append("")
    return "\n".join(lines)


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
    _atomic_write(out_dir / "metrics.json", metrics_json(result))
    _atomic_write(
        out_dir / "protocol.json",
        json.dumps({"entries": result.protocol.to_records()}, indent=2, sort_keys=True)
        + "\n",
    )
    # The formatted cells are the largest objects of a run; the JSON files
    # are written before they exist so that the two peaks do not add up.
    cells = _Cells(result.log)
    _atomic_write(out_dir / "trajectory.csv", trajectory_csv(result, cells))
    for column in ("position", "speed", "accel", "rear_margin"):
        _atomic_write(
            out_dir / "plots" / f"{column}.csv", _wide_series_csv(result, column, cells)
        )


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
