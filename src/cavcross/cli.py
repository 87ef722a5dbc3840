"""Command-line front end: run scenarios, inspect plans, compare policies.

Exit codes: 0 clean run, 1 run finished with safety violations, 2 scenario
parse/validation error, 3 planning failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .scenario import ScenarioError, load_scenario
from .simulation import (
    Policy,
    RunResult,
    Samples,
    SimulationError,
    compare_policies,
    plan_totals,
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


# Rows per chunk of the streaming writer.  A chunk ends at the first change
# of sample time at or after this many rows, so no pivot row is split.
_CHUNK_ROWS = 1000

_PLOT_COLUMNS = ("position", "speed", "accel", "rear_margin")


class _Chunk:
    """Rows [start, stop) of a run's log, which begin and end at a change of
    sample time, with each sampled value formatted once with `repr`."""

    def __init__(self, log: Samples, start: int, stop: int, labels: list[str]):
        t = log.t[start:stop]
        self.vehicle = log.vehicle[start:stop]
        self.n_vehicles = len(log.vehicle_ids)
        # Per vehicle of the run: ",<id>,<lane>," as trajectory.csv writes it.
        self.labels = labels
        new_time = np.ones(len(t), dtype=bool)
        new_time[1:] = t[1:] != t[:-1]
        self.first_rows = np.flatnonzero(new_time)
        # Python floats: under numpy 2 the repr of an np.float64 names the type.
        # Each distinct sample time, ascending, after a line break; per row
        # the index of its time here.
        self.starts = ["\n" + text for text in map(repr, t[new_time].tolist())]
        self.time_index = np.cumsum(new_time) - 1
        # Per row; "" where there is no value.
        self.columns = {
            name: list(map(repr, getattr(log, name)[start:stop].tolist()))
            for name in ("position", "speed", "accel")
        }
        margin = log.rear_margin[start:stop]
        known = ~np.isnan(margin)
        cells = np.full(len(margin), "", dtype=object)
        cells[known] = list(map(repr, margin[known].tolist()))
        self.columns["rear_margin"] = cells.tolist()

    @functools.cached_property
    def pivot_separators(self) -> tuple[list[str], str]:
        """The pivot text before each row's cell, and after the chunk's last.

        The rows of one time are in registration order.  Before a cell come
        one comma per step in vehicle index from the previous cell of its
        time, or from the time's own field, which opens the line; after a
        time's last cell come the commas of the vehicles past it.
        """
        vehicle = self.vehicle
        previous = np.empty_like(vehicle)
        previous[1:] = vehicle[:-1]
        previous[self.first_rows] = -1
        separators = ["," * k for k in (vehicle - previous).tolist()]
        last_rows = np.append(self.first_rows[1:] - 1, len(vehicle) - 1)
        tails = ["," * k for k in (self.n_vehicles - 1 - vehicle[last_rows]).tolist()]
        for row, start, tail in zip(self.first_rows.tolist(), self.starts, ["", *tails]):
            separators[row] = tail + start + separators[row]
        return separators, tails[-1]


def _chunks(log: Samples) -> Iterator[_Chunk]:
    """The log in consecutive chunks of about `_CHUNK_ROWS` rows."""
    labels = [_csv_row(["", vid, lane, ""]) for vid, lane in zip(log.vehicle_ids, log.lanes)]
    start = 0
    while start < len(log):
        # Through the last row of the time of the chunk's last row: rows are
        # ordered by time, so that time's rows are contiguous.
        last = min(start + _CHUNK_ROWS, len(log)) - 1
        stop = int(np.searchsorted(log.t, log.t[last], side="right"))
        yield _Chunk(log, start, stop, labels)
        start = stop


def _csv_row(fields: list) -> str:
    """Fields as the csv module writes them, without the line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _pivot_header(log: Samples) -> str:
    return _csv_row(["t", *log.vehicle_ids])


def trajectory_csv(result: RunResult, chunk: Optional[_Chunk] = None) -> str:
    """trajectory.csv: one line per sampled row.  Given a chunk, only that
    chunk's lines, each led by its line break."""
    if chunk is None:
        lines = [trajectory_csv(result, c) for c in _chunks(result.log)]
        return "".join([_csv_row(TRAJECTORY_CSV_HEADER), *lines, "\n"])
    # Every field and separator is one list item, joined once, so no string
    # per row is built: a row is "\n<t>" ",<id>,<lane>," p "," v "," a "," m.
    parts = [","] * (9 * len(chunk.vehicle))
    parts[0::9] = [chunk.starts[i] for i in chunk.time_index.tolist()]
    parts[1::9] = [chunk.labels[v] for v in chunk.vehicle.tolist()]
    for offset, column in enumerate(_PLOT_COLUMNS):
        parts[2 + 2 * offset :: 9] = chunk.columns[column]
    return "".join(parts)


def _wide_series_csv(result: RunResult, column: str, chunk: Optional[_Chunk] = None) -> str:
    """plots/<column>.csv: one line per sample time, one column per vehicle
    in registration order; a cell is empty where the vehicle has no value at
    that time.  Given a chunk, only that chunk's lines, each led by its line
    break."""
    if chunk is None:
        lines = [_wide_series_csv(result, column, c) for c in _chunks(result.log)]
        return "".join([_pivot_header(result.log), *lines, "\n"])
    separators, tail = chunk.pivot_separators
    parts = [""] * (2 * len(separators))
    parts[0::2] = separators
    parts[1::2] = chunk.columns[column]
    parts.append(tail)
    return "".join(parts)


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


@contextlib.contextmanager
def _staged(paths: list[Path]) -> Iterator[list[TextIO]]:
    """Text handles on temporary files beside `paths`.  Once the block ends
    cleanly each file replaces its path; if it raises, all are removed and
    every path keeps what it held."""
    tmps: list[str] = []
    handles: list[TextIO] = []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "w", newline=""))
        yield handles
        for handle in handles:
            handle.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for handle in handles:
            with contextlib.suppress(OSError):
                handle.close()
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def write_outputs(result: RunResult, out_dir: Path) -> None:
    """Write every artifact in one pass over the log, a chunk at a time, so
    that memory does not grow with the run.  No file replaces the previous
    run's until all of them are written."""
    log = result.log
    paths = [out_dir / name for name in ("metrics.json", "protocol.json", "trajectory.csv")]
    paths += [out_dir / "plots" / f"{column}.csv" for column in _PLOT_COLUMNS]
    with _staged(paths) as (metrics, protocol, trajectory, *plots):
        metrics.write(metrics_json(result))
        records = result.protocol.to_records()
        protocol.write(json.dumps({"entries": records}, indent=2, sort_keys=True) + "\n")
        trajectory.write(_csv_row(TRAJECTORY_CSV_HEADER))
        for plot in plots:
            plot.write(_pivot_header(log))
        for chunk in _chunks(log):
            trajectory.write(trajectory_csv(result, chunk))
            for plot, column in zip(plots, _PLOT_COLUMNS):
                plot.write(_wide_series_csv(result, column, chunk))
        for handle in (trajectory, *plots):
            handle.write("\n")


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
    # The occupancies the planner checked, the same on every lane.
    buffer = scenario.lateral_buffer
    rejected = [
        [occ.t_in - buffer, occ.t_out + buffer]
        for occ in protocol.conflicting_occupancies(target.movement, target.time - buffer)
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

    opt, fifo = comparison.optimal, comparison.fifo
    print(f"{'vehicle':<12}{'optimal tf':>14}{'fifo tf':>14}{'saving':>12}")
    for vid, o in opt.items():
        f = fifo[vid]
        print(f"{vid:<12}{o.tf:>14.3f}{f.tf:>14.3f}{f.tf - o.tf:>12.3f}")
    opt_totals, fifo_totals = plan_totals(opt), plan_totals(fifo)
    print(
        f"{'TOTAL':<12}{opt_totals.total_travel_time:>14.3f}"
        f"{fifo_totals.total_travel_time:>14.3f}"
        f"{fifo_totals.total_travel_time - opt_totals.total_travel_time:>12.3f}"
    )
    print(
        f"throughput veh/min: optimal={opt_totals.throughput_per_min:.3f} "
        f"fifo={fifo_totals.throughput_per_min:.3f}"
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

    p_cmp = sub.add_parser("compare", help="plan with optimal and FIFO policies side by side")
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
