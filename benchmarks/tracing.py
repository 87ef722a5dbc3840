"""Per-layer tracing from outside the program.

The tracer replaces public functions of cavcross, as they are bound in the
module that calls them, with wrappers that record spans (name, start, end,
parent span, operation id) or counts.  Spans stay in memory and are written
out when the run ends.  A layer's self time is its span time minus the time
of the spans it directly encloses.

Hot spans (tens of thousands per operation) are kept as per-operation
aggregates only, so that tracing a 300-vehicle plan does not hold millions
of records; their time still counts against the enclosing span.

A wrap point that a refactor removes is recorded as missing, and every layer
metric fed only by missing wrap points is reported as missing instead of a
number.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class WrapPoint:
    module: str
    attr: str  # "function" or "Class.method"
    span: Optional[str] = None  # span name; None means count calls only
    count: Optional[str] = None  # counter name for count-only wrappers
    hot: bool = False  # keep aggregates only, no span records
    # extra(args, result, counts) adds to the counter `extra_count` at the
    # same boundary
    extra: Optional[Callable] = None
    extra_count: Optional[str] = None


def _count_arrivals(args, result, counts):
    counts["scenario.arrivals"] += len(result.arrivals)


def _count_scanned(args, result, counts):
    counts["protocol.entries_scanned"] += len(args[0])


def _count_vehicle_steps(args, result, counts):
    counts["simulation.vehicle_steps"] += len(result)


WRAP_POINTS = (
    WrapPoint("cavcross.cli", "main", "cli.main"),
    WrapPoint(
        "cavcross.cli", "load_scenario", "scenario.load",
        extra=_count_arrivals, extra_count="scenario.arrivals",
    ),
    WrapPoint("cavcross.cli", "run", "simulation.run"),
    WrapPoint("cavcross.cli", "plan_with_diagnostics", "planner.plan"),
    WrapPoint("cavcross.cli", "fifo_plan", "planner.plan"),
    WrapPoint("cavcross.simulation", "plan", "planner.plan"),
    WrapPoint("cavcross.simulation", "fifo_plan", "planner.plan"),
    WrapPoint("cavcross.planner", "solve_boundary", count="planner.boundary_solves"),
    WrapPoint("cavcross.planner", "rear_end_margin", count="planner.rear_end_evals"),
    WrapPoint("cavcross.planner", "conflicts", count="geometry.conflict_lookups"),
    WrapPoint("cavcross.simulation", "conflicts", count="geometry.conflict_lookups"),
    WrapPoint("cavcross.trajectory", "CubicTrajectory.inverse_cubic_fit", "trajectory.inverse_fit"),
    WrapPoint("cavcross.trajectory", "CubicTrajectory.invert", "trajectory.invert", hot=True),
    WrapPoint("cavcross.trajectory", "CubicTrajectory.eval", count="trajectory.eval"),
    WrapPoint("cavcross.protocol", "CrossingProtocol.register", "protocol.register"),
    WrapPoint(
        "cavcross.protocol", "CrossingProtocol.active_entries", "protocol.active_entries",
        hot=True, extra=_count_scanned, extra_count="protocol.entries_scanned",
    ),
    WrapPoint("cavcross.protocol", "CrossingProtocol.predecessor_on_lane", "protocol.predecessor", hot=True),
    WrapPoint(
        "cavcross.simulation", "snapshot", "simulation.snapshot",
        hot=True, extra=_count_vehicle_steps, extra_count="simulation.vehicle_steps",
    ),
    WrapPoint("cavcross.simulation", "monitor", "simulation.monitor", hot=True),
    WrapPoint("cavcross.simulation", "integrate_dynamics", "simulation.integrate"),
    WrapPoint("cavcross.cli", "write_outputs", "cli.write"),
    WrapPoint("cavcross.cli", "trajectory_csv", "cli.trajectory_csv"),
    WrapPoint("cavcross.cli", "_wide_series_csv", "cli.plot_csv"),
    WrapPoint("cavcross.cli", "metrics_json", "cli.metrics_json"),
    WrapPoint("cavcross.protocol", "CrossingProtocol.to_records", "cli.protocol_records"),
)


class Tracer:
    """Installs the wrappers for one operation at a time."""

    def __init__(self) -> None:
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.present: set[str] = set()  # span and counter names with a live wrap point
        self.broken: set[str] = set()  # counters whose hook no longer fits the result
        self.records: list[tuple] = []  # (span id, name, start, end, parent id, op)
        self.ops: list[dict] = []  # per operation: {"agg": ..., "counts": ..., "plans": [...]}
        self._stack: list[list[float]] = []  # child time of each open span
        self._open_ids: list[int] = []
        self._op = -1
        self._op_starts: list[float] = []

    # -- wrapping -------------------------------------------------------------

    def _resolve(self, point: WrapPoint):
        module = importlib.import_module(point.module)
        owner_name, _, attr = point.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if attr not in vars(owner):
            raise AttributeError(attr)
        return owner, attr, vars(owner)[attr]

    def install(self) -> None:
        for point in WRAP_POINTS:
            try:
                owner, attr, fn = self._resolve(point)
            except (ImportError, AttributeError):
                self.missing.append(f"{point.module}:{point.attr}")
                continue
            wrapper = self._span_wrapper(fn, point) if point.span else self._count_wrapper(fn, point)
            setattr(owner, attr, wrapper)
            self.installed.append((owner, attr, fn))
            self.present.add(point.span or point.count)
            if point.extra_count:
                self.present.add(point.extra_count)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed.clear()
        self.missing = sorted(set(self.missing))

    def _count_wrapper(self, fn, point: WrapPoint):
        tracer, name = self, point.count

        def wrapper(*args, **kwargs):
            tracer._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, point: WrapPoint):
        tracer, name, hot, extra = self, point.span, point.hot, point.extra
        stack, open_ids, records = self._stack, self._open_ids, self.records
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if not hot:
                span_id = len(records)
                parent = open_ids[-1] if open_ids else None
                records.append(None)
                open_ids.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = tracer._agg[name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if not hot:
                    open_ids.pop()
                    records[span_id] = (span_id, name, start, end, parent, tracer._op)
                    if name == "planner.plan":
                        tracer._plans.append(duration)
            if extra is not None:
                try:
                    extra(args, result, tracer._counts)
                except (AttributeError, TypeError):
                    tracer.broken.add(point.extra_count)
            return result

        return wrapper

    # -- operations -------------------------------------------------------------

    def begin_op(self) -> None:
        self._op = len(self.ops)
        self._op_starts.append(time.perf_counter())
        self._agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counts: dict[str, int] = defaultdict(int)
        self._plans: list[float] = []
        self.install()

    def end_op(self, bytes_written: int) -> None:
        self.uninstall()
        self._counts["cli.bytes_written"] += bytes_written
        self.ops.append({"agg": dict(self._agg), "counts": dict(self._counts), "plans": self._plans})

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-operation layer metrics (median over traced operations) and the
        names of metrics whose wrap points are all missing."""
        present = (self.present - self.broken) | {"cli.bytes_written"}

        def med(values):
            return statistics.median(values)

        def calls(name):
            return med([op["agg"].get(name, [0, 0.0, 0.0])[0] for op in self.ops])

        def total(name):
            return med([op["agg"].get(name, [0, 0.0, 0.0])[1] for op in self.ops])

        def self_time(name):
            return med([op["agg"].get(name, [0, 0.0, 0.0])[2] for op in self.ops])

        def count(name):
            return med([op["counts"].get(name, 0) for op in self.ops])

        plans = sorted(d for op in self.ops for d in op["plans"])

        def pct(q):
            return 1e3 * statistics.quantiles(plans, n=100, method="inclusive")[q - 1] if len(plans) > 1 else 1e3 * plans[0]

        def per_plan(name):
            return count(name) / max(calls("planner.plan"), 1)

        # name -> (sources that must be present, unit, value function)
        table = {
            "scenario.load_s": (["scenario.load"], "s", lambda: total("scenario.load")),
            "scenario.arrivals": (["scenario.arrivals"], "count", lambda: count("scenario.arrivals")),
            "planner.plans": (["planner.plan"], "count", lambda: calls("planner.plan")),
            "planner.busy_s": (["planner.plan"], "s", lambda: total("planner.plan")),
            "planner.plan_ms_p50": (["planner.plan"], "ms", lambda: pct(50)),
            "planner.plan_ms_p95": (["planner.plan"], "ms", lambda: pct(95)),
            "planner.boundary_solves_per_plan": (
                ["planner.plan", "planner.boundary_solves"], "count/plan",
                lambda: per_plan("planner.boundary_solves"),
            ),
            "planner.rear_end_evals_per_plan": (
                ["planner.plan", "planner.rear_end_evals"], "count/plan",
                lambda: per_plan("planner.rear_end_evals"),
            ),
            "trajectory.inverse_fit_calls": (["trajectory.inverse_fit"], "count", lambda: calls("trajectory.inverse_fit")),
            "trajectory.inverse_fit_s": (["trajectory.inverse_fit"], "s", lambda: total("trajectory.inverse_fit")),
            "trajectory.invert_calls": (["trajectory.invert"], "count", lambda: calls("trajectory.invert")),
            "trajectory.invert_s": (["trajectory.invert"], "s", lambda: total("trajectory.invert")),
            "trajectory.eval_calls": (["trajectory.eval"], "count", lambda: count("trajectory.eval")),
            "protocol.registers": (["protocol.register"], "count", lambda: calls("protocol.register")),
            "protocol.register_s": (["protocol.register"], "s", lambda: total("protocol.register")),
            "protocol.active_entries_calls": (["protocol.active_entries"], "count", lambda: calls("protocol.active_entries")),
            "protocol.active_entries_s": (["protocol.active_entries"], "s", lambda: total("protocol.active_entries")),
            "protocol.entries_scanned": (["protocol.entries_scanned"], "count", lambda: count("protocol.entries_scanned")),
            "protocol.predecessor_calls": (["protocol.predecessor"], "count", lambda: calls("protocol.predecessor")),
            "protocol.predecessor_s": (["protocol.predecessor"], "s", lambda: total("protocol.predecessor")),
            "geometry.conflict_lookups": (["geometry.conflict_lookups"], "count", lambda: count("geometry.conflict_lookups")),
            "simulation.run_s": (["simulation.run"], "s", lambda: total("simulation.run")),
            "simulation.steps": (["simulation.snapshot"], "count", lambda: calls("simulation.snapshot")),
            "simulation.vehicle_steps": (["simulation.vehicle_steps"], "count", lambda: count("simulation.vehicle_steps")),
            "simulation.snapshot_s": (["simulation.snapshot"], "s", lambda: total("simulation.snapshot")),
            "simulation.monitor_s": (["simulation.monitor"], "s", lambda: total("simulation.monitor")),
            "simulation.integrate_s": (["simulation.integrate"], "s", lambda: total("simulation.integrate")),
            "simulation.self_s": (["simulation.run"], "s", lambda: self_time("simulation.run")),
            "cli.write_s": (["cli.write"], "s", lambda: total("cli.write")),
            "cli.trajectory_csv_s": (["cli.trajectory_csv"], "s", lambda: total("cli.trajectory_csv")),
            "cli.plot_csv_s": (["cli.plot_csv"], "s", lambda: total("cli.plot_csv")),
            "cli.metrics_json_s": (["cli.metrics_json"], "s", lambda: total("cli.metrics_json")),
            "cli.protocol_records_s": (["cli.protocol_records"], "s", lambda: total("cli.protocol_records")),
            "cli.bytes_written": (["cli.bytes_written"], "B", lambda: count("cli.bytes_written")),
            "cli.self_s": (["cli.main"], "s", lambda: self_time("cli.main")),
        }
        metrics: dict[str, tuple[float, str]] = {}
        missing: list[str] = []
        for name, (sources, unit, value) in table.items():
            if all(s in present for s in sources):
                metrics[name] = (float(value()), unit)
            else:
                missing.append(name)
        return metrics, missing

    def write(self, path) -> None:
        """Span records, per-operation aggregates and missing wrap points as
        JSON lines; span times are seconds since their operation started."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op in self.records:
                base = self._op_starts[op]
                out.write(json.dumps({
                    "span": name, "id": span_id, "parent": parent, "op": op,
                    "start_s": start - base, "end_s": end - base,
                }) + "\n")
            for op, data in enumerate(self.ops):
                for name, (n, tot, own) in sorted(data["agg"].items()):
                    out.write(json.dumps({
                        "aggregate": name, "op": op, "calls": n, "total_s": tot, "self_s": own,
                    }) + "\n")
                out.write(json.dumps({"counts": data["counts"], "op": op}) + "\n")
            out.write(json.dumps({"missing_wrap_points": self.missing}) + "\n")
