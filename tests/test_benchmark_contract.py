"""The benchmark's tracer still finds every wrap point it measures.

`benchmarks/tracing.py` wraps names of cavcross from outside.  A refactor
that removes one of them, or changes a result its counting hook reads,
leaves per-layer metrics out of a traced benchmark run.  This test traces
one `cavcross run` and one `cavcross plan` the way `benchmarks/run.py`
does and checks that every per-layer metric of BENCHMARK.json is
reported.  The benchmark files are imported, never changed.
"""

import contextlib
import dataclasses
import io
import json
import sys

from cavcross import Policy, cli, generate_random_scenario, save_scenario
from conftest import REFERENCE_SCENARIO, REPO_ROOT

sys.path.append(str(REPO_ROOT / "benchmarks"))
import tracing  # noqa: E402

# Wrap points whose names no longer exist or are no longer called; the
# benchmark still lists them.
STALE_WRAP_POINTS = [
    "cavcross.cli:fifo_plan",
    "cavcross.cli:plan_with_diagnostics",
    "cavcross.planner:conflicts",
    "cavcross.simulation:fifo_plan",
]

# Added by benchmarks/run.py around the tracer's own metrics.
RUNNER_METRICS = {"trace.op_s", "trace.overhead_s"}


def _traced(tracer, argv, out_dirs=()):
    stdout = io.StringIO()
    tracer.begin_op()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        written = sum(
            p.stat().st_size for out in out_dirs for p in out.rglob("*") if p.is_file()
        )
        tracer.end_op(written)
    assert code == cli.EXIT_OK, stdout.getvalue()
    return stdout.getvalue()


def test_traced_run_and_plan_report_every_layer_metric(tmp_path):
    stream = generate_random_scenario(seed=7, n_vehicles=12, mean_gap=3.0)
    stream_path = tmp_path / "stream.yaml"
    save_scenario(dataclasses.replace(stream, policy=Policy.FIFO), stream_path)
    out = tmp_path / "out"

    tracer = tracing.Tracer()
    _traced(tracer, ["run", str(REFERENCE_SCENARIO), "--out", str(out)], [out])
    printed = _traced(
        tracer, ["plan", str(stream_path), "--vehicle", stream.arrivals[-1].vehicle_id]
    )
    assert json.loads(printed)["vehicle_id"] == stream.arrivals[-1].vehicle_id

    metrics, missing = tracer.layer_metrics()
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - RUNNER_METRICS
    assert missing == []
    assert expected <= set(metrics)
    assert tracer.broken == set()
    assert tracer.missing == STALE_WRAP_POINTS
    # The result line is strict JSON: no NaN or infinity among the numbers.
    json.dumps({name: value for name, (value, _) in metrics.items()}, allow_nan=False)

    # The RK4 cross-check runs once per planned vehicle, inside the run.
    run_op = tracer.ops[0]["agg"]
    assert run_op["planner.plan"][0] == 6
    assert run_op["simulation.integrate"][0] == 6
    (run_span,) = [r for r in tracer.records if r[1] == "simulation.run" and r[5] == 0]
    integrate_parents = [r[4] for r in tracer.records if r[1] == "simulation.integrate"]
    assert integrate_parents == [run_span[0]] * 6

    # `simulation.vehicle_steps` counts the rows the run samples: one per
    # data line of trajectory.csv.
    rows = (out / "trajectory.csv").read_text().count("\n") - 1
    assert tracer.ops[0]["counts"]["simulation.vehicle_steps"] == rows
