"""Benchmark for cavcross: times `cavcross run` and `cavcross plan` end to end.

    python3 benchmarks/run.py --workload reference --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs in this one process.  The set-up (importing cavcross and
building the scenario files) is repeated SETUPS times.  Then whole
operations repeat for about `--seconds` (no operation starts that would
likely end past that).  Before each operation, once the previous one has
been collected and has settled for SETTLE_S, a fixed host-speed probe runs
PROBES times; each set-up is followed by one probe.  `setup_s` and `op_s`
are the median set-up and operation wall times, each scaled by
PROBE_NOMINAL_S / (median of the probes taken among them); `peak_rss_mb`
is the process's peak resident memory.  Every operation's outputs are
checked by `checks.py`; an operation whose command fails or whose outputs
fail a check counts as failed.  With `--trace 1` traced and untraced operations alternate, and
the per-layer metrics of `tracing.py` are reported instead, together with
the tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One process, no extra threads: keep numpy's BLAS pool at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 30
PROBES = 2
# Pause between an operation and the next probes.  Right after an operation the
# probe runs up to twice as slow for ~0.1 s (the freed memory and written files
# settling), which would tie the probe to the program's own behaviour.
SETTLE_S = 0.1
# Median probe time on the machine the README's figures come from.  The host's
# speed changes by up to a factor of two over minutes, so whole runs land in
# fast or slow phases; timings are rescaled by PROBE_NOMINAL_S / (median probe
# time), which removes most of that drift (see README).
PROBE_NOMINAL_S = 0.039


def _probe() -> float:
    """Time a fixed interpreter-bound task that touches nothing of cavcross:
    integer arithmetic, then tuples, float formatting and a dict of lists."""
    start = time.perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    rows = []
    for i in range(6000):
        x = i * 0.013
        rows.append((x, f"v{i % 40}", ((0.001 * x + 0.02) * x + 10.0) * x, 0.003 * x * x + 10.0))
    "\n".join(",".join((repr(a), b, repr(c), repr(d))) for a, b, c, d in rows)
    groups: dict[str, list[float]] = {}
    for _, b, c, _ in rows:
        groups.setdefault(b, []).append(c)
    return time.perf_counter() - start


def _import_cavcross():
    """Import cavcross afresh from the checkout, so that each set-up pays
    for the package's own module-level work (numpy and PyYAML stay loaded)."""
    for name in [m for m in sys.modules if m == "cavcross" or m.startswith("cavcross.")]:
        del sys.modules[name]
    import cavcross
    import cavcross.cli

    return cavcross


def _digest(op: workloads.Operation, stdouts: list[str]) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for out in op.out_dirs:
        for path in sorted(out.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(out)).encode())
                with open(path, "rb") as handle:
                    while chunk := handle.read(1 << 20):
                        h.update(chunk)
    return h.hexdigest()


def _bytes_written(op: workloads.Operation) -> int:
    return sum(p.stat().st_size for out in op.out_dirs for p in out.rglob("*") if p.is_file())


class Runner:
    """Runs and checks operations; outputs equal to an already checked
    output need no second check."""

    def __init__(self, op: workloads.Operation):
        self.op = op
        self.checked: set[str] = set()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # operations that exited 0 but failed a check

    def run_once(self, cli) -> float:
        gc.collect()
        codes, stdouts = [], []
        start = time.perf_counter()
        for argv in self.op.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                    codes.append(f"{type(exc).__name__}: {exc}")
            stdouts.append(buf.getvalue())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        key = _digest(self.op, stdouts) + repr(codes)
        if key not in self.checked:
            failures, wrong = [], False
            for i, (code, text) in enumerate(zip(codes, stdouts)):
                found = self.op.check(i, code, text)
                failures += found
                wrong |= bool(found) and code == 0
            if failures:
                self.failed += 1
                self.wrong += wrong
                if len(self.failures) < 20:
                    self.failures.extend(failures[:5])
            else:
                self.checked.add(key)
        return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    try:
        setup_times, setup_probes = [], []
        for i in range(SETUPS):
            work = tmp / f"setup{i}"
            work.mkdir()
            start = time.perf_counter()
            cavcross = _import_cavcross()
            op = workloads.WORKLOADS[name](cavcross, ROOT, seed, work)
            setup_times.append(time.perf_counter() - start)
            setup_probes.append(_probe())
        if not Path(cavcross.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"cavcross imported from {cavcross.__file__}, not from {ROOT / 'src'}")
        cli = sys.modules["cavcross.cli"]
        runner = Runner(op)
        plain: list[float] = []
        traced: list[float] = []
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
        probes: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            gc.collect()
            time.sleep(SETTLE_S)
            probes.extend(_probe() for _ in range(PROBES))
            plain.append(runner.run_once(cli))
            if tracer is not None:
                tracer.begin_op()
                try:
                    traced.append(runner.run_once(cli))
                finally:
                    tracer.end_op(_bytes_written(op))
            # Start no round that would likely end past the deadline.
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
        op_wall = statistics.median(plain)
        speed = PROBE_NOMINAL_S / statistics.median(probes)
        setup_speed = PROBE_NOMINAL_S / statistics.median(setup_probes)
        if tracer is None:
            metrics = {
                "setup_s": (setup_speed * statistics.median(setup_times), "s"),
                "op_s": (speed * op_wall, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        else:
            metrics, missing = tracer.layer_metrics()
            metrics["trace.op_s"] = (statistics.median(traced), "s")
            metrics["trace.overhead_s"] = (statistics.median(traced) - op_wall, "s")
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}-{seed}.jsonl")
            if tracer.missing:
                print(f"missing wrap points: {', '.join(tracer.missing)}", file=sys.stderr)
            if missing:
                print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
        for failure in runner.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        print(f"workload {name}: seed {seed}, {len(plain)} untraced and {len(traced)} traced operations")
        print("  set-up wall times (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"  median set-up probe {statistics.median(setup_probes):.6g} s, "
              f"speed factor {setup_speed:.4f}")
        print("  operation wall times (s): " + " ".join(f"{t:.4f}" for t in plain))
        print(f"  median operation wall time {op_wall:.6g} s, median probe "
              f"{statistics.median(probes):.6g} s, speed factor {speed:.4f}")
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
        print(f"  attempted = {runner.attempted}, failed = {runner.failed}")
        return {
            "correct": runner.wrong == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cavcross" / "__init__.py").is_file():
        print(f"error: no cavcross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
