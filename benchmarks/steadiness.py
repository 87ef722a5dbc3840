"""Steadiness of the end-to-end metrics across seeds.

    python3 benchmarks/steadiness.py --runs 10 --first-seed 101

Runs `run.py` once per seed on every workload (or on `--workload`), one
process at a time, and prints for each end-to-end metric the median, the
quartiles and their distance as a share of the median, next to the bound in
BENCHMARK.json, and the same for the unscaled median operation wall time
(`op_wall_s`).  Raw results go to benchmarks/out/steadiness-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args()
    workloads = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # The unscaled median operation wall time, for comparison.
            wall = next(line for line in lines if "median operation wall time" in line)
            result["op_wall_s"] = float(wall.split("wall time")[1].split()[0])
            results[w].append(result)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.first_seed}.json").write_text(
        json.dumps({"seeds": seeds, "results": results}, indent=1)
    )
    print(f"seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'workload':<12}{'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>9}{'bound':>7}  failed/attempted")
    for w in workloads:
        runs = results[w]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for name, bound in [*bounds.items(), ("op_wall_s", "-")]:
            values = [r["op_wall_s"] if name == "op_wall_s" else r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{w:<12}{name:<13}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}"
                  f"{(q3 - q1) / med:>9.3f}{bound:>7}  {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
