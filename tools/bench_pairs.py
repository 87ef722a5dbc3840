"""Run `benchmarks/run.py` alternately on two commits and summarize the pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 51-60 --out BENCH_x.json
    python3 tools/bench_pairs.py HEAD~1 HEAD --workloads dense_plan --seeds 1-3 --seconds 10

For each seed, and for each workload in turn, the benchmark runs once on each
commit, one run at a time: the parent first for the first, third, ... seed,
the change first for the others.  Every run extracts its commit with
`git archive` into a fresh directory, runs there with
`PYTHONDONTWRITEBYTECODE=1` (so each run compiles the package afresh, as the
benchmark's own set-ups do) and removes the directory afterwards.

The JSON written to `--out` (and printed) holds, per workload and end-to-end
metric of BENCHMARK.json: each side's runs with their median and quartiles
(`statistics.quantiles`, inclusive method), the pairs the change won (ties
count for neither), the median difference and relative change, the parent's
interquartile range, and whether the change is better in at least nine
tenths of the pairs by a median difference larger than that range
(`clear_gain`), and the no-regression verdict against the metric's relative
`bound` (`regression`): `regressed` if the change's median is worse than the
parent's by more than the bound, else `unresolved` if the parent's
interquartile range is wider than the bound, unless every change run beats
every parent run, else `none`.  Every float is rounded to 5 decimals.
Failed and attempted operations are summed per side, and `src_lines` gives
each side's line count of `src/cavcross/*.py`, as `wc -l` counts it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """`51-60` or `1,4,9` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(
    parent: list[float], change: list[float], better: str = "lower", bound: float = math.inf
) -> dict:
    """Medians, quartiles, wins and the no-regression verdict of paired runs;
    `parent[i]` and `change[i]` are one pair, and `bound` is the largest
    worsening of the median, relative to the parent's, that is no regression."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")

    def side(runs: list[float]) -> dict:
        q1, median, q3 = (
            statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        )
        return {"median": median, "q1": q1, "q3": q3, "runs": runs}

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = side(parent), side(change)
    difference = c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    allowed = bound * abs(p["median"])
    if sign * difference > allowed:
        regression = "regressed"
    elif iqr > allowed and not max(sign * x for x in change) < min(sign * x for x in parent):
        regression = "unresolved"
    else:
        regression = "none"
    return {
        "parent": p,
        "change": c,
        "change_wins": f"{wins}/{len(parent)}",
        "relative_change": difference / p["median"] if p["median"] else None,
        "median_difference": difference,
        "parent_iqr": iqr,
        "clear_gain": 10 * wins >= 9 * len(parent) and -sign * difference > iqr,
        "regression": regression,
    }


def rounded(value, places: int = 5):
    """`value` with every float in it rounded to `places` decimals."""
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: rounded(v, places) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v, places) for v in value]
    return value


def archive(commit: str) -> tarfile.TarFile:
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    return tarfile.open(fileobj=io.BytesIO(data))


def checkout(commit: str, into: Path) -> None:
    with archive(commit) as tar:
        tar.extractall(into, filter="data")


def src_lines(commit: str) -> int:
    """The newlines in `src/cavcross/*.py` of `commit`: `wc -l`'s total."""
    with archive(commit) as tar:
        return sum(
            tar.extractfile(member).read().count(b"\n")
            for member in tar.getmembers()
            if member.isfile() and member.name.endswith(".py")
            and PurePosixPath(member.name).parent == PurePosixPath("src/cavcross")
        )


def run_once(commit: str, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One benchmark run of `workload` on a fresh checkout of `commit`."""
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=workdir))
    try:
        checkout(commit, tree)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        cmd = [
            sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ]
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{commit} {workload} seed {seed}: exited with {proc.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line; `--workloads` defaults to every workload that
    BENCHMARK.json declares."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()

    commits = {
        side: subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", commit],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.strip()
        for side, commit in (("parent", args.parent), ("change", args.change))
    }
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {w: {"parent": [], "change": []} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    result = run_once(commits[side], workload, seed, args.seconds, Path(workdir))
                    results[workload][side].append(result)
                    values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                    print(f"seed {seed} {workload} {side}: {values}", file=sys.stderr)

    summary = {
        **commits,
        "command": "PYTHONDONTWRITEBYTECODE=1 python3 benchmarks/run.py --workload <workload> "
        f"--seed <seed> --seconds {args.seconds:g}; each run in a fresh git-archive checkout",
        "pairs_order": "first, third, ... seed: parent first; the others: change first; "
        "per seed, workloads in the order " + ", ".join(args.workloads),
        "seeds": args.seeds,
        "src_lines": {side: src_lines(commit) for side, commit in commits.items()},
        "workloads": {},
    }
    for workload, sides in results.items():
        summary["workloads"][workload] = {
            "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
            "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in sides.items()},
            "metrics": {
                m["name"]: summarize(
                    [r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                    m["better"],
                    m["bound"],
                )
                for m in metrics
            },
        }
    text = json.dumps(rounded(summary), indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
