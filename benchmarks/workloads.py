"""Workload inputs and operations.

Each workload builds its scenario files once per set-up, then repeats one
operation: a fixed list of `cavcross` command lines.  The benchmark seed
picks a quarter-turn rotation of the compass and a three-letter vehicle-id
prefix.  The intersection is symmetric under the rotation and the ids are
labels of equal length, so every seed gives the program different inputs
that cost the same work: a fresh draw of the stream would move `op_s` by
the draw, not by the program, and many draws of the 300-vehicle stream are
not admissible under both policies.
"""

from __future__ import annotations

import copy
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

import checks

# Generator arguments of `dense_plan`, fixed so that every run does the same work.
DENSE_PLAN = dict(seed=7, n_vehicles=300, mean_gap=3.0)

_QUARTER_TURN = {"N": "E", "E": "S", "S": "W", "W": "N"}


def variant(seed: int) -> tuple[int, str]:
    """Quarter turns and vehicle-id prefix for a benchmark seed."""
    rng = random.Random(seed)
    turns = rng.randrange(4)
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return turns, prefix


def transform(doc: dict, seed: int) -> dict:
    """Rotate every movement and relabel every vehicle, keeping the work."""
    turns, prefix = variant(seed)
    out = copy.deepcopy(doc)
    for arrival in out["arrivals"]:
        for key in ("from", "to"):
            for _ in range(turns):
                arrival[key] = _QUARTER_TURN[arrival[key]]
        digits = arrival["id"].lstrip(string.ascii_letters)
        arrival["id"] = prefix + digits
    return out


@dataclass
class Operation:
    """One timed unit: command lines run back to back through `cavcross.cli`."""

    argvs: list[list[str]]
    # check(index of command line, exit code or error, captured stdout) -> failures
    check: Callable[[int, object, str], list[str]]
    out_dirs: list[Path] = field(default_factory=list)


def _dump(doc: dict, path: Path) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))


def _generated(cavcross, gen_args: dict, seed: int) -> dict:
    scenario = cavcross.generate_random_scenario(**gen_args)
    return transform(cavcross.scenario_to_dict(scenario), seed)


def _save(cavcross, doc: dict, path: Path) -> None:
    cavcross.save_scenario(cavcross.parse_scenario_dict(doc), path)


def build_reference(cavcross, root: Path, seed: int, work: Path) -> Operation:
    """The paper's six-vehicle scenario under both policies."""
    doc = transform(yaml.safe_load((root / "scenarios" / "reference.yaml").read_text()), seed)
    path = work / "reference.yaml"
    _dump(doc, path)
    policies = ("optimal", "fifo")
    outs = [work / f"out_{p}" for p in policies]

    def check(i: int, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"run: exit code {code}"]
        return checks.check_run(doc, outs[i], policies[i])

    argvs = [
        ["run", str(path), "--policy", p, "--out", str(o)] for p, o in zip(policies, outs)
    ]
    return Operation(argvs, check, outs)


def build_dense_plan(cavcross, root: Path, seed: int, work: Path) -> Operation:
    """Plan the last of a generated ~300-vehicle stream, under both policies."""
    doc = _generated(cavcross, DENSE_PLAN, seed)
    target = doc["arrivals"][-1]["id"]
    docs, argvs = [], []
    for policy in ("optimal", "fifo"):
        d = dict(doc, policy=policy)
        path = work / f"dense_{policy}.yaml"
        _save(cavcross, d, path)
        docs.append(d)
        argvs.append(["plan", str(path), "--vehicle", target])

    def check(i: int, code: int, stdout: str) -> list[str]:
        return checks.check_plan(docs[i], target, stdout, code)

    return Operation(argvs, check)


WORKLOADS: dict[str, Callable[..., Operation]] = {
    "reference": build_reference,
    "dense_plan": build_dense_plan,
}


def main() -> None:
    """Write every workload's input files for one seed into a directory."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import cavcross

    for name, build in WORKLOADS.items():
        work = args.out / name
        work.mkdir(parents=True, exist_ok=True)
        op = build(cavcross, root, args.seed, work)
        for argv in op.argvs:
            print(f"{name}: cavcross {' '.join(argv)}")


if __name__ == "__main__":
    main()
