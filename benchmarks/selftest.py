"""Self-tests of the output checks: each must pass the program's real output
and reject a deliberately corrupted copy of it.

    python3 benchmarks/selftest.py

Runs the reference scenario under both policies and `cavcross plan` on its
last vehicle, then corrupts copies of the artifacts: a perturbed
coefficient, an overlapping zone occupancy, a dropped CSV row, a wrong
energy, a follower too close to its leader, an out-of-order FIFO entry and
a failed plan.  Exits 1 if any check accepts a corruption.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _entries(doc: dict) -> dict:
    return {e["vehicle_id"]: e for e in doc["entries"]}


def report(name: str, ok: bool, tag, found: list[str]) -> None:
    shown = [f for f in found if tag and f.startswith(tag)][:1] or found[:1] or ["no failures"]
    print(f"{'PASS' if ok else 'FAIL'} {name}: {shown[0]}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cavcross
    import cavcross.cli as cli

    work_root = Path(__file__).resolve().parent / "_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    failures = 0
    try:
        op = workloads.build_reference(cavcross, ROOT, 0, tmp)
        scenario = workloads.transform(
            yaml.safe_load((ROOT / "scenarios" / "reference.yaml").read_text()), 0
        )
        codes = []
        for argv in op.argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        opt_dir, fifo_dir = op.out_dirs
        ids = [a["id"] for a in scenario["arrivals"]]
        # Two conflicting vehicles and one same-approach pair of the scenario.
        moves = {a["id"]: (a["from"], a["to"]) for a in scenario["arrivals"]}
        pairs = [
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if checks.CONFLICTS[(moves[a], moves[b])]
        ]
        same = next(
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if moves[a][0] == moves[b][0]
        )

        def case(name: str, tag: str, corrupt, policy: str = "optimal", base: Path = opt_dir):
            nonlocal failures
            copy = tmp / f"case-{name}"
            shutil.copytree(base, copy)
            if corrupt is not None:
                corrupt(copy)
            found = checks.check_run(scenario, copy, policy)
            if tag is None:
                ok = not found
            else:
                ok = any(f.startswith(tag) for f in found)
            failures += not ok
            report(name, ok, tag, found)

        def perturb(d):
            def edit(doc):
                _entries(doc)[ids[-1]]["position_coeffs"][1] *= 1.001
            _edit_json(d / "protocol.json", edit)

        entry = np.array([scenario["layout"]["control_zone_length_m"]])

        def zone_entry(rec) -> float:
            c = np.array(rec["position_coeffs"])[:, None]
            horizon = np.array([rec["tf_s"] - rec["t0_s"]])
            return rec["t0_s"] + checks.crossing_time(c, horizon, entry)[0]

        def replan_to_enter(rec, target: float) -> bool:
            """Give `rec` the boundary cubic, with its own entry speed and
            path, whose zone entry is within 0.05 s of `target`."""
            v0, s = rec["position_coeffs"][2], rec["total_distance_m"]
            for horizon in np.linspace(0.5 * s / v0, 2.0 * s / v0, 4001):
                c = checks.solve_cubic_4x4(v0, s, horizon)
                rec_in = rec["t0_s"] + checks.crossing_time(c[:, None], np.array([horizon]), entry)[0]
                if abs(rec_in - target) < 0.05:
                    rec["position_coeffs"] = c.tolist()
                    rec["tf_s"] = rec["t0_s"] + horizon
                    return True
            return False

        def overlap(d):
            # A conflicting pair entering the merging zone together.
            def edit(doc):
                e = _entries(doc)
                if not any(replan_to_enter(e[b], zone_entry(e[a])) for a, b in pairs):
                    raise AssertionError("no overlapping exit time found")
            _edit_json(d / "protocol.json", edit)

        def tailgate(d):
            # A follower reaching the zone 0.2 s behind its leader.
            def edit(doc):
                e = _entries(doc)
                if not replan_to_enter(e[same[1]], zone_entry(e[same[0]]) + 0.2):
                    raise AssertionError("no tailgating exit time found")
            _edit_json(d / "protocol.json", edit)

        def drop_row(d):
            lines = (d / "trajectory.csv").read_text().splitlines(keepends=True)
            del lines[len(lines) // 2]
            (d / "trajectory.csv").write_text("".join(lines))

        def wrong_energy(d):
            def edit(doc):
                doc["per_vehicle"][ids[0]]["energy_cost"] *= 1.0001
            _edit_json(d / "metrics.json", edit)

        def wild_accel(d):
            def edit(doc):
                c = _entries(doc)[ids[0]]["position_coeffs"]
                c[0] *= 50.0
                c[1] *= 50.0
            _edit_json(d / "protocol.json", edit)

        print(f"exit codes {codes}; same-approach pair {same}")
        case("genuine optimal run", None, None)
        case("genuine fifo run", None, None, "fifo", fifo_dir)
        case("perturbed coefficient", "bc:", perturb)
        case("overlapping occupancy", "lateral:", overlap)
        case("follower on its leader", "rear_end:", tailgate)
        case("dropped CSV row", "csv:", drop_row)
        case("wrong energy", "energy:", wrong_energy)
        case("acceleration out of bounds", "bounds:", wild_accel)

        def late_first(d):
            # Stretch the first arrival's horizon, keeping its boundary
            # conditions, so that it enters the zone after a later arrival.
            def edit(doc):
                first = _entries(doc)[ids[0]]
                v0, s = first["position_coeffs"][2], first["total_distance_m"]
                horizon = 1.8 * s / v0
                first["position_coeffs"] = checks.solve_cubic_4x4(v0, s, horizon).tolist()
                first["tf_s"] = first["t0_s"] + horizon
            _edit_json(d / "protocol.json", edit)

        case("fifo entry out of order", "fifo_order:", late_first, "fifo", fifo_dir)

        # cavcross plan on the last vehicle of the reference scenario.
        target = ids[-1]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["plan", str(op.argvs[0][1]), "--vehicle", target])
        record = json.loads(buf.getvalue())

        def plan_case(name: str, tag, rec, exit_code=0):
            nonlocal failures
            found = checks.check_plan(scenario, target, json.dumps(rec), exit_code)
            ok = not found if tag is None else any(f.startswith(tag) for f in found)
            failures += not ok
            report(name, ok, tag, found)

        plan_case("genuine plan", None, record, code)
        bad = json.loads(json.dumps(record))
        bad["position_coeffs"][0] *= 1.001
        plan_case("plan: perturbed coefficient", "bc:", bad)
        bad = json.loads(json.dumps(record))
        chosen = next(c for c in bad["lanes"] if c["lane"] == bad["chosen_lane"])
        chosen["rejected_occupancy_intervals_s"].append([record["arrival_time_s"], record["chosen_tf_s"]])
        plan_case("plan: overlapping occupancy", "lateral:", bad)
        plan_case("plan: failed exit code", "plan:", record, 3)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
