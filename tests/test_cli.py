import csv
import json
import textwrap

import pytest
import yaml

from cavcross.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PLANNING,
    EXIT_VIOLATIONS,
    TRAJECTORY_CSV_HEADER,
    main,
    trajectory_csv,
)
from cavcross import load_scenario, run


MINIMAL = textwrap.dedent(
    """
    layout:
      control_zone_length_m: 125.0
      merging_zone_side_m: 25.0
    defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0, speed_min_mps: 2.0,
               speed_max_mps: 18.0, headway_s: 1.0, standstill_gap_m: 1.5}
    arrivals:
      - {id: a, time_s: 0.0, from: W, to: E, speed_mps: 10.0}
    """
)


def _argv(command, path, tmp_path):
    """A `run` or `plan` command line on `path`, planning MINIMAL's vehicle."""
    if command == "plan":
        return ["plan", str(path), "--vehicle", "a"]
    return ["run", str(path), "--out", str(tmp_path / "out")]


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("CAVCROSS_OUT", raising=False)
    return tmp_path / "out"


class TestRunCommand:
    def test_reference_run_exit_zero(self, reference_path, out_dir, capsys):
        code = main(["run", str(reference_path), "--out", str(out_dir)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "vehicles=6" in printed and "violations=0" in printed
        for name in ("trajectory.csv", "metrics.json", "protocol.json"):
            assert (out_dir / name).exists()
        for panel in ("position", "speed", "accel", "rear_margin"):
            assert (out_dir / "plots" / f"{panel}.csv").exists()

    def test_csv_column_contract(self, reference_path, out_dir):
        main(["run", str(reference_path), "--out", str(out_dir)])
        with open(out_dir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAJECTORY_CSV_HEADER
        assert rows[0] == [
            "t", "vehicle_id", "lane", "position_m",
            "speed_mps", "accel_mps2", "rear_margin_m",
        ]
        first = rows[1]
        assert first[0] == "0.0" and first[1] == "veh1"
        assert float(first[3]) == 0.0 and float(first[4]) == 10.0

    def test_metrics_json_shape(self, reference_path, out_dir):
        main(["run", str(reference_path), "--out", str(out_dir)])
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["policy"] == "optimal"
        assert doc["aggregate"]["vehicle_count"] == 6
        assert doc["violations"] == []
        assert set(doc["per_vehicle"]) == {f"veh{i}" for i in range(1, 7)}
        veh1 = doc["per_vehicle"]["veh1"]
        assert veh1["min_rear_margin_m"] is None
        assert veh1["binding_constraint"] == "bounds"

    def test_protocol_dump_well_formed(self, reference_path, out_dir):
        main(["run", str(reference_path), "--out", str(out_dir)])
        doc = json.loads((out_dir / "protocol.json").read_text())
        assert len(doc["entries"]) == 6
        for record in doc["entries"]:
            assert len(record["position_coeffs"]) == 4
            assert len(record["time_of_position_coeffs"]) == 4
            assert record["tf_s"] > record["t0_s"]

    def test_policy_flag(self, reference_path, out_dir, capsys):
        code = main(["run", str(reference_path), "--policy", "fifo", "--out", str(out_dir)])
        assert code == EXIT_OK
        assert "policy=fifo" in capsys.readouterr().out

    def test_env_var_out_dir(self, reference_path, tmp_path, monkeypatch, capsys):
        target = tmp_path / "via_env"
        monkeypatch.setenv("CAVCROSS_OUT", str(target))
        assert main(["run", str(reference_path)]) == EXIT_OK
        assert (target / "trajectory.csv").exists()

    def test_malformed_file_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("layout: {merging_zone_side_m: 25.0}\ndefaults: {}\n")
        assert main(["run", str(bad)]) == EXIT_PARSE
        assert "scenario error" in capsys.readouterr().err

    def test_unknown_key_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            textwrap.dedent(
                """
                layout: {control_zone_length_m: 125.0, merging_zone_side_m: 25.0}
                defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0,
                           speed_min_mps: 2.0, speed_max_mps: 18.0,
                           headway_s: 1.0, standstill_gap_m: 1.5}
                turbo: true
                arrivals: []
                """
            )
        )
        assert main(["run", str(bad)]) == EXIT_PARSE

    def test_out_of_range_speed_parse_exit(self, reference_path, tmp_path, capsys):
        doc = yaml.safe_load(reference_path.read_text())
        doc["arrivals"][0]["speed_mps"] = 50.0
        bad = tmp_path / "fast.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("scenario error: arrivals[0]: arrival speed 50.0 outside")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "plan"])
    def test_minimal_document_exit_zero(self, tmp_path, capsys, command):
        path = tmp_path / "minimal.yaml"
        path.write_text(MINIMAL)
        assert main(_argv(command, path, tmp_path)) == EXIT_OK

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda text: text.replace("layout:", "layout:\n  1: 2", 1),
                "layout: expected string keys, got 1",
            ),
            (lambda text: "~: 2\n" + text, "<root>: expected string keys, got None"),
            (
                lambda text: text.replace("125.0", "1" + "0" * 400, 1),
                "layout.control_zone_length_m: value out of range for a float",
            ),
        ],
        ids=["layout-int-key", "root-null-key", "huge-integer"],
    )
    @pytest.mark.parametrize("command", ["run", "plan"])
    def test_malformed_document_parse_exit(self, tmp_path, capsys, command, edit, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(edit(MINIMAL))
        assert main(_argv(command, bad, tmp_path)) == EXIT_PARSE
        assert capsys.readouterr().err == f"scenario error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "plan"])
    def test_invalid_utf8_parse_exit(self, tmp_path, capsys, command):
        bad = tmp_path / "latin.yaml"
        bad.write_bytes(b"# caf\xff\xfe\n" + MINIMAL.encode())
        assert main(_argv(command, bad, tmp_path)) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("scenario error: document: not valid YAML")

    def test_planning_failure_exit(self, tmp_path, capsys):
        gridlock = tmp_path / "gridlock.yaml"
        gridlock.write_text(
            textwrap.dedent(
                """
                layout: {control_zone_length_m: 125.0, merging_zone_side_m: 25.0}
                defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0,
                           speed_min_mps: 2.0, speed_max_mps: 18.0,
                           headway_s: 1.0, standstill_gap_m: 1.5}
                arrivals:
                  - {id: lead, time_s: 0.0, from: W, to: E, speed_mps: 6.0}
                  - {id: victim, time_s: 1.2, from: W, to: E, speed_mps: 18.0}
                """
            )
        )
        assert main(["run", str(gridlock)]) == EXIT_PLANNING
        assert "victim" in capsys.readouterr().err

    def test_violation_exit_code(self, reference_path, out_dir, monkeypatch):
        # Force a negative margin into the run result to check the exit path.
        import cavcross.cli as cli_mod
        from cavcross.simulation import Violation

        real_run = cli_mod.run

        def seeded_run(scenario):
            result = real_run(scenario)
            result.violations.append(
                Violation(0.0, "rear_end", ("veh1",), -0.1, "injected")
            )
            return result

        monkeypatch.setattr(cli_mod, "run", seeded_run)
        code = main(["run", str(reference_path), "--out", str(out_dir)])
        assert code == EXIT_VIOLATIONS


class TestPlanCommand:
    def test_lone_vehicle_bounds(self, reference_path, capsys):
        assert main(["plan", str(reference_path), "--vehicle", "veh1"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["vehicle_id"] == "veh1"
        assert record["binding_constraint"] == "bounds"
        assert record["lanes"][0]["rejected_occupancy_intervals_s"] == []

    def test_lateral_bound_vehicle(self, reference_path, capsys):
        assert main(["plan", str(reference_path), "--vehicle", "veh3"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["binding_constraint"] == "lateral"
        assert record["lanes"][0]["rejected_occupancy_intervals_s"]

    def test_rear_end_bound_vehicle(self, tmp_path, capsys):
        # The leader's own speed cap keeps it slow, so the follower's
        # minimum exit time is pinned by the car-following constraint.
        scn = tmp_path / "rear.yaml"
        scn.write_text(
            textwrap.dedent(
                """
                layout: {control_zone_length_m: 125.0, merging_zone_side_m: 25.0}
                defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0,
                           speed_min_mps: 2.0, speed_max_mps: 18.0,
                           headway_s: 1.0, standstill_gap_m: 1.5}
                arrivals:
                  - {id: slow, time_s: 0.0, from: W, to: E, speed_mps: 8.0,
                     params: {speed_max_mps: 9.0}}
                  - {id: follower, time_s: 3.0, from: W, to: E, speed_mps: 10.0}
                """
            )
        )
        assert main(["plan", str(scn), "--vehicle", "follower"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["binding_constraint"] == "rear_end"

    def test_unknown_vehicle(self, reference_path, capsys):
        assert main(["plan", str(reference_path), "--vehicle", "ghost"]) == EXIT_PARSE
        assert "ghost" in capsys.readouterr().err


class TestCompareCommand:
    def test_reference_table(self, reference_path, capsys):
        assert main(["compare", str(reference_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "TOTAL" in out and "throughput" in out

    def test_empty_scenario_zero_delta(self, tmp_path, capsys):
        empty = tmp_path / "empty.yaml"
        empty.write_text(
            textwrap.dedent(
                """
                layout: {control_zone_length_m: 125.0, merging_zone_side_m: 25.0}
                defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0,
                           speed_min_mps: 2.0, speed_max_mps: 18.0,
                           headway_s: 1.0, standstill_gap_m: 1.5}
                arrivals: []
                """
            )
        )
        assert main(["compare", str(empty)]) == EXIT_OK
        assert "0.000" in capsys.readouterr().out

    def test_strict_improvement_scenario(self, tmp_path, capsys):
        scn = tmp_path / "penalty.yaml"
        scn.write_text(
            textwrap.dedent(
                """
                layout: {control_zone_length_m: 125.0, merging_zone_side_m: 25.0}
                defaults: {accel_min_mps2: -3.0, accel_max_mps2: 3.0,
                           speed_min_mps: 2.0, speed_max_mps: 18.0,
                           headway_s: 1.0, standstill_gap_m: 1.5}
                arrivals:
                  - {id: lead, time_s: 0.0, from: N, to: S, speed_mps: 6.0}
                  - {id: late, time_s: 0.8, from: W, to: E, speed_mps: 12.0}
                """
            )
        )
        assert main(["compare", str(scn)]) == EXIT_OK
        out = capsys.readouterr().out
        total_line = next(line for line in out.splitlines() if line.startswith("TOTAL"))
        saving = float(total_line.split()[-1])
        assert saving > 1.0


class TestGoldenDeterminism:
    def test_repeated_runs_identical_bytes(self, reference_path):
        scenario = load_scenario(reference_path)
        assert trajectory_csv(run(scenario)) == trajectory_csv(run(scenario))
