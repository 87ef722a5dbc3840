import csv
import dataclasses
import itertools
import json
import textwrap
import time
import tracemalloc

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cavcross import (
    IntersectionLayout,
    Policy,
    SimulationError,
    generate_random_scenario,
    load_scenario,
    run,
)
from cavcross import cli
from cavcross.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PLANNING,
    EXIT_VIOLATIONS,
    TRAJECTORY_CSV_HEADER,
    main,
    trajectory_csv,
    write_outputs,
)


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
            (
                lambda text: text.replace(
                    "layout:", "layout:\n  lanes_per_approach: 1" + "0" * 400, 1
                ),
                "layout: lanes_per_approach must be between 1 and 8",
            ),
            (
                lambda text: text.replace("layout:", "layout:\n  lanes_per_approach: 9", 1),
                "layout: lanes_per_approach must be between 1 and 8",
            ),
            (
                lambda text: text.replace("accel_max_mps2: 3.0", "accel_max_mps2: 5.0e-7", 1),
                "arrivals[0]: bounds too tight for the planning margin 1e-06 at speed 10.0",
            ),
            (
                lambda text: text.replace("speed_max_mps: 18.0", "speed_max_mps: 2.0000015", 1)
                .replace("speed_mps: 10.0", "speed_mps: 2.000001", 1),
                "arrivals[0]: bounds too tight for the planning margin 1e-06 at speed 2.000001",
            ),
        ],
        ids=[
            "layout-int-key", "root-null-key", "huge-integer", "huge-lane-count", "nine-lanes",
            "accel-max-inside-margin", "speed-band-inside-margin",
        ],
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

    @pytest.mark.parametrize(
        "layout, message",
        [
            ("\n" + "- " * 20000 + "1", "line 2: nesting deeper than 32 levels"),
            ("{k: " * 3000 + "1" + "}" * 3000, "line 1: nesting deeper than 32 levels"),
            ("[" * 20000 + "]" * 20000, "line 1: nesting deeper than 32 levels"),
        ],
        ids=["list-20000-deep", "map-3000-deep", "flow-list-20000-deep"],
    )
    def test_deep_nesting_parse_exit(self, tmp_path, capsys, yaml_loader, layout, message):
        # The reader stops at a fixed depth, before PyYAML's pure scanner,
        # whose time grows with the square of the depth, has read far: the
        # 40 KB flow list took it ~30 s to read whole.
        bad = tmp_path / "deep.yaml"
        bad.write_text(f"layout: {layout}\n" + MINIMAL[MINIMAL.index("defaults:"):])
        start = time.perf_counter()
        assert main(["plan", str(bad), "--vehicle", "a"]) == EXIT_PARSE
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"scenario error: {message}\n"

    @pytest.mark.parametrize(
        "depth, message",
        [
            (32, "layout: expected a mapping, got list"),
            (33, "line 1: nesting deeper than 32 levels"),
        ],
    )
    def test_nesting_depth_limit(self, tmp_path, capsys, yaml_loader, depth, message):
        # The root mapping is the first level, `layout`'s list the second.
        bad = tmp_path / "deep.yaml"
        layout = "[" * (depth - 1) + "]" * (depth - 1)
        bad.write_text(f"layout: {layout}\n" + MINIMAL[MINIMAL.index("defaults:"):])
        assert main(["plan", str(bad), "--vehicle", "a"]) == EXIT_PARSE
        assert capsys.readouterr().err == f"scenario error: {message}\n"

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


CSV_FILES = (
    "trajectory.csv",
    "plots/position.csv",
    "plots/speed.csv",
    "plots/accel.csv",
    "plots/rear_margin.csv",
)


def _first_difference(got: str, want: str):
    """None if the texts are equal, else their first differing lines and
    its number, which keeps a failure's report short."""
    if got == want:
        return None
    for number, pair in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n"))):
        if pair[0] != pair[1]:
            return number, *pair


def _artifacts(out_dir):
    return {
        str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()
    }


class TestStreamingWriter:
    """`write_outputs` streams the log in chunks; its CSV files must hold the
    bytes of the original whole-run writer (`oracles.csv_artifacts_whole_run`)."""

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        n_vehicles=st.integers(1, 12),
        lanes=st.integers(1, 2),
        policy=st.sampled_from(list(Policy)),
        mean_gap=st.floats(1.0, 4.0),
        dt=st.sampled_from([0.01, 0.05, 0.1, 0.25]),
        chunk_rows=st.integers(1, 6),
    )
    def test_matches_whole_run_writer(
        self, tmp_path_factory, seed, n_vehicles, lanes, policy, mean_gap, dt, chunk_rows
    ):
        scenario = generate_random_scenario(
            seed=seed,
            n_vehicles=n_vehicles,
            layout=IntersectionLayout(lanes_per_approach=lanes),
            policy=policy,
            mean_gap=mean_gap,
        )
        try:
            result = run(dataclasses.replace(scenario, dt=dt))
        except SimulationError:
            assume(False)
        expected = oracles.csv_artifacts_whole_run(result)
        out = tmp_path_factory.mktemp("out")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
            write_outputs(result, out)
        written = _artifacts(out)
        for name in CSV_FILES:
            assert _first_difference(written[name].decode(), expected[name]) is None, name
        # The whole texts, at the module's own chunk size.
        whole = {"trajectory.csv": trajectory_csv(result)}
        for column in cli._PLOT_COLUMNS:
            whole[f"plots/{column}.csv"] = cli._wide_series_csv(result, column)
        for name in CSV_FILES:
            assert _first_difference(whole[name], expected[name]) is None, name

    def test_zero_arrivals(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(MINIMAL.split("arrivals:")[0] + "arrivals: []\n")
        result = run(load_scenario(path))
        assert len(result.log) == 0
        write_outputs(result, tmp_path / "out")
        written = _artifacts(tmp_path / "out")
        assert written["trajectory.csv"] == (",".join(TRAJECTORY_CSV_HEADER) + "\n").encode()
        for name in CSV_FILES[1:]:
            assert written[name] == b"t\n"
        assert trajectory_csv(result) == written["trajectory.csv"].decode()

    def test_memory_stays_bounded(self, tmp_path):
        # 73,469 rows; the whole-run writer peaked at 37.3 MiB here.
        result = run(generate_random_scenario(seed=1, n_vehicles=40, mean_gap=2.0))
        tracemalloc.start()
        try:
            write_outputs(result, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("formatter", ["trajectory_csv", "_wide_series_csv"])
    def test_failure_leaves_previous_artifacts(
        self, reference_path, out_dir, monkeypatch, formatter
    ):
        scenario = load_scenario(reference_path)
        write_outputs(run(scenario), out_dir)
        before = _artifacts(out_dir)
        fifo = run(dataclasses.replace(scenario, policy=Policy.FIFO))
        real = getattr(cli, formatter)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 5:
                raise RuntimeError("formatter failed")
            return real(*args)

        monkeypatch.setattr(cli, formatter, failing)
        with pytest.raises(RuntimeError, match="formatter failed"):
            write_outputs(fifo, out_dir)
        assert len(calls) == 5
        assert _artifacts(out_dir) == before
        assert not list(out_dir.glob("*.tmp")) and not list((out_dir / "plots").glob("*.tmp"))

    def test_io_failure_exits_io_and_keeps_artifacts(
        self, reference_path, out_dir, monkeypatch, capsys
    ):
        assert main(["run", str(reference_path), "--out", str(out_dir)]) == EXIT_OK
        before = _artifacts(out_dir)
        real = cli._wide_series_csv

        def failing(result, column, chunk=None):
            if column == "rear_margin":
                raise OSError("disk full")
            return real(result, column, chunk)

        monkeypatch.setattr(cli, "_wide_series_csv", failing)
        code = main(["run", str(reference_path), "--policy", "fifo", "--out", str(out_dir)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.endswith("i/o error: disk full\n")
        assert _artifacts(out_dir) == before
