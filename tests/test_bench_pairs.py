"""The summary that `tools/bench_pairs.py` writes into the BENCH_*.json records, and
its command line."""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

sys.path.append(str(REPO_ROOT / "tools"))
import bench_pairs  # noqa: E402


def test_summary_of_synthetic_pairs():
    parent = [1.0, 1.4, 1.1, 1.3, 1.2]
    change = [0.9, 1.3, 1.15, 1.0, 1.1]
    summary = bench_pairs.summarize(parent, change)
    # Inclusive quartiles of 1.0, 1.1, 1.2, 1.3, 1.4.
    assert summary["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3, "runs": parent}
    assert summary["change"]["median"] == 1.1
    assert summary["change"]["q1"] == 1.0 and summary["change"]["q3"] == 1.15
    # The third pair is lost; the rest are won.
    assert summary["change_wins"] == "4/5"
    assert summary["median_difference"] == pytest.approx(-0.1)
    assert summary["relative_change"] == pytest.approx(-0.1 / 1.2)
    assert summary["parent_iqr"] == pytest.approx(0.2)
    # 4/5 is under nine tenths, and the medians differ by less than the IQR.
    assert summary["clear_gain"] is False


def test_clear_gain_needs_nine_tenths_and_a_gap_above_the_parent_iqr():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [p - 2.0 for p in parent]
    assert bench_pairs.summarize(parent, faster)["clear_gain"] is True
    assert bench_pairs.summarize(parent, faster)["change_wins"] == "10/10"
    # Ties count for neither side.
    tied = [*faster[:9], parent[9]]
    assert bench_pairs.summarize(parent, tied)["change_wins"] == "9/10"
    assert bench_pairs.summarize(parent, tied)["clear_gain"] is True
    # A consistent but small gain does not clear the parent's spread.
    assert bench_pairs.summarize(parent, [p - 0.01 for p in parent])["clear_gain"] is False
    # Higher is better for some metrics: then a lower change loses.
    lower = bench_pairs.summarize(parent, faster, better="higher")
    assert lower["change_wins"] == "0/10" and lower["clear_gain"] is False


def test_regression_verdict_against_the_bound():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    # Medians 1.0 -> 1.3: worse by 30% against a bound of 25%.
    slower = [p + 0.3 for p in parent]
    assert bench_pairs.summarize(parent, slower, bound=0.25)["regression"] == "regressed"
    # Worse by 20%, inside the bound, and the parent's spread is narrow.
    within = [p + 0.2 for p in parent]
    assert bench_pairs.summarize(parent, within, bound=0.25)["regression"] == "none"
    assert bench_pairs.summarize(parent, parent, bound=0.25)["regression"] == "none"
    # For a higher-is-better metric the same numbers are a gain, and lower ones regress.
    assert bench_pairs.summarize(parent, slower, "higher", 0.25)["regression"] == "none"
    assert (
        bench_pairs.summarize(parent, [p - 0.3 for p in parent], "higher", 0.25)["regression"]
        == "regressed"
    )


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    # Inclusive quartiles 0.85 and 1.15: the parent's IQR is 0.3 of its median 1.0.
    parent = [0.6, 0.8, 0.8, 1.0, 1.0, 1.0, 1.0, 1.2, 1.2, 1.4]
    summary = bench_pairs.summarize(parent, parent, bound=0.25)
    assert summary["parent_iqr"] == pytest.approx(0.3)
    assert summary["regression"] == "unresolved"
    # Every change run below every parent run: not a regression at any spread.
    faster = [0.5 - 0.01 * i for i in range(10)]
    assert bench_pairs.summarize(parent, faster, bound=0.25)["regression"] == "none"
    # One change run that ties the best parent run leaves it unresolved.
    tied = [*faster[:9], 0.6]
    assert bench_pairs.summarize(parent, tied, bound=0.25)["regression"] == "unresolved"
    # A worse median beyond the bound is a regression, whatever the spread.
    slower = [p + 0.3 for p in parent]
    assert bench_pairs.summarize(parent, slower, bound=0.25)["regression"] == "regressed"
    # Without a bound nothing regresses.
    assert bench_pairs.summarize(parent, slower)["regression"] == "none"


def test_seed_ranges():
    assert bench_pairs.parse_seeds("51-55") == [51, 52, 53, 54, 55]
    assert bench_pairs.parse_seeds("1,4-5,9") == [1, 4, 5, 9]
    assert bench_pairs.parse_seeds("7-7") == [7]


@pytest.mark.parametrize(
    "seeds, message",
    [
        ("5-3", "descending range of seeds: '5-3'"),
        ("1,1", "seeds given twice: [1]"),
        ("1-3,2-4", "seeds given twice: [2, 3]"),
        ("", "not a seed or a range of seeds: ''"),
        ("1,,2", "not a seed or a range of seeds: ''"),
        ("-3", "not a seed or a range of seeds: '-3'"),
        ("a-b", "not a seed or a range of seeds: 'a-b'"),
    ],
)
def test_bad_seeds_are_a_usage_error(seeds, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.parse_args(["A", "B", "--seeds", seeds])
    assert exit_info.value.code == 2
    assert f"argument --seeds: {message}" in capsys.readouterr().err


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])


def test_default_workloads_are_the_benchmarks():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]
    args = bench_pairs.parse_args(["HEAD~1", "HEAD"])
    assert args.workloads == [w["name"] for w in declared]
    assert bench_pairs.parse_args(["A", "B", "--workloads", "reference"]).workloads == ["reference"]


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True, stdout=subprocess.DEVNULL,
    )


@pytest.fixture
def two_commits(tmp_path, monkeypatch):
    """A repository whose parent commit has 3 package lines and whose head
    has 5: files elsewhere, in a subpackage or not ending in .py count for
    nothing, and a last line without a newline counts for nothing too."""
    repo = tmp_path / "repo"
    (repo / "src" / "cavcross" / "sub").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((REPO_ROOT / "BENCHMARK.json").read_text())
    (repo / "src" / "cavcross" / "a.py").write_text("x = 1\ny = 2\n\n")
    (repo / "src" / "other.py").write_text("z = 3\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "src" / "cavcross" / "b.py").write_text("u = 4\nv = 5\nw = 6")
    (repo / "src" / "cavcross" / "sub" / "c.py").write_text("c = 7\n")
    (repo / "src" / "cavcross" / "notes.txt").write_text("not code\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "change")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    return repo


def test_src_lines_counts_the_package_modules(two_commits):
    assert bench_pairs.src_lines("HEAD~1") == 3
    assert bench_pairs.src_lines("HEAD") == 5


def test_record_holds_each_sides_src_lines(two_commits, tmp_path, monkeypatch):
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_run(commit, workload, seed, seconds, workdir):
        values = {m["name"]: {"value": 1.0} for m in metrics}
        return {"metrics": values, "failed": 0, "attempted": 1, "correct": True}

    out = tmp_path / "BENCH_x.json"
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["bench_pairs.py", "HEAD~1", "HEAD", "--seeds", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 5}
