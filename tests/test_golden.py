"""Frozen SHA-256 hashes of the command-line outputs and of planner decisions.

Any change to the bytes `cavcross run` writes or `cavcross plan` prints,
or to any decision the planner makes on a 300-vehicle stream, fails here.  Re-freeze a hash only for an intended behaviour change, and say
why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from cavcross import Policy, generate_random_scenario, save_scenario, schedule
from cavcross.cli import EXIT_OK, main

RUN_FILES = (
    "trajectory.csv",
    "metrics.json",
    "protocol.json",
    "plots/position.csv",
    "plots/speed.csv",
    "plots/accel.csv",
    "plots/rear_margin.csv",
)

RUN_GOLDEN = {
    "optimal": {
        "trajectory.csv": "a984b51ec1fc6c3a5d15f6f07151ac3b065ada47082ccf1d281580decd87e47f",
        "metrics.json": "c58ed9931edeec53bfb4202fd25af123bbd5732b2b8ff03aa90ba69789e1dac4",
        "protocol.json": "e91510b40653b078161c444e7a66ffa5faa03a252b3a29df7ec77a24c5165d10",
        "plots/position.csv": "0689791f21ad45729ebf4cb2b5a6ee3828ab412fd59391b693088e497b2c8509",
        "plots/speed.csv": "cd8f7972bf62b7bc100a250fb554d58558d8913b1fc03be0037a9882b410bf1a",
        "plots/accel.csv": "54ed3180735d7be780b104271399efe813da1cec7fe88bfe442327f0658bda26",
        "plots/rear_margin.csv": "5eedaf880bd85635735e113d3b33787443952a937f8262de7cdfb2c94e6fe171",
    },
    "fifo": {
        "trajectory.csv": "193fe253273478b4f51a98abe600b17a760b02ccceb3106b3efbf40cb7762546",
        "metrics.json": "cfe81d6e5f1a3b76384a476fb511dd77e40a34087bcdafd2b3faf69ee12bb026",
        "protocol.json": "8d1e6e62a52ecae313c388bb0e55bd4f257b5fb5899320f3e7d272b1ea02f910",
        "plots/position.csv": "4e35cf9a938a288e32fb769d0cd1808378f11451bde6411a3127bd643d133037",
        "plots/speed.csv": "9ae40cf1bbbb56b6797b0db940c3a52e1ecf88a89fcebfb9e9bfded5256ec2ca",
        "plots/accel.csv": "8912fef28a765f27d3d26fbbadcff435f774b17ff7fe40b6cc6b47087ddddccb",
        "plots/rear_margin.csv": "00af5e99b213e0770e835bdae51652aa2ae350b8088aaaabc431a057829ac0d3",
    },
}

# `cavcross run` on generate_random_scenario(seed=1, n_vehicles=40,
# mean_gap=2.0) under optimal: 73,469 sampled rows, 18,369 of them behind a
# leader, so leader finding is covered at scale.
DENSE_RUN_GOLDEN = {
    "trajectory.csv": "c2bd665a618220c84076d0f53ee2e7d15d3f3ca11d6987cb59c615047e50bffa",
    "metrics.json": "a584d80b4ef5fd2db749f385ab9cbcc57560855619f4b52e3c4ffd09f91253cc",
    "protocol.json": "a188ca75beb304d2df75c843d935df3b0727a22a142fe9896dafaeafe18d593d",
    "plots/position.csv": "fdfa1554388718e70408afe101c24da50d2392953b1cc95c4933c41e8be67a2a",
    "plots/speed.csv": "a690793a11f2a85e3a4167cd223b80a3fee571920612187333e2d5e539733488",
    "plots/accel.csv": "ccd7fce1753754b8a27899ae1126cdd0200309c81087da121afbc3e7b2928a61",
    "plots/rear_margin.csv": "4e262f8b3ca64e4325f114c0625e5ea5861a50e5af01aa0f93f6781706f53c07",
}

# `cavcross plan --vehicle veh60` on generate_random_scenario(seed=7,
# n_vehicles=60, mean_gap=3.0), saved with each policy.
PLAN_GOLDEN = {
    "optimal": "41e4ab46d0fbb15f420b3fdb87bac0ca8c9f3e8f42ef179503a5c2e16801d400",
    "fifo": "dc2723dd2bb5ca35fbe3d121d115403b066c0bc7a85211af65a7a76fe04aba1d",
}

# `schedule` on generate_random_scenario(seed=7, n_vehicles=300,
# mean_gap=3.0) with each policy: one line per vehicle with the chosen lane,
# repr(tf), the binding constraint and every lane's outcome.  The plan
# golden above hashes only the last vehicle's printout; this pins all 600
# decisions, including the stream `dense_plan` benchmarks.
DECISION_GOLDEN = {
    "optimal": "7cea9487504fe094537233450f75a79eccdfe9c02459d833c6a688c54f2a1c13",
    "fifo": "44b7bdf8413a2a3acf5e2457d78a39107006daba062ef2edb2a8d187630c9f0b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("policy", ["optimal", "fifo"])
def test_run_outputs_match_golden(policy, reference_path, tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(reference_path), "--policy", policy, "--out", str(out)])
    assert code == EXIT_OK
    hashes = {name: _sha256((out / name).read_bytes()) for name in RUN_FILES}
    assert hashes == RUN_GOLDEN[policy]


def test_dense_run_outputs_match_golden(tmp_path):
    path = tmp_path / "dense.yaml"
    save_scenario(generate_random_scenario(seed=1, n_vehicles=40, mean_gap=2.0), path)
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    assert code == EXIT_OK
    hashes = {name: _sha256((out / name).read_bytes()) for name in RUN_FILES}
    assert hashes == DENSE_RUN_GOLDEN


@pytest.mark.parametrize("policy", ["optimal", "fifo"])
def test_plan_output_matches_golden(policy, tmp_path, capsys):
    scenario = generate_random_scenario(seed=7, n_vehicles=60, mean_gap=3.0)
    path = tmp_path / f"stream_{policy}.yaml"
    save_scenario(dataclasses.replace(scenario, policy=Policy(policy)), path)
    capsys.readouterr()
    code = main(["plan", str(path), "--vehicle", "veh60"])
    assert code == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == PLAN_GOLDEN[policy]


def _decisions(plans) -> str:
    lines = []
    for vid, result in plans.items():
        lanes = " ".join(
            f"{o.lane}:{o.tf!r}:{o.binding_constraint.value}" for o in result.lanes
        )
        lines.append(
            f"{vid} {result.lane} {result.tf!r} {result.binding_constraint.value} {lanes}\n"
        )
    return "".join(lines)


@pytest.mark.parametrize("policy", ["optimal", "fifo"])
def test_stream_decisions_match_golden(policy):
    scenario = generate_random_scenario(seed=7, n_vehicles=300, mean_gap=3.0)
    _, plans = schedule(dataclasses.replace(scenario, policy=Policy(policy)))
    assert len(plans) == 300
    assert _sha256(_decisions(plans).encode()) == DECISION_GOLDEN[policy]
