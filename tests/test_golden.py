"""Frozen SHA-256 hashes of the command-line outputs and of planner decisions.

Any change to the bytes `cavcross run` writes or `cavcross plan` and
`cavcross compare` print, or to any decision the planner makes on a
300-vehicle stream, fails here.  Re-freeze a hash only for an intended
behaviour change, and say why in CHANGES.md.
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
        "trajectory.csv": "02307e35b57799cf9ba479c6183274c0604cb6f1acfa5778711e4af650a85944",
        "metrics.json": "6e0aafe1204e4e06ba4cf1b99e523ae0a6f4f788d2c00ef0ad5597e7cd4c2cca",
        "protocol.json": "0037e3cea8bfc30ff32a85841a2b2761147ea7cb803e478f63bf4886dca0984a",
        "plots/position.csv": "5ccca106a7ecbbc98145af14c1365340d5d0f1c1a56f2e5734c119c780129ce2",
        "plots/speed.csv": "6d4807d72cc74de2bf5d9ce2aac4e33a5a28de999abae51a8832ba49dc59b012",
        "plots/accel.csv": "340fe5f1e8edc8b2e7ae3a091bc9d76823169b1167f27e52765ee38ab716feba",
        "plots/rear_margin.csv": "974cea53f297ec612dd35053c54ad88dd7ba4e963f7319057f10b2ceb69734e4",
    },
    "fifo": {
        "trajectory.csv": "b2a58956e437b2380a46cdca2134abcc87f17b61cb77b0393e39bee0ff97fe19",
        "metrics.json": "585181858575ec839b725d724c217fd0430820023c7c2fbaa8719a65bc58ba68",
        "protocol.json": "e17047aa9fee4bb5bf11eeb87c1a4f3827a7ad2078b82c75f0933f7dfb599932",
        "plots/position.csv": "d95c70588e02492430401b9c84d0d66b8a85687564b4166f590f6808c3a0721e",
        "plots/speed.csv": "34ff6512fe16aaa6a9d3782d7c03b4e836673d3485e1cd97dfab6dfd9f15b2c5",
        "plots/accel.csv": "f20cb27eec197adcba9f000948c03d7d3c64d8b44e2edc490333ea91eb39a472",
        "plots/rear_margin.csv": "6c9ace177851c612b7a0ff6ce91ab912774903bfabecd34f9515573dca038603",
    },
}

# `cavcross run` on generate_random_scenario(seed=1, n_vehicles=40,
# mean_gap=2.0) under optimal: 73,469 sampled rows, 18,369 of them behind a
# leader, so leader finding is covered at scale.  `metrics.json` carries the
# exact minimum rear-end margins, which 22 vehicles reach between samples.
DENSE_RUN_GOLDEN = {
    "trajectory.csv": "71db667b4218e8c1275ba0f5b619f0099b88b68411cecb809b4944659381042c",
    "metrics.json": "ebda7317be009b92db6b08b82749586cb420db1b7b395642c3810f2aac4fb0e2",
    "protocol.json": "a5555d35a1d05e840e3d9864a0fba611b4b5660d1f4e3e6298fc8f23a917ff41",
    "plots/position.csv": "2b539e90085f406698b6850428fed2b9e240af5ccc8cb35988f30cb227d1d576",
    "plots/speed.csv": "1abbcaab0525910069bf683483a1bb4d778e6ec015a9724a28c5fb706e732999",
    "plots/accel.csv": "2969315ab06f500e225909dee887612812023222ecfcbea37a6ff9783faf1a57",
    "plots/rear_margin.csv": "93db256c3257943b7fffdd5ef37bce884add031f08da5c8cfeefa964f632ff14",
}

# `cavcross plan --vehicle veh60` on generate_random_scenario(seed=7,
# n_vehicles=60, mean_gap=3.0), saved with each policy.
PLAN_GOLDEN = {
    "optimal": "af89268667ea632ee5a862e5a2aa0561b5b6a4c046f3b735ad123275abe550c2",
    "fifo": "af89268667ea632ee5a862e5a2aa0561b5b6a4c046f3b735ad123275abe550c2",
}

# `schedule` on generate_random_scenario(seed=7, n_vehicles=300,
# mean_gap=3.0) with each policy: one line per vehicle with the chosen lane,
# repr(tf), the binding constraint and every lane's outcome.  The plan
# golden above hashes only the last vehicle's printout; this pins all 600
# decisions, including the stream `dense_plan` benchmarks.
DECISION_GOLDEN = {
    "optimal": "795f5118d5d40bf43d19ff14d507cb8f7b9b31c96c77c59b74318c4e14b43dce",
    "fifo": "85c473587d86739d2e4b2ebe52096a200e7c1bf2fba1c0384135a0ef46f9e9a1",
}

# `cavcross compare` on the reference scenario: the per-vehicle exit times,
# the totals and the throughput of both policies.
COMPARE_GOLDEN = "b0d70617844b0a77c9560936a48c21ae4b6f4888f075b10832f6c512f5122f99"


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


def test_compare_output_matches_golden(reference_path, capsys):
    capsys.readouterr()
    assert main(["compare", str(reference_path)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == COMPARE_GOLDEN


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
