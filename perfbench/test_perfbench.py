"""Smoke test of the benchmark: every workload on a toy network, untraced
and traced, through the same command line the benchmark is run with."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload, seed):
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0-smoke.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = result_of(run(workload, 5, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_same_seed_same_hashes_other_seed_other_inputs():
    records = []
    for seed in (3, 3, 4):
        result_of(run("sample", seed, 0))
        records.append(record_of("sample", seed))
    first, again, other = records
    assert first["hashes"] == again["hashes"]
    assert first["sequences"][0]["values"] == again["sequences"][0]["values"]
    assert first["hashes"]["cfm.sample.rk4.points"] != other["hashes"]["cfm.sample.rk4.points"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("train", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
