"""tools/ab.py: the A/B driver over perfbench's unchanged run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _result(value):
    return {"attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_summary_counts_wins_and_flags_each_bound():
    pairs = [(_result(1.0), _result(1.3)), (_result(1.0), _result(1.4)),
             (_result(1.1), _result(1.0)),
             (None, _result(2.0))]  # a failed parent run drops its pair
    m = ab.summarize(pairs, WALL)
    assert (m["pairs"], m["parent_median"], m["change_median"], m["wins"]) == (3, 1.0, 1.3, 1)
    assert m["ratio"] == 1.3 and m["worse_than_bound"] and not m["spread_past_bound"]
    wide = ab.summarize([(_result(p), _result(p)) for p in (1.0, 2.0, 3.0)], WALL)
    assert wide["ratio"] == 1.0 and wide["spread_past_bound"] and not wide["worse_than_bound"]
    assert not m["gain"] and not wide["gain"]
    # the claim rule: at least 9 wins in 10 pairs, and the medians apart by
    # more than the parent's IQR, here 0.045 of a median of 1.045
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [p - 0.1 for p in parent[:9]] + parent[9:]  # the tenth pair is a tie
    fast = ab.summarize([(_result(p), _result(c)) for p, c in zip(parent, faster)], WALL)
    assert fast["wins"] == 9 and fast["parent_iqr"] == pytest.approx(0.045) and fast["gain"]
    # every pair won, but by less than the parent's IQR
    close = ab.summarize([(_result(p), _result(p - 0.04)) for p in parent], WALL)
    assert close["wins"] == 10 and not close["gain"]


def test_smoke_pair_writes_the_bench_file(tmp_path):
    # one pair of this checkout against itself at perfbench's toy sizes, by a
    # copy of the driver whose root, where it writes, is tmp_path
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "ab.py", tmp_path / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, str(tmp_path / "tools" / "ab.py"), "--parent", str(ROOT),
            "--change", str(ROOT), "--label", "smoke", "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["seeds"] == [101] and record["pairs"] == 1 and record["smoke"]
    assert record["parent"]["sha"] == record["change"]["sha"] and record["environment"]["nproc"] >= 1
    for side in ("parent", "change"):  # the north star's src/fmsolve line count
        assert type(record[side]["src_lines"]) is int and record[side]["src_lines"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    for entry in record["workloads"].values():
        assert entry["parent"]["runs_failed"] == entry["change"]["runs_failed"] == 0
        assert entry["parent"]["attempted"] > 0 and entry["change"]["failed"] == 0
        assert set(entry["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        for m in entry["metrics"].values():
            assert m["pairs"] == 1 and m["wins"] in (0, 1) and m["ratio"] > 0
