"""Smoke test for tools/ab.py: HEAD against the working tree, on the
harness's tiny inputs.  Outside tier 1 (pytest's testpaths is tests/);
run it with ``python -m pytest tools/test_ab.py``."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUMMARY_KEYS = {
    "parent_median",
    "parent_quartiles",
    "change_median",
    "change_quartiles",
    "change_better_pairs",
    "pairs",
}


def test_head_against_working_tree():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    path = ROOT / f"BENCH_{head[:7]}.json"
    # the tool writes here: never overwrite a committed result
    assert not path.exists(), path
    cmd = [sys.executable, "tools/ab.py", "--parent", "HEAD", "--workload", "dilation"]
    cmd += ["--seeds", "1-2", "--seconds", "1", "--smoke"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)

    assert set(result) == {"what", "parent", "change", "machine", "workloads"}
    assert result["parent"] == head
    assert set(result["workloads"]) == {"dilation"}
    dilation = result["workloads"]["dilation"]
    assert dilation["seeds"] == [1, 2]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(dilation["summary"]) == metrics
    for summary in dilation["summary"].values():
        assert set(summary) == SUMMARY_KEYS and summary["pairs"] == 2

    runs = dilation["runs"]
    # odd seed: parent first
    assert [(r["seed"], r["side"], r["first"]) for r in runs] == [
        (1, "parent", True),
        (1, "change", False),
        (2, "change", True),
        (2, "parent", False),
    ]
    assert all(r["attempted"] > 0 and r["failed"] == 0 for r in runs)
    assert all(set(r["metrics"]) == set(metrics) for r in runs)
    assert "better in" in proc.stdout
