"""Smoke test for tools/ab.py: HEAD against the working tree, on the
harness's tiny inputs.  Outside tier 1 (pytest's testpaths is tests/);
run it with ``python -m pytest tools/test_ab.py``."""

import json
import pathlib
import subprocess
import sys

import pytest

from ab import median_ranks, summarize, verdicts

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
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in benchmark["end_to_end"]]
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

    # one traced pair, on the first seed
    per_layer = dilation["per_layer"]
    assert set(per_layer) == {"seed", "parent", "change", "self_s_share"} and per_layer["seed"] == 1
    layers = {m["name"] for m in benchmark["per_layer"]}
    assert set(per_layer["parent"]) == set(per_layer["change"]) == layers
    assert "coupling.build_dilation.calls" in proc.stdout and "ratio" in proc.stdout

    # each *.self_s layer as a share of the side's summed *.self_s
    shares = per_layer["self_s_share"]
    self_s_layers = {name for name in layers if name.endswith(".self_s")}
    assert set(shares) == {"parent", "change"}
    for side in ("parent", "change"):
        assert set(shares[side]) == self_s_layers
        assert sum(shares[side].values()) == pytest.approx(1.0)
        build = per_layer[side]["coupling.build_dilation.self_s"]
        total = sum(per_layer[side][name] for name in self_s_layers)
        assert shares[side]["coupling.build_dilation.self_s"] == pytest.approx(build / total)
    assert "as shares of each side's summed *.self_s" in proc.stdout


def test_verdicts_no_regression_check():
    # per metric: the better direction, its bound, and the parent's and
    # the change's value on each of four seeds
    cases = {
        "ok": ("higher", 0.25, [100, 101, 99, 100], [98, 99, 100, 97]),
        "regressed": ("lower", 0.25, [10, 10, 10, 10.5], [14, 14, 15, 14]),
        "unresolved": ("higher", 0.15, [50, 100, 150, 100], [60, 90, 140, 95]),
        "wide_but_beaten": ("lower", 0.15, [50, 100, 150, 100], [10, 11, 12, 13]),
    }
    metrics = [{"name": name, "better": better, "bound": bound} for name, (better, bound, _, _) in cases.items()]
    runs = [
        {"seed": seed, "side": side, "metrics": {name: case[2 + i][seed] for name, case in cases.items()}}
        for seed in range(4)
        for i, side in enumerate(("parent", "change"))
    ]
    lines = verdicts(summarize(runs, metrics), metrics, runs)
    assert len(lines) == 2 * len(cases)
    outcomes = {name: lines[2 * i + 1].rsplit(": ", 1)[1] for i, name in enumerate(cases)}
    assert outcomes == {"ok": "ok", "regressed": "REGRESSED", "unresolved": "unresolved", "wide_but_beaten": "ok"}
    assert "median worse by +40.00% (bound 25%" in lines[3]


def test_in_process_smoke():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    path = ROOT / f"BENCH_{head[:7]}_in_process.json"
    assert not path.exists(), path
    cmd = [sys.executable, "tools/ab.py", "--parent", "HEAD", "--in-process", "--seeds", "1-2", "--seconds", "1", "--smoke"]
    cmd += ["--workload", "solve", "--workload", "dilation", "--workload", "sample"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)

    assert set(result) == {"what", "parent", "change", "workloads"} and result["parent"] == head
    assert list(result["workloads"]) == ["solve", "dilation", "sample"]
    for name, rec in result["workloads"].items():
        assert rec["seeds"] == [1, 2] and rec["rounds"] == 1
        assert set(rec) == {"seeds", "rounds", "ops", "failed", "summary"}
        ops = rec["ops"]
        assert ops > 0 and rec["failed"] == {"parent": 0, "null": 0, "change": 0}
        for clock in ("wall", "cpu"):
            for other in ("change", "null"):
                s = rec["summary"][clock][other]
                assert s["pairs"] == ops and s["interval"][0] <= s["median"] <= s["interval"][1]
        assert f"{name}: in process, {ops} operations per side" in proc.stdout
    assert "5-95 % interval" in proc.stdout


def test_in_process_refuses_cli():
    cmd = [sys.executable, "tools/ab.py", "--parent", "HEAD", "--in-process", "--workload", "cli"]
    proc = subprocess.run(cmd + ["--seeds", "1", "--seconds", "1"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2 and "--in-process takes the workloads" in proc.stderr


def test_median_ranks():
    # P(Binomial(n, 1/2) <= l - 1) <= 5 % for the l-th order statistic from
    # each end; too few samples for that give the extremes
    assert median_ranks(1) == (0, 0)
    assert median_ranks(4) == (0, 3)
    assert median_ranks(5) == (0, 4)
    assert median_ranks(10) == (1, 8)
    assert median_ranks(100) == (41, 58)
