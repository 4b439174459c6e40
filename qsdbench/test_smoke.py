"""Smoke test for the benchmark itself.

    python -m pytest qsdbench/test_smoke.py

Runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit, then checks that
deliberately corrupted results are counted as failed.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import qsd  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _corrupt(monkeypatch, name, corrupt):
    original = getattr(qsd, name)
    monkeypatch.setattr(qsd, name, lambda *a: corrupt(original(*a)))


@pytest.mark.parametrize(
    "workload, name, corrupt",
    [
        ("solve", "psk4_solve", lambda out: (out[0], out[1] + 1e-6)),
        ("sample", "run_monte_carlo", lambda rep: dataclasses.replace(rep, empirical_error=rep.empirical_error + 1e-3)),
        ("dilation", "build_dilation", lambda dil: dataclasses.replace(dil, joint_unitary=dil.joint_unitary * (1 + 1e-8))),
    ],
)
def test_corrupted_results_count_as_failed(monkeypatch, workload, name, corrupt):
    _corrupt(monkeypatch, name, corrupt)
    cls = {"solve": workloads.Solve, "sample": workloads.Sample, "dilation": workloads.Dilation}[workload]
    res = run.run_rounds(cls(seed=5, rounds=1, smoke=True), rounds=1)
    assert res["wrong"] >= 1
    assert res["wrong"] == sum(f["wrong"] for f in res["failures"])
