"""Smoke test of the benchmark itself: every workload runs at a tiny size
with its output checks, untraced and traced, and emits exactly the metrics
BENCHMARK.json names.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_checks_and_emits_every_metric(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    values = [v["value"] for v in res["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    ctx = json.loads(lines[-2])
    assert ctx["error_rate"] == {"value": 0.0, "unit": "1"}
    assert {"nproc", "loadavg", "ray", "seed", "sizes"} <= set(ctx["context"])


def test_fails_without_the_engine(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
