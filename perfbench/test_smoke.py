"""Smoke test of the benchmark itself at tiny bath sizes.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the human-readable summary carries failed_frac and warned_frac, that all
spans of a job share the job id, and that the layer self times plus
``unattributed_s`` add up to the traced job wall time.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.05"


def run_bench(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    summary, result = run_bench(workload, 0, "0.5")
    check_result(result, SPEC["end_to_end"])
    text = "\n".join(summary)
    for name in ("failed_frac", "warned_frac", "OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=1"):
        assert name in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    _, result = run_bench(workload, 1, "1")
    check_result(result, SPEC["per_layer"])

    stem = HERE / "out" / f"{workload}-7-traced"
    with open(stem.with_suffix(".spans.csv")) as fh:
        spans = {int(r["span"]): r for r in csv.DictReader(fh)}
    assert spans
    for row in spans.values():
        parent = int(row["parent"])
        if row["name"] == "job":
            assert parent == -1
        else:
            assert spans[parent]["job"] == row["job"]

    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = ("cli", "bath", "impurity", "dressed", "multi", "oracle")
    accounted = sum(metrics[f"{layer}.self_s"] for layer in layers) + metrics["unattributed_s"]
    wall = json.loads(stem.with_suffix(".json").read_text())["traced_job_wall_s"]
    assert accounted == pytest.approx(wall, rel=0.01)
