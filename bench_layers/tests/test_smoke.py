"""--smoke: the whole suite end to end, on a minute's budget."""

import json
import os
import subprocess
import sys
import time

from bench_layers.spec import END_TO_END, PER_LAYER, REPO_ROOT
from bench_layers.workloads import WORKLOADS


def test_smoke_suite_emits_every_metric_of_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "bench_layers", "--smoke", "--out", str(out)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - start
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == [workload.name for workload in WORKLOADS]
    for name, result in results.items():
        assert result["failed"] == 0 and result["failed_share"] == 0.0, name
        assert list(result["metrics"]) == [metric.name for metric in END_TO_END]
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name
        layers = result["per_layer"]
        assert layers["failed"] == 0, name
        assert list(layers["metrics"]) == [metric.name for metric in PER_LAYER]
        assert abs(sum(layers["self_time_share"].values()) - 1.0) < 1e-9
        assert os.path.exists(os.path.join(REPO_ROOT, layers["spans_path"]))
        for metric in END_TO_END + PER_LAYER:
            assert metric.name in completed.stdout
    assert results["sched_q100k"]["per_layer"]["metrics"]["fl.execution.clients"]["value"] == 0
    assert results["mlp_q10k_durable"]["digest"] == results["mlp_q10k"]["digest"]
    assert elapsed < 60, f"smoke suite took {elapsed:.0f} s"


def test_driver_line_and_refusal_outside_a_checkout(tmp_path):
    line = subprocess.run(
        [sys.executable, "-m", "bench_layers", "--workload", "sched_q100k",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.strip().splitlines()[-1]
    record = json.loads(line)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["attempted"] >= 1
    assert set(record["metrics"]) == {metric.name for metric in END_TO_END}

    unknown = subprocess.run(
        [sys.executable, "-m", "bench_layers", "--workload", "nope"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert unknown.returncode != 0 and not unknown.stdout.strip()
