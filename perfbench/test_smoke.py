"""Smoke test of the benchmark itself: every workload at a tiny size, the
traced run, the refusal to run without sources, and the self-time rule.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS  # noqa: E402
from tracing import LAYER_UNITS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_untraced(workload):
    out = result(bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END_UNITS
    for name, metric in out["metrics"].items():
        assert metric["value"] > 0, name


def test_select_pool_traced_collects_worker_spans():
    out = result(bench("--workload", "select-pool", "--seed", "0", "--seconds", "1", "--trace", "1", "--smoke"))
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == LAYER_UNITS
    # the arch phase trains every family in the pool workers
    for name in ("autodiff.conv2d.calls", "autodiff.dense.calls", "autodiff.backward.calls",
                 "trainer.pool.jobs", "trainer.pool.worker_busy_s", "trainer.pool.submit_bytes",
                 "models.save_weights.bytes", "models.load_weights.calls", "cli.import_ms.total"):
        assert metrics[name] > 0, name
    assert 0 < metrics["trainer.pool.utilization"] <= 1.0
    assert 0 < metrics["pipeline.encode_pairs.unique_ratio"] < 1.0
    assert 0 < metrics["models.load_weights.used_ratio"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "train-chain", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ("p", None, "t", "pool", 0.0, 10.0),
        ("a", "p", "t", "job", 1.0, 5.0),  # overlaps b on [3, 5]
        ("b", "p", "t", "job", 3.0, 7.0),
        ("c", "p", "t", "job", 9.0, 12.0),  # clipped to the parent's end
        ("d", "a", "t", "op", 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got["p"] == pytest.approx(10.0 - (7.0 - 1.0) - (10.0 - 9.0))
    assert got["a"] == pytest.approx(4.0 - 1.0)
    assert got["b"] == pytest.approx(4.0)
    assert got["d"] == pytest.approx(1.0)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
