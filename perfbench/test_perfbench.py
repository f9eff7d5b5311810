"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOAD_NAMES, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_benchmark_file_matches_harness():
    assert list(BENCH) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    layer = [(m, u) for m, u, *_ in run.LAYER_METRICS] + list(run.DERIVED_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layer
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_end_to_end_metrics(workload):
    proc = harness("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "0",
                   "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_trace_reports_per_layer_metrics(workload):
    proc = harness("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1",
                   "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]


def cli_stdout(argv: tuple[str, ...]) -> str:
    return subprocess.run([sys.executable, "-m", "koszuldepth", *argv], cwd=ROOT,
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=120).stdout


@pytest.mark.parametrize("workload,old,new", [
    ("sweep", "exact rank: 22 sign matrices", "exact rank: 21 sign matrices"),
    ("sweep", "PASS stanley decomposition n=6 k=5", "FAIL stanley decomposition n=6 k=5"),
    ("deep", "163 supports", "162 supports"),
    ("deep", "minimum 7 = n-1", "minimum 6 = n-1"),
    ("laws", "6561 (G, M) pairs", "6560 (G, M) pairs"),
    ("laws", "40 failures", "39 failures"),
])
def test_gate_rejects_changed_counts(workload, old, new):
    for step in workloads(smoke=True)[workload].steps:
        out = cli_stdout(step.argv)
        assert step.gate(out) == []
        if old in out:
            assert step.gate(out.replace(old, new, 1)) != []
            return
    pytest.fail(f"{old!r} not found in the output of {workload}")


def test_gate_rejects_missing_report():
    step = workloads(smoke=True)["sweep"].steps[0]
    out = cli_stdout(step.argv)
    assert step.gate(out.split("PASS stanley decomposition n=6 k=4\n")[0]) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = harness("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
