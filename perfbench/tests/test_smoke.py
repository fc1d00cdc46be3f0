"""Tiny-input smoke runs of every workload, output checks included.

Each test runs ``perfbench/run.py --size tiny`` for a fraction of a
second and asserts the result line's shape and that every check
passed.  Run with ``python3 -m pytest perfbench/tests`` from the root of
the repository (about a minute; the CrashMonkey suite dominates).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOADS = ("analyze", "analyze-jobs2", "campaign", "push-live", "suites-crashmonkey")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_pass(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert record["machine"]["nproc"] >= 1
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["other_s"] >= 0
        layers = sum(
            value for name, value in metrics.items()
            if name in run.SPAN_METRICS.values() and not name.startswith("obs.store")
            and name != "obs.live_s"
        )
        assert layers + metrics["other_s"] == pytest.approx(metrics["traced_wall_s"])
        assert metrics["trace_overhead"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


#: runs the benchmark as the reaper of its orphans, then prints how many
#: of its children (running or not yet reaped) outlived the run
REAPER = """
import ctypes, os, subprocess, sys, time
sys.path.insert(0, "perfbench")
import workloads
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
subprocess.run([sys.executable, "perfbench/run.py", *sys.argv[1:]],
               check=True, stdout=subprocess.DEVNULL)
time.sleep(0.5)
print(len(workloads.children(os.getpid())))
"""


@pytest.mark.parametrize("workload", ["analyze-jobs2", "push-live"])
def test_no_process_outlives_a_run(workload):
    """Pool workers, daemons and their resource trackers all end with the run."""
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_bare_directory_fails_without_a_result(tmp_path):
    """A checkout holding only the benchmark's own files exits non-zero."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]
