"""Smoke test of the benchmark: all four workloads end to end at small size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is reported with its unit, that every gate of every workload runs and
holds, and that the benchmark refuses to run without the library source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def gates_run(stdout):
    return [set(json.loads(line[len("gates "):]))
            for line in stdout.splitlines() if line.startswith("gates ")]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_all_workloads_end_to_end():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--small")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert list(results) == list(workloads.WORKLOADS)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
    assert gates_run(proc.stdout) == [workloads.GATES[w] for w in workloads.WORKLOADS]
    header = next(line for line in proc.stdout.splitlines() if line.startswith("workload "))
    assert header.split()[1:] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb", "error_rate"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                 "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    assert gates_run(proc.stdout) == [workloads.GATES[workload]]
    assert "absent functions: none" in proc.stdout
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    trace = os.path.join(HERE, "out", f"trace-{workload}-seed3.json")
    with open(trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["spans"] and doc["span_fields"] == ["name", "start_s", "end_s", "parent", "pass"]


def test_refuses_without_library_source():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "window", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
