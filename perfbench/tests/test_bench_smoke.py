"""Short runs of every workload through the benchmark's command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    """One round of ``workload`` (``--seconds 0``): (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_spec_names_only_workloads_the_benchmark_has():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_its_outputs_are_correct(workload):
    code, lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.ROUNDS[workload])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_gives_every_layer_metric_and_repeats_its_counts():
    results = []
    for _ in range(2):
        code, lines = _run("report-exact", 1)
        assert code == 0
        results.append(json.loads(lines[-1]))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == want
    assert all(r["correct"] for r in results)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if not k.endswith("_s")}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["scalars.mul_calls"] > 0 and counts[0]["clifford.product_calls"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    code, lines = _run("report-exact", 0, cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
