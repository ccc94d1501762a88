"""Tiny-scale smoke test of the benchmark itself; no timing bounds.

Every workload, including any that BENCHMARK.json leaves out, with
tracing off and on, must print every metric that BENCHMARK.json declares,
by name and with its unit, and have no failed operation (error_rate 0).
Outside a source checkout it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from workloads import SPECS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPECS["full"]))
def test_every_metric_reported_and_no_failures(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate: 0 ratio" in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "replay-day", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
