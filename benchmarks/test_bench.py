"""Self-tests of the benchmark: `python3 -m pytest benchmarks`.

They run each workload in smoke mode (toy sizes, one second) and check
only that the output is well formed and that traced counts repeat; they
never assert a timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B")


def run_bench(workload, seed, trace, *extra, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           *extra], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, info["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert info["failed_ratio"] == 0
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "seed"):
        assert key in info["environment"]
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_is_well_formed(workload, trace):
    result = result_of(run_bench(workload, 3, trace, "--smoke"))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert not list(ROOT.glob(".bench-tmp-*"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    counts = []
    for _ in range(2):
        metrics = result_of(run_bench(workload, 5, 1, "--smoke"))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_golden_model_hashes():
    result_of(run_bench("desk-train", 0, 0))


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("desk-train", 1, 0, cwd=tmp_path,
                     script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
