"""Smoke test of the benchmark: every workload, untraced and traced, on tiny
shapes. Checks the form of the result line and that it names exactly the
metrics BENCHMARK.json declares.

    python -m pytest perfbench/test_perfbench.py -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_line(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    details = json.loads(lines[-2])
    env = details["environment"]
    assert env["seed"] == 3 and env["blas_threads"] >= 1 and env["nproc"] >= 1
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.self_sum_s"] == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_quality():
    runs = [
        json.loads(run_bench("--workload", "audit", "--seed", "5", "--seconds", "0.1",
                             "--trace", "0", "--smoke").stdout.strip().splitlines()[-2])
        for _ in range(2)
    ]
    first, second = (r["details"]["quality_per_instance"] for r in runs)
    assert first == second
    assert first[0]["chd_max_violation"] >= first[0]["max_ratio_dev"] > 0
