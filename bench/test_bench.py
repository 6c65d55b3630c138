"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, tail_latency  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload: str, *extra: str) -> dict:
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--scale", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_code_passes_every_check(workload):
    result = tiny(workload)
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] > 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-trace0.json").read_text())
    assert record["runs_per_op"] > 1  # the later rounds ran the first round's ops again


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_planted_wrong_answer_is_counted_as_a_failure(workload):
    result = tiny(workload, "--plant")
    assert result["correct"] is False
    assert result["failed"] == 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    result = tiny(workload, "--trace", "1")
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["cli.calls"]["value"] > 0


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "sweep", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_depend_only_on_seed_and_pass():
    def inputs(seed):
        ops = WORKLOADS["sweep"](seed, True, Path("w")).make_pass(3)
        return [(op.argv, op.files) for op in ops]

    assert inputs(8) == inputs(8)
    assert inputs(8) != inputs(9)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_latency(list(range(1000))) == (99, pytest.approx(989.01))
    assert tail_latency(list(range(100))) == (90, pytest.approx(89.1))
    assert tail_latency([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_latency(list(range(21))) == (100.0, 20)
