"""groupoidqm benchmark: seeded workloads through the public CLI, checked end to end.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one after another
    python3 bench/run.py --workload pathsum --trace 1     # per-layer table

Each workload runs in a fresh child process (bench/child.py), preceded and
followed by set-up probes that only import the package and run the warm-up
operation.  The child runs every op of the window up to three times, spread
over it, and times each op by its fastest run.
The report ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}; metrics are the end-to-end figures with ``--trace 0`` and the
per-layer figures with ``--trace 1``.  bench/README.md documents them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import CALLS, COUNTERS, RATIOS, SELF_TIMES
from workloads import WORKLOADS

SETUP_PROBES = 6  # plus the measured child itself: seven set-up samples per run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# Lower percentiles would jump between command modes as the count per run
# varies, so below 100 commands the tail is the maximum.
TAIL_LADDER = (90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
CHILD_GRACE_S = 120

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in (*CALLS, *COUNTERS)},
    **{name: "ratio" for name in RATIOS},
    "trace.overhead_ratio": "ratio",
    "trace.pass_s": "s",
    "check.max_abs_dev": "abs",
}


class BenchError(RuntimeError):
    pass


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, else the maximum."""
    chosen = [p for p in TAIL_LADDER if len(samples) * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    if not chosen:
        return 100.0, max(samples)
    return chosen[-1], float(np.percentile(samples, chosen[-1]))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update({name: str(BLAS_THREADS) for name in BLAS_THREAD_VARS})
    return env


def spawn(cmd: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Run one child to completion; returns its report and its set-up time."""
    started = time.monotonic()  # system-wide on Linux, like the child's reading
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {timeout:.0f} s: {' '.join(cmd)}") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited with code {proc.returncode}: {' '.join(cmd)}")
    report = json.loads(out.splitlines()[-1])
    return report, report["ready_at"] - started


def run_workload(root: Path, name: str, args) -> tuple[dict, dict]:
    """Returns (result line, full record) for one workload."""
    env = child_env(root)
    work, out_dir = root / ".bench_work", root / ".bench_out"
    base = [sys.executable, str(root / "bench" / "child.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if args.plant:
        base.append("--plant")
    setups, probe_failures = [], 0

    def probes(first: int, count: int) -> None:
        nonlocal probe_failures
        for i in range(first, first + count):
            probe, setup = spawn(base + ["--probe", "--workdir", str(work / f"{name}-probe{i}")], env,
                                 CHILD_GRACE_S)
            setups.append(setup)
            probe_failures += probe.get("failed", 0)

    # Probes on both sides of the measured child, so set-up is sampled across the run.
    probes(0, SETUP_PROBES // 2)
    spans_file = out_dir / f"spans-{name}.csv"
    report, setup = spawn(base + ["--workdir", str(work / name), "--spans", str(spans_file)], env,
                          args.seconds + CHILD_GRACE_S)
    setups.append(setup)
    probes(SETUP_PROBES // 2, SETUP_PROBES - SETUP_PROBES // 2)

    untraced = [p for p in report["passes"] if not p["traced"]]
    commands = [ms for p in untraced for ms in p["command_ms"]]
    tail_p, tail_ms = tail_latency(commands)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(p["units"] for p in untraced) / sum(p["op_seconds"] for p in untraced),
        "cmd_p50_ms": float(np.percentile(commands, 50)),
        "cmd_tail_ms": tail_ms,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if args.trace:
        # Means, like the per-pass layer figures they are compared with.  Traced
        # ops run once, so the untraced side uses the first run of each op too.
        traced_s = statistics.mean(p["op_seconds"] for p in report["passes"] if p["traced"])
        values = {
            **report["layers"],
            "trace.overhead_ratio": traced_s / statistics.mean(p["first_seconds"] for p in untraced),
            "trace.pass_s": traced_s,
            "check.max_abs_dev": report["max_abs_dev"],
        }
        units = PER_LAYER
    else:
        values, units = end_to_end, END_TO_END
    failed = report["failed"] + probe_failures
    result = {
        "correct": failed == 0,
        "attempted": report["checks"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment(),
        "setup_samples_s": setups,
        "passes": len(untraced),
        "runs_per_op": sum(p["runs"] for p in untraced) / sum(p["ops"] for p in untraced),
        "pass_log": report["passes"],
        "commands": len(commands),
        "tail_percentile": tail_p,
        "fail_ratio": failed / max(1, report["checks"]),
        "max_abs_dev": report["max_abs_dev"],
        "failures": report["failures"],
        "end_to_end": end_to_end,
        "result": result,
        "spans_file": str(spans_file.relative_to(root)) if args.trace else None,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} scale={record['scale']}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# checks attempted={record['result']['attempted']} failed={record['result']['failed']} "
          f"fail_ratio={record['fail_ratio']:.6g} max_abs_dev={record['max_abs_dev']:.3g}")
    print(f"# passes={record['passes']} runs_per_op={record['runs_per_op']:.3g} commands={record['commands']} "
          f"cmd_tail=p{record['tail_percentile']:g} of {record['commands']} samples")
    for failure in record["failures"]:
        print("# FAILED: " + failure.replace("\n", "\n#   "))
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--plant", action="store_true",
                        help="plant one wrong expected value; the run must then report a failure")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "groupoidqm" / "__init__.py").is_file():
        print(f"error: {root} has no src/groupoidqm; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, record = run_workload(root, name, args)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(record)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
