"""One workload run in a fresh process; started by run.py, not by hand.

The process imports groupoidqm, runs one untimed warm-up operation and
records the moment it is ready.  With ``--probe`` it stops there (run.py uses
probes to sample set-up time).  Otherwise it runs the window of ``--seconds``
in rounds, one operation at a time, checking every output against its
reference.  The first round runs a fixed number of fresh passes, about a
third of the window; the later rounds run the same operations again, in the
same order, until the window is used up.  An operation's time is the fastest
of its runs.  With ``--trace 1`` the first half of the window runs that way
untraced, and the second half runs fresh passes once each under the layer
wrappers.  The last stdout line is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, CheckFailed

FAILURES_KEPT = 5
FIRST_ROUND = 2  # fresh passes per run, about a third of a 55 s window; later rounds repeat them


class Runner:
    def __init__(self, workload):
        from groupoidqm import cli

        self.cli = cli
        self.workload = workload
        self.tracer: Tracer | None = None  # set once the layer wrappers are installed
        self.checks = 0
        self.failures: list[str] = []
        self.failed = 0
        self.max_abs_dev = 0.0
        self.op_id = 0

    def run(self, op) -> tuple[float, bool]:
        """Run one op and check it; returns its duration in seconds and whether it passed."""
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")
        tracer = self.tracer
        out, err = io.StringIO(), io.StringIO()
        call = None if op.is_command else op.prepare()
        if tracer is not None:
            tracer.op = self.op_id
            tracer.active = True
        try:
            start = time.perf_counter()
            if op.is_command:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(op.argv)
                result = (rc, out.getvalue(), err.getvalue())
            else:
                result = call()
            elapsed = time.perf_counter() - start
        except Exception:  # a traceback from the program is a failed operation
            elapsed = time.perf_counter() - start
            self._fail(f"op {self.op_id} {op.argv} raised:\n{traceback.format_exc()}")
            return elapsed, False
        finally:
            if tracer is not None:
                tracer.active = False
            self.op_id += 1
        try:
            self.max_abs_dev = max(self.max_abs_dev, op.checker(op.expected, result))
        except CheckFailed as exc:
            self._fail(f"op {self.op_id - 1} {op.argv or 'library call'}: {exc}")
            return elapsed, False
        except (ValueError, KeyError, IndexError, StopIteration) as exc:  # output not in the documented form
            self._fail(f"op {self.op_id - 1} {op.argv or 'library call'}: unparseable output ({exc!r})")
            return elapsed, False
        return elapsed, True

    def count(self, ok: bool) -> None:
        """One checked operation.  An op run several times counts once, as failed if any run failed."""
        self.checks += 1
        self.failed += not ok

    def _fail(self, message: str) -> None:
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append(message)

    def fresh_pass(self, k: int) -> tuple[list, list[list[float]], list[bool]]:
        """Generate pass k and run each of its ops once."""
        gc.collect()
        ops = self.workload.make_pass(k)
        runs = [self.run(op) for op in ops]
        return ops, [[t] for t, _ in runs], [ok for _, ok in runs]

    def rounds(self, first: int, seconds: float, log: list) -> int:
        """Untraced window: fresh passes in the first round, then the same ops again until it is used up.

        The first round has a fixed pass count, so a seed always measures the
        same inputs and the same number of commands.
        """
        deadline = time.perf_counter() + seconds
        done = []  # (pass index, ops, seconds of every run per op, per-op pass/fail)
        for k in range(first, first + FIRST_ROUND):
            done.append((k, *self.fresh_pass(k)))
        full = True
        while full:
            for _, ops, times, oks in done:
                gc.collect()
                for i, op in enumerate(ops):
                    if time.perf_counter() + times[i][0] > deadline:
                        full = False
                        break
                    elapsed, ok = self.run(op)
                    times[i].append(elapsed)
                    oks[i] = oks[i] and ok
                if not full:
                    break
        for k, ops, times, oks in done:
            self._log(log, k, ops, times, oks)
        return first + FIRST_ROUND

    def once(self, first: int, seconds: float, log: list) -> int:
        """Fresh passes, each op run once, until the next pass would overrun."""
        begin = time.perf_counter()
        k = first
        while True:
            started = time.perf_counter()
            self._log(log, k, *self.fresh_pass(k))
            k += 1
            now = time.perf_counter()
            if now - begin + (now - started) > seconds:
                return k

    def _log(self, log: list, k: int, ops: list, times: list[list[float]], oks: list[bool]) -> None:
        for ok in oks:
            self.count(ok)
        best = [min(t) for t in times]
        log.append({
            "pass": k,
            "traced": self.tracer is not None,
            "units": sum(op.units for op in ops),
            "op_seconds": sum(best),
            "first_seconds": sum(t[0] for t in times),
            "runs": sum(len(t) for t in times),
            "ops": len(ops),
            "command_ms": [b * 1e3 for op, b in zip(ops, best) if op.is_command and op.latency],
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--plant", action="store_true", help="plant one wrong expected value")
    parser.add_argument("--probe", action="store_true", help="stop once set-up is done")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="CSV file for the traced spans")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale == "tiny", workdir, args.plant)
        runner = Runner(workload)
        runner.count(runner.run(workload.warmup())[1])
        report = {"ready_at": time.monotonic()}
        ready = time.perf_counter()
        if not args.probe:
            log: list = []
            k = runner.rounds(0, args.seconds / 2 if args.trace else args.seconds, log)
            if args.trace:
                tracer = runner.tracer = Tracer()
                tracer.install()
                runner.once(k, args.seconds - (time.perf_counter() - ready), log)
            report.update(
                passes=log,
                checks=runner.checks,
                failed=runner.failed,
                failures=runner.failures,
                max_abs_dev=runner.max_abs_dev,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if args.trace:
                traced = sum(1 for p in log if p["traced"])
                report["layers"] = tracer.layer_metrics(traced)
                if args.spans:
                    tracer.write(Path(args.spans))
        elif runner.failed:
            report.update(checks=runner.checks, failed=runner.failed, failures=runner.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
