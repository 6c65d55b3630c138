"""Per-layer spans recorded by wrappers installed from outside the program.

``Tracer.install()`` replaces each layer's public functions (and the
constructors of its public classes) with timing wrappers, in every
groupoidqm module namespace that holds them, since names such as
``single_step_matrix`` or ``build_a2`` are imported into several modules.
Spans are kept in memory as (name, start_ns, end_ns, parent, op) and only
recorded while ``active`` is set, i.e. inside a timed operation.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Public callables per layer (module of src/groupoidqm); classes are timed
# through their constructor.
LAYERS = {
    "cli": ("main", "load_config", "parse_config"),
    "groupoid": ("build_a2", "build_pair_groupoid", "build_from_table", "validate_axioms",
                 "multiplication_table"),
    "lagrangian": ("qubit_lagrangian", "qubit_bias", "QLagrangian", "OutcomeBias"),
    "algebra": ("convolve", "fundamental_rep"),
    "histories": ("enumerate_histories", "history_amplitude", "n_step_path_sum", "single_step_matrix"),
    "propagator": ("quantization_scan", "solve_unitary_gammas", "unitarity_residuals", "qubit_propagator"),
    "coarse": ("coarse_grain",),
}

_GROUPOID_BUILDS = ("groupoid.build_a2", "groupoid.build_pair_groupoid", "groupoid.build_from_table")
_LAGRANGIAN_BUILDS = ("lagrangian.qubit_lagrangian", "lagrangian.qubit_bias", "lagrangian.QLagrangian",
                      "lagrangian.OutcomeBias")

# Per-layer seconds: summed self time of these spans.
SELF_TIMES = {
    "cli.parse_s": ("cli.load_config", "cli.parse_config"),
    "cli.self_s": ("cli.main",),
    "groupoid.build_s": _GROUPOID_BUILDS,
    "groupoid.validate_s": ("groupoid.validate_axioms",),
    "groupoid.table_s": ("groupoid.multiplication_table",),
    "lagrangian.build_s": _LAGRANGIAN_BUILDS,
    "algebra.convolve_s": ("algebra.convolve",),
    "algebra.rep_s": ("algebra.fundamental_rep",),
    "histories.enumerate_s": ("histories.enumerate_histories",),
    "histories.amplitude_s": ("histories.history_amplitude",),
    "histories.reduce_s": ("histories.n_step_path_sum",),
    "histories.single_step_s": ("histories.single_step_matrix",),
    "propagator.scan_self_s": ("propagator.quantization_scan",),
    "propagator.solve_self_s": ("propagator.solve_unitary_gammas",),
    "propagator.residuals_s": ("propagator.unitarity_residuals",),
    "propagator.qubit_propagator_s": ("propagator.qubit_propagator",),
    "coarse.coarse_grain_s": ("coarse.coarse_grain",),
}

# Per-layer call counts: spans of these names not nested in another of them.
CALLS = {
    "cli.calls": ("cli.main",),
    "groupoid.build_calls": _GROUPOID_BUILDS,
    "lagrangian.build_calls": _LAGRANGIAN_BUILDS,
    "algebra.calls": ("algebra.convolve", "algebra.fundamental_rep"),
    "histories.enumerate_calls": ("histories.enumerate_histories",),
    "histories.amplitude_calls": ("histories.history_amplitude",),
    "histories.single_step_calls": ("histories.single_step_matrix",),
    "propagator.residuals_calls": ("propagator.unitarity_residuals",),
    "coarse.calls": ("coarse.coarse_grain",),
}

COUNTERS = ("histories.histories_built", "propagator.closed_form_points", "propagator.refined_points")
RATIOS = ("histories.walk_yield", "propagator.refine_yield")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._walks: dict[tuple[int, str, int], tuple[object, int]] = {}

    # ------------------------------------------------------------------ install

    def install(self) -> None:
        histories = importlib.import_module("groupoidqm.histories")
        self._enumerate_signature = inspect.signature(histories.enumerate_histories)
        observers = {
            "histories.enumerate_histories": self._on_enumerate,
            "propagator.quantization_scan": self._on_solved,
            "propagator.solve_unitary_gammas": self._on_solved,
        }
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"groupoidqm.{layer}")
            for attr in names:
                span = f"{layer}.{attr}"
                target = getattr(module, attr)
                if inspect.isclass(target):
                    target.__init__ = self._wrap(span, target.__init__)
                else:
                    _replace_everywhere(target, self._wrap(span, target, observers.get(span)))
        propagator = sys.modules["groupoidqm.propagator"]
        refine = getattr(propagator, "_refine_batch", None)
        if refine is not None:  # the optimiser step, counted but not a span
            _replace_everywhere(refine, self._count_refined(refine))

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            refined_before = self.counts["propagator.refined_points"]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result, self.counts["propagator.refined_points"] - refined_before)
            return result

        return wrapper

    def _count_refined(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts["propagator.refined_points"] += len(signature.bind(*args, **kwargs).arguments["mus"])
            return fn(*args, **kwargs)

        return wrapper

    def _on_enumerate(self, args, kwargs, result, _refined):
        bound = self._enumerate_signature.bind(*args, **kwargs).arguments
        self.counts["histories.histories_built"] += len(result)
        self.counts["histories.walks_explored"] += self._walks_from(bound["g"], bound["start"], bound["n_steps"])

    def _walks_from(self, g, start: str, n_steps: int) -> int:
        """Forward walks of n_steps leaving start: what a depth-first walk visits."""
        key = (id(g), start, n_steps)
        if key not in self._walks:
            idx = {o: i for i, o in enumerate(g.outcomes)}
            adj = np.zeros((len(idx), len(idx)), dtype=object)
            for e in g.elements:
                adj[idx[g.target[e]], idx[g.source[e]]] += 1
            reach = np.zeros(len(idx), dtype=object)
            reach[idx[start]] = 1
            for _ in range(n_steps):
                reach = adj.dot(reach)
            self._walks[key] = (g, int(sum(reach)))  # g kept alive so its id stays unique
        return self._walks[key][1]

    def _on_solved(self, args, kwargs, result, refined):
        points = result if isinstance(result, list) else [result]
        closed = len(points) - refined
        self.counts["propagator.closed_form_points"] += closed
        feasible = sum(1 for p in points if p.feasible)
        # Closed-form answers are accepted only when feasible, so any feasible
        # point beyond them came out of the refinement.
        self.counts["propagator.refined_feasible"] += max(0, feasible - closed)

    # ------------------------------------------------------------------ results

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass (seconds, counts) and ratios."""
        n = len(self.spans)
        child_ns = [0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
        out = {metric: sum(self_ns[s] for s in names) / 1e9 / passes for metric, names in SELF_TIMES.items()}
        for metric, names in CALLS.items():
            out[metric] = self._outermost(names) / passes
        for metric in COUNTERS:
            out[metric] = self.counts[metric] / passes
        walks = self.counts["histories.walks_explored"]
        out["histories.walk_yield"] = self.counts["histories.histories_built"] / walks if walks else 0.0
        refined = self.counts["propagator.refined_points"]
        out["propagator.refine_yield"] = self.counts["propagator.refined_feasible"] / refined if refined else 0.0
        return out

    def _outermost(self, names) -> int:
        wanted = set(names)
        total = 0
        for name, _, _, parent, _ in self.spans:
            if name not in wanted:
                continue
            while parent >= 0 and self.spans[parent][0] not in wanted:
                parent = self.spans[parent][3]
            total += parent < 0
        return total

    def write(self, path: Path) -> None:
        """All spans as CSV, times in ns relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin},{end - origin},{parent},{op}\n")


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name != "groupoidqm" and not module_name.startswith("groupoidqm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
