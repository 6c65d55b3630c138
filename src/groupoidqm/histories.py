"""Discrete histories on a finite groupoid and their brute-force path sums.

A history is a chained sequence of transitions walked over a uniform time
grid.  Steps are grouped into segments, each flagged future (+1) or past
(-1).  Two conventions keep everything consistent and deserve stating once:

- Stored steps are always the transitions actually traversed, in composition
  order, for past segments too.  Reversing a future run (a1, ..., aN) stores
  the past run (aN^-1, ..., a1^-1); the stored list chains source-to-target
  uniformly across segment boundaries.
- Orientation never changes how steps chain.  It only signs the action
  contribution of a segment and moves the clock: future steps advance the
  time index by one tick, past steps rewind it.

A loop starts and ends at the same outcome with net time displacement equal
to zero modulo the grid span.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groupoid import FiniteGroupoid
from .lagrangian import OutcomeBias, QLagrangian

DEFAULT_HISTORY_CAP = 10_000_000
_TIME_TOL = 1e-9
_COUNT_LIMIT = 10**18  # counts saturate above max(cap, this); being >= 0 they stay exact below
_CHUNK = 256  # walks held at a time by the enumeration core


class EnumerationCapExceeded(RuntimeError):
    """Raised when a path enumeration would visit more histories than allowed."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        needs = f"more than {_COUNT_LIMIT}" if required > _COUNT_LIMIT else required
        super().__init__(f"enumeration needs {needs} histories, cap is {cap}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: start time, positive step tau, and total step count."""

    t_start: float
    tau: float
    n_steps: int

    def __post_init__(self):
        if not (isinstance(self.n_steps, int) and self.n_steps >= 0):
            raise ValueError(f"n_steps must be a non-negative integer, got {self.n_steps!r}")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")

    @property
    def t_end(self) -> float:
        return self.t_start + self.n_steps * self.tau


@dataclass(frozen=True)
class Segment:
    orientation: int
    steps: tuple[str, ...]

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation!r}")
        if not self.steps:
            raise ValueError("segments must contain at least one step")
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class History:
    """Validated history; construction fails on the first chaining violation."""

    groupoid: FiniteGroupoid
    grid: TimeGrid
    segments: tuple[Segment, ...]
    anchor: str

    def __post_init__(self):
        g = self.groupoid
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if self.anchor not in g.unit_of:
            raise ValueError(f"unknown anchor outcome {self.anchor!r}")
        current = self.anchor
        k = 0
        for seg in segments:
            for step in seg.steps:
                k += 1
                if step not in g.source:
                    raise ValueError(f"step {k} ({step!r}) is not a groupoid element")
                if g.source[step] != current:
                    raise ValueError(
                        f"step {k} ({step}) has source {g.source[step]}, expected {current}"
                    )
                current = g.target[step]
        total = sum(len(s.steps) for s in segments)
        if total != self.grid.n_steps:
            raise ValueError(f"history has {total} steps but the grid declares {self.grid.n_steps}")

    @property
    def start_outcome(self) -> str:
        return self.anchor

    @property
    def end_outcome(self) -> str:
        for seg in reversed(self.segments):
            return self.groupoid.target[seg.steps[-1]]
        return self.anchor

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def net_ticks(self) -> int:
        """Signed tick displacement: future steps count +1, past steps -1."""
        return sum(seg.orientation * len(seg.steps) for seg in self.segments)

    @property
    def start_time(self) -> float:
        return self.grid.t_start

    @property
    def end_time(self) -> float:
        return self.grid.t_start + self.net_ticks * self.grid.tau

    def steps(self) -> tuple[str, ...]:
        return tuple(step for seg in self.segments for step in seg.steps)


def make_history(
    g: FiniteGroupoid,
    grid: TimeGrid,
    segments: Iterable[tuple[int, Sequence[str]]],
    start: str | None = None,
) -> History:
    """Build a validated history from (orientation, steps) pairs.

    ``start`` names the anchor outcome; it is mandatory for the empty history
    and otherwise must agree with the first step's source.
    """
    segs = tuple(Segment(orientation, tuple(steps)) for orientation, steps in segments)
    if segs:
        first = segs[0].steps[0]
        if first not in g.source:
            raise ValueError(f"step 1 ({first!r}) is not a groupoid element")
        anchor = g.source[first]
        if start is not None and start != anchor:
            raise ValueError(f"declared start {start!r} but the first step leaves {anchor!r}")
    else:
        if start is None:
            raise ValueError("the empty history needs an explicit start outcome")
        anchor = start
    return History(g, grid, segs, anchor)


def unit_history(g: FiniteGroupoid, outcome: str, t_start: float = 0.0, tau: float = 1.0) -> History:
    """The zero-step history pinned at (outcome, t_start)."""
    return History(g, TimeGrid(t_start, tau, 0), (), outcome)


def compose_histories(w2: History, w1: History) -> History:
    """w2 ∘ w1: first walk w1, then w2; endpoints must match in outcome and time."""
    if w1.groupoid != w2.groupoid:
        raise ValueError("histories live over different groupoids")
    if w1.grid.tau != w2.grid.tau:
        raise ValueError(f"grid mismatch: tau {w1.grid.tau!r} vs {w2.grid.tau!r}")
    if w1.end_outcome != w2.start_outcome:
        raise ValueError(
            f"cannot compose: first history ends at {w1.end_outcome!r}, "
            f"second starts at {w2.start_outcome!r}"
        )
    if not math.isclose(w1.end_time, w2.start_time, rel_tol=_TIME_TOL, abs_tol=_TIME_TOL):
        raise ValueError(
            f"cannot compose: first history ends at t={w1.end_time!r}, "
            f"second starts at t={w2.start_time!r}"
        )
    grid = TimeGrid(w1.grid.t_start, w1.grid.tau, w1.n_steps + w2.n_steps)
    return History(w1.groupoid, grid, w1.segments + w2.segments, w1.anchor)


def invert_history(w: History) -> History:
    """Time-reverse: segments reversed, orientations flipped, steps inverted."""
    g = w.groupoid
    segs = tuple(
        Segment(-seg.orientation, tuple(g.inverse[s] for s in reversed(seg.steps)))
        for seg in reversed(w.segments)
    )
    grid = TimeGrid(w.end_time, w.grid.tau, w.n_steps)
    return History(g, grid, segs, w.end_outcome)


def total_variation(w: History) -> str:
    """Composition of all stored steps, last over first; the unit for empty histories."""
    g = w.groupoid
    current = g.unit_of[w.anchor]
    for step in w.steps():
        current = g.compose(step, current)
    return current


def is_loop(w: History) -> bool:
    """Same start and end outcome, and net displacement 0 modulo the grid span."""
    if w.start_outcome != w.end_outcome:
        return False
    if w.n_steps == 0:
        return True
    return w.net_ticks % w.n_steps == 0


def action(w: History, ell: QLagrangian, tau: float | None = None) -> complex:
    """Sum of step weights times tau, signed by each segment's orientation."""
    if ell.groupoid != w.groupoid:
        raise ValueError("lagrangian is defined on a different groupoid")
    if tau is None:
        tau = w.grid.tau
    total = 0j
    for seg in w.segments:
        seg_sum = 0j
        for step in seg.steps:
            try:
                seg_sum += ell[step]
            except KeyError:
                raise ValueError(f"lagrangian has no value for step {step!r}") from None
        total += seg.orientation * seg_sum * tau
    return total


def normalization(w: History, bias: OutcomeBias) -> float:
    """Endpoint factor sqrt(p(start) p(end))."""
    return math.sqrt(bias[w.start_outcome] * bias[w.end_outcome])


def _amplitude(bias: OutcomeBias, start: str, end: str, s: complex, hbar: float) -> complex:
    return math.sqrt(bias[start] * bias[end]) * cmath.exp(1j * s / hbar)


def history_amplitude(
    w: History, ell: QLagrangian, bias: OutcomeBias, hbar: float, tau: float | None = None
) -> complex:
    """sqrt(p(start) p(end)) * exp((i/hbar) * action)."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return _amplitude(bias, w.start_outcome, w.end_outcome, action(w, ell, tau), hbar)


def _count_paths(g: FiniteGroupoid, n_steps: int, cap: int, start: str | None = None) -> dict[str, int]:
    """n-step walks per end outcome, from start or every outcome, saturated at the ceiling."""
    ceiling = max(cap, _COUNT_LIMIT) + 1
    counts = {o: int(start in (None, o)) for o in g.outcomes}
    for _ in range(n_steps):
        nxt = dict.fromkeys(g.outcomes, 0)
        for e in g.elements:
            nxt[g.target[e]] = min(ceiling, nxt[g.target[e]] + counts[g.source[e]])
        if nxt == counts:
            break
        counts = nxt
    return counts


def _walk_chunks(g: FiniteGroupoid, start: str, n_steps: int, state: list, extend, visit) -> None:
    """visit(ends, state) per chunk of the n-step walks from start, depth-first in declaration order.

    Walks grow a level at a time, one gather per level.  The longest run of a
    frame's nodes whose walks fit in _CHUNK grows to full length and is
    visited; a single node with more walks than that pushes its children as a
    new frame.  So one chunk's arrays are live, plus per level one frame of at
    most the largest out-degree in nodes, and nothing recurses per step.
    ``state`` holds per-node arrays; ``extend(state, parent, elem, depth)``
    returns the children's, child k stepping from node ``parent[k]`` along
    element index ``elem[k]`` to ``depth`` steps.  ``ends`` holds each walk's
    end outcome index.
    """
    index = {o: i for i, o in enumerate(g.outcomes)}
    out: list[list[int]] = [[] for _ in g.outcomes]
    for k, e in enumerate(g.elements):
        out[index[g.source[e]]].append(k)
    kids = np.full((len(out), max(map(len, out))), -1)  # out-element indices, -1 padded
    for i, ks in enumerate(out):
        kids[i, : len(ks)] = ks
    target = np.array([index[g.target[e]] for e in g.elements])
    counts = [np.ones(len(out), dtype=np.int64)]  # r-step walks from each outcome, saturated
    while len(counts) <= n_steps:
        row = np.minimum(_CHUNK + 1, np.where(kids >= 0, counts[-1][target[kids]], 0).sum(axis=1))
        if np.array_equal(row, counts[-1]):
            break
        counts.append(row)

    def grow(cur, state, depth):
        sub = kids[cur]
        parent, slot = (sub >= 0).nonzero()
        elem = sub[parent, slot]
        return target[elem], extend(state, parent, elem, depth + 1)

    frames = [(0, np.array([index[start]]), state, 0)]  # depth, outcomes, state, first node left
    while frames:
        depth, cur, state, lo = frames.pop()
        walks = np.cumsum(counts[min(n_steps - depth, len(counts) - 1)][cur[lo:]])
        hi = lo + max(1, int(np.searchsorted(walks, _CHUNK, side="right")))
        if hi < len(cur):
            frames.append((depth, cur, state, hi))
        cur, state = cur[lo:hi], [a[lo:hi] for a in state]
        if walks[hi - lo - 1] > _CHUNK:
            frames.append((depth + 1, *grow(cur, state, depth), 0))
            continue
        for depth in range(depth, n_steps):
            cur, state = grow(cur, state, depth)
        visit(cur, state)


def enumerate_histories(
    g: FiniteGroupoid,
    start: str,
    end: str,
    n_steps: int,
    t_start: float = 0.0,
    tau: float = 1.0,
    cap: int = DEFAULT_HISTORY_CAP,
) -> list[History]:
    """All future-oriented n-step histories from start to end, in a stable order.

    The order is depth-first over out-transitions taken in element declaration
    order.  Raises EnumerationCapExceeded before materializing anything when
    the count (computed by walk counting) would exceed the cap.
    """
    if start not in g.unit_of or end not in g.unit_of:
        missing = start if start not in g.unit_of else end
        raise ValueError(f"unknown outcome {missing!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    required = _count_paths(g, n_steps, cap, start)[end]
    if required > cap:
        raise EnumerationCapExceeded(required, cap)
    grid = TimeGrid(t_start, tau, n_steps)
    stop = g.outcomes.index(end)

    def extend(state, parent, elem, depth):
        return [np.column_stack([state[0][parent], elem])]

    results: list[History] = []

    def keep(ends, state):
        for row in state[0][ends == stop].tolist():
            results.append(History(g, grid, (Segment(+1, tuple(g.elements[k] for k in row)),), start))

    _walk_chunks(g, start, n_steps, [np.empty((1, 0), dtype=int)], extend, keep)
    return results


def single_step_matrix(
    g: FiniteGroupoid, ell: QLagrangian, bias: OutcomeBias, tau: float, hbar: float
) -> np.ndarray:
    """One-step propagation matrix: entry [end, start] sums the one-step amplitudes."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    idx = {o: i for i, o in enumerate(g.outcomes)}
    n = len(g.outcomes)
    m = np.zeros((n, n), dtype=complex)
    for e in g.elements:
        a, b = g.source[e], g.target[e]
        m[idx[b], idx[a]] += _amplitude(bias, a, b, ell[e] * tau, hbar)
    return m


def n_step_path_sum(
    g: FiniteGroupoid,
    ell: QLagrangian,
    bias: OutcomeBias,
    tau: float,
    hbar: float,
    n_steps: int,
    cap: int = DEFAULT_HISTORY_CAP,
) -> np.ndarray:
    """Brute-force sum over histories, outcome-indexed like single_step_matrix.

    Each history contributes its amplitude weighted by the bias of every
    intermediate outcome it visits.  Each start's walks are visited once, a
    chunk at a time, into per-entry streaming pairwise sums: memory is
    independent of the history count.  Every entry is bit-identical to summing
    weight * history_amplitude per history, in enumeration order, with the same
    pairwise tree, whatever the chunk size.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    total = sum(_count_paths(g, n_steps, cap).values())
    if total > cap:
        raise EnumerationCapExceeded(total, cap)
    if ell.groupoid != g:
        raise ValueError("lagrangian is defined on a different groupoid")
    ell_values = np.array([ell[e] for e in g.elements])
    gain = np.array([bias[g.target[e]] for e in g.elements])  # intermediate-bias factor per step

    def extend(state, parent, elem, depth):
        # action() and the intermediate-bias weight, a level at a time
        seg_sum, weight = state[0][parent], state[1][parent]
        seg_sum += ell_values[elem]
        if depth < n_steps:
            weight *= gain[elem]
        return [seg_sum, weight]

    n = len(g.outcomes)
    m = np.zeros((n, n), dtype=complex)
    for j, start in enumerate(g.outcomes):
        norm = np.array([math.sqrt(bias[start] * bias[end]) for end in g.outcomes])
        sums: list[list[tuple[int, complex]]] = [[] for _ in range(n)]

        def add(ends, state):
            values = _contributions(*state, norm[ends], tau, hbar)
            for i in np.flatnonzero(np.bincount(ends, minlength=n)).tolist():
                _push_run(sums[i], values[ends == i])

        with np.errstate(all="ignore"):  # Python float semantics: overflow gives inf, not an error
            _walk_chunks(g, start, n_steps, [np.zeros(1, dtype=complex), np.ones(1)], extend, add)
        for i, stack in enumerate(sums):
            while len(stack) > 1:  # right to left: the level-by-level pairing tree
                stack.append((0, stack.pop(-2)[1] + stack.pop()[1]))
            if stack:
                m[i, j] = stack[0][1]
    return m


def _by_real(x, re, im):
    """(x + 0j) * (re + im*1j) part by part, as CPython rounds it; numpy's complex product may fuse.

    CPython before 3.14 turns a real operand into a complex one with a zero
    imaginary part; the zero's products decide the signs of zero results.
    """
    return x * re - 0.0 * im, x * im + 0.0 * re


def _exponents(seg_sum: np.ndarray, tau: float, hbar: float) -> np.ndarray:
    """1j * (0j + 1 * seg_sum * tau) / hbar per walk, rounded as CPython rounds it."""
    re, im = _by_real(tau, *_by_real(1.0, seg_sum.real, seg_sum.imag))
    re, im = 0.0 + re, 0.0 + im
    re, im = 0.0 * re - 1.0 * im, 0.0 * im + 1.0 * re
    ratio = 0.0 / hbar  # _Py_c_quot by (hbar, 0.0): a true division, where numpy multiplies by 1/hbar
    denom = hbar + 0.0 * ratio
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = (re + im * ratio) / denom, (im - re * ratio) / denom
    return z


def _contributions(seg_sum, weight, norm, tau: float, hbar: float) -> np.ndarray:
    """weight * _amplitude(..., 0j + 1 * seg_sum * tau, hbar) per walk, rounded as CPython does."""
    # cmath.exp, not np.exp, so that each exponential is the libm value the scalar expression gets
    z = np.fromiter(map(cmath.exp, _exponents(seg_sum, tau, hbar)), dtype=complex, count=len(seg_sum))
    for x in (norm, weight):
        z.real, z.imag = _by_real(x, z.real, z.imag)
    return z


def _push(stack: list[tuple[int, complex]], height: int, value: complex) -> None:
    """Streaming pairwise sum: equal heights merge, the earlier on the left."""
    while stack and stack[-1][0] == height:
        value = stack.pop()[1] + value
        height += 1
    stack.append((height, value))


def _push_run(stack: list[tuple[int, complex]], values: np.ndarray) -> None:
    """_push each value in turn, merging the aligned pairs of a level with one array add."""
    lo = sum(1 << h for h, _ in stack)  # values pushed so far
    hi = lo + len(values)
    tail = []
    height = 0
    while lo < hi:
        if lo % 2:  # completes the pair the stack's top entry opened
            _push(stack, height, values[0].item())
            values, lo = values[1:], lo + 1
        if (hi - lo) % 2:  # its partner is yet to come
            tail.append((height, values[-1].item()))
            values, hi = values[:-1], hi - 1
        values = values[0::2] + values[1::2]
        lo, hi, height = lo // 2, hi // 2, height + 1
    for height, value in reversed(tail):
        _push(stack, height, value)


def decompose_history(w: History, w_ref: History) -> History:
    """Loop sigma with w = w_ref ∘ sigma at the level of total variation.

    sigma walks w forward and then w_ref backward; it is checked to be a loop
    and to restore w's endpoints and total variation when recomposed.
    """
    if w.start_outcome != w_ref.start_outcome or w.end_outcome != w_ref.end_outcome:
        raise ValueError("histories must share both endpoints")
    if not (
        math.isclose(w.start_time, w_ref.start_time, rel_tol=_TIME_TOL, abs_tol=_TIME_TOL)
        and math.isclose(w.end_time, w_ref.end_time, rel_tol=_TIME_TOL, abs_tol=_TIME_TOL)
    ):
        raise ValueError("histories must share start and end times")
    sigma = compose_histories(invert_history(w_ref), w)
    if not is_loop(sigma):
        raise RuntimeError("decomposition did not produce a loop")
    recomposed = compose_histories(w_ref, sigma)
    if (
        recomposed.start_outcome != w.start_outcome
        or recomposed.end_outcome != w.end_outcome
        or total_variation(recomposed) != total_variation(w)
    ):
        raise RuntimeError("recomposition does not match the original history")
    return sigma


def amplitude_via_reference(
    w_ref: History,
    base: History,
    ell: QLagrangian,
    bias: OutcomeBias,
    hbar: float,
    z_vertex: complex = 1.0,
) -> complex:
    """Endpoint amplitude computed through an arbitrary reference history.

    The loop weight exp(-(i/hbar) action(sigma)) with sigma = base^-1 ∘ w_ref
    gauges the base reference to weight one; the result is then independent
    of which w_ref was chosen.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    sigma = decompose_history(w_ref, base)
    weight = cmath.exp(-1j * action(sigma, ell) / hbar)
    return weight * z_vertex * normalization(w_ref, bias) * cmath.exp(1j * action(w_ref, ell) / hbar)


def history_to_text(w: History) -> str:
    """Serialize segments as 'orientation:step,step;...' ('' for the empty history)."""
    parts = []
    for seg in w.segments:
        sign = "+" if seg.orientation > 0 else "-"
        parts.append(f"{sign}:{','.join(seg.steps)}")
    return ";".join(parts)


def history_from_text(
    g: FiniteGroupoid,
    text: str,
    start: str | None = None,
    t_start: float = 0.0,
    tau: float = 1.0,
) -> History:
    """Parse history_to_text output; start is required for the empty history."""
    text = text.strip()
    segments: list[tuple[int, list[str]]] = []
    if text:
        for part in text.split(";"):
            sign, sep, steps = part.partition(":")
            sign = sign.strip()
            if not sep or sign not in ("+", "-"):
                raise ValueError(f"bad segment {part!r}: expected '+:...' or '-:...'")
            names = [s.strip() for s in steps.split(",") if s.strip()]
            if not names:
                raise ValueError(f"segment {part!r} lists no steps")
            segments.append((+1 if sign == "+" else -1, names))
    n_total = sum(len(s) for _, s in segments)
    return make_history(g, TimeGrid(t_start, tau, n_total), segments, start=start)
