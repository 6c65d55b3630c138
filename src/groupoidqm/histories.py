"""Discrete histories on a finite groupoid and their path sums.

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
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groupoid import FiniteGroupoid
from .lagrangian import OutcomeBias, QLagrangian

DEFAULT_HISTORY_CAP = 10_000_000
_COUNT_LIMIT = 10**18  # counts saturate above max(cap, this); being >= 0 they stay exact below
# One matrix of at most this side is multiplied on Python floats, anything
# larger, and every stack, on float64 arrays: the side where each costs less
# (timings in CHANGES.md).
_SCALAR_MAX_SIDE = 5


class EnumerationCapExceeded(RuntimeError):
    """Raised when a path enumeration would visit more histories than allowed."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        needs = f"more than {_COUNT_LIMIT}" if required > _COUNT_LIMIT else required
        super().__init__(f"enumeration needs {needs} histories, cap is {cap}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: finite start time, positive step tau, and total step count."""

    t_start: float
    tau: float
    n_steps: int

    def __post_init__(self):
        if not (isinstance(self.n_steps, int) and self.n_steps >= 0):
            raise ValueError(f"n_steps must be a non-negative integer, got {self.n_steps!r}")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not math.isfinite(self.t_start):  # a time that is not finite lies on no tick
            raise ValueError(f"t_start must be finite, got {self.t_start!r}")

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
    """w2 ∘ w1: first walk w1, then w2; endpoints must match in outcome and, to within half a tick, in time."""
    if w1.groupoid != w2.groupoid:
        raise ValueError("histories live over different groupoids")
    if w1.grid.tau != w2.grid.tau:
        raise ValueError(f"grid mismatch: tau {w1.grid.tau!r} vs {w2.grid.tau!r}")
    if w1.end_outcome != w2.start_outcome:
        raise ValueError(
            f"cannot compose: first history ends at {w1.end_outcome!r}, "
            f"second starts at {w2.start_outcome!r}"
        )
    if not _same_tick(w1.end_time, w2.start_time, w1.grid.tau):
        raise ValueError(
            f"cannot compose: first history ends at t={w1.end_time!r}, "
            f"second starts at t={w2.start_time!r}"
        )
    grid = TimeGrid(w1.grid.t_start, w1.grid.tau, w1.n_steps + w2.n_steps)
    return History(w1.groupoid, grid, w1.segments + w2.segments, w1.anchor)


def _same_tick(t1: float, t2: float, tau: float) -> bool:
    """Whether times t1 and t2, on grids of step tau, are within half a tick of each other."""
    return abs(t1 - t2) < tau / 2


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


def _exp(z: complex) -> complex:
    """cmath.exp(z); a z that is not finite (an action or a clock ratio that overflowed) is an OverflowError.

    cmath.exp would return nan for some such z and raise ValueError for
    others; either way the cause is the float range, so it is reported as such.
    A finite z whose exponential overflows is an OverflowError naming z too.
    """
    if not cmath.isfinite(z):
        raise OverflowError(f"exponent {z} is not finite")
    try:
        return cmath.exp(z)
    except OverflowError:
        raise OverflowError(f"exp of exponent {z} overflows") from None


def _amplitude(bias, start, end, s: complex, hbar: float) -> complex:
    """sqrt(bias[start] bias[end]) exp(i s / hbar); bias is indexed by outcome label or by index."""
    return math.sqrt(bias[start] * bias[end]) * _exp(1j * s / hbar)


def history_amplitude(
    w: History, ell: QLagrangian, bias: OutcomeBias, hbar: float, tau: float | None = None
) -> complex:
    """sqrt(p(start) p(end)) * exp((i/hbar) * action)."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return _amplitude(bias, w.start_outcome, w.end_outcome, action(w, ell, tau), hbar)


def _count_paths(g: FiniteGroupoid, n_steps: int, cap: int, start: str) -> dict[str, int]:
    """n-step walks from start per end outcome, saturated at the ceiling."""
    ceiling = max(cap, _COUNT_LIMIT) + 1
    counts = {o: int(o == start) for o in g.outcomes}
    for _ in range(n_steps):
        nxt = dict.fromkeys(g.outcomes, 0)
        for e in g.elements:
            nxt[g.target[e]] = min(ceiling, nxt[g.target[e]] + counts[g.source[e]])
        if nxt == counts:
            break
        counts = nxt
    return counts


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
    the count (computed by walk counting) would exceed the cap.  The walk keeps
    an explicit stack of out-transition iterators, so a long history never
    recurses.
    """
    if start not in g.unit_of or end not in g.unit_of:
        missing = start if start not in g.unit_of else end
        raise ValueError(f"unknown outcome {missing!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    required = _count_paths(g, n_steps, cap, start)[end]
    if required > cap:
        raise EnumerationCapExceeded(required, cap)
    if required == 0:  # e.g. end lies in another component: no walk from start can reach it
        return []
    grid = TimeGrid(t_start, tau, n_steps)
    out: dict[str, list[str]] = {o: [] for o in g.outcomes}
    for e in g.elements:
        out[g.source[e]].append(e)
    results: list[History] = []
    path: list[str] = []
    stack = [iter(out[start])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
        elif len(path) + 1 < n_steps:
            path.append(step)
            stack.append(iter(out[g.target[step]]))
        elif g.target[step] == end:
            results.append(History(g, grid, (Segment(+1, (*path, step)),), start))
    return results


def single_step_matrix(
    g: FiniteGroupoid, ell: QLagrangian, bias: OutcomeBias, tau: float, hbar: float
) -> np.ndarray:
    """One-step propagation matrix: entry [end, start] sums the one-step amplitudes.

    Transitions sharing an entry add up in element order.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    p = [bias[o] for o in g.outcomes]
    n = len(g.outcomes)
    m = np.zeros((n, n), dtype=complex)
    for a, b, w in zip(g.source.array.tolist(), g.target.array.tolist(), ell.weights_on(g).tolist()):
        m[b, a] += _amplitude(p, a, b, w * tau, hbar)
    return m


def _product(a, b):
    """(re, im) of a @ b for float64 (re, im) pairs, in one fixed order.

    Entry [i, j] sums its terms k = 0, 1, ... left to right, each term being
    the complex product as CPython forms it, (xr yr - xi yi) + (xr yi + xi yr) i.
    Every multiply and add is a ufunc of its own, so nothing fuses and nothing
    goes through BLAS: the bits are those of the same loop over Python floats,
    _scalar_product, on any machine.  _fixed_order takes this one for stacks
    and larger sides.  Leading axes are stacks of matrices, broadcast as by @.
    """
    (ar, ai), (br, bi) = a, b
    re = im = None
    for k in range(ar.shape[-1]):
        xr, xi = ar[..., :, k, None], ai[..., :, k, None]
        yr, yi = br[..., k, None, :], bi[..., k, None, :]
        tr, ti = xr * yr - xi * yi, xr * yi + xi * yr
        re, im = (tr, ti) if re is None else (re + tr, im + ti)
    return re, im


def _scalar_product(a, b):
    """_product on (re, im) pairs of nested lists of Python floats: the same terms, order and bits.

    Each Python float operation is rounded on its own, so nothing fuses here
    either.  A 2x2 times 2x2 product (the qubit step and its powers) is
    written out term by term, at about a quarter of the loop's cost; every
    other shape goes through _scalar_loop, whose one body serves every side
    up to _SCALAR_MAX_SIDE.  Entries that are float64 columns give each
    column position the bits of its own matrix on Python floats.
    """
    (ar, ai), (br, bi) = a, b
    if len(ar) != 2 or len(br) != 2 or len(br[0]) != 2:
        return _scalar_loop(a, b)
    (a00r, a01r), (a10r, a11r) = ar
    (a00i, a01i), (a10i, a11i) = ai
    (b00r, b01r), (b10r, b11r) = br
    (b00i, b01i), (b10i, b11i) = bi
    re = [
        [(a00r * b00r - a00i * b00i) + (a01r * b10r - a01i * b10i),
         (a00r * b01r - a00i * b01i) + (a01r * b11r - a01i * b11i)],
        [(a10r * b00r - a10i * b00i) + (a11r * b10r - a11i * b10i),
         (a10r * b01r - a10i * b01i) + (a11r * b11r - a11i * b11i)],
    ]
    im = [
        [(a00r * b00i + a00i * b00r) + (a01r * b10i + a01i * b10r),
         (a00r * b01i + a00i * b01r) + (a01r * b11i + a01i * b11r)],
        [(a10r * b00i + a10i * b00r) + (a11r * b10i + a11i * b10r),
         (a10r * b01i + a10i * b01r) + (a11r * b11i + a11i * b11r)],
    ]
    return re, im


def _scalar_loop(a, b):
    """_scalar_product for any shape: entry [i, j] sums its terms k = 0, 1, ... left to right."""
    (ar, ai), (br, bi) = a, b
    columns = list(zip(zip(*br), zip(*bi)))
    re, im = [], []
    for xr_row, xi_row in zip(ar, ai):
        re_row, im_row = [], []
        for yr_col, yi_col in columns:
            terms = zip(xr_row, xi_row, yr_col, yi_col)
            xr, xi, yr, yi = next(terms)
            sr, si = xr * yr - xi * yi, xr * yi + xi * yr
            for xr, xi, yr, yi in terms:
                sr, si = sr + (xr * yr - xi * yi), si + (xr * yi + xi * yr)
            re_row.append(sr)
            im_row.append(si)
        re.append(re_row)
        im.append(im_row)
    return re, im


def _power(product, base, n: int):
    """base^n for n >= 1 by repeated squaring with the given product.

    The result is multiplied on the right by each of base, base^2, base^4, ...
    whose bit of n is set, lowest bit first: O(log n) products.
    """
    result = None
    while n:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def _complex(re, im) -> np.ndarray:
    """The complex array with parts re and im: float64 arrays or nested lists of Python floats."""
    z = np.array(re, dtype=complex)
    z.imag = im
    return z


def _not_finite(what: str, z: np.ndarray) -> OverflowError:
    """The OverflowError for array z (complex or float64), naming its first entry that is not finite.

    A result leaves the float range as inf or nan and stays there through
    every later multiply and add, so this one check on a result reports any
    overflow on the way to it, whatever np.errstate says.
    """
    index = tuple(np.argwhere(~np.isfinite(z))[0].tolist())
    return OverflowError(f"{what} {list(index)} = {z[index].item()} is not finite")


def _fixed_order(evaluate, *ms: np.ndarray) -> np.ndarray:
    """evaluate(product, *parts) for complex matrices ms, on Python floats or float64 arrays.

    One matrix each of at most _SCALAR_MAX_SIDE rows and columns goes through
    _scalar_product, anything else (stacks, larger sides) through _product;
    both give the same bits.  A result that is not finite is an OverflowError
    (_not_finite) on either path.
    """
    if all(m.ndim == 2 and max(m.shape) <= _SCALAR_MAX_SIDE for m in ms):
        parts = evaluate(_scalar_product, *[(m.real.tolist(), m.imag.tolist()) for m in ms])
        return _complex(*_finite_product(*parts))
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = evaluate(_product, *[(m.real, m.imag) for m in ms])
    z = _complex(re, im)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise _not_finite("product entry", z)
    return z


def _finite_product(re: list[list], im: list[list]) -> tuple[list[list], list[list]]:
    """(re, im), a product's parts as nested lists of Python floats, once every entry is finite.

    Otherwise the OverflowError (_not_finite) naming its first "product
    entry" that is not, as _fixed_order reports it.
    """
    if not all(map(math.isfinite, itertools.chain(*re, *im))):
        raise _not_finite("product entry", _complex(re, im))
    return re, im


def fixed_order_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex matrices or stacks of them, summed in the fixed order of _product."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _fixed_order(lambda product, x, y: product(x, y), a, b)


def _square(m) -> np.ndarray:
    """m as a complex array; a ValueError unless it is one square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _exponent(n) -> int:
    """n as an int exponent; a ValueError unless n is a non-negative integer of any integer type (operator.index)."""
    try:
        k = operator.index(n)
    except TypeError:
        k = -1
    if k < 0:
        raise ValueError(f"power must be a non-negative integer, got {n!r}")
    return k


def _scalar_power(m, k: int) -> tuple[list[list], list[list]]:
    """m^k for k >= 0, m being the (re, im) of a square matrix as nested lists of Python floats.

    fixed_order_power's products (_power over _scalar_product), bits and
    "product entry" error, on the lists; m^0 is the identity.
    """
    if k:
        return _finite_product(*_power(_scalar_product, m, k))
    side = range(len(m[0]))
    return [[float(i == j) for j in side] for i in side], [[0.0 for _ in side] for _ in side]


def fixed_order_power(m: np.ndarray, n: int) -> np.ndarray:
    """m^n for any integer n >= 0 by repeated squaring (_power), every product in the fixed order of _product.

    O(log n) products; m^0 is the identity.  n may be any integer type
    (operator.index), a numpy integer too; anything else is a ValueError.
    """
    k = _exponent(n)
    m = _square(m)
    if k == 0:
        return np.eye(len(m), dtype=complex)
    return _fixed_order(lambda product, base: _power(product, base, k), m)


def n_step_path_sum(
    g: FiniteGroupoid,
    ell: QLagrangian,
    bias: OutcomeBias,
    tau: float,
    hbar: float,
    n_steps: int,
) -> np.ndarray:
    """Sum over all n-step histories, outcome-indexed like single_step_matrix.

    Each history contributes its amplitude weighted by the bias of every
    intermediate outcome it visits.  Histories compose, so the sum factorises
    as D^1/2 K D K ... K D^1/2, where K[b, a] sums exp(i ell_e tau / hbar) over
    the transitions e: a -> b and D = diag(bias): the n-th power of
    single_step_matrix.  It is taken by fixed_order_power, in O(log n_steps)
    products whatever the number of histories.  enumerate_histories with
    history_amplitude gives the same sum, up to rounding, history by history.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if ell.groupoid != g:
        raise ValueError("lagrangian is defined on a different groupoid")
    return fixed_order_power(single_step_matrix(g, ell, bias, tau, hbar), n_steps)


def decompose_history(w: History, w_ref: History) -> History:
    """Loop sigma with w = w_ref ∘ sigma at the level of total variation.

    sigma walks w forward and then w_ref backward; it is checked to be a loop
    and to restore w's endpoints and total variation when recomposed.
    """
    if w.start_outcome != w_ref.start_outcome or w.end_outcome != w_ref.end_outcome:
        raise ValueError("histories must share both endpoints")
    tau = w.grid.tau
    if not (_same_tick(w.start_time, w_ref.start_time, tau) and _same_tick(w.end_time, w_ref.end_time, tau)):
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
    gauges the base reference to weight one; the result, loop weight times
    z_vertex times history_amplitude(w_ref, ...), is then independent of which
    w_ref was chosen.
    """
    amplitude = history_amplitude(w_ref, ell, bias, hbar)
    sigma = decompose_history(w_ref, base)
    return _exp(-1j * action(sigma, ell) / hbar) * z_vertex * amplitude
