"""Two-outcome single-step propagator, its unitarity constraints and spectra.

The propagator matrix is indexed (-, +) and reads, with p+ = p, p- = 1 - p:

    U[-][-] = G_mm * p-           * exp(-i tau V- / hbar)
    U[-][+] = G_mp * sqrt(p- p+)  * exp((tau/hbar) (-delta + i mu))
    U[+][-] = G_pm * sqrt(p+ p-)  * exp((tau/hbar) ( delta + i mu))
    U[+][+] = G_pp * p+           * exp(-i tau V+ / hbar)

Unitarity pins |G_mp| / |G_pm| = exp(2 delta tau / hbar) and
|G_mm| p- = |G_pp| p+, and forces the phase constraint

    (2 tau / hbar) (mu + (V+ + V-)/2)  ==  (Sigma + Lambda)/hbar + pi   (mod 2 pi)

where Lambda = hbar arg(G_pm / G_mp) and Sigma = hbar arg(G_mm / G_pp).
With those phase conventions the constraint above is exactly what the
orthogonality of the rows of U demands.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import StateVector
from .histories import (
    _amplitude, _complex, _exp, _not_finite, _square, fixed_order_matmul, fixed_order_power,
)

FEASIBLE_TOL = 1e-10

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PropagatorModel:
    """Parameters of one time step: weights, bias, clock, vertex factors, phases.

    lam and sigma are the relative vertex phases in action units; when not
    supplied they are derived from the vertex factors (zero if degenerate).
    """

    v_plus: float
    v_minus: float
    mu: float
    delta: float
    p_plus: float
    tau: float
    hbar: float
    gamma_mm: complex = 1.0 + 0j
    gamma_mp: complex = 1.0 + 0j
    gamma_pm: complex = 1.0 + 0j
    gamma_pp: complex = 1.0 + 0j
    lam: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not 0.0 <= self.p_plus <= 0.5:
            raise ValueError(f"p_plus must lie in [0, 1/2], got {self.p_plus}")
        for name in ("gamma_mm", "gamma_mp", "gamma_pm", "gamma_pp"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.lam is None:
            lam = 0.0
            if self.gamma_pm != 0 and self.gamma_mp != 0:
                lam = self.hbar * cmath.phase(self.gamma_pm / self.gamma_mp)
            object.__setattr__(self, "lam", lam)
        if self.sigma is None:
            sigma = 0.0
            if self.gamma_mm != 0 and self.gamma_pp != 0:
                sigma = self.hbar * cmath.phase(self.gamma_mm / self.gamma_pp)
            object.__setattr__(self, "sigma", sigma)

    @property
    def p_minus(self) -> float:
        return 1.0 - self.p_plus

    @property
    def gammas(self) -> tuple[complex, complex, complex, complex]:
        return (self.gamma_mm, self.gamma_mp, self.gamma_pm, self.gamma_pp)


@dataclass(frozen=True)
class UnitarityReport:
    """Residuals of the eight unitarity equations plus the derived relations.

    residuals holds, in order, the magnitudes of the four entries of
    U U* - 1 (rows --, -+, +-, ++) followed by the four entries of U* U - 1.
    Both matrices are Hermitian, so residuals[2] == residuals[1] and
    residuals[6] == residuals[5] by construction (the printed
    residual_1_3 = residual_1_2 and residual_2_3 = residual_2_2), and the
    diagonal gaps are real.
    """

    residuals: tuple[float, float, float, float, float, float, float, float]
    max_residual: float
    relation1_gap: float
    relation2_gap: float
    global_phase_gap: float
    frobenius_left: float
    frobenius_right: float


class SignCase(enum.Enum):
    """Sign pattern of the special propagator form [[A, B], [s1*B, s2*A]]."""

    I = (1.0, 1.0)
    II = (-1.0, 1.0)
    III = (1.0, -1.0)
    IV = (-1.0, -1.0)


def _diagonal_kernel(m: PropagatorModel) -> tuple[complex, complex]:
    """K[-][-] and K[+][+] of model m: the one-step amplitudes of histories.single_step_matrix on the units.

    The units are weighted -V, so neither entry depends on mu.
    """
    bias, tau, hbar = (m.p_minus, m.p_plus), m.tau, m.hbar  # qubit_bias, by index (-, +)
    # single_step_matrix adds each amplitude onto a zero entry, hence the 0j +
    k_pp = 0j + _amplitude(bias, 1, 1, complex(-m.v_plus, 0.0) * tau, hbar)
    k_mm = 0j + _amplitude(bias, 0, 0, complex(-m.v_minus, 0.0) * tau, hbar)
    return k_mm, k_pp


def _kernel(m: PropagatorModel) -> tuple[complex, complex, complex, complex]:
    """K[-][-], K[-][+], K[+][-] and K[+][+] of model m, on Python complex numbers.

    Each entry is the one-step amplitude of histories.single_step_matrix
    (units weighted -V, the flips mu ± i delta), so with unit vertex factors a
    step matrix is the one-step path sum bit for bit.  The flips are written
    out as histories._amplitude evaluates them, with sqrt(p+ p-) taken once;
    every exponential is cmath.exp, through histories._exp, so an exponent
    that is not finite is an OverflowError.  quantization_scan takes the
    flips of a whole grid from numpy's complex exp instead (see _scan_step).
    """
    k_mm, k_pp = _diagonal_kernel(m)
    root, tau, hbar = math.sqrt(m.p_plus * m.p_minus), m.tau, m.hbar
    k_mp = 0j + root * _exp(1j * (complex(m.mu, m.delta) * tau) / hbar)
    k_pm = 0j + root * _exp(1j * (complex(m.mu, -m.delta) * tau) / hbar)
    return k_mm, k_mp, k_pm, k_pp


def _vertex_times(g, k_re, k_im):
    """(re, im) of g * k as CPython forms a complex product: (gr kr - gi ki) + (gr ki + gi kr) i.

    g is a Python complex number or a complex array, k_re and k_im are k's
    parts as Python floats or float64 arrays.  Every multiply and add is
    rounded on its own (a Python float operation or a float64 ufunc), so the
    bits do not depend on whether numpy's complex multiply fuses them.
    """
    return g.real * k_re - g.imag * k_im, g.real * k_im + g.imag * k_re


def qubit_propagator(model: PropagatorModel) -> np.ndarray:
    """2x2 step matrix on the (-, +) basis; vertex factors scale each entry.

    With unit vertex factors this reproduces the one-step path sum bit for
    bit, because the kernel is computed through the same amplitude
    arithmetic.  The point is evaluated on Python floats; an entry that is
    not finite is an OverflowError naming it.
    """
    gammas, kernel = model.gammas, _kernel(model)
    (re_mm, im_mm), (re_mp, im_mp), (re_pm, im_pm), (re_pp, im_pp) = [
        _vertex_times(g, k.real, k.imag) for g, k in zip(gammas, kernel)
    ]
    u = _complex([[re_mm, re_mp], [re_pm, re_pp]], [[im_mm, im_mp], [im_pm, im_pp]])
    if not all(map(math.isfinite, (re_mm, re_mp, re_pm, re_pp, im_mm, im_mp, im_pm, im_pp))):
        raise _not_finite("step matrix entry", u)
    return u


def _scan_step(model: PropagatorModel, mus: np.ndarray) -> tuple[list[list], list[list]]:
    """(re, im) of the step matrices of model with mu set to each of mus, as 2x2 nested lists.

    The diagonal does not depend on mu and is qubit_propagator's, on Python
    floats; each flip entry is a float64 column over mus.  Position i of a
    column has qubit_propagator's bits at mu = mus[i]: the exponents are
    _kernel's, formed in the same operations, and both flips come from one
    np.exp over a (2, P) complex array, then sqrt(p+ p-) and the vertex
    factors are applied in separate float64 ufuncs, since numpy's complex
    multiply may fuse.  That np.exp is glibc's cexp, which computes
    exp(x) cos y and exp(x) sin y through libm as cmath.exp does for
    x <= 708.39 (above it cmath.exp takes exp(x - 1) e).  A flip that
    reaches the step has |x| below ~373: for delta > 0, _pinned_model's
    exp(2 delta tau / hbar) overflows once x passes ~355; for delta < 0 the
    flip with x > 0 meets G_mp = gauge exp(2 delta tau / hbar), which is
    exactly 0 once x passes ~373.
    """
    tau, hbar = model.tau, model.hbar
    (re_mm, im_mm), (re_pp, im_pp) = [
        _vertex_times(g, k.real, k.imag)
        for g, k in zip((model.gamma_mm, model.gamma_pp), _diagonal_kernel(model))
    ]
    z = np.empty((2, len(mus)), dtype=complex)  # the exponents of K[-][+] and K[+][-]
    z.real[0], z.real[1], z.imag = -(model.delta * tau) / hbar, (model.delta * tau) / hbar, mus * tau / hbar
    if not np.isfinite(z).all():
        raise _not_finite("exponent", z)
    np.exp(z, out=z)
    root = math.sqrt(model.p_plus * model.p_minus)
    k_re, k_im = root * z.real + 0.0, root * z.imag + 0.0  # 0j + root * exp(...), as _kernel forms it
    (re_mp, re_pm), (im_mp, im_pm) = _vertex_times(np.array([[model.gamma_mp], [model.gamma_pm]]), k_re, k_im)
    return [[re_mm, re_mp], [re_pm, re_pp]], [[im_mm, im_mp], [im_pm, im_pp]]


def _unitarity_gaps(re: list[list], im: list[list]) -> list:
    """The independent parts of U U* - 1, then of U* U - 1: [0][0].re, [1][1].re, [0][1].re, [0][1].im.

    U's parts re and im are 2x2 nested lists, or arrays, whose entries are
    Python floats or float64 columns, one matrix per column position.  Both
    gap matrices are Hermitian, so these four parts decide them: [1][0] is
    conj([0][1]) (its real part bit for bit, its imaginary part up to the
    sign of a zero), and a diagonal imaginary part is -(p q) + q p, +0.0
    whenever it is finite; when it is not, the real part beside it is not
    finite either (_residuals forms it for its message).  Each part is the
    histories._scalar_product term, in _product's fixed order: entry [i, j]
    sums its terms k = 0, then k = 1, each the complex product
    (xr yr - xi yi) + (xr yi + xi yr) i, and every multiply and add is
    rounded on its own.  So a column position has the bits of the same
    matrix on Python floats, and no residual depends on the BLAS build.
    """
    (r00, r01), (r10, r11) = re
    (i00, i01), (i10, i11) = im
    n00, n01, n10, n11 = -i00, -i01, -i10, -i11
    return [
        # U U*: [i][j] sums U[i][k] conj(U[j][k])
        ((r00 * r00 - i00 * n00) + (r01 * r01 - i01 * n01)) - 1.0,
        ((r10 * r10 - i10 * n10) + (r11 * r11 - i11 * n11)) - 1.0,
        (r00 * r10 - i00 * n10) + (r01 * r11 - i01 * n11),
        (r00 * n10 + i00 * r10) + (r01 * n11 + i01 * r11),
        # U* U: [i][j] sums conj(U[k][i]) U[k][j]
        ((r00 * r00 - n00 * i00) + (r10 * r10 - n10 * i10)) - 1.0,
        ((r01 * r01 - n01 * i01) + (r11 * r11 - n11 * i11)) - 1.0,
        (r00 * r01 - n00 * i01) + (r10 * r11 - n10 * i11),
        (r00 * i01 + n00 * r01) + (r10 * i11 + n10 * r11),
    ]


def _residuals(u: np.ndarray) -> np.ndarray:
    """|U U* - 1| then |U* U - 1|, entries row by row, of one 2x2 step matrix: shape (8,).

    The gaps are _unitarity_gaps' on Python floats, [1][0] being conj([0][1])
    and each diagonal entry real; the magnitudes are np.hypot, as abs() of a
    complex scalar, which gives |x| for hypot(x, 0.0).  A gap that is not
    finite is an OverflowError naming its position in that order and its
    complex value.
    """
    re, im = u.real.tolist(), u.imag.tolist()
    a, d, x, y, b, e, v, w = _unitarity_gaps(re, im)
    gap_re, gap_im = [a, x, x, d, b, v, v, e], [0.0, y, -y, 0.0, 0.0, w, -w, 0.0]
    if not all(map(math.isfinite, gap_re + gap_im)):  # the diagonal imaginary parts, in the same terms
        (r00, r01), (r10, r11) = re
        (i00, i01), (i10, i11) = im
        gap_im[0] = (r00 * -i00 + i00 * r00) + (r01 * -i01 + i01 * r01)
        gap_im[3] = (r10 * -i10 + i10 * r10) + (r11 * -i11 + i11 * r11)
        gap_im[4] = (r00 * i00 + -i00 * r00) + (r10 * i10 + -i10 * r10)
        gap_im[7] = (r01 * i01 + -i01 * r01) + (r11 * i11 + -i11 * r11)
        raise _not_finite("unitarity gap", _complex(gap_re, gap_im))
    return np.hypot(gap_re, gap_im)


def _growth(delta: float, tau: float, hbar: float) -> float:
    """exp(2 delta tau / hbar), the ratio |G_mp| / |G_pm| that unitarity pins.

    An overflow is an OverflowError naming the exponent, not math.exp's "math range error".
    """
    x = 2.0 * delta * tau / hbar
    try:
        return math.exp(x)
    except OverflowError:
        raise OverflowError(f"exp of exponent {x} overflows") from None


def _step_report(model: PropagatorModel, u: np.ndarray) -> UnitarityReport:
    """The report on model, whose step matrix is u."""
    r = tuple(_residuals(u).tolist())
    growth = _growth(model.delta, model.tau, model.hbar)
    pm = abs(model.gamma_pm)
    relation1_gap = abs(abs(model.gamma_mp) / pm - growth) if pm else math.inf
    relation2_gap = abs(abs(model.gamma_mm) * model.p_minus - abs(model.gamma_pp) * model.p_plus)
    v_bar = 0.5 * (model.v_plus + model.v_minus)
    theta = (model.mu + v_bar) * 2.0 * model.tau / model.hbar - (
        (model.sigma + model.lam) / model.hbar + math.pi
    )
    if not math.isfinite(theta):  # math.remainder would call it a domain error
        raise OverflowError(f"phase constraint gap {theta} is not finite")
    return UnitarityReport(
        residuals=r,
        max_residual=max(r),
        relation1_gap=relation1_gap,
        relation2_gap=relation2_gap,
        global_phase_gap=abs(math.remainder(theta, TWO_PI)),
        frobenius_left=math.hypot(*r[:4]),
        frobenius_right=math.hypot(*r[4:]),
    )


def unitarity_residuals(model: PropagatorModel) -> UnitarityReport:
    """Evaluate all eight unitarity equations and the derived gap quantities."""
    return _step_report(model, qubit_propagator(model))


@dataclass(frozen=True)
class GammaSolution:
    """Outcome of solve_unitary_gammas; model carries the pinned-gauge candidate and u its step matrix."""

    feasible: bool
    model: PropagatorModel
    report: UnitarityReport
    min_residual: float
    u: np.ndarray = field(compare=False)


def _check_solve_args(p_plus: float, tau: float, hbar: float, gauge: float) -> None:
    if not 0.0 < p_plus <= 0.5:
        raise ValueError(f"solving requires p_plus in (0, 1/2], got {p_plus}")
    if not gauge > 0:
        raise ValueError(f"gauge must be positive, got {gauge}")
    if not (tau > 0 and hbar > 0):
        raise ValueError("tau and hbar must be positive")


def _pinned_model(
    v_plus: float,
    v_minus: float,
    mu: float,
    delta: float,
    p_plus: float,
    tau: float,
    hbar: float,
    lam: float,
    sigma: float,
    gauge: float,
) -> tuple[PropagatorModel, float]:
    """The pinned-gauge candidate at mu and its radicand s.

    The candidate meets the structural relations exactly, and the only
    freedom they leave, the sign of the real G_pp, changes neither
    orthogonality nor the phase gap, so no search can do better.  With s < 0
    it takes G_pp = G_mm = 0, whose residual is |s|.  Its vertex factors do
    not depend on mu.
    """
    p_minus = 1.0 - p_plus
    growth = _growth(delta, tau, hbar)
    s = 1.0 - gauge * gauge * p_plus * p_minus * growth
    g_pp = math.sqrt(max(s, 0.0)) / p_plus
    model = PropagatorModel(
        v_plus, v_minus, mu, delta, p_plus, tau, hbar,
        gamma_mm=g_pp * (p_plus / p_minus) * _exp(1j * sigma / hbar),
        gamma_mp=gauge * growth * _exp(-1j * lam / hbar),
        gamma_pm=complex(gauge, 0.0),
        gamma_pp=complex(g_pp, 0.0),
        lam=lam, sigma=sigma,
    )
    return model, s


def solve_unitary_gammas(
    v_plus: float,
    v_minus: float,
    mu: float,
    delta: float,
    p_plus: float,
    tau: float,
    hbar: float,
    lam: float = 0.0,
    sigma: float = 0.0,
    gauge: float = 1.0,
) -> GammaSolution:
    """Vertex factors making the step unitary, with the phases lam/sigma pinned.

    The gauge fixes G_pm = gauge (real, positive); G_mp then carries the
    delta growth factor and the lam phase, |G_pp| comes from the row-+
    normalization and G_mm follows from the sigma relation.  Feasibility is
    decided algebraically: it holds exactly when the radicand
    s = 1 - gauge^2 p+ p- exp(2 delta tau / hbar) is non-negative and the
    global phase constraint is met, checked as the candidate's unitarity
    residual being within FEASIBLE_TOL.  min_residual is that candidate's
    joint residual; for s < 0 it equals |s|.  u is the candidate's step
    matrix, equal to qubit_propagator(model), and report is
    unitarity_residuals(model).
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    model, s = _pinned_model(v_plus, v_minus, mu, delta, p_plus, tau, hbar, lam, sigma, gauge)
    u = qubit_propagator(model)
    report = _step_report(model, u)
    feasible = s >= 0.0 and all(r <= FEASIBLE_TOL for r in report.residuals)
    return GammaSolution(feasible, model, report, report.max_residual, u)


@dataclass(frozen=True, eq=False)
class QuantizationScan:
    """Outcome of quantization_scan: one candidate model and a read-only array per column.

    The pinned-gauge vertex factors do not depend on mu, so model (built at
    mu = 0) carries them once; the candidate at grid point i is
    dataclasses.replace(model, mu=mu[i]), which is solve_unitary_gammas'
    model there.  feasible_mask[i] and min_residual[i] are that solve's
    verdict and joint residual, bit for bit: the scan takes the flip entries
    from numpy's complex exp where the solve takes cmath.exp, and the two
    agree on every flip that can reach a result (_scan_step says why).
    feasible is the verdict on the whole scan, one bool like
    GammaSolution.feasible: some grid point admits a unitary step.
    """

    model: PropagatorModel
    mu: np.ndarray
    mu_tau_over_hbar: np.ndarray
    min_residual: np.ndarray
    feasible_mask: np.ndarray

    @property
    def feasible(self) -> bool:
        return bool(self.feasible_mask.any())


def quantization_scan(
    v_plus: float,
    v_minus: float,
    delta: float,
    p_plus: float,
    tau: float,
    hbar: float,
    lam: float,
    sigma: float,
    gauge: float,
    grid: np.ndarray,
) -> QuantizationScan:
    """Solve for unitary vertex factors along a grid of mu*tau/hbar values.

    Each grid point gets the same algebraic decision as solve_unitary_gammas,
    with the same bits.  The mu-independent work (radicand, vertex factors,
    bias, the diagonal of the step) is done once on Python floats, the rest
    on float64 columns of the grid's length: the flips (_scan_step), the
    independent parts of U U* - 1 and U* U - 1 (_unitarity_gaps: the real
    diagonal and [0][1] of each, since [1][0] is its conjugate), np.hypot of
    each [0][1], the absolute value of each diagonal gap (np.hypot(x, 0.0)
    is |x|) and a running np.maximum.  No per-point object and no stack of
    matrices is built.

    The columns are computed under np.errstate(over="ignore",
    invalid="ignore"), so the error does not depend on the caller's errstate:
    the first grid point, flip exponent (_scan_step) or min_residual that is
    not finite is an OverflowError naming it and its index.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    xs = np.array(grid, dtype=float)  # a copy: the caller's grid stays writable
    if not np.isfinite(xs).all():
        raise _not_finite("grid point", xs)
    model, s = _pinned_model(v_plus, v_minus, 0.0, delta, p_plus, tau, hbar, lam, sigma, gauge)
    with np.errstate(over="ignore", invalid="ignore"):
        mus = xs * hbar / tau
        a, d, x, y, b, e, v, w = _unitarity_gaps(*_scan_step(model, mus))
        worst = np.hypot(x, y)
        np.maximum(worst, np.hypot(v, w), out=worst)
        for diagonal in (a, d, b, e):
            np.maximum(worst, np.abs(diagonal, out=diagonal), out=worst)
    if not np.isfinite(worst).all():
        raise _not_finite("min_residual", worst)
    columns = (mus, xs, worst, np.logical_and(s >= 0.0, worst <= FEASIBLE_TOL))
    for column in columns:
        column.flags.writeable = False
    return QuantizationScan(model, *columns)


def sign_case_matrix(a: complex, b: complex, case: SignCase) -> np.ndarray:
    """The matrix [[A, B], [s1*B, s2*A]] for the given sign pattern."""
    s1, s2 = case.value
    return np.array([[a, b], [s1 * b, s2 * a]], dtype=complex)


def special_case_spectrum(a: complex, b: complex, case: SignCase) -> tuple[complex, complex]:
    """Closed-form eigenvalue pair of sign_case_matrix(a, b, case)."""
    if case is SignCase.I:
        return (a + b, a - b)
    if case is SignCase.II:
        return (a + 1j * b, a - 1j * b)
    if case is SignCase.III:
        r = cmath.sqrt(a * a + b * b)
        return (r, -r)
    r = cmath.sqrt(a * a - b * b)
    return (r, -r)


def evolve_state(u: np.ndarray, state: StateVector, n: int) -> StateVector:
    """Apply n propagation steps to a pure state: fixed_order_power(u, n) times the state, in its fixed order.

    For n = 0 the state is still multiplied by the identity, whose products
    turn -0.0 into 0.0 as the fixed order does.
    """
    if state.norm() == 0.0:
        raise ValueError("state must have nonzero norm")
    u = _square(u)
    if len(state.amplitudes) != len(u):
        raise ValueError(f"state has {len(state.amplitudes)} amplitudes, the step matrix has side {len(u)}")
    moved = fixed_order_matmul(fixed_order_power(u, n), state.as_array()[:, None])
    return StateVector(tuple(moved[:, 0].tolist()))
