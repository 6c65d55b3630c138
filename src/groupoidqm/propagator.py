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
from .histories import _amplitude, _complex, _scalar_product, fixed_order_matmul, fixed_order_power

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


def _kernel(m: PropagatorModel, mus: list[float]) -> tuple[complex, complex, list[complex], list[complex]]:
    """K[-][-] and K[+][+] of model m, and K[-][+] and K[+][-] with mu set to each of mus.

    Each entry is the one-step amplitude of histories.single_step_matrix
    (units weighted -V, the flips mu ± i delta), so with unit vertex factors a
    step matrix is the one-step path sum bit for bit.  Only the two flip
    entries depend on mu; they are written out as histories._amplitude
    evaluates them, with sqrt(p+ p-) taken once.
    """
    bias, tau, hbar, delta = (m.p_minus, m.p_plus), m.tau, m.hbar, m.delta  # qubit_bias, by index (-, +)
    # single_step_matrix adds each amplitude onto a zero entry, hence the 0j +
    k_pp = 0j + _amplitude(bias, 1, 1, complex(-m.v_plus, 0.0) * tau, hbar)
    k_mm = 0j + _amplitude(bias, 0, 0, complex(-m.v_minus, 0.0) * tau, hbar)
    root, exp = math.sqrt(bias[1] * bias[0]), cmath.exp
    k_mp = [0j + root * exp(1j * (complex(mu, delta) * tau) / hbar) for mu in mus]
    k_pm = [0j + root * exp(1j * (complex(mu, -delta) * tau) / hbar) for mu in mus]
    return k_mm, k_pp, k_mp, k_pm


def _vertex_times(g, k):
    """(re, im) of g * k as CPython forms a complex product: (gr kr - gi ki) + (gr ki + gi kr) i.

    g and k are Python complex numbers or complex arrays.  Every multiply and
    add is rounded on its own (a Python float operation or a float64 ufunc),
    so the bits do not depend on whether numpy's complex multiply fuses them.
    """
    return g.real * k.real - g.imag * k.imag, g.real * k.imag + g.imag * k.real


def _step_matrices(m: PropagatorModel, mus: list[float]) -> np.ndarray:
    """The (len(mus), 2, 2) step matrices of model m with mu set to each of mus.

    Entry by entry the vertex factor times the _kernel entry, as _vertex_times
    forms it: qubit_propagator's bits at every mu.
    """
    k_mm, k_pp, k_mp, k_pm = _kernel(m, mus)
    kernel = np.empty((len(mus), 2, 2), dtype=complex)
    kernel[:, 0, 0], kernel[:, 0, 1], kernel[:, 1, 0], kernel[:, 1, 1] = k_mm, k_mp, k_pm, k_pp
    return _complex(*_vertex_times(np.array(m.gammas, dtype=complex).reshape(2, 2), kernel))


def qubit_propagator(model: PropagatorModel) -> np.ndarray:
    """2x2 step matrix on the (-, +) basis; vertex factors scale each entry.

    With unit vertex factors this reproduces the one-step path sum bit for
    bit, because the kernel is computed through the same amplitude
    arithmetic.  One point is evaluated on Python floats, with the formulas
    and bits of _step_matrices; an entry that is not finite is evaluated
    again there, so an overflow meets numpy's floating-point error handling.
    """
    k_mm, k_pp, (k_mp,), (k_pm,) = _kernel(model, [model.mu])
    (re_mm, im_mm), (re_mp, im_mp), (re_pm, im_pm), (re_pp, im_pp) = map(
        _vertex_times, model.gammas, (k_mm, k_mp, k_pm, k_pp)
    )
    re, im = [[re_mm, re_mp], [re_pm, re_pp]], [[im_mm, im_mp], [im_pm, im_pp]]
    if not all(map(math.isfinite, (*re[0], *re[1], *im[0], *im[1]))):
        return _step_matrices(model, [model.mu])[0]
    return _complex(re, im)


def _residuals(u: np.ndarray) -> np.ndarray:
    """|U U* - 1| then |U* U - 1|, entries row by row, for a (..., 2, 2) stack: shape (..., 8).

    The products are those of histories.fixed_order_matmul, on Python floats
    for one matrix and on float64 arrays for a stack, with the same bits; the
    magnitudes are np.hypot, as abs() of a complex scalar.  So no residual
    depends on the BLAS build.  A point whose gaps are not finite is evaluated
    again as a stack, so an overflow meets numpy's floating-point error
    handling.
    """
    if u.ndim == 2:
        up = u.real.tolist(), u.imag.tolist()
        uh = [list(col) for col in zip(*up[0])], [[-x for x in col] for col in zip(*up[1])]
        re, im = [], []
        for pr, pi in (_scalar_product(up, uh), _scalar_product(uh, up)):
            for i in range(2):
                re += [x - (i == j) for j, x in enumerate(pr[i])]
                im += pi[i]
        if all(map(math.isfinite, re + im)):
            return np.hypot(re, im)
    uh = u.conj().swapaxes(-1, -2)
    gap = np.stack([fixed_order_matmul(u, uh), fixed_order_matmul(uh, u)], axis=-3) - np.eye(2)
    return np.hypot(gap.real, gap.imag).reshape(*u.shape[:-2], 8)


def _step_report(model: PropagatorModel, u: np.ndarray) -> UnitarityReport:
    """The report on model, whose step matrix is u."""
    r = tuple(_residuals(u).tolist())
    growth = math.exp(2.0 * model.delta * model.tau / model.hbar)
    pm = abs(model.gamma_pm)
    relation1_gap = abs(abs(model.gamma_mp) / pm - growth) if pm else math.inf
    relation2_gap = abs(abs(model.gamma_mm) * model.p_minus - abs(model.gamma_pp) * model.p_plus)
    v_bar = 0.5 * (model.v_plus + model.v_minus)
    theta = (model.mu + v_bar) * 2.0 * model.tau / model.hbar - (
        (model.sigma + model.lam) / model.hbar + math.pi
    )
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
    growth = math.exp(2.0 * delta * tau / hbar)
    s = 1.0 - gauge * gauge * p_plus * p_minus * growth
    g_pp = math.sqrt(max(s, 0.0)) / p_plus
    model = PropagatorModel(
        v_plus, v_minus, mu, delta, p_plus, tau, hbar,
        gamma_mm=g_pp * (p_plus / p_minus) * cmath.exp(1j * sigma / hbar),
        gamma_mp=gauge * growth * cmath.exp(-1j * lam / hbar),
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
    feasible_tol: float = FEASIBLE_TOL,
) -> GammaSolution:
    """Vertex factors making the step unitary, with the phases lam/sigma pinned.

    The gauge fixes G_pm = gauge (real, positive); G_mp then carries the
    delta growth factor and the lam phase, |G_pp| comes from the row-+
    normalization and G_mm follows from the sigma relation.  Feasibility is
    decided algebraically: it holds exactly when the radicand
    s = 1 - gauge^2 p+ p- exp(2 delta tau / hbar) is non-negative and the
    global phase constraint is met, checked as the candidate's unitarity
    residual being within feasible_tol.  min_residual is that candidate's
    joint residual; for s < 0 it equals |s|.  u is the candidate's step
    matrix, equal to qubit_propagator(model), and report is
    unitarity_residuals(model).
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    model, s = _pinned_model(v_plus, v_minus, mu, delta, p_plus, tau, hbar, lam, sigma, gauge)
    u = qubit_propagator(model)
    report = _step_report(model, u)
    feasible = s >= 0.0 and all(r <= feasible_tol for r in report.residuals)
    return GammaSolution(feasible, model, report, report.max_residual, u)


@dataclass(frozen=True, eq=False)
class QuantizationScan:
    """Outcome of quantization_scan: one candidate model and a read-only array per column.

    The pinned-gauge vertex factors do not depend on mu, so model (built at
    mu = 0) carries them once; the candidate at grid point i is
    dataclasses.replace(model, mu=mu[i]), which is solve_unitary_gammas'
    model there.  feasible_mask[i] and min_residual[i] are that solve's
    verdict and joint residual, bit for bit.  feasible is the verdict on the
    whole scan, one bool like GammaSolution.feasible: some grid point admits
    a unitary step.
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
    feasible_tol: float = FEASIBLE_TOL,
) -> QuantizationScan:
    """Solve for unitary vertex factors along a grid of mu*tau/hbar values.

    Each grid point gets the same algebraic decision as solve_unitary_gammas,
    but the mu-independent work (radicand, vertex factors, bias, diagonal
    kernel entries) is done once, the unitarity residuals of all points
    come from stacked matrix products, and no per-point object is built.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    xs = np.array(grid, dtype=float)  # a copy: the caller's grid stays writable
    mus = xs * hbar / tau
    model, s = _pinned_model(v_plus, v_minus, 0.0, delta, p_plus, tau, hbar, lam, sigma, gauge)
    worst = _residuals(_step_matrices(model, mus.tolist())).max(axis=-1)
    columns = (mus, xs, worst, np.logical_and(s >= 0.0, worst <= feasible_tol))
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


def uniform_free_matrix(gamma: complex, gamma_prime: complex, mu: float, tau: float, hbar: float) -> np.ndarray:
    """Unbiased step with no potentials: (1/2) [[G, G' e], [G' e, G]], e = exp(i mu tau / hbar)."""
    e = cmath.exp(1j * mu * tau / hbar)
    return 0.5 * np.array([[gamma, gamma_prime * e], [gamma_prime * e, gamma]], dtype=complex)


def uniform_free_spectrum(
    gamma: complex, gamma_prime: complex, mu: float, tau: float, hbar: float
) -> tuple[complex, complex]:
    """Eigenvalues (1/2)(G ± G' exp(i mu tau / hbar)) of the unbiased free step."""
    e = cmath.exp(1j * mu * tau / hbar)
    return (0.5 * (gamma + gamma_prime * e), 0.5 * (gamma - gamma_prime * e))


def power_propagator(u: np.ndarray, n: int) -> np.ndarray:
    """U^n by repeated squaring in a fixed order (histories.fixed_order_power); n = 0 gives the identity."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"power must be a non-negative integer, got {n!r}")
    return fixed_order_power(u, n)


def evolve_state(u: np.ndarray, state: StateVector, n: int) -> StateVector:
    """Apply n propagation steps to a pure state, in the fixed product order of power_propagator."""
    if state.norm() == 0.0:
        raise ValueError("state must have nonzero norm")
    moved = fixed_order_matmul(power_propagator(u, n), state.as_array()[:, None])[:, 0]
    return StateVector(tuple(moved))
