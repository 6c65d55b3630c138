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

from .groupoid import OUT_MINUS, OUT_PLUS, build_a2
from .lagrangian import qubit_bias, qubit_lagrangian
from .algebra import StateVector
from .histories import _amplitude, fixed_order_matmul, fixed_order_power, single_step_matrix

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


def qubit_propagator(model: PropagatorModel) -> np.ndarray:
    """2x2 step matrix on the (-, +) basis; vertex factors scale each entry.

    With unit vertex factors this reproduces the one-step path sum bit for
    bit, because the kernel is computed through the same amplitude
    arithmetic.
    """
    g = build_a2()
    ell = qubit_lagrangian(model.v_plus, model.v_minus, model.mu, model.delta)
    bias = qubit_bias(model.p_plus)
    kernel = single_step_matrix(g, ell, bias, model.tau, model.hbar)
    gamma = np.array(
        [[model.gamma_mm, model.gamma_mp], [model.gamma_pm, model.gamma_pp]], dtype=complex
    )
    return gamma * kernel


def _mod_2pi_distance(theta: float) -> float:
    return abs(math.remainder(theta, TWO_PI))


def unitarity_residuals(model: PropagatorModel) -> UnitarityReport:
    """Evaluate all eight unitarity equations and the derived gap quantities."""
    u = qubit_propagator(model)
    eye = np.eye(2)
    left = u @ u.conj().T - eye
    right = u.conj().T @ u - eye
    residuals = (
        abs(left[0, 0]),
        abs(left[0, 1]),
        abs(left[1, 0]),
        abs(left[1, 1]),
        abs(right[0, 0]),
        abs(right[0, 1]),
        abs(right[1, 0]),
        abs(right[1, 1]),
    )
    growth = math.exp(2.0 * model.delta * model.tau / model.hbar)
    if abs(model.gamma_pm) == 0.0:
        relation1_gap = math.inf
    else:
        relation1_gap = abs(abs(model.gamma_mp) / abs(model.gamma_pm) - growth)
    relation2_gap = abs(abs(model.gamma_mm) * model.p_minus - abs(model.gamma_pp) * model.p_plus)
    v_bar = 0.5 * (model.v_plus + model.v_minus)
    theta = (model.mu + v_bar) * 2.0 * model.tau / model.hbar - (
        (model.sigma + model.lam) / model.hbar + math.pi
    )
    return UnitarityReport(
        residuals=tuple(float(r) for r in residuals),
        max_residual=float(max(residuals)),
        relation1_gap=float(relation1_gap),
        relation2_gap=float(relation2_gap),
        global_phase_gap=_mod_2pi_distance(theta),
        frobenius_left=float(np.linalg.norm(left, "fro")),
        frobenius_right=float(np.linalg.norm(right, "fro")),
    )


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


def _solve_grid(
    v_plus: float,
    v_minus: float,
    mus: list[float],
    delta: float,
    p_plus: float,
    tau: float,
    hbar: float,
    lam: float,
    sigma: float,
    gauge: float,
    feasible_tol: float,
) -> tuple[list[PropagatorModel], np.ndarray, list[bool], list[float]]:
    """The pinned-gauge candidate at each mu, its step matrix and the algebraic verdict on it.

    The candidate meets the structural relations exactly, and the only
    freedom they leave, the sign of the real G_pp, changes neither
    orthogonality nor the phase gap, so no search can do better.  With s < 0
    it takes G_pp = G_mm = 0, whose residual is |s|.  Only the two flip
    entries of the kernel depend on mu; each goes through the amplitude
    arithmetic of single_step_matrix, so u[k] equals qubit_propagator of the
    k-th model bit for bit.  Returns the models, the (len(mus), 2, 2) step
    matrices, the verdicts and each candidate's largest unitarity residual.
    """
    p_minus = 1.0 - p_plus
    growth = math.exp(2.0 * delta * tau / hbar)
    s = 1.0 - gauge * gauge * p_plus * p_minus * growth
    g_pp = math.sqrt(max(s, 0.0)) / p_plus
    fixed = dict(
        v_plus=v_plus,
        v_minus=v_minus,
        delta=delta,
        p_plus=p_plus,
        tau=tau,
        hbar=hbar,
        gamma_mm=g_pp * (p_plus / p_minus) * cmath.exp(1j * sigma / hbar),
        gamma_mp=gauge * growth * cmath.exp(-1j * lam / hbar),
        gamma_pm=complex(gauge, 0.0),
        gamma_pp=complex(g_pp, 0.0),
        lam=lam,
        sigma=sigma,
    )
    bias = qubit_bias(p_plus)
    # single_step_matrix adds each amplitude onto a zero entry, hence the 0j +
    kernel = np.empty((len(mus), 2, 2), dtype=complex)
    kernel[:, 1, 1] = 0j + _amplitude(bias, OUT_PLUS, OUT_PLUS, complex(-v_plus, 0.0) * tau, hbar)
    kernel[:, 0, 0] = 0j + _amplitude(bias, OUT_MINUS, OUT_MINUS, complex(-v_minus, 0.0) * tau, hbar)
    for k, mu in enumerate(mus):
        kernel[k, 0, 1] = 0j + _amplitude(bias, OUT_PLUS, OUT_MINUS, complex(mu, delta) * tau, hbar)
        kernel[k, 1, 0] = 0j + _amplitude(bias, OUT_MINUS, OUT_PLUS, complex(mu, -delta) * tau, hbar)
    gamma = np.array([[fixed["gamma_mm"], fixed["gamma_mp"]], [fixed["gamma_pm"], fixed["gamma_pp"]]])
    u = gamma * kernel
    uh = u.conj().swapaxes(-1, -2)
    gap = np.stack([u @ uh, uh @ u]) - np.eye(2)
    # np.hypot, like abs() of a complex scalar; np.abs may round differently
    worst = np.hypot(gap.real, gap.imag).max(axis=(0, 2, 3)).tolist()
    feasible = [s >= 0.0 and r <= feasible_tol for r in worst]
    template = vars(PropagatorModel(mu=0.0, **fixed))  # validated once; the points differ only in mu
    models = [object.__new__(PropagatorModel) for _ in mus]
    for model, mu in zip(models, mus):
        model.__dict__.update(template, mu=mu)
    return models, u, feasible, worst


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
    matrix, equal to qubit_propagator(model).  The report's Frobenius norms
    read inf when an infeasible candidate's products pass the float range.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    models, u, feasible, worst = _solve_grid(
        v_plus, v_minus, [mu], delta, p_plus, tau, hbar, lam, sigma, gauge, feasible_tol
    )
    with np.errstate(over="ignore"):  # only an infeasible candidate's norms can pass the float range
        report = unitarity_residuals(models[0])
    return GammaSolution(feasible[0], models[0], report, worst[0], u[0])


@dataclass(frozen=True)
class ScanPoint:
    mu: float
    mu_tau_over_hbar: float
    feasible: bool
    min_residual: float
    model: PropagatorModel


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
) -> list[ScanPoint]:
    """Solve for unitary vertex factors along a grid of mu*tau/hbar values.

    Each grid point gets the same algebraic decision as solve_unitary_gammas,
    but the mu-independent work (radicand, vertex factors, bias, diagonal
    kernel entries) is done once and the unitarity residuals of all points
    come from stacked matrix products.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    xs = np.asarray(grid, dtype=float)
    mus = [x * hbar / tau for x in xs]
    models, _, feasible, worst = _solve_grid(
        v_plus, v_minus, mus, delta, p_plus, tau, hbar, lam, sigma, gauge, feasible_tol
    )
    return [ScanPoint(*row) for row in zip(mus, xs.tolist(), feasible, worst, models)]


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
    psi = state.as_array()
    if float(np.linalg.norm(psi)) == 0.0:
        raise ValueError("state must have nonzero norm")
    moved = fixed_order_matmul(power_propagator(u, n), psi[:, None])[:, 0]
    return StateVector(tuple(moved))
