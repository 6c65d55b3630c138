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
from dataclasses import dataclass

import numpy as np

from .groupoid import build_a2
from .lagrangian import qubit_bias, qubit_lagrangian
from .algebra import StateVector
from .histories import single_step_matrix

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
    """Outcome of solve_unitary_gammas; model carries the pinned-gauge candidate."""

    feasible: bool
    model: PropagatorModel
    report: UnitarityReport
    min_residual: float


def _check_solve_args(p_plus: float, tau: float, hbar: float, gauge: float) -> None:
    if not 0.0 < p_plus <= 0.5:
        raise ValueError(f"solving requires p_plus in (0, 1/2], got {p_plus}")
    if not gauge > 0:
        raise ValueError(f"gauge must be positive, got {gauge}")
    if not (tau > 0 and hbar > 0):
        raise ValueError("tau and hbar must be positive")


def _pinned_solution(
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
    feasible_tol: float,
) -> GammaSolution:
    """The pinned-gauge candidate and the algebraic verdict on it.

    The candidate meets the structural relations exactly, and the only
    freedom they leave, the sign of the real G_pp, changes neither
    orthogonality nor the phase gap, so no search can do better.  With s < 0
    it takes G_pp = G_mm = 0, whose residual is |s|.
    """
    p_minus = 1.0 - p_plus
    growth = math.exp(2.0 * delta * tau / hbar)
    s = 1.0 - gauge * gauge * p_plus * p_minus * growth
    g_pp = math.sqrt(max(s, 0.0)) / p_plus
    model = PropagatorModel(
        v_plus=v_plus,
        v_minus=v_minus,
        mu=mu,
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
    report = unitarity_residuals(model)
    feasible = s >= 0.0 and report.max_residual <= feasible_tol
    return GammaSolution(feasible, model, report, report.max_residual)


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
    joint residual; for s < 0 it equals |s|.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    return _pinned_solution(v_plus, v_minus, mu, delta, p_plus, tau, hbar, lam, sigma, gauge, feasible_tol)


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

    Each grid point gets the same algebraic decision as solve_unitary_gammas.
    """
    _check_solve_args(p_plus, tau, hbar, gauge)
    points = []
    for x in np.asarray(grid, dtype=float):
        mu = x * hbar / tau
        sol = _pinned_solution(v_plus, v_minus, mu, delta, p_plus, tau, hbar, lam, sigma, gauge, feasible_tol)
        points.append(ScanPoint(mu, float(x), sol.feasible, sol.min_residual, sol.model))
    return points


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
    """U^n by repeated squaring; n = 0 gives the identity."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"power must be a non-negative integer, got {n!r}")
    return np.linalg.matrix_power(np.asarray(u, dtype=complex), n)


def evolve_state(u: np.ndarray, state: StateVector, n: int) -> StateVector:
    """Apply n propagation steps to a pure state."""
    psi = state.as_array()
    if float(np.linalg.norm(psi)) == 0.0:
        raise ValueError("state must have nonzero norm")
    moved = power_propagator(u, n) @ psi
    return StateVector(tuple(moved))
