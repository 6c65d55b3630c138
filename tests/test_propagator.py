import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupoidqm import propagator
from groupoidqm.algebra import StateVector
from groupoidqm.histories import (
    _complex,
    _not_finite,
    _scalar_product,
    fixed_order_matmul,
    fixed_order_power,
)
from groupoidqm.propagator import (
    PropagatorModel,
    SignCase,
    _residuals,
    _scan_step,
    _unitarity_gaps,
    evolve_state,
    quantization_scan,
    qubit_propagator,
    sign_case_matrix,
    solve_unitary_gammas,
    special_case_spectrum,
    unitarity_residuals,
)

SQRT2 = math.sqrt(2.0)


def sqrt2_model():
    return PropagatorModel(
        v_plus=0.0, v_minus=0.0, mu=math.pi / 2, delta=0.0, p_plus=0.5,
        tau=1.0, hbar=1.0,
        gamma_mm=SQRT2, gamma_mp=SQRT2, gamma_pm=SQRT2, gamma_pp=SQRT2,
    )


def test_entry_formulas():
    m = PropagatorModel(
        v_plus=0.7, v_minus=-0.4, mu=1.1, delta=0.3, p_plus=0.2,
        tau=0.9, hbar=1.3,
        gamma_mm=1 + 2j, gamma_mp=0.5j, gamma_pm=2.0, gamma_pp=-1.0,
    )
    u = qubit_propagator(m)
    p_plus, p_minus = 0.2, 0.8
    root = math.sqrt(p_plus * p_minus)
    t = 0.9 / 1.3
    assert u[0, 0] == pytest.approx((1 + 2j) * p_minus * cmath.exp(-1j * t * -0.4))
    assert u[0, 1] == pytest.approx(0.5j * root * cmath.exp(t * (-0.3 + 1.1j)))
    assert u[1, 0] == pytest.approx(2.0 * root * cmath.exp(t * (0.3 + 1.1j)))
    assert u[1, 1] == pytest.approx(-1.0 * p_plus * cmath.exp(-1j * t * 0.7))


def test_all_unit_gammas_flat_matrix():
    m = PropagatorModel(v_plus=0.0, v_minus=0.0, mu=0.0, delta=0.0, p_plus=0.5, tau=1.0, hbar=1.0)
    assert np.allclose(qubit_propagator(m), 0.5 * np.ones((2, 2)), atol=1e-16)
    report = unitarity_residuals(m)
    assert report.frobenius_left == pytest.approx(1.0, abs=1e-12)
    assert report.frobenius_right == pytest.approx(1.0, abs=1e-12)


def test_worked_sqrt2_instance():
    m = sqrt2_model()
    u = qubit_propagator(m)
    want = (1 / SQRT2) * np.array([[1, 1j], [1j, 1]])
    assert np.allclose(u, want, atol=1e-15)
    report = unitarity_residuals(m)
    assert report.max_residual <= 1e-12
    assert report.relation1_gap == 0.0
    assert report.relation2_gap == 0.0
    assert report.global_phase_gap <= 1e-15
    assert np.allclose(u @ u, np.array([[0, 1j], [1j, 0]]), atol=1e-15)


def test_model_validation():
    with pytest.raises(ValueError):
        PropagatorModel(0, 0, 0, 0, p_plus=0.6, tau=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        PropagatorModel(0, 0, 0, 0, p_plus=0.5, tau=0.0, hbar=1.0)
    with pytest.raises(ValueError):
        PropagatorModel(0, 0, 0, 0, p_plus=0.5, tau=1.0, hbar=-2.0)


def test_phases_derived_from_gammas():
    m = PropagatorModel(
        0, 0, 0, 0, p_plus=0.4, tau=1.0, hbar=2.0,
        gamma_mm=2.0 * cmath.exp(0.35j), gamma_mp=cmath.exp(-0.2j),
        gamma_pm=1.0, gamma_pp=2.0,
    )
    assert m.lam == pytest.approx(2.0 * 0.2)
    assert m.sigma == pytest.approx(2.0 * 0.35)


def test_solve_feasible_sqrt2():
    sol = solve_unitary_gammas(
        0.0, 0.0, math.pi / 2, 0.0, 0.5, 1.0, 1.0, lam=0.0, sigma=0.0, gauge=SQRT2
    )
    assert sol.feasible
    assert sol.min_residual <= 1e-12
    for gamma in sol.model.gammas:
        assert gamma == pytest.approx(SQRT2, abs=1e-12)


def test_solve_infeasible_quarter_pi():
    sol = solve_unitary_gammas(
        0.0, 0.0, math.pi / 4, 0.0, 0.5, 1.0, 1.0, lam=0.0, sigma=0.0, gauge=SQRT2
    )
    assert not sol.feasible
    assert sol.min_residual > 1e-2


def test_solve_infeasible_radicand():
    # gauge too large: |G_pp|^2 would have to be negative
    sol = solve_unitary_gammas(
        0.0, 0.0, math.pi / 2, 0.0, 0.5, 1.0, 1.0, lam=0.0, sigma=0.0, gauge=10.0
    )
    assert not sol.feasible
    assert sol.min_residual > 1e-3


def test_solve_relation_gaps_with_drift():
    # delta != 0: |G_mp| / |G_pm| must equal the drift factor exactly
    delta_ = 0.2
    p = 0.3
    tau, hbar = 1.0, 1.0
    mu = 0.5 * math.pi  # phase constraint: 2 mu = pi (V = 0, lam = sigma = 0)
    gauge = 0.8 / math.sqrt(p * (1 - p) * math.exp(2 * delta_ * tau / hbar))
    sol = solve_unitary_gammas(0.0, 0.0, mu, delta_, p, tau, hbar, lam=0.0, sigma=0.0, gauge=gauge)
    assert sol.feasible
    assert sol.report.relation1_gap <= 1e-12
    assert sol.report.relation2_gap <= 1e-12
    assert abs(sol.model.gamma_mp) / abs(sol.model.gamma_pm) == pytest.approx(
        math.exp(2 * delta_ * tau / hbar), abs=1e-12
    )


def test_solve_random_phases_feasible():
    rng = np.random.default_rng(42)
    for _ in range(10):
        lam = float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0.5, 2.0))
        hbar = float(rng.uniform(0.5, 2.0))
        v_plus = float(rng.uniform(-1, 1))
        v_minus = float(rng.uniform(-1, 1))
        delta_ = float(rng.uniform(-0.2, 0.2))
        p = float(rng.uniform(0.1, 0.5))
        v_bar = 0.5 * (v_plus + v_minus)
        mu = (hbar / (2 * tau)) * ((sigma + lam) / hbar + math.pi) - v_bar
        gauge = 0.8 / math.sqrt(p * (1 - p) * math.exp(2 * delta_ * tau / hbar))
        sol = solve_unitary_gammas(
            v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge
        )
        assert sol.feasible
        assert sol.report.max_residual <= 1e-10
        assert sol.report.relation1_gap <= 1e-12
        assert sol.report.relation2_gap <= 1e-12
        assert sol.report.global_phase_gap <= 1e-10


def test_solve_rejects_degenerate_bias():
    with pytest.raises(ValueError):
        solve_unitary_gammas(0, 0, 1.0, 0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_unitary_gammas(0, 0, 1.0, 0, 0.5, 1.0, 1.0, gauge=0.0)


def scan_models(scan):
    """The candidate model at each grid point of a quantization scan."""
    return [dataclasses.replace(scan.model, mu=mu) for mu in scan.mu.tolist()]


def scan_steps(scan):
    """The scan's own step matrices, (P, 2, 2), put together from the parts _scan_step gives the scan."""
    re, im = _scan_step(scan.model, scan.mu)
    us = np.empty((scan.mu.size, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            us[:, i, j].real, us[:, i, j].imag = re[i][j], im[i][j]
    return us


def test_quantization_scan_small_grid():
    grid = np.linspace(0.0, 2 * math.pi, 9)
    scan = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, SQRT2, grid)
    feas = np.flatnonzero(scan.feasible_mask).tolist()
    assert feas == [2, 6]  # pi/2 and 3 pi/2
    assert all(r > 1e-3 for i, r in enumerate(scan.min_residual.tolist()) if i not in feas)
    assert scan.mu[2] == pytest.approx(math.pi / 2)
    assert scan.mu_tau_over_hbar.tobytes() == grid.tobytes()


def test_scan_verdict_is_one_bool_over_the_grid():
    grid = np.linspace(0.0, 2 * math.pi, 9)
    on = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, SQRT2, grid)
    off = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, SQRT2, grid[[1, 3, 5]])
    assert on.feasible is True and off.feasible is False
    assert bool(on.feasible) == bool(on.feasible_mask.any())


def test_quantization_scan_parity_shift():
    grid = np.linspace(0.0, 2 * math.pi, 9)
    scan = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, math.pi, SQRT2, grid)
    feas = np.flatnonzero(scan.feasible_mask).tolist()
    assert feas == [0, 4, 8]  # 0, pi, 2 pi


def _seeded_scan_params(seed):
    """Random model with a chosen radicand sign and grid points on every phase root."""
    rng = np.random.default_rng(seed)
    delta_ = float(rng.uniform(-0.3, 0.3))
    p = float(rng.uniform(0.1, 0.5))
    tau = float(rng.uniform(0.5, 2.0))
    hbar = float(rng.uniform(0.5, 2.0))
    lam = float(rng.uniform(-2.0, 2.0))
    sigma = float(rng.uniform(-2.0, 2.0))
    v_plus = float(rng.uniform(-1.0, 1.0))
    v_minus = float(rng.uniform(-1.0, 1.0))
    s = float(rng.uniform(0.05, 0.95)) if seed % 2 else float(rng.uniform(-1.5, -0.01))
    gauge = math.sqrt((1.0 - s) / (p * (1.0 - p) * math.exp(2.0 * delta_ * tau / hbar)))
    # mu tau / hbar roots of the phase constraint, spaced by pi
    root = 0.5 * ((sigma + lam) / hbar + math.pi) - 0.5 * tau * (v_plus + v_minus) / hbar
    roots = [math.remainder(root, math.pi) + k * math.pi for k in range(-1, 5)]
    grid = np.sort(np.concatenate([np.linspace(-math.pi, 4.0 * math.pi, 41), roots]))
    args = (v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, grid)
    return args, 1.0 - gauge * gauge * p * (1.0 - p) * math.exp(2.0 * delta_ * tau / hbar)


def test_scan_feasible_iff_radicand_and_phase_gap():
    n_feasible = 0
    for seed in range(20):
        args, radicand = _seeded_scan_params(seed)
        scan = quantization_scan(*args)
        for model, feasible in zip(scan_models(scan), scan.feasible_mask.tolist()):
            gap = unitarity_residuals(model).global_phase_gap
            assert feasible == (radicand >= 0.0 and gap <= 1e-10)
            n_feasible += feasible
    assert n_feasible >= 50  # the positive-radicand half has on-grid roots


def test_negative_radicand_residual_is_its_magnitude():
    for seed in range(0, 20, 2):
        args, radicand = _seeded_scan_params(seed)
        assert radicand < 0.0
        scan = quantization_scan(*args)
        assert scan.feasible is False and not scan.feasible_mask.any()
        v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, _ = args
        for mu, min_residual, model in zip(scan.mu.tolist(), scan.min_residual.tolist(), scan_models(scan)):
            assert min_residual == pytest.approx(-radicand, abs=1e-12)
            sol = solve_unitary_gammas(
                v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge
            )
            assert sol.min_residual == min_residual
            assert sol.model == model


def test_scan_matches_single_solves_bit_for_bit():
    n_feasible = 0
    for seed in range(1, 40, 2):
        args, radicand = _seeded_scan_params(seed)
        assert radicand > 0.0
        v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, _ = args
        scan = quantization_scan(*args)
        us = scan_steps(scan)
        for i, mu in enumerate(scan.mu.tolist()):
            sol = solve_unitary_gammas(
                v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge
            )
            assert type(sol.feasible) is bool and sol.feasible == scan.feasible_mask[i]
            assert repr(scan.min_residual[i].item()) == repr(sol.min_residual) == repr(sol.report.max_residual)
            assert dataclasses.replace(scan.model, mu=scan.mu[i]) == sol.model
            assert sol.u.tobytes() == us[i].tobytes() == qubit_propagator(sol.model).tobytes()
            n_feasible += sol.feasible
    assert n_feasible >= 50


def python_step(m, mu):
    """The step matrix of model m at mu over Python floats, entry by entry from the module docstring.

    K[b][a] = sqrt(p_a p_b) exp(i ell tau / hbar), ell being -V on the units and
    mu ± i delta on the flips, added onto zero as in the one-step path sum; then
    G * K as CPython forms a complex product, written out in float operations so
    that nothing fuses.
    """
    p = (1.0 - m.p_plus, m.p_plus)  # (-, +)
    ell = ((complex(-m.v_minus, 0.0), complex(mu, m.delta)), (complex(mu, -m.delta), complex(-m.v_plus, 0.0)))
    gammas = ((m.gamma_mm, m.gamma_mp), (m.gamma_pm, m.gamma_pp))
    rows = []
    for b in range(2):
        row = []
        for a in range(2):
            k = 0j + math.sqrt(p[a] * p[b]) * cmath.exp(1j * (ell[b][a] * m.tau) / m.hbar)
            g = gammas[b][a]
            row.append(complex(g.real * k.real - g.imag * k.imag, g.real * k.imag + g.imag * k.real))
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", [1, 2, 7, 8])
def test_step_matrix_is_the_python_formula_bit_for_bit(seed):
    # solve-mode vertex factors are complex, so every entry's product has four nonzero terms
    args, _ = _seeded_scan_params(seed)
    v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, _ = args
    scan = quantization_scan(*args)
    for mu, u in zip(scan.mu.tolist(), scan_steps(scan)):
        want = repr(python_step(scan.model, mu))
        assert repr(u.tolist()) == want
        sol = solve_unitary_gammas(v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge)
        assert repr(sol.u.tolist()) == repr(qubit_propagator(sol.model).tolist()) == want
    m = PropagatorModel(v_plus, v_minus, 0.4, delta_, p, tau, hbar, 1 - 2j, -0.5 + 0.25j, 3j - 0.1, 0.25 - 1.5j)
    assert repr(qubit_propagator(m).tolist()) == repr(python_step(m, 0.4))


def test_scan_step_keeps_the_signs_of_underflowed_flips():
    # K[+][-] = 0j + root exp(-700 + i y) underflows to signed zeros, which the 0j + makes +0.0
    # in the solve and so in the scan; K[-][+] ~ exp(700) meets G_mp = 0
    grid = np.array([2.5, -2.5, 4.0, -4.0])  # each sign of cos and sin
    scan = quantization_scan(0.0, 0.0, -700.0, 1e-308, 1.0, 1.0, 0.0, 0.0, 1.0, grid)
    for model, u in zip(scan_models(scan), scan_steps(scan)):
        assert repr(u.tolist()) == repr(qubit_propagator(model).tolist())


@pytest.mark.parametrize("errstate", ["ignore", "raise"])
def test_point_results_that_overflow_are_overflow_errors(errstate):
    # the entry or |U|^2 passes the float range: one OverflowError naming the first such entry,
    # whatever numpy's error handling says
    m = PropagatorModel(0.0, 0.0, 0.3, 0.0, 0.5, 1.0, 1.0, gamma_mm=complex(1e200, 1e200))
    big_flip = PropagatorModel(0.0, 0.0, 0.3, -400.0, 0.5, 1.0, 1.0, gamma_mp=1e200)  # G_mp exp(400) overflows
    with np.errstate(all=errstate):
        u = qubit_propagator(m)  # finite: only |U|^2 overflows
        with pytest.raises(OverflowError, match=r"^unitarity gap \[0\] = \(inf[+-]nanj\) is not finite$"):
            unitarity_residuals(m)
        with pytest.raises(OverflowError, match=r"^unitarity gap \[0\] = "):
            _residuals(u.real.tolist(), u.imag.tolist())
        with pytest.raises(OverflowError, match=r"^step matrix entry \[0, 1\] = \(-?inf[+-]-?\w+j\) is not finite$"):
            qubit_propagator(big_flip)


@pytest.mark.parametrize("errstate", ["ignore", "raise"])
def test_scan_results_that_overflow_are_overflow_errors(errstate):
    # the first grid point, flip exponent or residual that is not finite, with its index,
    # whatever numpy's error handling says
    cases = [
        ((0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, [0.0, 1.0, np.inf, np.nan]),
         r"^grid point \[2\] = inf is not finite$"),
        ((0.0, 0.0, 0.0, 0.5, 1.0, 10.0, 0.0, 0.0, 1.0, [0.0, 1e307, 1e308]),  # mu = x hbar / tau overflows
         r"^exponent \[0, 2\] = \(-?0\+infj\) is not finite$"),
        ((0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1e200, [0.0, 1.0]),  # |U|^2 overflows
         r"^min_residual \[0\] = inf is not finite$"),
        ((0.0, 0.0, 400.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, [0.0, 1.0]),
         r"^exp of exponent 800.0 overflows$"),
    ]
    with np.errstate(all=errstate):
        for args, message in cases:
            with pytest.raises(OverflowError, match=message):
                quantization_scan(*args)


@pytest.mark.parametrize("errstate", ["ignore", "raise"])
def test_exponentials_that_overflow_name_their_exponent(errstate):
    with np.errstate(all=errstate):
        with pytest.raises(OverflowError, match=r"^exp of exponent 800.0 overflows$"):
            solve_unitary_gammas(0.0, 0.0, 0.3, 400.0, 0.5, 1.0, 1.0)
        with pytest.raises(OverflowError, match=r"^exp of exponent 800.0 overflows$"):
            unitarity_residuals(PropagatorModel(0.0, 0.0, 0.3, 400.0, 0.0, 1.0, 1.0))  # p+ = 0: the step is finite
        with pytest.raises(OverflowError, match=r"^exp of exponent \(1e\+300\+0.3j\) overflows$"):
            qubit_propagator(PropagatorModel(0.0, 0.0, 0.3, 1e300, 0.5, 1.0, 1.0))


def python_residuals(u):
    """|U U* - 1| then |U* U - 1| over Python complex numbers, each entry's terms summed left to right."""
    uh = [[u[j][i].conjugate() for j in range(2)] for i in range(2)]
    return [abs(a[i][0] * b[0][j] + a[i][1] * b[1][j] - (i == j))
            for a, b in ((u, uh), (uh, u)) for i in range(2) for j in range(2)]


@pytest.mark.parametrize("seed", [1, 2, 7, 8])
def test_residuals_follow_the_fixed_order_bit_for_bit(seed):
    # Python float operations never fuse, so these bits are the same on every machine
    args, _ = _seeded_scan_params(seed)
    v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, _ = args
    scan = quantization_scan(*args)
    models = scan_models(scan)
    models.append(PropagatorModel(v_plus, v_minus, 0.4, delta_, p, tau, hbar, 1 - 2j, -0.5, 3j, 0.25))
    models.append(PropagatorModel(v_plus, v_minus, 0.4, delta_, 1e-160, tau, hbar))  # terms through + fall to subnormals
    us = np.stack([qubit_propagator(m) for m in models])
    assert fixed_order_matmul(us, us.conj()).tobytes() == b"".join(
        fixed_order_matmul(u, u.conj()).tobytes() for u in us
    )
    a, d, x, y, b, e, v, w = _unitarity_gaps(us.real.transpose(1, 2, 0), us.imag.transpose(1, 2, 0))  # a column per model
    left, right = np.hypot(x, y), np.hypot(v, w)  # [0][1] and [1][0]; the diagonal gaps are real
    rows = np.stack([np.abs(a), left, left, np.abs(d), np.abs(b), right, right, np.abs(e)], axis=1)
    for m, u, row in zip(models, us, rows):
        report = unitarity_residuals(m)
        assert repr(list(report.residuals)) == repr(row.tolist()) == repr(python_residuals(u.tolist()))
    for mu in scan.mu.tolist():
        sol = solve_unitary_gammas(v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge)
        assert sol.report == unitarity_residuals(sol.model)


def _all_gaps(re, im):
    """(re, im) of all eight entries of U U* - 1, then of U* U - 1, row by row: both products in full.

    The former _unitarity_gaps, kept as the oracle of the independent parts.
    """
    u = re, im
    uh = [[re[0][0], re[1][0]], [re[0][1], re[1][1]]], [[-im[0][0], -im[1][0]], [-im[0][1], -im[1][1]]]
    gap_re, gap_im = [], []
    for pr, pi in (_scalar_product(u, uh), _scalar_product(uh, u)):
        gap_re += [pr[0][0] - 1.0, pr[0][1], pr[1][0], pr[1][1] - 1.0]
        gap_im += [*pi[0], *pi[1]]
    return gap_re, gap_im


def _nan_bits(x) -> bytes:
    """The bytes of x as float64, every nan made the one default nan."""
    a = np.array(x, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


_U_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-154, -1e-154, 1e154, -1e154]),
    st.floats(1.5e154, 1e308), st.floats(-1e308, -1.5e154),  # their squares overflow
    st.floats(-4.0, 4.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
# (re, im) of one U: every part ordinary, so that any one gap can be the largest, or each part from _U_PART
_U = st.one_of(st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8), st.lists(_U_PART, min_size=8, max_size=8)).map(
    lambda v: ([v[0:2], v[2:4]], [v[4:6], v[6:8]])
)


_A, _B = math.sqrt(0.3), math.sqrt(0.7)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(us=st.lists(_U, min_size=1, max_size=6))
# the largest gap off the diagonal of U* U, then of U U*: [[a, ia], [b, ib]] and its transpose
@example(us=[([[_A, 0.0], [_B, 0.0]], [[0.0, _A], [0.0, _B]]), ([[_A, _B], [0.0, 0.0]], [[0.0, 0.0], [_A, _B]])])
def test_the_independent_gaps_decide_all_eight(us):
    # each U on Python floats; then one float64 column per entry (a column position per U), and
    # the scan's layout: the diagonal on Python floats (the first U's), the flips as columns
    columns = tuple(np.array([u[part] for u in us]).transpose(1, 2, 0) for part in (0, 1))
    mixed = tuple(
        [[first[0][0], column[0][1]], [column[1][0], first[1][1]]] for first, column in zip(us[0], columns)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for re, im in [*us, columns, mixed]:
            full_re, full_im = _all_gaps(re, im)
            independent = [full_re[0], full_re[3], full_re[1], full_im[1], full_re[4], full_re[7], full_re[5], full_im[5]]
            assert _nan_bits(_unitarity_gaps(re, im)) == _nan_bits(independent)
            for k in (1, 5):  # [0][1] of each product: [1][0] is its conjugate
                assert _nan_bits(full_re[k + 1]) == _nan_bits(full_re[k])
                # the imaginary parts may differ in the sign of a zero: -(a - b) is -0.0 where b - a is +0.0
                assert np.array_equal(full_im[k + 1], np.negative(full_im[k]), equal_nan=True)
            for k in (0, 3, 4, 7):  # the diagonal is real where its imaginary part is finite
                d_re, d_im = np.asarray(full_re[k]), np.asarray(full_im[k])
                finite = np.isfinite(d_im)
                assert _nan_bits(d_im[finite]) == _nan_bits(np.zeros(finite.sum()))
                assert not np.isfinite(d_re[~finite]).any()

    # the single-point magnitudes, or the same message naming the same complex value
    for re, im in us:
        full_re, full_im = _all_gaps(re, im)
        if all(map(math.isfinite, full_re + full_im)):
            assert np.array(_residuals(re, im)).tobytes() == np.hypot(full_re, full_im).tobytes()
        else:
            message = str(_not_finite("unitarity gap", _complex(full_re, full_im)))
            with pytest.raises(OverflowError) as caught:
                _residuals(re, im)
            assert str(caught.value) == message

    # the scan's min_residual, or the same message naming the same grid point
    for step in (columns, mixed):
        with np.errstate(over="ignore", invalid="ignore"):
            full_re, full_im = _all_gaps(*step)
            worst = np.hypot(full_re[0], full_im[0])
            for re, im in zip(full_re[1:], full_im[1:]):
                worst = np.maximum(worst, np.hypot(re, im))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagator, "_scan_step", lambda model, mus: step)
            if np.isfinite(worst).all():
                scan = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, np.zeros(len(us)))
                assert scan.min_residual.tobytes() == worst.tobytes()
            else:
                with pytest.raises(OverflowError) as caught:
                    quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, np.zeros(len(us)))
                assert str(caught.value) == str(_not_finite("min_residual", worst))


def test_scan_of_an_empty_grid_is_empty():
    scan = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, SQRT2, np.zeros(0))
    columns = (scan.mu, scan.mu_tau_over_hbar, scan.min_residual, scan.feasible_mask)
    assert [c.shape for c in columns] == [(0,)] * 4
    assert scan.feasible_mask.dtype == bool and scan.feasible is False


def test_scan_result_is_read_only_and_leaves_the_grid_alone():
    grid = np.linspace(0.0, 1.0, 5)
    scan = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, SQRT2, grid)
    for column in (scan.mu, scan.mu_tau_over_hbar, scan.min_residual, scan.feasible_mask):
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scan.mu = grid
    grid[0] = 7.0  # the scan holds its own copy
    assert scan.mu_tau_over_hbar[0] == 0.0


def test_scan_retains_bounded_memory_per_point():
    grid = np.linspace(0.0, 2 * math.pi, 20000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scan = quantization_scan(0.0, 0.0, 0.1, 0.4, 1.0, 1.0, 0.3, -0.2, 1.5, grid)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert scan.mu.size == 20000
    assert retained < 100 * 20000, f"{retained / 20000:.0f} B per point"


def test_scan_peak_memory_per_point_is_bounded():
    # columns of the grid's length only: no per-point complex list and no (P, 2, 2) stack
    grid = np.linspace(0.0, 2 * math.pi, 20000)
    tracemalloc.start()
    try:
        quantization_scan(0.0, 0.0, 0.1, 0.4, 1.0, 1.0, 0.3, -0.2, 1.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 175 * 20000, f"{peak / 20000:.0f} B per point"


_GRID_VALUE = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0]))
# delta tau / hbar: ordinary, and near ±354, where exp(2 delta tau / hbar) nears the float range
_FLIP_EXPONENT = st.one_of(st.floats(-2.0, 2.0), st.floats(350.0, 354.8), st.floats(-354.8, -350.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    x=_FLIP_EXPONENT,
    p=st.one_of(st.just(0.5), st.floats(0.05, 0.5)),
    s=st.one_of(st.floats(0.05, 0.95), st.floats(-1.5, -0.01)),
    clock=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    phases=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    grid=st.lists(_GRID_VALUE, min_size=1, max_size=8),
)
def test_scan_rows_are_the_single_solves_bit_for_bit(x, p, s, clock, phases, grid):
    # the scan's np.exp and the solve's cmath.exp give the same bits wherever the step is finite
    tau, hbar = clock
    lam, sigma, v_plus, v_minus = phases
    delta_ = x * hbar / tau
    gauge = math.sqrt((1.0 - s) / (p * (1.0 - p))) * math.exp(-x)  # radicand ~s; exp(2x) may be subnormal
    root = 0.5 * ((sigma + lam) / hbar + math.pi) - 0.5 * tau * (v_plus + v_minus) / hbar
    grid += [math.remainder(root, math.pi) + k * math.pi for k in (-2, 0, 1)]  # on-grid roots when s > 0
    scan = quantization_scan(v_plus, v_minus, delta_, p, tau, hbar, lam, sigma, gauge, np.array(grid))
    for i, mu in enumerate(scan.mu.tolist()):
        sol = solve_unitary_gammas(v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge)
        assert scan.min_residual[i].tobytes() == np.float64(sol.min_residual).tobytes()
        assert scan.feasible_mask[i] == sol.feasible


def test_solve_and_model_reject_nan_clock():
    with pytest.raises(ValueError):
        PropagatorModel(0, 0, 0, 0, p_plus=0.5, tau=math.nan, hbar=1.0)
    with pytest.raises(ValueError):
        PropagatorModel(0, 0, 0, 0, p_plus=0.5, tau=1.0, hbar=math.nan)
    with pytest.raises(ValueError):
        solve_unitary_gammas(0, 0, 1.0, 0, 0.5, math.nan, 1.0)
    with pytest.raises(ValueError):
        quantization_scan(0, 0, 0, 0.5, 1.0, 1.0, 0, 0, math.nan, np.zeros(2))


def test_sign_case_spectra_worked():
    assert special_case_spectrum(3, 4, SignCase.I) == (7, -1)
    assert special_case_spectrum(3, 4, SignCase.II) == (3 + 4j, 3 - 4j)
    assert special_case_spectrum(3, 4, SignCase.III) == (5, -5)
    lam_plus, lam_minus = special_case_spectrum(3, 4, SignCase.IV)
    assert lam_plus == pytest.approx(1j * math.sqrt(7))
    assert lam_minus == pytest.approx(-1j * math.sqrt(7))


def _matched(spectrum, matrix):
    eigs = sorted(np.linalg.eigvals(matrix), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted(spectrum, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(eigs, want))


def test_sign_case_spectra_random():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        for case in SignCase:
            assert _matched(special_case_spectrum(a, b, case), sign_case_matrix(a, b, case))


def test_power_propagator():
    u = qubit_propagator(sqrt2_model())
    assert np.array_equal(fixed_order_power(u, 0), np.eye(2))
    assert np.allclose(fixed_order_power(u, 5), u @ u @ u @ u @ u, atol=1e-14)
    n1n2 = fixed_order_power(u, 7)
    assert np.allclose(n1n2, fixed_order_power(u, 3) @ fixed_order_power(u, 4), atol=1e-12)
    assert fixed_order_power(u, np.int64(7)).tobytes() == n1n2.tobytes()
    for bad in (-1, np.int64(-3), 2.0, "2", None):
        with pytest.raises(ValueError, match="non-negative integer"):
            fixed_order_power(u, bad)
    with pytest.raises(ValueError, match="square"):
        fixed_order_power(np.ones((2, 3)), 2)


def test_power_propagator_preserves_unitarity():
    # exactly-unitary base: no defect to amplify, even at a million steps
    flip = np.array([[0.0, 1j], [1j, 0.0]])
    big = fixed_order_power(flip, 10 ** 6)
    assert np.linalg.norm(big @ big.conj().T - np.eye(2), "fro") <= 1e-10
    # a base carrying ~1e-16 rounding defect amplifies it linearly in N
    u = qubit_propagator(sqrt2_model())
    mid = fixed_order_power(u, 10 ** 4)
    assert np.linalg.norm(mid @ mid.conj().T - np.eye(2), "fro") <= 1e-11


def test_evolve_state_worked():
    u = qubit_propagator(sqrt2_model())
    out = evolve_state(u, StateVector((1.0, 0.0)), 2)
    arr = out.as_array()
    assert arr[0] == pytest.approx(0.0, abs=1e-12)
    assert arr[1] == pytest.approx(1j, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_evolve_state_identity_and_zero():
    psi = StateVector((0.6, 0.8j))
    out = evolve_state(np.eye(2), psi, 5)
    assert np.allclose(out.as_array(), psi.as_array())
    with pytest.raises(ValueError):
        evolve_state(np.eye(2), StateVector((0.0, 0.0)), 1)
    with pytest.raises(ValueError, match="square"):
        evolve_state(np.ones((2, 3)), psi, 0)
    with pytest.raises(ValueError, match="non-negative integer"):
        evolve_state(np.eye(2), psi, -1)
    for amplitudes in ((1.0, 0.0, 0.5), (1.0,)):
        with pytest.raises(ValueError, match=f"^state has {len(amplitudes)} amplitudes, the step matrix has side 2$"):
            evolve_state(np.eye(2), StateVector(amplitudes), 1)
