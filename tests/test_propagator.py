import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from groupoidqm import (
    PropagatorModel,
    SignCase,
    StateVector,
    evolve_state,
    power_propagator,
    quantization_scan,
    qubit_propagator,
    sign_case_matrix,
    solve_unitary_gammas,
    special_case_spectrum,
    uniform_free_matrix,
    uniform_free_spectrum,
    unitarity_residuals,
)
from groupoidqm.histories import fixed_order_matmul
from groupoidqm.propagator import _residuals, _step_matrices

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
        us = _step_matrices(scan.model, scan.mu.tolist())  # the scan's own step matrices
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
    for mu, u in zip(scan.mu.tolist(), _step_matrices(scan.model, scan.mu.tolist())):
        want = repr(python_step(scan.model, mu))
        assert repr(u.tolist()) == want
        sol = solve_unitary_gammas(v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge)
        assert repr(sol.u.tolist()) == repr(qubit_propagator(sol.model).tolist()) == want
    m = PropagatorModel(v_plus, v_minus, 0.4, delta_, p, tau, hbar, 1 - 2j, -0.5 + 0.25j, 3j - 0.1, 0.25 - 1.5j)
    assert repr(qubit_propagator(m).tolist()) == repr(python_step(m, 0.4))


def test_point_residuals_that_overflow_meet_numpy_error_handling():
    # the entry or |U|^2 passes the float range; the point is evaluated again on arrays, where numpy raises
    m = PropagatorModel(0.0, 0.0, 0.3, 0.0, 0.5, 1.0, 1.0, gamma_mm=complex(1e200, 1e200))
    big_flip = PropagatorModel(0.0, 0.0, 0.3, -400.0, 0.5, 1.0, 1.0, gamma_mp=1e200)  # G_mp exp(400) overflows
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            unitarity_residuals(m)
        with pytest.raises(FloatingPointError):
            qubit_propagator(big_flip)
    with np.errstate(over="ignore", invalid="ignore"):
        u = qubit_propagator(m)
        assert _residuals(u).tobytes() == _residuals(u[None])[0].tobytes()


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
    us = np.stack([qubit_propagator(m) for m in models])
    assert fixed_order_matmul(us, us.conj()).tobytes() == b"".join(
        fixed_order_matmul(u, u.conj()).tobytes() for u in us
    )
    stacked = _residuals(us)
    for m, u, row in zip(models, us, stacked):
        report = unitarity_residuals(m)
        assert repr(list(report.residuals)) == repr(row.tolist()) == repr(python_residuals(u.tolist()))
    for mu in scan.mu.tolist():
        sol = solve_unitary_gammas(v_plus, v_minus, mu, delta_, p, tau, hbar, lam=lam, sigma=sigma, gauge=gauge)
        assert sol.report == unitarity_residuals(sol.model)


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


def test_uniform_free_spectrum():
    lam_plus, lam_minus = uniform_free_spectrum(SQRT2, SQRT2, math.pi / 2, 1.0, 1.0)
    assert lam_plus == pytest.approx((1 + 1j) / SQRT2)
    assert lam_minus == pytest.approx((1 - 1j) / SQRT2)
    assert abs(lam_plus) == pytest.approx(1.0)
    assert abs(lam_minus) == pytest.approx(1.0)
    # degenerate and rank-one corners
    assert uniform_free_spectrum(3.0, 0.0, 1.0, 1.0, 1.0) == (1.5, 1.5)
    lam_plus, lam_minus = uniform_free_spectrum(2.0, 2.0, 0.0, 1.0, 1.0)
    assert (lam_plus, lam_minus) == (2.0, 0.0)
    m = uniform_free_matrix(SQRT2, SQRT2, math.pi / 2, 1.0, 1.0)
    assert _matched(uniform_free_spectrum(SQRT2, SQRT2, math.pi / 2, 1.0, 1.0), m)


def test_power_propagator():
    u = qubit_propagator(sqrt2_model())
    assert np.array_equal(power_propagator(u, 0), np.eye(2))
    assert np.allclose(power_propagator(u, 5), u @ u @ u @ u @ u, atol=1e-14)
    n1n2 = power_propagator(u, 7)
    assert np.allclose(n1n2, power_propagator(u, 3) @ power_propagator(u, 4), atol=1e-12)
    with pytest.raises(ValueError):
        power_propagator(u, -1)
    with pytest.raises(ValueError, match="square"):
        power_propagator(np.ones((2, 3)), 2)


def test_power_propagator_preserves_unitarity():
    # exactly-unitary base: no defect to amplify, even at a million steps
    flip = np.array([[0.0, 1j], [1j, 0.0]])
    big = power_propagator(flip, 10 ** 6)
    assert np.linalg.norm(big @ big.conj().T - np.eye(2), "fro") <= 1e-10
    # a base carrying ~1e-16 rounding defect amplifies it linearly in N
    u = qubit_propagator(sqrt2_model())
    mid = power_propagator(u, 10 ** 4)
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
