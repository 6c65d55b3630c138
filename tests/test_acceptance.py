"""Acceptance gate: one test per numbered release criterion.

Every test prints a single ``criterion NN: PASS/FAIL`` line with the measured
figures, then asserts.  Run with ``pytest -v tests/test_acceptance.py -s`` to
see the lines; the ``-v`` report alone already gives one verdict per criterion.
"""

import cmath
import math
import time

import numpy as np

from groupoidqm.groupoid import build_a2, build_pair_groupoid, pair_element
from groupoidqm.lagrangian import OutcomeBias, QLagrangian, qubit_bias, qubit_lagrangian
from groupoidqm.algebra import (
    AlgebraElement,
    StateVector,
    algebra_unit,
    convolve,
    fundamental_rep,
    involute,
    operator_norm,
)
from groupoidqm.histories import (
    TimeGrid,
    action,
    amplitude_via_reference,
    compose_histories,
    enumerate_histories,
    fixed_order_power,
    history_amplitude,
    invert_history,
    make_history,
    n_step_path_sum,
    single_step_matrix,
)
from groupoidqm.propagator import (
    PropagatorModel,
    SignCase,
    evolve_state,
    quantization_scan,
    qubit_propagator,
    sign_case_matrix,
    solve_unitary_gammas,
    special_case_spectrum,
)


def _criterion(n, passed, detail):
    print(f"criterion {n:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {n}: {detail}"


def _random_element(rng, g, lo=-3.0, hi=3.0):
    names = list(g.elements)
    k = int(rng.integers(1, len(names) + 1))
    picks = rng.choice(len(names), size=k, replace=False)
    coeffs = {
        names[int(i)]: complex(rng.uniform(lo, hi), rng.uniform(lo, hi)) for i in picks
    }
    return AlgebraElement(g, coeffs)


def _coeff_gap(g, x, y):
    return max(abs(x[e] - y[e]) for e in g.elements)


A2_TABLE = {
    ("1-", "1-"): "1-",
    ("1-", "alpha"): "alpha",
    ("1+", "1+"): "1+",
    ("1+", "alpha^-1"): "alpha^-1",
    ("alpha", "1+"): "alpha",
    ("alpha", "alpha^-1"): "1-",
    ("alpha^-1", "1-"): "alpha^-1",
    ("alpha^-1", "alpha"): "1+",
}


def test_criterion_01_multiplication_table():
    g = build_a2()
    start = time.perf_counter()
    cells_ok = 0
    for b in g.elements:
        for a in g.elements:
            if g.is_composable(b, a):
                cells_ok += g.compose_table.get((b, a)) == A2_TABLE.get((b, a))
            else:
                cells_ok += (b, a) not in A2_TABLE and (b, a) not in g.compose_table
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        cells_ok == 16 and elapsed < 1e-3,
        f"two-outcome table {cells_ok}/16 cells exact in {elapsed * 1e3:.3f} ms (budget 1 ms)",
    )


def test_criterion_02_star_algebra_laws():
    rng = np.random.default_rng(7021)
    groupoids = [build_a2()] + [build_pair_groupoid(n) for n in (2, 3, 4, 5)]
    start = time.perf_counter()
    worst = 0.0
    n_elements = 0
    for g in groupoids:
        unit = algebra_unit(g)
        for _ in range(67):
            a, b, c = (_random_element(rng, g) for _ in range(3))
            n_elements += 3
            ab = convolve(a, b)
            worst = max(worst, _coeff_gap(g, convolve(ab, c), convolve(a, convolve(b, c))))
            worst = max(worst, _coeff_gap(g, convolve(unit, a), a))
            worst = max(worst, _coeff_gap(g, convolve(a, unit), a))
            worst = max(worst, _coeff_gap(g, involute(ab), convolve(involute(b), involute(a))))
            worst = max(worst, _coeff_gap(g, involute(involute(a)), a))
            worst = max(worst, float(np.max(np.abs(
                fundamental_rep(ab) - fundamental_rep(a) @ fundamental_rep(b)))))
            worst = max(worst, float(np.max(np.abs(
                fundamental_rep(involute(a)) - fundamental_rep(a).conj().T))))
            norm_a = operator_norm(a)
            worst = max(worst, abs(operator_norm(convolve(involute(a), a)) - norm_a * norm_a))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        n_elements >= 1000 and worst <= 1e-10 and elapsed < 5.0,
        f"star-algebra laws over {n_elements} random elements, "
        f"max deviation {worst:.3g} (tol 1e-10), {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_03_pair_matrix_isomorphism():
    rng = np.random.default_rng(9173)
    groupoids = {n: build_pair_groupoid(n) for n in (2, 3, 4, 5)}
    start = time.perf_counter()
    exact = 0
    for _ in range(1000):
        g = groupoids[int(rng.integers(2, 6))]
        a = AlgebraElement(
            g, {e: complex(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
                for e in g.elements}
        )
        b = AlgebraElement(
            g, {e: complex(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
                for e in g.elements}
        )
        c = convolve(a, b)
        m = fundamental_rep(a) @ fundamental_rep(b)
        exact += all(
            c[pair_element(y, x)] == m[iy, ix]
            for iy, y in enumerate(g.outcomes)
            for ix, x in enumerate(g.outcomes)
        )
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        exact == 1000 and elapsed < 2.0,
        f"convolution = matrix product exactly in {exact}/1000 integer trials, "
        f"{elapsed:.2f} s (budget 2 s)",
    )


def _random_history(rng, g, start_outcome, t0, n):
    cur = start_outcome
    chain = []
    for _ in range(n):
        options = [e for e in g.elements if g.source[e] == cur]
        step = options[int(rng.integers(len(options)))]
        chain.append(step)
        cur = g.target[step]
    segments = []
    i = 0
    while i < len(chain):
        k = int(rng.integers(1, len(chain) - i + 1))
        segments.append((1 if rng.integers(2) else -1, tuple(chain[i:i + k])))
        i += k
    return make_history(g, TimeGrid(t0, 1.0, n), segments, start=start_outcome)


def test_criterion_04_action_axioms():
    g = build_a2()
    ell = qubit_lagrangian(0.3, -0.45, 0.7, 0.2)
    start = time.perf_counter()
    worst = 0.0
    short = []
    for a in g.outcomes:
        for b in g.outcomes:
            for n in range(1, 5):
                short.extend(enumerate_histories(g, a, b, n))
    for w in short:
        gap = abs(action(invert_history(w), ell) + action(w, ell).conjugate())
        worst = max(worst, gap)
    n_compositions = 0
    for w1 in short:
        for c_out in g.outcomes:
            for n2 in range(1, 5):
                for w2 in enumerate_histories(g, w1.end_outcome, c_out, n2,
                                              t_start=w1.end_time):
                    gap = abs(
                        action(compose_histories(w2, w1), ell)
                        - action(w2, ell) - action(w1, ell)
                    )
                    worst = max(worst, gap)
                    n_compositions += 1
    rng = np.random.default_rng(4711)
    n_random = 0
    for _ in range(500):
        a = g.outcomes[int(rng.integers(2))]
        w1 = _random_history(rng, g, a, 0.0, int(rng.integers(5, 11)))
        w2 = _random_history(rng, g, w1.end_outcome, w1.end_time, int(rng.integers(5, 11)))
        n_random += 2
        worst = max(worst, abs(
            action(compose_histories(w2, w1), ell) - action(w2, ell) - action(w1, ell)))
        worst = max(worst, abs(action(invert_history(w1), ell) + action(w1, ell).conjugate()))
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        worst <= 1e-14 and n_random >= 1000 and elapsed < 5.0,
        f"action additivity/anti-conjugation over {len(short)} exhaustive short, "
        f"{n_compositions} compositions and {n_random} random long histories, "
        f"max deviation {worst:.3g} (tol 1e-14), {elapsed:.2f} s (budget 5 s)",
    )


def _per_history_sum(g, ell, bias, tau, hbar, n):
    """The n-step sum written out history by history, each amplitude weighted by its intermediate biases."""
    m = np.zeros((len(g.outcomes),) * 2, dtype=complex)
    for j, start in enumerate(g.outcomes):
        for i, end in enumerate(g.outcomes):
            for w in enumerate_histories(g, start, end, n, tau=tau):
                weight = math.prod(bias[g.target[step]] for step in w.steps()[:-1])
                m[i, j] += weight * history_amplitude(w, ell, bias, hbar, tau)
    return m


def test_criterion_05_path_sum_matches_matrix_power():
    start = time.perf_counter()
    worst = 0.0
    g = build_a2()
    ell = qubit_lagrangian(0.25, -0.4, 0.6, 0.1)
    bias = qubit_bias(0.3)
    m1 = single_step_matrix(g, ell, bias, 0.7, 1.3)
    for n in range(1, 9):
        exact = np.linalg.matrix_power(m1, n)
        for s in (_per_history_sum(g, ell, bias, 0.7, 1.3, n), n_step_path_sum(g, ell, bias, 0.7, 1.3, n)):
            worst = max(worst, float(np.max(np.abs(s - exact))))
    gp = build_pair_groupoid(3)
    idx = {o: i for i, o in enumerate(gp.outcomes)}
    ellp = QLagrangian(
        gp, {e: 0.2 + 0.4j * (idx[gp.target[e]] - idx[gp.source[e]]) for e in gp.elements}
    )
    biasp = OutcomeBias.uniform(gp)
    mp1 = single_step_matrix(gp, ellp, biasp, 1.0, 1.0)
    for n in range(1, 6):
        exact = np.linalg.matrix_power(mp1, n)
        for s in (_per_history_sum(gp, ellp, biasp, 1.0, 1.0, n), n_step_path_sum(gp, ellp, biasp, 1.0, 1.0, n)):
            worst = max(worst, float(np.max(np.abs(s - exact))))
    for n1, n2 in ((2, 3), (3, 5), (1, 7)):
        total = n_step_path_sum(g, ell, bias, 0.7, 1.3, n1 + n2)
        m2 = n_step_path_sum(g, ell, bias, 0.7, 1.3, n2)
        m1s = n_step_path_sum(g, ell, bias, 0.7, 1.3, n1)
        worst = max(worst, float(np.max(np.abs(total - m2 @ m1s))))
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        worst <= 1e-12 and elapsed < 30.0,
        f"per-history sums and path sums vs matrix powers (two-outcome N<=8, three-outcome "
        f"pairs N<=5, semigroup splits), max deviation {worst:.3g} (tol 1e-12), "
        f"{elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_06_unitarity_relations():
    rng = np.random.default_rng(3137)
    start = time.perf_counter()
    n_feasible = 0
    worst_residual = 0.0
    worst_gap = 0.0
    for _ in range(100):
        delta = float(rng.uniform(-0.5, 0.5))
        v_plus = float(rng.uniform(-2.0, 2.0))
        v_minus = float(rng.uniform(-2.0, 2.0))
        p_plus = float(rng.uniform(0.05, 0.5))
        tau = float(rng.uniform(0.3, 2.0))
        hbar = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(0, 3))
        mu = (hbar / (2.0 * tau)) * ((sigma + lam) / hbar + math.pi + 2.0 * math.pi * k) \
            - 0.5 * (v_plus + v_minus)
        gauge = 0.8 / math.sqrt(p_plus * (1.0 - p_plus) * math.exp(2.0 * delta * tau / hbar))
        sol = solve_unitary_gammas(
            v_plus, v_minus, mu, delta, p_plus, tau, hbar,
            lam=lam, sigma=sigma, gauge=gauge,
        )
        n_feasible += sol.feasible
        worst_residual = max(worst_residual, sol.report.max_residual)
        worst_gap = max(worst_gap, sol.report.relation1_gap, sol.report.relation2_gap)
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        n_feasible == 100 and worst_residual <= 1e-10 and worst_gap <= 1e-12
        and elapsed < 10.0,
        f"{n_feasible}/100 feasible solves, max unitarity residual "
        f"{worst_residual:.3g} (tol 1e-10), max relation gap {worst_gap:.3g} "
        f"(tol 1e-12), {elapsed:.2f} s (budget 10 s)",
    )


def test_criterion_07_quantization_detection():
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    start = time.perf_counter()
    scan_zero = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0, grid)
    feasible_zero = np.flatnonzero(scan_zero.feasible_mask).tolist()
    scan_pi = quantization_scan(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, math.pi, 1.0, grid)
    feasible_pi = np.flatnonzero(scan_pi.feasible_mask).tolist()
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        feasible_zero == [180, 540] and feasible_pi == [0, 360, 720] and elapsed < 20.0,
        f"721-point scans: zero-phase feasible at indices {feasible_zero} "
        f"(want [180, 540] = pi/2, 3pi/2), shifted-phase at {feasible_pi} "
        f"(want [0, 360, 720] = 0, pi, 2pi), {elapsed:.1f} s (budget 20 s)",
    )


def _spectrum_gap(got, eig):
    direct = max(abs(got[0] - eig[0]), abs(got[1] - eig[1]))
    crossed = max(abs(got[0] - eig[1]), abs(got[1] - eig[0]))
    return min(direct, crossed)


def test_criterion_08_sign_case_spectra():
    rng = np.random.default_rng(8221)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        for case in SignCase:
            lam = special_case_spectrum(a, b, case)
            eig = np.linalg.eigvals(sign_case_matrix(a, b, case))
            worst = max(worst, _spectrum_gap(lam, (complex(eig[0]), complex(eig[1]))))
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        worst <= 1e-12 and elapsed < 1.0,
        f"four-sign closed-form spectra vs eigensolver over 100 random (A, B), "
        f"max gap {worst:.3g} (tol 1e-12), {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_09_worked_unitary_instance():
    r2 = math.sqrt(2.0)
    model = PropagatorModel(
        0.0, 0.0, math.pi / 2.0, 0.0, 0.5, 1.0, 1.0,
        gamma_mm=r2, gamma_mp=r2, gamma_pm=r2, gamma_pp=r2,
    )
    ket_minus = StateVector((1.0 + 0j, 0j))
    # warm path so the timed run measures the computation, not first-call setup
    evolve_state(fixed_order_power(qubit_propagator(model), 2), ket_minus, 2)
    start = time.perf_counter()
    u = qubit_propagator(model)
    u2 = fixed_order_power(u, 2)
    evolved = evolve_state(u, ket_minus, 2)
    elapsed = time.perf_counter() - start
    gap_u = float(np.max(np.abs(u - np.array([[1.0, 1j], [1j, 1.0]]) / r2)))
    fro = float(np.linalg.norm(u @ u.conj().T - np.eye(2), "fro"))
    gap_u2 = float(np.max(np.abs(u2 - np.array([[0.0, 1j], [1j, 0.0]]))))
    gap_state = float(np.max(np.abs(evolved.as_array() - np.array([0.0, 1j]))))
    _criterion(
        9,
        gap_u <= 1e-15 and fro <= 1e-12 and gap_u2 <= 1e-15 and gap_state <= 1e-15
        and elapsed < 1e-3,
        f"worked instance: |U - closed form| {gap_u:.3g}, Frobenius defect {fro:.3g} "
        f"(tol 1e-12), |U^2 - flip| {gap_u2:.3g}, two-step state gap {gap_state:.3g}, "
        f"{elapsed * 1e3:.3f} ms (budget 1 ms)",
    )


def test_criterion_10_reference_independence():
    g = build_a2()
    rng = np.random.default_rng(1947)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        ell = qubit_lagrangian(
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.3, 0.3)),
        )
        bias = qubit_bias(float(rng.uniform(0.05, 0.5)))
        a = g.outcomes[int(rng.integers(2))]
        b = g.outcomes[int(rng.integers(2))]
        pool = enumerate_histories(g, a, b, int(rng.integers(2, 6)))
        base = pool[int(rng.integers(len(pool)))]
        first, second = (int(i) for i in rng.choice(len(pool), size=2, replace=False))
        z = cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi))) \
            * float(rng.uniform(0.5, 1.5))
        amp_1 = amplitude_via_reference(pool[first], base, ell, bias, 1.0, z_vertex=z)
        amp_2 = amplitude_via_reference(pool[second], base, ell, bias, 1.0, z_vertex=z)
        worst = max(worst, abs(amp_1 - amp_2))
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        worst <= 1e-14 and elapsed < 5.0,
        f"amplitudes from two distinct references over 100 random configurations, "
        f"max disagreement {worst:.3g} (tol 1e-14), {elapsed:.2f} s (budget 5 s)",
    )
