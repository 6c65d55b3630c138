import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import (
    ALPHA,
    ALPHA_INV,
    EnumerationCapExceeded,
    OutcomeBias,
    QLagrangian,
    StateVector,
    TimeGrid,
    UNIT_MINUS,
    UNIT_PLUS,
    action,
    amplitude_via_reference,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    compose_histories,
    decompose_history,
    enumerate_histories,
    evolve_state,
    history_amplitude,
    invert_history,
    is_loop,
    make_history,
    n_step_path_sum,
    qubit_bias,
    qubit_lagrangian,
    single_step_matrix,
    total_variation,
    unit_history,
)

from groupoidqm.histories import (
    _SCALAR_MAX_SIDE,
    _scalar_loop,
    _scalar_product,
    fixed_order_matmul,
    fixed_order_power,
)

from groupoid_text import groupoid_to_text

A2 = build_a2()
# pair:2 on x1, x2 beside a trivial outcome y: out-degrees 2, 1, 2
MIXED = build_from_table(
    groupoid_to_text(build_pair_groupoid(2)).replace("outcomes: x1 x2", "outcomes: x1 y x2")
    + "element: (y,y) y y\nunit: y (y,y)\ninverse: (y,y) (y,y)\ncompose: (y,y) (y,y) = (y,y)\n"
)
# the two-element group as a one-outcome groupoid, as in test_groupoid.py
Z2 = build_from_table(
    "outcomes: o\nelement: e o o\nelement: s o o\nunit: o e\ninverse: e e\ninverse: s s\n"
    "compose: e e = e\ncompose: e s = s\ncompose: s e = s\ncompose: s s = e\n"
)


def hist(steps, start=None, t_start=0.0, tau=1.0, orientation=+1):
    grid = TimeGrid(t_start, tau, len(steps))
    if not steps:
        return make_history(A2, grid, (), start=start)
    return make_history(A2, grid, ((orientation, tuple(steps)),), start=start)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1.0, 3)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, -1)
    for t_start in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_start must be finite"):
            TimeGrid(t_start, 1.0, 1)
    assert TimeGrid(1.0, 0.5, 4).t_end == 3.0


def test_qubit_lagrangian_values():
    ell = qubit_lagrangian(1.0, 2.0, 3.0, 0.5)
    assert ell[UNIT_PLUS] == -1.0
    assert ell[UNIT_MINUS] == -2.0
    assert ell[ALPHA] == 3.0 + 0.5j
    assert ell[ALPHA_INV] == 3.0 - 0.5j


def test_history_chaining_diagnostics():
    with pytest.raises(ValueError, match="step 2"):
        hist([ALPHA, ALPHA])  # alpha ends at -, alpha does not leave -
    with pytest.raises(ValueError, match="declared start"):
        hist([ALPHA], start="-")  # alpha leaves +
    with pytest.raises(ValueError):
        make_history(A2, TimeGrid(0.0, 1.0, 2), ((1, (ALPHA,)),))  # step count mismatch


def test_history_times_and_ticks():
    w = make_history(
        A2,
        TimeGrid(0.0, 0.5, 3),
        ((+1, (ALPHA_INV, UNIT_PLUS)), (-1, (ALPHA,))),
    )
    assert w.start_outcome == "-"
    assert w.end_outcome == "-"
    assert w.net_ticks == 2 - 1
    assert w.end_time == pytest.approx(0.5)
    assert w.steps() == (ALPHA_INV, UNIT_PLUS, ALPHA)


def test_enumeration_two_step_minus_to_plus():
    found = enumerate_histories(A2, "-", "+", 2)
    step_sets = {w.steps() for w in found}
    assert step_sets == {(UNIT_MINUS, ALPHA_INV), (ALPHA_INV, UNIT_PLUS)}
    for w in found:
        assert w.start_outcome == "-" and w.end_outcome == "+"
        assert w.segments[0].orientation == 1


def test_enumeration_count_doubles_per_step():
    for n in range(1, 7):
        assert len(enumerate_histories(A2, "-", "-", n)) == 2 ** (n - 1)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_histories(A2, "-", "-", 12, cap=100)
    assert exc.value.required == 2 ** 11
    assert exc.value.cap == 100


def test_enumeration_cap_with_saturated_count():
    # the exact count, 2**19999, would take thousands of digits to build and print
    with pytest.raises(EnumerationCapExceeded, match="needs more than") as exc:
        enumerate_histories(A2, "-", "-", 20000, cap=100)
    assert exc.value.required > 10**18


def test_enumeration_into_another_component_is_empty_at_once():
    # 2**60 walks leave x1, and none reaches y: the walk count settles it before any walking
    assert enumerate_histories(MIXED, "x1", "y", 60) == []


def test_total_variation_examples():
    assert total_variation(hist([ALPHA_INV, UNIT_PLUS])) == ALPHA_INV
    assert total_variation(hist([ALPHA_INV, ALPHA])) == UNIT_MINUS
    assert total_variation(unit_history(A2, "+")) == UNIT_PLUS


def test_compose_and_invert_round_trip():
    w1 = hist([ALPHA_INV])
    w2 = hist([ALPHA], t_start=1.0)
    w = compose_histories(w2, w1)
    assert w.steps() == (ALPHA_INV, ALPHA)
    assert w.n_steps == 2
    assert is_loop(w)
    back = invert_history(w)
    assert back.steps() == (ALPHA_INV, ALPHA)
    assert back.segments[0].orientation == -1
    assert back.start_time == pytest.approx(2.0)
    again = invert_history(back)
    assert again == w


def test_compose_rejects_mismatches():
    with pytest.raises(ValueError, match="ends at"):
        compose_histories(hist([ALPHA], t_start=1.0), hist([UNIT_MINUS]))
    with pytest.raises(ValueError, match="t="):
        compose_histories(hist([ALPHA], t_start=5.0), hist([ALPHA_INV]))


@pytest.mark.parametrize("t_start, tau", [(1e12, 1e-3), (0.0, 1e-12)])
def test_endpoint_times_match_to_within_half_a_tick(t_start, tau):
    w1 = hist([ALPHA_INV], t_start=t_start, tau=tau)
    # a rounding away from w1's end is the same tick
    on_time = hist([ALPHA], t_start=math.nextafter(w1.end_time, math.inf), tau=tau)
    assert compose_histories(on_time, w1).n_steps == 2
    # one tick late at t = 1e12, 999 ticks late at tau = 1e-12: both used to pass a 1e-9 tolerance
    late = t_start + 2 * tau if t_start else 1e-9
    with pytest.raises(ValueError, match="t="):
        compose_histories(hist([ALPHA], t_start=late, tau=tau), w1)
    # same endpoints, net ticks 2 against 0: the end times differ by two ticks
    forward = hist([UNIT_MINUS, UNIT_MINUS], t_start=t_start, tau=tau)
    there_and_back = make_history(A2, TimeGrid(t_start, tau, 2), ((+1, (UNIT_MINUS,)), (-1, (UNIT_MINUS,))))
    with pytest.raises(ValueError, match="^histories must share start and end times$"):
        decompose_history(forward, there_and_back)


def test_is_loop_cases():
    assert is_loop(unit_history(A2, "-"))
    assert is_loop(hist([ALPHA_INV, ALPHA]))
    assert not is_loop(hist([ALPHA_INV]))
    # same endpoints but net ticks 2 over a 4-step span: 2 % 4 != 0
    w = make_history(
        A2,
        TimeGrid(0.0, 1.0, 4),
        ((+1, (ALPHA_INV, ALPHA, ALPHA_INV)), (-1, (ALPHA,))),
    )
    assert w.start_outcome == w.end_outcome == "-"
    assert w.net_ticks == 2
    assert not is_loop(w)


def test_action_frozen_values():
    mu, delta_, v_plus, v_minus, tau = 1.3, 0.4, 0.9, -0.2, 0.75
    ell = qubit_lagrangian(v_plus, v_minus, mu, delta_)
    w = hist([ALPHA_INV, UNIT_PLUS], tau=tau)
    expected = ((mu - 1j * delta_) + (-v_plus)) * tau
    assert action(w, ell) == pytest.approx(expected)
    back = invert_history(w)
    assert action(back, ell) == pytest.approx(-expected.conjugate())


def test_action_additive_and_anticonjugate():
    ell = qubit_lagrangian(0.3, 1.1, -0.7, 0.2)
    w1 = hist([ALPHA_INV])
    w2 = hist([UNIT_PLUS, ALPHA], t_start=1.0)
    w = compose_histories(w2, w1)
    assert action(w, ell) == pytest.approx(action(w1, ell) + action(w2, ell))
    assert action(invert_history(w), ell) == pytest.approx(-action(w, ell).conjugate())


def test_amplitude_half_i():
    # one alpha step at mu*tau/hbar = pi/2 with even bias
    ell = qubit_lagrangian(0.0, 0.0, math.pi / 2, 0.0)
    bias = qubit_bias(0.5)
    w = hist([ALPHA])
    amp = history_amplitude(w, ell, bias, hbar=1.0)
    assert amp == pytest.approx(0.5j)


def test_amplitude_cocycle():
    ell = qubit_lagrangian(0.2, -0.4, 0.8, 0.1)
    bias = qubit_bias(0.3)
    w1 = hist([ALPHA_INV])
    w2 = hist([UNIT_PLUS], t_start=1.0)
    w = compose_histories(w2, w1)
    lhs = history_amplitude(w2, ell, bias, 1.0) * history_amplitude(w1, ell, bias, 1.0)
    rhs = bias["+"] * history_amplitude(w, ell, bias, 1.0)
    assert lhs == pytest.approx(rhs)


def test_two_step_return_amplitude_interferes():
    # [-][-] entry at N=2: 1/4 + exp(2 i theta)/4, vanishing at theta = pi/2
    for theta in (0.0, 0.7, math.pi / 2, 2.0):
        ell = qubit_lagrangian(0.0, 0.0, theta, 0.0)
        bias = qubit_bias(0.5)
        m = n_step_path_sum(A2, ell, bias, 1.0, 1.0, 2)
        expected = 0.25 + cmath.exp(2j * theta) / 4
        assert m[0, 0] == pytest.approx(expected, abs=1e-15)
    ell = qubit_lagrangian(0.0, 0.0, math.pi / 2, 0.0)
    m = n_step_path_sum(A2, ell, qubit_bias(0.5), 1.0, 1.0, 2)
    assert abs(m[0, 0]) < 1e-16


def test_path_sum_equals_matrix_power():
    ell = qubit_lagrangian(0.4, -0.9, 1.2, 0.15)
    bias = qubit_bias(0.35)
    u1 = single_step_matrix(A2, ell, bias, 0.8, 1.1)
    for n in range(1, 7):
        ps = n_step_path_sum(A2, ell, bias, 0.8, 1.1, n)
        assert np.allclose(ps, np.linalg.matrix_power(u1, n), atol=1e-13)


def test_path_sum_equals_matrix_power_pair3():
    g = build_pair_groupoid(3)
    idx = {o: i for i, o in enumerate(g.outcomes)}
    ell = QLagrangian(
        g, {e: 0.3 * (idx[g.target[e]] + idx[g.source[e]]) + 0.5j * (idx[g.target[e]] - idx[g.source[e]]) for e in g.elements}
    )
    bias = OutcomeBias.uniform(g)
    u1 = single_step_matrix(g, ell, bias, 1.0, 1.0)
    for n in (1, 2, 3, 4):
        ps = n_step_path_sum(g, ell, bias, 1.0, 1.0, n)
        assert np.allclose(ps, np.linalg.matrix_power(u1, n), atol=1e-13)


def test_path_sum_semigroup():
    ell = qubit_lagrangian(0.1, 0.6, -0.8, 0.05)
    bias = qubit_bias(0.25)
    m5 = n_step_path_sum(A2, ell, bias, 1.0, 1.0, 5)
    m2 = n_step_path_sum(A2, ell, bias, 1.0, 1.0, 2)
    m3 = n_step_path_sum(A2, ell, bias, 1.0, 1.0, 3)
    assert np.allclose(m5, m3 @ m2, atol=1e-14)


def test_path_sum_single_step_is_exact():
    ell = qubit_lagrangian(0.4, -0.9, 1.2, 0.15)
    bias = qubit_bias(0.35)
    assert np.array_equal(
        n_step_path_sum(A2, ell, bias, 0.8, 1.1, 1),
        single_step_matrix(A2, ell, bias, 0.8, 1.1),
    )


def reference_path_sum(g, ell, bias, tau, hbar, n_steps):
    """The sum written out per history: enumerate, weight, and reduce pairwise level by level."""
    m = np.zeros((len(g.outcomes),) * 2, dtype=complex)
    for j, start in enumerate(g.outcomes):
        for i, end in enumerate(g.outcomes):
            vals = []
            for w in enumerate_histories(g, start, end, n_steps, tau=tau):
                weight = 1.0
                for step in w.steps()[:-1]:
                    weight *= bias[g.target[step]]
                vals.append(weight * history_amplitude(w, ell, bias, hbar, tau))
            while len(vals) > 1:
                pairs = [vals[k] + vals[k + 1] for k in range(0, len(vals) - 1, 2)]
                vals = pairs + vals[-1:] if len(vals) % 2 else pairs
            m[i, j] = vals[0] if vals else 0j
    return m


@pytest.mark.parametrize(
    "g, n_max", [(A2, 10), (build_pair_groupoid(3), 5), (build_pair_groupoid(4), 5), (MIXED, 7), (Z2, 8)]
)
def test_path_sum_equals_per_history_reference(g, n_max):
    idx = {o: i for i, o in enumerate(g.outcomes)}
    ell = QLagrangian(g, {
        e: 0.7 * (idx[g.target[e]] + idx[g.source[e]]) - 0.4 + 0.3j * (idx[g.target[e]] - idx[g.source[e]])
        for e in g.elements
    })
    probs = [0.2 + 0.1 * i for i in range(len(g.outcomes))]
    bias = OutcomeBias({o: p / sum(probs) for o, p in zip(g.outcomes, probs)})
    for n in range(1, n_max + 1):
        ps = n_step_path_sum(g, ell, bias, 0.8, 1.1, n)
        assert np.allclose(ps, reference_path_sum(g, ell, bias, 0.8, 1.1, n), rtol=0, atol=1e-13)


@pytest.mark.parametrize("steps", [11, 16])  # 4096 and 131072 histories
def test_path_sum_peak_memory_does_not_grow_with_steps(steps):
    ell = qubit_lagrangian(0.4, -0.9, 1.2, 0.15)
    bias = qubit_bias(0.35)
    n_step_path_sum(A2, ell, bias, 0.8, 1.1, 2)
    tracemalloc.start()
    try:
        n_step_path_sum(A2, ell, bias, 0.8, 1.1, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def signed_zero_models():
    # p+ = 0 zeroes every bias product through +; -0.0 parts reach the sums and the exponent
    yield A2, qubit_lagrangian(0.7, 0.0, -0.0, 0.0), qubit_bias(0.0)
    g = build_pair_groupoid(3)
    idx = {o: i for i, o in enumerate(g.outcomes)}
    ell = QLagrangian(g, {e: complex(-0.0, 0.5 * (idx[g.target[e]] - idx[g.source[e]]) or -0.0) for e in g.elements})
    yield g, ell, OutcomeBias(dict(zip(g.outcomes, (0.0, 0.25, 0.75))))


@pytest.mark.parametrize("g, ell, bias", list(signed_zero_models()))
def test_path_sum_keeps_signed_zeros(g, ell, bias):
    for n in range(1, 7):
        ps = n_step_path_sum(g, ell, bias, 0.8, 1.1, n)
        assert np.allclose(ps, reference_path_sum(g, ell, bias, 0.8, 1.1, n), rtol=0, atol=1e-13)


def python_matmul(a, b):
    """a @ b over nested lists of Python complex: per entry, the terms k = 0, 1, ... summed left to right."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            re = im = None
            for x, b_row in zip(row, b):
                y = b_row[j]
                tr, ti = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
                re, im = (tr, ti) if re is None else (re + tr, im + ti)
            out_row.append(complex(re, im))
        out.append(out_row)
    return out


def python_power(m, n):
    """m^n over Python floats: the result times each set bit's square m, m^2, m^4, ..., lowest bit first."""
    base, result = m, None
    while n:
        if n & 1:
            result = base if result is None else python_matmul(result, base)
        n >>= 1
        if n:
            base = python_matmul(base, base)
    return result or [[complex(i == j) for j in range(len(m))] for i in range(len(m))]


def fixed_order_models():
    yield from signed_zero_models()
    yield A2, qubit_lagrangian(0.4, -0.9, 1.2, 0.15), qubit_bias(0.35)
    yield A2, qubit_lagrangian(0.4, -0.9, 1.2, 0.15), qubit_bias(1e-160)  # terms through + fall to subnormals or 0
    idx = {o: i for i, o in enumerate(MIXED.outcomes)}
    ell = QLagrangian(MIXED, {e: complex(0.3 * (idx[MIXED.target[e]] + idx[MIXED.source[e]]),
                                         idx[MIXED.target[e]] - idx[MIXED.source[e]]) for e in MIXED.elements})
    yield MIXED, ell, OutcomeBias({"x1": 0.5, "y": 0.0, "x2": 0.5})
    g = build_pair_groupoid(3)  # three nonzero terms per entry, so the order of the k sum shows
    idx = {o: i for i, o in enumerate(g.outcomes)}
    ell = QLagrangian(g, {e: 0.3 * (idx[g.target[e]] + idx[g.source[e]]) + 0.5j * (idx[g.target[e]] - idx[g.source[e]])
                          for e in g.elements})
    yield g, ell, OutcomeBias(dict(zip(g.outcomes, (0.2, 0.3, 0.5))))
    g = build_pair_groupoid(_SCALAR_MAX_SIDE + 1)  # past the bound: products on float64 arrays
    idx = {o: i for i, o in enumerate(g.outcomes)}
    ell = QLagrangian(g, {e: 0.3 * (idx[g.target[e]] + idx[g.source[e]]) + 0.05 * idx[g.target[e]] * idx[g.source[e]]
                          for e in g.elements})  # real phases: no entry of a power outgrows the bias
    k = len(g.outcomes)
    yield g, ell, OutcomeBias({o: (i + 1) / (k * (k + 1) // 2) for i, o in enumerate(g.outcomes)})


@pytest.mark.parametrize("g, ell, bias", list(fixed_order_models()))
def test_products_follow_the_fixed_order_bit_for_bit(g, ell, bias):
    # Python float operations never fuse, so these bits are the same on every machine
    m = single_step_matrix(g, ell, bias, 0.8, 1.1)
    psi = [complex(-0.0, 0.6), *(complex(0.8, -0.0) for _ in g.outcomes[1:])]
    for n in (*range(0, 9), 13, 64, 1000):
        if n:
            assert repr(n_step_path_sum(g, ell, bias, 0.8, 1.1, n).tolist()) == repr(python_power(m.tolist(), n))
        for u in (m, -m):  # single_step_matrix holds no -0.0; its negation turns every zero into one
            want = python_power(u.tolist(), n)
            assert repr(fixed_order_power(u, n).tolist()) == repr(want)
            moved = evolve_state(u, StateVector(tuple(psi)), n).amplitudes
            assert repr(list(moved)) == repr([row[0] for row in python_matmul(want, [[z] for z in psi])])


# ±0.0, subnormals, and magnitudes whose products overflow to inf (and inf - inf to nan)
_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e160, -1e200, 1.7e308]),
)
_MATRIX = st.lists(_ENTRY, min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]])


def _bits(parts) -> bytes:
    return np.array(parts, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.tuples(_MATRIX, _MATRIX), st.tuples(_MATRIX, _MATRIX)), min_size=1, max_size=6))
def test_written_out_2x2_product_is_the_loop_bit_for_bit(products):
    # each product is ((a_re, a_im), (b_re, b_im)) on Python floats
    for a, b in products:
        assert _bits(_scalar_product(a, b)) == _bits(_scalar_loop(a, b))
    # float64 columns, one per entry: position i is product i
    a, b = [
        tuple(np.array([m[part] for m in ms], dtype=float).transpose(1, 2, 0) for part in (0, 1))
        for ms in zip(*products)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        written, loop = _bits(_scalar_product(a, b)), _bits(_scalar_loop(a, b))
    one_by_one = np.array([_scalar_loop(*p) for p in products], dtype=float).transpose(1, 2, 3, 0)
    assert written == loop == one_by_one.tobytes()


@pytest.mark.parametrize("errstate", ["ignore", "raise"])
@pytest.mark.parametrize("side", [2, _SCALAR_MAX_SIDE + 1])
def test_products_that_overflow_are_overflow_errors(errstate, side):
    # on Python floats (side 2) and on arrays (a larger side, a stack), whatever numpy's error handling says
    m = np.full((side, side), complex(1e200, -1e200))
    stack = np.stack([np.eye(side), m])
    first = r"\[0, 0\] = \(-?\w+[+-]-?\w+j\) is not finite$"
    with np.errstate(all=errstate):
        for product, index in [
            (lambda: fixed_order_matmul(m, m), first),
            (lambda: fixed_order_power(m, 2), first),
            (lambda: fixed_order_power(m, 3), first),
            (lambda: fixed_order_matmul(stack, stack), r"\[1, 0, 0\] = "),
        ]:
            with pytest.raises(OverflowError, match=f"^product entry {index}"):
                product()


def lexicographic_walks(g, start, end, n_steps):
    """Chained n-step walks, ordered lexicographically over elements in declaration order."""
    walks = []
    for steps in itertools.product(g.elements, repeat=n_steps):
        current = start
        for step in steps:
            if g.source[step] != current:
                break
            current = g.target[step]
        else:
            if current == end:
                walks.append(steps)
    return walks


@pytest.mark.parametrize("g, n_max", [(A2, 6), (build_pair_groupoid(3), 4), (MIXED, 5)])
def test_enumeration_order_is_lexicographic(g, n_max):
    for n in range(1, n_max + 1):
        for start, end in itertools.product(g.outcomes, repeat=2):
            found = [w.steps() for w in enumerate_histories(g, start, end, n)]
            assert found == lexicographic_walks(g, start, end, n)


def test_long_walks_on_a_trivial_groupoid():
    # one walk per start at any length: the cap never stops it, and nothing may recurse per step
    g = build_pair_groupoid(1)
    ell = QLagrangian(g, {e: 0.5 for e in g.elements})
    m = n_step_path_sum(g, ell, OutcomeBias.uniform(g), 0.1, 1.0, 3000)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - cmath.exp(0.5j * 0.1 * 3000)) < 1e-12
    (w,) = enumerate_histories(g, "x1", "x1", 3000)
    assert w.steps() == ("(x1,x1)",) * 3000


def test_decompose_four_step_loop():
    w = hist([ALPHA_INV, ALPHA])
    w_ref = hist([UNIT_MINUS, UNIT_MINUS])
    sigma = decompose_history(w, w_ref)
    assert sigma.n_steps == 4
    assert is_loop(sigma)
    assert sigma.steps() == (ALPHA_INV, ALPHA, UNIT_MINUS, UNIT_MINUS)
    assert total_variation(sigma) == UNIT_MINUS
    recomposed = compose_histories(w_ref, sigma)
    assert total_variation(recomposed) == total_variation(w)


def test_decompose_requires_shared_endpoints():
    with pytest.raises(ValueError, match="endpoints"):
        decompose_history(hist([ALPHA_INV]), hist([UNIT_MINUS]))


def test_reference_amplitude_overflow_is_the_history_amplitude_error():
    # the action overflows to inf; the amplitude is one formula, so one error
    ell = qubit_lagrangian(1e308, -1e308, 1e308, 0.0)
    bias = qubit_bias(0.5)
    for steps in ([UNIT_MINUS, UNIT_MINUS], [ALPHA, UNIT_MINUS]):
        w = hist(steps, start="+" if steps[0] == ALPHA else None)
        with pytest.raises(OverflowError) as direct:
            history_amplitude(w, ell, bias, 1e-300)
        with pytest.raises(OverflowError) as via:
            amplitude_via_reference(w, w, ell, bias, 1e-300)
        assert str(via.value) == str(direct.value)


def test_reference_independence_quick():
    ell = qubit_lagrangian(0.2, -0.1, 0.9, 0.12)
    bias = qubit_bias(0.4)
    base = hist([UNIT_MINUS, ALPHA_INV])
    ref1 = hist([ALPHA_INV, UNIT_PLUS])
    ref2 = base
    a1 = amplitude_via_reference(ref1, base, ell, bias, hbar=1.0)
    a2 = amplitude_via_reference(ref2, base, ell, bias, hbar=1.0)
    assert a1 == pytest.approx(a2, abs=1e-15)
    # gauge fixes the base reference to its bare weight
    want = bias["-"] ** 0.5 * bias["+"] ** 0.5 * cmath.exp(
        1j * action(base, ell).conjugate()
    )
    assert a2 == pytest.approx(want, abs=1e-14)
