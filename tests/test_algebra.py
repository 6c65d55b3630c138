import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from groupoidqm.groupoid import (
    ALPHA,
    ALPHA_INV,
    FiniteGroupoid,
    UNIT_MINUS,
    UNIT_PLUS,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    pair_element,
    validate_axioms,
)
from groupoidqm.lagrangian import QLagrangian, qubit_lagrangian
from groupoidqm.algebra import (
    AlgebraElement,
    algebra_unit,
    convolve,
    element_from_lines,
    fundamental_rep,
    involute,
    is_observable,
    lagrangian_element,
    operator_norm,
)

from groupoid_text import groupoid_to_text

A2 = build_a2()
P3 = build_pair_groupoid(3)

_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def elements_of(g):
    n = len(g.elements)
    return st.lists(_coeff, min_size=n, max_size=n).map(
        lambda cs: AlgebraElement(g, dict(zip(g.elements, cs)))
    )


def close(a: AlgebraElement, b: AlgebraElement, tol=1e-10) -> bool:
    return all(abs(a[e] - b[e]) <= tol for e in a.groupoid.elements)


def test_delta_products_match_table():
    alpha, alpha_inv = AlgebraElement(A2, {ALPHA: 1}), AlgebraElement(A2, {ALPHA_INV: 1})
    assert convolve(alpha_inv, alpha) == AlgebraElement(A2, {UNIT_PLUS: 1})
    assert convolve(alpha, alpha_inv) == AlgebraElement(A2, {UNIT_MINUS: 1})
    # non-composable pairs vanish
    assert convolve(alpha, alpha) == AlgebraElement(A2, {})


def test_unit_element():
    u = algebra_unit(A2)
    assert u[UNIT_PLUS] == 1 and u[UNIT_MINUS] == 1
    a = AlgebraElement(A2, {ALPHA: 2 - 1j, UNIT_MINUS: 0.5})
    assert convolve(u, a) == a
    assert convolve(a, u) == a


@given(elements_of(A2), elements_of(A2), elements_of(A2))
def test_associativity_a2(a, b, c):
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert close(left, right)


@settings(max_examples=50)
@given(elements_of(P3), elements_of(P3), elements_of(P3))
def test_associativity_pair3(a, b, c):
    assert close(convolve(convolve(a, b), c), convolve(a, convolve(b, c)))


@given(elements_of(A2), elements_of(A2))
def test_involution_antihomomorphism(a, b):
    assert close(involute(convolve(a, b)), convolve(involute(b), involute(a)))


@given(elements_of(A2))
def test_involution_is_involutive(a):
    assert close(involute(involute(a)), a)


@given(elements_of(A2))
def test_rep_star_homomorphism(a):
    m = fundamental_rep(a)
    assert np.allclose(fundamental_rep(involute(a)), m.conj().T, atol=1e-12)


@given(elements_of(A2), elements_of(A2))
def test_rep_multiplicative(a, b):
    assert np.allclose(
        fundamental_rep(convolve(a, b)),
        fundamental_rep(a) @ fundamental_rep(b),
        atol=1e-10,
    )


@given(elements_of(A2))
def test_cstar_identity(a):
    n = operator_norm(a)
    assert abs(operator_norm(convolve(involute(a), a)) - n * n) <= 1e-9 * max(1.0, n * n)


def test_fundamental_rep_layout():
    a = AlgebraElement(
        A2, {UNIT_MINUS: 1.0, UNIT_PLUS: 2.0, ALPHA: 3.0, ALPHA_INV: 4.0}
    )
    m = fundamental_rep(a)
    # basis order (-, +); alpha: + -> - sits at row -, column +
    assert np.array_equal(m, np.array([[1.0, 3.0], [4.0, 2.0]], dtype=complex))
    assert np.array_equal(fundamental_rep(AlgebraElement(A2, {ALPHA: 1})), np.array([[0, 1], [0, 0]], dtype=complex))


def test_operator_norm_of_transition_is_one():
    assert operator_norm(AlgebraElement(A2, {ALPHA: 1})) == pytest.approx(1.0, abs=1e-14)
    assert operator_norm(algebra_unit(A2)) == pytest.approx(1.0, abs=1e-14)


def test_pair_groupoid_matrix_isomorphism_integer_exact():
    rng = np.random.default_rng(11)
    g = build_pair_groupoid(4)
    names = [(g.target[e], g.source[e]) for e in g.elements]
    idx = {o: k for k, o in enumerate(g.outcomes)}
    for _ in range(100):
        ca = rng.integers(-9, 10, size=len(g.elements))
        cb = rng.integers(-9, 10, size=len(g.elements))
        a = AlgebraElement(g, dict(zip(g.elements, (complex(int(x)) for x in ca))))
        b = AlgebraElement(g, dict(zip(g.elements, (complex(int(x)) for x in cb))))
        ma = np.zeros((4, 4), dtype=complex)
        mb = np.zeros((4, 4), dtype=complex)
        for e, (t, s) in zip(g.elements, names):
            ma[idx[t], idx[s]] = a[e]
            mb[idx[t], idx[s]] = b[e]
        prod = convolve(a, b)
        mprod = ma @ mb
        for e, (t, s) in zip(g.elements, names):
            assert prod[e] == mprod[idx[t], idx[s]]


def test_lagrangian_element_is_observable():
    ell = qubit_lagrangian(0.7, -0.3, 1.1, 0.25)
    a = lagrangian_element(ell)
    assert is_observable(a)
    assert a[ALPHA] == 1.1 + 0.25j
    assert a[ALPHA_INV] == 1.1 - 0.25j


def test_element_from_lines_reads_a_hand_written_file():
    text = f"# weights\n\n{ALPHA} = 0.5,-2  # the flip\n  {UNIT_PLUS} = {math.pi!r}, 0\n"
    assert element_from_lines(A2, text) == AlgebraElement(A2, {ALPHA: 0.5 - 2j, UNIT_PLUS: math.pi})


def test_element_from_lines_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown element"):
        element_from_lines(A2, "nope = 1,0\n")


@pytest.mark.parametrize("value", ["nan,0", "0,inf", "-inf,1", "1,NaN"])
def test_element_from_lines_rejects_non_finite_parts(value):
    with pytest.raises(ValueError, match=r"^line 2: expected finite reals"):
        element_from_lines(A2, f"{ALPHA} = 1,0\n{UNIT_PLUS} = {value}\n")


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.nan)])
def test_non_finite_weight_is_not_self_adjoint(z):
    values = {e: 0j for e in A2.elements}
    values[UNIT_PLUS] = z
    with pytest.raises(ValueError, match="not self-adjoint at 1\\+"):
        QLagrangian(A2, values)


def test_scalar_and_linear_ops():
    a = AlgebraElement(A2, {ALPHA: 2.0})
    b = AlgebraElement(A2, {ALPHA_INV: 3.0})
    assert (a + b)[ALPHA] == 2.0
    assert (a - b)[ALPHA_INV] == -3.0
    assert (2j * a)[ALPHA] == 4j
    assert (-a)[ALPHA] == -2.0


def test_cross_groupoid_operations_rejected():
    with pytest.raises(ValueError):
        convolve(AlgebraElement(A2, {ALPHA: 1}), AlgebraElement(P3, {pair_element("x1", "x2"): 1}))


def _reference_convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The label-dict loop convolve replaced, verbatim: the bit-for-bit oracle."""
    a._check_same(b)
    g = a.groupoid
    out: dict[str, complex] = {}
    for beta, ca in a.coefficients.items():
        for alpha, cb in b.coefficients.items():
            gamma = g.compose_table.get((beta, alpha))
            if gamma is None:
                continue
            out[gamma] = out.get(gamma, 0) + ca * cb
    return AlgebraElement(g, out)


# pair:2 on x1, x2 beside a trivial outcome y, as in test_histories.py
MIXED = build_from_table(
    groupoid_to_text(build_pair_groupoid(2)).replace("outcomes: x1 x2", "outcomes: x1 y x2")
    + "element: (y,y) y y\nunit: y (y,y)\ninverse: (y,y) (y,y)\ncompose: (y,y) (y,y) = (y,y)\n"
)

_PARTS = (0.0, -0.0, 1.0, -2.5, 1e-300, -1e-300, 3e150)


def _seeded_element(g, rng) -> AlgebraElement:
    """Coefficients on a random subset (possibly empty, in random order) of g."""
    density = rng.choice((0.0, 0.3, 0.7, 1.0))
    chosen = [e for e in g.elements if rng.random() < density]
    rng.shuffle(chosen)

    def part():
        return rng.choice(_PARTS) if rng.random() < 0.3 else rng.normal()

    return AlgebraElement(g, {e: complex(part(), part()) for e in chosen})


def _bits(a: AlgebraElement) -> list[tuple[str, str]]:
    return [(k, repr(v)) for k, v in a.coefficients.items()]


def test_convolve_matches_dict_loop_bit_for_bit():
    rng = np.random.default_rng(20240611)
    groupoids = [A2, MIXED, *(build_pair_groupoid(n) for n in range(1, 9))]
    signed_zeros = 0
    for case in range(1400):
        g = groupoids[case % len(groupoids)]
        a, b = _seeded_element(g, rng), _seeded_element(g, rng)
        got, want = convolve(a, b), _reference_convolve(a, b)
        assert _bits(got) == _bits(want)
        assert all(type(v) is complex for v in got.coefficients.values())
        assert np.array_equal(fundamental_rep(got), fundamental_rep(want))
        signed_zeros += any(str(v).startswith("(-0") or "-0j" in str(v) for v in want.coefficients.values())
    assert signed_zeros > 0
    empty = AlgebraElement(A2, {})
    assert _bits(convolve(empty, algebra_unit(A2) * 1j)) == _bits(_reference_convolve(empty, algebra_unit(A2) * 1j)) == []


# Z3 as loops at o beside a lone unit at p, as in test_groupoid.py: three
# coefficients add up in the [o, o] entry.
Z3_BESIDE_UNIT = build_from_table(
    "outcomes: o p\nelement: e o o\nelement: u p p\nelement: r o o\nelement: s o o\n"
    "unit: o e\nunit: p u\ninverse: e e\ninverse: u u\ninverse: r s\n"
    + "".join(f"compose: {b} {a} = {c}\n" for b, a, c in (
        ("e", "e", "e"), ("e", "r", "r"), ("e", "s", "s"), ("r", "e", "r"), ("r", "r", "s"),
        ("r", "s", "e"), ("s", "e", "s"), ("s", "r", "e"), ("s", "s", "r"), ("u", "u", "u"),
    ))
)


def _reference_rep(a: AlgebraElement) -> np.ndarray:
    """The label loop fundamental_rep replaced, verbatim: the bit-for-bit oracle."""
    g = a.groupoid
    idx = {o: i for i, o in enumerate(g.outcomes)}
    m = np.zeros((len(g.outcomes), len(g.outcomes)), dtype=complex)
    for el, c in a.coefficients.items():
        m[idx[g.target[el]], idx[g.source[el]]] += c
    return m


def test_fundamental_rep_matches_label_loop_bit_for_bit():
    rng = np.random.default_rng(20261018)
    groupoids = [A2, MIXED, Z3_BESIDE_UNIT, *(build_pair_groupoid(n) for n in (1, 2, 3, 5, 8, 12))]
    for case in range(600):
        a = _seeded_element(groupoids[case % len(groupoids)], rng)
        assert fundamental_rep(a).tobytes() == _reference_rep(a).tobytes()
    assert fundamental_rep(algebra_unit(A2) * 1j).tobytes() == _reference_rep(algebra_unit(A2) * 1j).tobytes()
    shared = AlgebraElement(Z3_BESIDE_UNIT, {"s": 1e16, "r": 1.0, "e": -1e16})
    assert fundamental_rep(shared).tobytes() == _reference_rep(shared).tobytes()
    assert fundamental_rep(shared)[0, 0] == 0  # (1e16 + 1) - 1e16 in coefficient order


# Z2 x pair(a, b) beside c: two parallel transitions join every ordered pair
# of a and b, so several coefficients add up in each of their matrix entries
Z2_PAIR = build_from_table((Path(__file__).parent / "golden" / "z2_pair.groupoid").read_text(encoding="utf-8"))


def test_convolve_overflow_matches_complex_multiply_without_warnings():
    g = build_pair_groupoid(3)
    big = {e: complex(1e200, 1e200 * (-1) ** k) for k, e in enumerate(g.elements)}
    a = AlgebraElement(g, big)
    b = AlgebraElement(g, {e: complex(1e200, 0.5) for e in g.elements})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = convolve(a, b)
    want = _reference_convolve(a, b)
    assert _bits(got) == _bits(want)
    assert any(math.isinf(v.real) or math.isinf(v.imag) for v in got.coefficients.values())
    assert any(math.isnan(v.real) or math.isnan(v.imag) for v in got.coefficients.values())


def _chained_convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The label loop over a's then b's coefficients that skips the pairs whose
    endpoints do not chain or whose cell is undefined: the bit-for-bit oracle on
    any table, broken ones included.  On a valid table it is _reference_convolve."""
    g = a.groupoid
    out: dict[str, complex] = {}
    for beta, ca in a.coefficients.items():
        for alpha, cb in b.coefficients.items():
            if g.source[beta] != g.target[alpha]:
                continue
            gamma = g.compose_table.get((beta, alpha))
            if gamma is not None:
                out[gamma] = out.get(gamma, 0) + ca * cb
    return AlgebraElement(g, out)


_LOOP_BASES = (A2, MIXED, Z3_BESIDE_UNIT, Z2_PAIR, *(build_pair_groupoid(n) for n in range(1, 6)))
# signed zeros, tiny parts, and parts whose products overflow to inf (and inf - inf to nan)
_LOOP_PARTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200, 3e150)),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _loop_cases(draw):
    """Two elements, each on a drawn subset in a drawn order, over a groupoid whose
    table may be broken: a cell undefined, defined for a pair that does not chain,
    or pointed at another element."""
    g = draw(st.sampled_from(_LOOP_BASES))
    table = dict(g.compose_table)
    for kind in draw(st.lists(st.sampled_from(("undefine", "unchained", "wrong")), max_size=3)):
        if kind == "undefine" and table:
            del table[draw(st.sampled_from(sorted(table)))]
        elif kind == "unchained":
            apart = [(b, a) for b in g.elements for a in g.elements if g.source[b] != g.target[a]]
            if apart:
                table[draw(st.sampled_from(apart))] = draw(st.sampled_from(g.elements))
        elif kind == "wrong" and table:
            table[draw(st.sampled_from(sorted(table)))] = draw(st.sampled_from(g.elements))
    maps = {name: getattr(g, name) for name in ("source", "target", "unit_of", "inverse")}
    g = FiniteGroupoid(g.outcomes, g.elements, **maps, compose_table=table)

    def element() -> AlgebraElement:
        keys = draw(st.lists(st.sampled_from(g.elements), unique=True))
        parts = draw(st.lists(st.tuples(_LOOP_PARTS, _LOOP_PARTS), min_size=len(keys), max_size=len(keys)))
        return AlgebraElement(g, {k: complex(*p) for k, p in zip(keys, parts)})

    return element(), element()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_loop_cases())
def test_convolve_and_rep_match_label_loops_bit_for_bit(case):
    a, b = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = convolve(a, b)
        reps = [fundamental_rep(x).tobytes() for x in (a, b, got)]
    with np.errstate(over="ignore", invalid="ignore"):  # the loops add inf and -inf as numpy scalars
        want = _chained_convolve(a, b)
        assert reps == [_reference_rep(x).tobytes() for x in (a, b, got)]
    assert _bits(got) == _bits(want)
    assert all(type(v) is complex for v in got.coefficients.values())
    values = [p for v in want.coefficients.values() for p in (v.real, v.imag)]
    event("inf" if any(math.isinf(p) for p in values) else "finite")
    event("signed zero" if any(p == 0 and math.copysign(1, p) < 0 for p in values) else "no signed zero")
    event("broken" if not validate_axioms(a.groupoid).ok else "valid")
