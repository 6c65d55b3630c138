"""The array-backed structure maps and weights against the label loops they replaced.

Each oracle below is the label-dict code that the arrays replaced, kept
verbatim: the views must equal the label mappings, and the weights,
verdicts and messages built on the arrays must match the loops bit for bit.
"""

import cmath
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm.groupoid import (
    FiniteGroupoid,
    OutcomePartition,
    build_from_table,
    build_pair_groupoid,
    pair_element,
)
from groupoidqm.lagrangian import OutcomeBias, QLagrangian, SELF_ADJOINT_TOL
from groupoidqm.algebra import AlgebraElement, fundamental_rep
from groupoidqm.coarse import coarse_grain, pair_index
from groupoidqm.histories import n_step_path_sum, single_step_matrix
from groupoidqm.cli import RunConfig, _build_lagrangian

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


# ---------------------------------------------------------------------------
# Generated groupoid files: disjoint unions of pair groupoids times Z_q, so a
# component with q > 1 has q parallel transitions per ordered outcome pair.


@st.composite
def groupoid_files(draw):
    """(text, oracle) of a groupoid file in shuffled order and its label dicts."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    outcomes, elements, source, target, unit_of, inverse, compose = [], [], {}, {}, {}, {}, {}
    for c, (m, q) in enumerate(shapes):
        objs = [f"o{c}.{i}" for i in range(m)]
        outcomes += objs

        def name(y, x, s):
            return f"g{c}:{y}:{x}:{s}"

        for y in range(m):
            for x in range(m):
                for s in range(q):
                    e = name(y, x, s)
                    elements.append(e)
                    source[e], target[e] = objs[x], objs[y]
                    inverse[e] = name(x, y, -s % q)
                    for z in range(m):
                        for t in range(q):
                            compose[(name(z, y, t), e)] = name(z, x, (s + t) % q)
        for i, o in enumerate(objs):
            unit_of[o] = name(i, i, 0)
    rng.shuffle(outcomes)
    rng.shuffle(elements)
    lines = ["outcomes: " + " ".join(outcomes)]
    lines += [f"element: {e} {source[e]} {target[e]}" for e in elements]
    lines += [f"unit: {o} {u}" for o, u in unit_of.items()]
    lines += [f"inverse: {e} {inverse[e]}" for e in elements]
    cells = [f"compose: {b} {a} = {c}" for (b, a), c in compose.items()]
    rng.shuffle(cells)
    oracle = {"outcomes": tuple(outcomes), "elements": tuple(elements), "source": source, "target": target,
              "unit_of": unit_of, "inverse": inverse, "compose_table": compose}
    return "\n".join(lines + cells) + "\n", oracle


def _pair_oracle(n: int) -> dict:
    labels = tuple(f"x{i}" for i in range(1, n + 1))
    elements = tuple(pair_element(y, x) for y in labels for x in labels)
    return {
        "outcomes": labels,
        "elements": elements,
        "source": {pair_element(y, x): x for y in labels for x in labels},
        "target": {pair_element(y, x): y for y in labels for x in labels},
        "unit_of": {x: pair_element(x, x) for x in labels},
        "inverse": {pair_element(y, x): pair_element(x, y) for y in labels for x in labels},
        "compose_table": {(pair_element(z, y), pair_element(y, x)): pair_element(z, x)
                          for z in labels for y in labels for x in labels},
    }


def _check_views(g: FiniteGroupoid, oracle: dict) -> None:
    assert (g.outcomes, g.elements) == (oracle["outcomes"], oracle["elements"])
    for name, keys, labels in (("source", g.elements, g.outcomes), ("target", g.elements, g.outcomes),
                               ("unit_of", g.outcomes, g.elements), ("inverse", g.elements, g.elements)):
        view, want = getattr(g, name), oracle[name]
        ordered = {k: want[k] for k in keys}
        assert dict(view) == want and view == want
        assert list(view.items()) == list(ordered.items())
        assert len(view) == len(want) and all(k in view for k in want) and "nope" not in view
        assert view.array.tolist() == [labels.index(want[k]) for k in keys]
        with pytest.raises(ValueError):
            view.array[0] = 0
        with pytest.raises(KeyError):
            view["nope"]
        with pytest.raises(TypeError):
            view[keys[0]] = want[keys[0]]
    assert dict(g.compose_table) == oracle["compose_table"]


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_views_equal_label_dicts(n):
    _check_views(build_pair_groupoid(n), _pair_oracle(n))


@PROPERTY
@given(groupoid_files())
def test_file_views_equal_label_dicts(case):
    text, oracle = case
    g = build_from_table(text)
    _check_views(g, oracle)
    rebuilt = FiniteGroupoid(**{k: v for k, v in oracle.items()})
    _check_views(rebuilt, oracle)
    assert rebuilt == g and g == rebuilt


def _reference_equal(x: FiniteGroupoid, y: FiniteGroupoid) -> bool:
    """The label-dict comparison of every map that FiniteGroupoid.__eq__ replaced."""
    return (
        set(x.outcomes) == set(y.outcomes)
        and set(x.elements) == set(y.elements)
        and all(dict(getattr(x, m)) == dict(getattr(y, m))
                for m in ("source", "target", "unit_of", "inverse", "compose_table"))
    )


@PROPERTY
@given(groupoid_files(), st.sampled_from(("source", "target", "unit_of", "inverse", "none")), st.integers(0, 10**6))
def test_equality_matches_label_dict_comparison(case, changed, seed):
    text, oracle = case
    g = build_from_table(text)
    rng = random.Random(seed)
    maps = {k: dict(v) if isinstance(v, dict) else v for k, v in oracle.items()}
    maps["outcomes"] = tuple(rng.sample(oracle["outcomes"], len(oracle["outcomes"])))
    maps["elements"] = tuple(rng.sample(oracle["elements"], len(oracle["elements"])))
    if changed != "none":
        keys = list(maps[changed])
        pool = oracle["outcomes"] if changed in ("source", "target") else oracle["elements"]
        maps[changed][rng.choice(keys)] = rng.choice(pool)
    other = FiniteGroupoid(**maps)
    assert (g == other) == (other == g) == _reference_equal(g, other)


# ---------------------------------------------------------------------------
# pair_index


def _reference_is_principal(g: FiniteGroupoid) -> bool:
    """The label comprehension that pair_index's check replaced."""
    k = len(g.outcomes)
    idx = {o: i for i, o in enumerate(g.outcomes)}
    pairs = [idx[g.target[e]] * k + idx[g.source[e]] for e in g.elements]
    return bool(np.all(np.bincount(pairs, minlength=k * k) == 1))


@PROPERTY
@given(groupoid_files())
def test_pair_index_matches_comprehension(case):
    g = build_from_table(case[0])
    assert (pair_index(g) is not None) == _reference_is_principal(g)


def test_pair_index_on_pair_groupoids():
    for n in range(1, 9):
        g = build_pair_groupoid(n)
        at = pair_index(g)
        assert _reference_is_principal(g)
        assert [[g.elements[i] for i in row] for row in at.tolist()] == [
            [pair_element(t, s) for s in g.outcomes] for t in g.outcomes
        ]


# ---------------------------------------------------------------------------
# QLagrangian's self-adjointness check


def _reference_check(g: FiniteGroupoid, values) -> None:
    """The per-element loop QLagrangian's vector comparison replaced."""
    vals = {k: complex(v) for k, v in values.items()}
    missing = set(g.elements) - set(vals)
    if missing:
        raise ValueError(f"lagrangian missing values for {sorted(missing)}")
    extra = set(vals) - set(g.elements)
    if extra:
        raise ValueError(f"lagrangian has values for unknown elements {sorted(extra)}")
    for a in g.elements:
        gap = abs(vals[a] - vals[g.inverse[a]].conjugate())
        if not gap <= SELF_ADJOINT_TOL:  # a NaN gap fails too
            raise ValueError(
                f"lagrangian is not self-adjoint at {a}: "
                f"l({a}) = {vals[a]}, conj(l({g.inverse[a]})) = {vals[g.inverse[a]].conjugate()}"
            )


def _outcome(fn):
    try:
        fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


_PART = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-11, 1e308, -1e308, 1.5e308, math.inf, -math.inf, math.nan]),
)


@st.composite
def lagrangian_cases(draw, parts=_PART, broken=True):
    """A groupoid and weights: self-adjoint pairs, some of them nudged or broken."""
    if draw(st.booleans()):
        g = build_pair_groupoid(draw(st.integers(1, 8)))
    else:
        g = build_from_table(draw(groupoid_files())[0])
    values = {}
    for e in g.elements:
        if e in values:
            continue
        z = complex(draw(parts), draw(parts))
        inv = g.inverse[e]
        if inv == e:
            z = complex(z.real, 0.0)
        values[e] = z
        mate = z.conjugate()
        kind = draw(st.integers(0, 7)) if broken else 0
        if kind == 1:
            mate += complex(draw(_PART), draw(_PART))
        elif kind == 2:
            mate += draw(st.sampled_from([1e-13, 1e-11, 1e-13j, -1e-11j]))
        if inv != e:
            values[inv] = mate
        elif kind == 1:
            values[e] = mate
    return g, values


@PROPERTY
@given(lagrangian_cases())
def test_qlagrangian_accepts_and_rejects_as_the_loop(case):
    g, values = case
    want = _outcome(lambda: _reference_check(g, values))
    assert _outcome(lambda: QLagrangian(g, values)) == want
    by_index = np.array([values[e] for e in g.elements], dtype=complex)
    assert _outcome(lambda: QLagrangian(g, by_index)) == want
    if want is None:
        ell = QLagrangian(g, values)
        assert [bits(ell[e]) for e in g.elements] == [bits(values[e]) for e in g.elements]
        assert all(type(ell[e]) is complex for e in g.elements)
        assert QLagrangian(g, ell.values) == ell


def test_qlagrangian_overflowing_gap_raises_as_the_loop():
    g = build_pair_groupoid(2)
    up, down = pair_element("x2", "x1"), pair_element("x1", "x2")
    values = {e: 0j for e in g.elements}
    values[up], values[down] = complex(1e308, 1e308), complex(-0.5e308, 0.5e308)
    want = _outcome(lambda: _reference_check(g, values))
    assert want == (OverflowError, "absolute value too large")
    assert _outcome(lambda: QLagrangian(g, values)) == want


def test_qlagrangian_rejects_a_misshapen_array():
    g = build_pair_groupoid(2)
    with pytest.raises(ValueError, match="needs 4 weights"):
        QLagrangian(g, np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# CLI weights


def _reference_index_diff(g: FiniteGroupoid, s: float) -> dict:
    idx = {o: i for i, o in enumerate(g.outcomes)}
    return {e: 1j * s * (idx[g.target[e]] - idx[g.source[e]]) for e in g.elements}


def _overflow_outcome(g: FiniteGroupoid, want: dict):
    """The error of an index_diff scale that overflows: the first weight that is not finite, by name."""
    e = next(e for e in g.elements if not cmath.isfinite(want[e]))
    return OverflowError, f"index_diff weight {want[e]} of {e} is not finite"


_SCALES = [0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]


@pytest.mark.skipif(sys.version_info >= (3, 14), reason="3.14 multiplies a complex by a real componentwise")
@pytest.mark.parametrize("s", _SCALES, ids=repr)
def test_index_diff_weights_are_the_python_expression_bit_for_bit(s):
    for g in (build_pair_groupoid(n) for n in range(1, 9)):
        want = _reference_index_diff(g, s)
        cfg = RunConfig(groupoid_spec="pair:x", pair_lagrangian=f"index_diff:{s!r}")
        got = _outcome(lambda: _build_lagrangian(cfg, g))
        if got is not None:
            assert got == _overflow_outcome(g, want)
            continue
        ell = _build_lagrangian(cfg, g)
        assert [bits(ell[e]) for e in g.elements] == [bits(want[e]) for e in g.elements]


@pytest.mark.skipif(sys.version_info >= (3, 14), reason="3.14 multiplies a complex by a real componentwise")
@PROPERTY
@given(groupoid_files(), st.floats(allow_nan=False, allow_infinity=False))
def test_index_diff_weights_on_groupoid_files(case, s):
    g = build_from_table(case[0])
    want = _reference_index_diff(g, s)
    cfg = RunConfig(groupoid_spec="file", pair_lagrangian=f"index_diff:{s!r}")
    got = _outcome(lambda: _build_lagrangian(cfg, g))
    if got is not None:
        assert got == _overflow_outcome(g, want)
    else:
        ell = _build_lagrangian(cfg, g)
        assert [bits(ell[e]) for e in g.elements] == [bits(want[e]) for e in g.elements]


@pytest.mark.parametrize("r", [0.0, -0.0, -0.35, 2.5], ids=repr)
def test_constant_weights_are_the_python_expression(r):
    g = build_pair_groupoid(4)
    ell = _build_lagrangian(RunConfig(groupoid_spec="pair:4", pair_lagrangian=f"constant:{r!r}"), g)
    assert [bits(ell[e]) for e in g.elements] == [bits(complex(r, 0.0))] * len(g.elements)


# ---------------------------------------------------------------------------
# coarse_grain


def _reference_coarse_values(g: FiniteGroupoid, partition: OutcomePartition, ell: QLagrangian) -> dict:
    """The label loop coarse_grain's gathers replaced."""
    by_pair = {(g.target[e], g.source[e]): e for e in g.elements}
    labels = tuple(partition.block_label(b) for b in partition.blocks)
    values = {}
    for bt, lt in zip(partition.blocks, labels):
        for bs, ls in zip(partition.blocks, labels):
            total = 0j
            for y in bt:
                for x in bs:
                    total += ell[by_pair[(y, x)]]
            values[pair_element(lt, ls)] = total / (len(bt) * len(bs))
    return values


@st.composite
def coarse_cases(draw):
    n = draw(st.integers(1, 8))
    g = build_pair_groupoid(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labels = list(g.outcomes)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = tuple(tuple(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
    part = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300]))
    values = {}
    for e in g.elements:
        if e not in values:
            z = complex(draw(part), draw(part))
            if g.inverse[e] == e:
                z = complex(z.real, draw(st.sampled_from([0.0, -0.0])))
            values[e], values[g.inverse[e]] = z, z.conjugate()
    return g, OutcomePartition(blocks), QLagrangian(g, values)


@PROPERTY
@given(coarse_cases())
def test_coarse_grain_weights_are_the_label_loop_bit_for_bit(case):
    g, partition, ell = case
    want = _reference_coarse_values(g, partition, ell)
    # Block sums in different orders can leave huge means outside the
    # self-adjointness tolerance; the quotient must then fail as it did.
    labels = tuple(partition.block_label(b) for b in partition.blocks)
    verdict = _outcome(lambda: QLagrangian(build_pair_groupoid(labels), want))
    assert _outcome(lambda: coarse_grain(g, partition, ell)) == verdict
    if verdict is not None:
        return
    quotient, got = coarse_grain(g, partition, ell)
    assert quotient.elements == tuple(want)
    for e, z in want.items():
        w = got[e]
        assert bits(w) == bits(z)
        assert math.copysign(1.0, w.real) == math.copysign(1.0, z.real)
        assert math.copysign(1.0, w.imag) == math.copysign(1.0, z.imag)


# ---------------------------------------------------------------------------
# Consumers: single_step_matrix and fundamental_rep


def _reference_exp(z):
    """cmath.exp(z); an overflow names its exponent, as the library reports it."""
    try:
        return cmath.exp(z)
    except OverflowError:
        raise OverflowError(f"exp of exponent {z} overflows") from None


def _reference_single_step(g, ell, bias, tau, hbar):
    idx = {o: i for i, o in enumerate(g.outcomes)}
    n = len(g.outcomes)
    m = np.zeros((n, n), dtype=complex)
    for e in g.elements:
        a, b = g.source[e], g.target[e]
        m[idx[b], idx[a]] += math.sqrt(bias[a] * bias[b]) * _reference_exp(1j * (ell[e] * tau) / hbar)
    return m


def _reference_rep(a: AlgebraElement) -> np.ndarray:
    g = a.groupoid
    idx = {o: i for i, o in enumerate(g.outcomes)}
    m = np.zeros((len(g.outcomes), len(g.outcomes)), dtype=complex)
    rows = np.array([idx[g.target[el]] for el in a.coefficients], dtype=np.intp)
    cols = np.array([idx[g.source[el]] for el in a.coefficients], dtype=np.intp)
    np.add.at(m, (rows, cols), np.array(list(a.coefficients.values()), dtype=complex))
    return m


@PROPERTY
@given(lagrangian_cases(parts=st.floats(-3.0, 3.0), broken=False), st.floats(0.1, 2.0), st.floats(0.5, 2.0))
def test_consumers_read_the_arrays_bit_for_bit(case, tau, hbar):
    g, values = case
    ell = QLagrangian(g, values)
    bias = OutcomeBias.uniform(g)
    got, want = single_step_matrix(g, ell, bias, tau, hbar), _reference_single_step(g, ell, bias, tau, hbar)
    assert got.tobytes() == want.tobytes()
    a = AlgebraElement(g, dict(reversed(list(values.items()))))
    assert fundamental_rep(a).tobytes() == _reference_rep(a).tobytes()


@PROPERTY
@given(coarse_cases(), st.randoms(use_true_random=False))
def test_lagrangian_on_an_equal_groupoid_in_another_order_is_read_by_label(case, rnd):
    g, partition, ell = case
    outcomes = list(g.outcomes)
    rnd.shuffle(outcomes)
    other = build_pair_groupoid(tuple(outcomes))  # equal to g, elements declared in another order
    assert other == g
    moved = QLagrangian(other, dict(ell.values))
    assert moved.weights_on(g).tobytes() == ell.values.array.tobytes()
    assert moved.weights_on(other) is moved.values.array
    bias = OutcomeBias.uniform(g)
    verdict = _outcome(lambda: _reference_single_step(g, moved, bias, 0.7, 1.3))  # 1e300 weights overflow
    assert _outcome(lambda: single_step_matrix(g, moved, bias, 0.7, 1.3)) == verdict
    if verdict is None:
        want = _reference_single_step(g, moved, bias, 0.7, 1.3)
        assert single_step_matrix(g, moved, bias, 0.7, 1.3).tobytes() == want.tobytes()
        assert n_step_path_sum(g, moved, bias, 0.7, 1.3, 1).tobytes() == want.tobytes()
    verdict = _outcome(lambda: coarse_grain(g, partition, ell))
    assert _outcome(lambda: coarse_grain(g, partition, moved)) == verdict
    if verdict is None:
        want = _reference_coarse_values(g, partition, moved)
        _, got = coarse_grain(g, partition, moved)
        assert [bits(got[e]) for e in want] == [bits(z) for z in want.values()]


def test_index_views_reject_arrays_outside_their_labels():
    from groupoidqm.groupoid import _IndexMap

    keys, labels = ("a", "b", "c"), ("x", "y")
    index = {k: i for i, k in enumerate(keys)}
    assert dict(_IndexMap(keys, index, labels, np.array([0, 1, 1]))) == {"a": "x", "b": "y", "c": "y"}
    for bad in ([0, 1, 2], [0, -1, 1]):
        with pytest.raises(ValueError, match="outside its labels"):
            _IndexMap(keys, index, labels, np.array(bad))
    with pytest.raises(ValueError, match="expected 3 entries"):
        _IndexMap(keys, index, labels, np.array([0, 1]))
