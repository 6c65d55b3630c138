import hashlib
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from groupoidqm import groupoid as groupoid_module
from groupoidqm.groupoid import (
    ALPHA,
    ALPHA_INV,
    AxiomFailure,
    FiniteGroupoid,
    GroupoidParseError,
    NOT_COMPOSABLE,
    NotComposable,
    OUT_MINUS,
    OUT_PLUS,
    OutcomePartition,
    UNIT_MINUS,
    UNIT_PLUS,
    ValidationReport,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    multiplication_table,
    pair_element,
    validate_axioms,
)
from groupoidqm.lagrangian import QLagrangian
from groupoidqm.coarse import coarse_grain, pair_index

from groupoid_text import groupoid_to_text

A2_COMPOSITIONS = {
    (UNIT_PLUS, UNIT_PLUS): UNIT_PLUS,
    (UNIT_PLUS, ALPHA_INV): ALPHA_INV,
    (UNIT_MINUS, UNIT_MINUS): UNIT_MINUS,
    (UNIT_MINUS, ALPHA): ALPHA,
    (ALPHA, UNIT_PLUS): ALPHA,
    (ALPHA, ALPHA_INV): UNIT_MINUS,
    (ALPHA_INV, UNIT_MINUS): ALPHA_INV,
    (ALPHA_INV, ALPHA): UNIT_PLUS,
}


def test_a2_multiplication_all_16_cells():
    g = build_a2()
    assert len(g.elements) == 4
    for beta in g.elements:
        for alpha in g.elements:
            if (beta, alpha) in A2_COMPOSITIONS:
                assert g.compose(beta, alpha) == A2_COMPOSITIONS[(beta, alpha)]
            else:
                assert not g.is_composable(beta, alpha)
                with pytest.raises(NotComposable):
                    g.compose(beta, alpha)


def test_a2_worked_compositions():
    g = build_a2()
    assert g.compose(ALPHA, UNIT_PLUS) == ALPHA
    assert g.compose(UNIT_MINUS, ALPHA) == ALPHA
    assert g.compose(ALPHA_INV, ALPHA) == UNIT_PLUS
    assert g.compose(ALPHA, ALPHA_INV) == UNIT_MINUS


def test_a2_structure():
    g = build_a2()
    assert g.outcomes == (OUT_MINUS, OUT_PLUS)
    assert g.source[ALPHA] == OUT_PLUS and g.target[ALPHA] == OUT_MINUS
    assert g.inverse[ALPHA] == ALPHA_INV
    assert g.inverse[UNIT_MINUS] == UNIT_MINUS
    assert g.unit_of[OUT_PLUS] == UNIT_PLUS
    assert validate_axioms(g).ok


def test_not_composable_message_names_endpoints():
    g = build_a2()
    with pytest.raises(NotComposable) as exc:
        g.compose(ALPHA, ALPHA)
    assert exc.value.beta == ALPHA
    assert exc.value.alpha == ALPHA
    assert "->" in str(exc.value)


def test_compose_unknown_element():
    g = build_a2()
    with pytest.raises(KeyError):
        g.compose("nope", ALPHA)


def test_pair_groupoid_counts_and_rule():
    for n in (1, 2, 3, 5):
        g = build_pair_groupoid(n)
        assert len(g.outcomes) == n
        assert len(g.elements) == n * n
        assert validate_axioms(g).ok
    g = build_pair_groupoid(["a", "b", "c"])
    assert g.compose(pair_element("c", "b"), pair_element("b", "a")) == pair_element("c", "a")
    assert g.inverse[pair_element("c", "a")] == pair_element("a", "c")
    assert g.unit_of["b"] == pair_element("b", "b")
    # (z,y) after (y',x) only chains when y == y'
    assert not g.is_composable(pair_element("c", "b"), pair_element("a", "a"))


def test_pair_groupoid_rejects_bad_labels():
    with pytest.raises(ValueError):
        build_pair_groupoid(0)
    with pytest.raises(ValueError):
        build_pair_groupoid(["a", "a"])
    with pytest.raises(ValueError):
        build_pair_groupoid(["a b"])
    with pytest.raises(ValueError):
        build_pair_groupoid(["a,b"])


def test_pair_groupoid_of_a_size_is_one_shared_read_only_value():
    g = build_pair_groupoid(3)
    assert build_pair_groupoid(3) is g
    assert build_pair_groupoid(("x1", "x2", "x3")) == g
    listed = build_pair_groupoid(["a", "b"])
    assert listed.outcomes == ("a", "b") and len(listed.elements) == 4 and validate_axioms(listed).ok
    for array in (g.source.array, g.target.array, g.inverse.array, g.unit_of.array, g.compose_table.table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert build_pair_groupoid(3) == build_pair_groupoid(["x1", "x2", "x3"])
    # a size the checks reject raises on every call: no error is kept
    for size, message in ((0, "at least 1"), (-40, "at least 1"), (33, "more than MAX_ELEMENTS")):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                build_pair_groupoid(size)


@pytest.mark.parametrize("build", [build_a2, lambda: build_pair_groupoid(3)], ids=["a2", "pair3"])
def test_shared_groupoid_arrays_cannot_be_made_writable(build):
    # build_a2() and build_pair_groupoid(3) hand every caller the same value: no holder of
    # an array behind its views, or of a weight array on it, can turn its write flag back on
    g = build()
    ell = QLagrangian(g, {e: 0.0 for e in g.elements})
    arrays = [g.source.array, g.target.array, g.inverse.array, g.unit_of.array, g.compose_table.table, ell.values.array]
    for array in arrays:
        chain = [array]
        while isinstance(chain[-1].base, np.ndarray):
            chain.append(chain[-1].base)
        assert isinstance(chain[-1].base, bytes)
        for a in chain:
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.setflags(write=True)
            assert not a.flags.writeable
    assert build() is g
    # the label index dicts stay plain dicts, so lookups cost no more
    assert all(type(view.index) is dict for view in (g.source, g.unit_of, g.compose_table))


def _corrupted_a2() -> FiniteGroupoid:
    g = build_a2()
    table = dict(g.compose_table)
    table[(ALPHA_INV, ALPHA)] = UNIT_MINUS
    return FiniteGroupoid(
        outcomes=g.outcomes,
        elements=g.elements,
        source=dict(g.source),
        target=dict(g.target),
        unit_of=dict(g.unit_of),
        inverse=dict(g.inverse),
        compose_table=table,
    )


def test_validate_axioms_reports_witnesses_on_corrupted_table():
    report = validate_axioms(_corrupted_a2())
    assert not report.ok
    axioms = {f.axiom for f in report.failures}
    assert "composition-endpoints" in axioms
    assert "inverse-law" in axioms
    assert "associativity" in axioms
    endpoint = next(f for f in report.failures if f.axiom == "composition-endpoints")
    assert ALPHA in endpoint.message and UNIT_MINUS in endpoint.message


def test_multiplication_table_layout():
    text = multiplication_table(build_a2())
    lines = text.splitlines()
    assert lines[0].split() == ["∘", UNIT_PLUS, UNIT_MINUS, ALPHA, ALPHA_INV]
    assert set(lines[1]) == {"-"}
    assert lines[2].split() == [UNIT_PLUS, UNIT_PLUS, "∗", "∗", ALPHA_INV]
    assert lines[3].split() == [UNIT_MINUS, "∗", UNIT_MINUS, ALPHA, "∗"]
    assert lines[4].split() == [ALPHA, ALPHA, "∗", "∗", UNIT_MINUS]
    assert lines[5].split() == [ALPHA_INV, "∗", ALPHA_INV, UNIT_PLUS, "∗"]


def test_multiplication_table_pair2_has_8_defined_cells():
    text = multiplication_table(build_pair_groupoid(2))
    body = text.splitlines()[2:]
    defined = sum(row.count("(") - 1 for row in body)
    assert len(body) == 4
    assert defined == 8


def test_text_round_trip():
    for g in (build_a2(), build_pair_groupoid(3)):
        assert build_from_table(groupoid_to_text(g)) == g


def test_round_trip_is_stable_text():
    g = build_pair_groupoid(2)
    once = groupoid_to_text(g)
    assert groupoid_to_text(build_from_table(once)) == once


GROUP_Z2 = """
# the two-element group viewed as a one-outcome groupoid
outcomes: o
element: e o o
element: s o o
unit: o e
inverse: e e
inverse: s s
compose: e e = e
compose: e s = s
compose: s e = s
compose: s s = e
"""


# Z3 as loops at o beside a lone unit at p: 4 = 2^2 elements, yet not principal.
# Three elements end at o and one at p, so associativity pads p's row of a's.
Z3_BESIDE_UNIT = """
outcomes: o p
element: e o o
element: u p p
element: r o o
element: s o o
unit: o e
unit: p u
inverse: e e
inverse: u u
inverse: r s
compose: e e = e
compose: e r = r
compose: e s = s
compose: r e = r
compose: r r = s
compose: r s = e
compose: s e = s
compose: s r = e
compose: s s = r
compose: u u = u
"""


def test_build_from_table_group_and_principality():
    g = build_from_table(GROUP_Z2)
    assert validate_axioms(g).ok
    assert pair_index(g) is None
    assert pair_index(build_a2()).tolist() == [[1, 2], [3, 0]]
    assert pair_index(build_pair_groupoid(4)).tolist() == [[4 * t + s for s in range(4)] for t in range(4)]


def _reference_pair_index(g: FiniteGroupoid) -> list[list[int]] | None:
    """The label-dict count is_principal replaced, with each pair's element index: the oracle."""
    found: dict[tuple[str, str], list[int]] = {}
    for i, e in enumerate(g.elements):
        found.setdefault((g.target[e], g.source[e]), []).append(i)
    rows = [[found.get((b, a), []) for a in g.outcomes] for b in g.outcomes]
    if any(len(cell) != 1 for row in rows for cell in row):
        return None
    return [[cell[0] for cell in row] for row in rows]


def test_pair_index_matches_dict_count_oracle():
    z3 = build_from_table(Z3_BESIDE_UNIT)
    assert len(z3.elements) == len(z3.outcomes) ** 2
    assert pair_index(z3) is None and _reference_pair_index(z3) is None
    groupoids = [
        build_a2(), z3, build_from_table(GROUP_Z2),
        *(build_pair_groupoid(n) for n in range(1, 6)), build_pair_groupoid(("q", "p", "r")),
    ]
    rng = random.Random(5)
    for base in (build_a2(), build_pair_groupoid(3), z3):
        groupoids += [_corrupt(base, rng, kinds=("source", "target"), count=1 + k % 2) for k in range(30)]
    verdicts = [_reference_pair_index(g) for g in groupoids]
    assert [None if (at := pair_index(g)) is None else at.tolist() for g in groupoids] == verdicts
    assert None in verdicts and any(v is not None for v in verdicts)


def test_build_from_table_missing_inverse():
    text = "\n".join(
        line for line in GROUP_Z2.splitlines() if not line.startswith("inverse: s")
    )
    with pytest.raises(GroupoidParseError, match="inverse undefined for s"):
        build_from_table(text)


@pytest.mark.parametrize("old, new, message", [
    ("element: s o o", "element: s q o", "source of element 's' is 'q', not a declared outcome"),
    ("element: s o o", "element: s o q", "target of element 's' is 'q', not a declared outcome"),
    ("unit: o e", "unit: o e\nunit: q e", "unit given for 'q', not a declared outcome"),
    ("unit: o e", "unit: o t", "unit of outcome 'o' is 't', not a declared element"),
    ("inverse: s s", "inverse: s t", "inverse of element 's' is 't', not a declared element"),
    ("compose: s s = e", "compose: s s = e\ncompose: s t = s",
     "composition 's' ∘ 't' = 's' names 't', not a declared element"),
])
def test_build_from_table_names_each_undeclared_label(old, new, message):
    # one check per fault, the constructor's, raised as a parse error
    with pytest.raises(GroupoidParseError) as exc:
        build_from_table(GROUP_Z2.replace(old, new))
    assert str(exc.value) == message


def test_constructor_names_a_missing_or_undeclared_key():
    g = build_a2()
    with pytest.raises(ValueError, match="^no source for element 'alpha'$"):
        replace(g, source={e: o for e, o in g.source.items() if e != ALPHA})
    with pytest.raises(ValueError, match="^inverse given for 'zz', not a declared element$"):
        replace(g, inverse={**g.inverse, "zz": ALPHA})


def test_build_from_table_missing_composition():
    text = "\n".join(
        line for line in GROUP_Z2.splitlines() if line != "compose: s s = e"
    )
    with pytest.raises(GroupoidParseError, match=r"missing composition for \(s, s\)"):
        build_from_table(text)


def test_build_from_table_rejects_non_composable_compose_line():
    # e loops at o and u at p, so e ∘ u does not chain.
    text = Z3_BESIDE_UNIT + "compose: e u = u\n"
    with pytest.raises(GroupoidParseError, match=r"\(e, u\) is not composable but the table defines it"):
        build_from_table(text)


def test_build_from_table_rejects_broken_axioms():
    text = GROUP_Z2.replace("compose: s s = e", "compose: s s = s")
    with pytest.raises(GroupoidParseError, match="axioms violated"):
        build_from_table(text)


def test_build_from_table_unit_inference_needs_unique_loop():
    # both e and s loop at o, so dropping the unit line is ambiguous
    text = "\n".join(line for line in GROUP_Z2.splitlines() if not line.startswith("unit:"))
    with pytest.raises(GroupoidParseError, match="unit undefined for o"):
        build_from_table(text)


def test_build_from_table_reports_line_numbers():
    with pytest.raises(GroupoidParseError, match="line 2"):
        build_from_table("outcomes: a\nbogus: x\n")


@pytest.mark.parametrize("line", ["compose: s s e e", "compose: s s =", "compose: s s = e e"])
def test_build_from_table_rejects_a_malformed_compose_line(line):
    text = GROUP_Z2.replace("compose: s s = e", line)
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(GroupoidParseError, match=f"^line {lineno}: compose line needs BETA ALPHA = GAMMA$"):
        build_from_table(text)


def test_build_from_table_infers_the_units_of_a2():
    # each outcome of a2 has one loop, its unit, so no unit line is needed
    text = "".join(line for line in groupoid_to_text(build_a2()).splitlines(keepends=True)
                   if not line.startswith("unit:"))
    assert "unit:" not in text
    g = build_from_table(text)
    assert g == build_a2()
    assert g.unit_of[OUT_MINUS] == UNIT_MINUS and g.unit_of[OUT_PLUS] == UNIT_PLUS


def test_outcome_partition_validation():
    g = build_pair_groupoid(4)
    OutcomePartition((("x1", "x2"), ("x3", "x4"))).validate_against(g.outcomes)
    with pytest.raises(ValueError):
        OutcomePartition((("x1",), ("x1", "x2")))
    with pytest.raises(ValueError):
        OutcomePartition((("x1", "x2"),)).validate_against(g.outcomes)
    with pytest.raises(ValueError):
        OutcomePartition((("x1", "x2", "x3", "x4", "x5"),)).validate_against(g.outcomes)


def test_coarse_grain_singleton_partition_is_identity():
    g = build_pair_groupoid(3)
    ell = QLagrangian(g, {e: 0.25 for e in g.elements})
    partition = OutcomePartition((("x1",), ("x2",), ("x3",)))
    h, ell2 = coarse_grain(g, partition, ell)
    assert h == g
    assert all(ell2[e] == 0.25 for e in h.elements)


def test_coarse_grain_constant_weight_stays_constant():
    g = build_pair_groupoid(4)
    ell = QLagrangian(g, {e: -1.5 for e in g.elements})
    h, ell2 = coarse_grain(g, OutcomePartition((("x1", "x3"), ("x2", "x4"))), ell)
    assert len(h.outcomes) == 2
    assert all(abs(ell2[e] + 1.5) < 1e-15 for e in h.elements)


def test_coarse_grain_index_difference_oracle():
    # l((y,x)) = i (idx(y) - idx(x)); averaging {x3,x4} <- {x1,x2} gives
    # mean(i*{2,1,3,2}) = 2i.
    g = build_pair_groupoid(4)
    idx = {o: k for k, o in enumerate(g.outcomes)}
    ell = QLagrangian(
        g, {e: 1j * (idx[g.target[e]] - idx[g.source[e]]) for e in g.elements}
    )
    h, ell2 = coarse_grain(g, OutcomePartition((("x1", "x2"), ("x3", "x4"))), ell)
    up = pair_element("{x3+x4}", "{x1+x2}")
    down = pair_element("{x1+x2}", "{x3+x4}")
    assert ell2[up] == 2j
    assert ell2[down] == -2j
    assert ell2[pair_element("{x1+x2}", "{x1+x2}")] == 0


def test_coarse_grain_rejects_non_principal():
    g = build_from_table(GROUP_Z2)
    ell = QLagrangian(g, {e: 0.0 for e in g.elements})
    with pytest.raises(ValueError, match="pair-structured"):
        coarse_grain(g, OutcomePartition((("o",),)), ell)


def _reference_validate(g: FiniteGroupoid) -> ValidationReport:
    """The scalar nested-loop walk over labels: the per-witness oracle."""
    failures: list[AxiomFailure] = []

    def fail(axiom: str, message: str) -> None:
        failures.append(AxiomFailure(axiom, message))

    table = g.compose_table
    for b in g.elements:
        for a in g.elements:
            defined = (b, a) in table
            composable = g.is_composable(b, a)
            if composable and not defined:
                fail("composition-domain", f"missing composition for ({b}, {a})")
            elif defined and not composable:
                fail("composition-domain", f"({b}, {a}) is not composable but the table defines it")
            elif defined:
                c = table[(b, a)]
                if g.source[c] != g.source[a] or g.target[c] != g.target[b]:
                    fail(
                        "composition-endpoints",
                        f"{b} ∘ {a} = {c} maps {g.source[c]} -> {g.target[c]}, "
                        f"expected {g.source[a]} -> {g.target[b]}",
                    )

    for o in g.outcomes:
        u = g.unit_of[o]
        if g.source[u] != o or g.target[u] != o:
            fail("unit-endpoints", f"unit {u} of outcome {o} maps {g.source[u]} -> {g.target[u]}")
    for a in g.elements:
        left_unit = g.unit_of[g.target[a]]
        right_unit = g.unit_of[g.source[a]]
        if table.get((left_unit, a)) != a:
            fail("unit-law", f"{left_unit} ∘ {a} = {table.get((left_unit, a))}, expected {a}")
        if table.get((a, right_unit)) != a:
            fail("unit-law", f"{a} ∘ {right_unit} = {table.get((a, right_unit))}, expected {a}")

    for a in g.elements:
        inv = g.inverse[a]
        if g.source[inv] != g.target[a] or g.target[inv] != g.source[a]:
            fail("inverse-endpoints", f"inverse of {a} is {inv} mapping {g.source[inv]} -> {g.target[inv]}")
            continue
        if g.inverse[inv] != a:
            fail("inverse-involution", f"inverse(inverse({a})) = {g.inverse[inv]}")
        if table.get((inv, a)) != g.unit_of[g.source[a]]:
            fail("inverse-law", f"{inv} ∘ {a} = {table.get((inv, a))}, expected {g.unit_of[g.source[a]]}")
        if table.get((a, inv)) != g.unit_of[g.target[a]]:
            fail("inverse-law", f"{a} ∘ {inv} = {table.get((a, inv))}, expected {g.unit_of[g.target[a]]}")

    for c in g.elements:
        for b in g.elements:
            if not g.is_composable(c, b):
                continue
            cb = table.get((c, b))
            for a in g.elements:
                if not g.is_composable(b, a):
                    continue
                ba = table.get((b, a))
                left = table.get((cb, a)) if cb is not None else None
                right = table.get((c, ba)) if ba is not None else None
                if left != right or left is None:
                    fail(
                        "associativity",
                        f"({c} ∘ {b}) ∘ {a} = {left} but {c} ∘ ({b} ∘ {a}) = {right}",
                    )
    return ValidationReport(tuple(failures))


def _reference_table(g: FiniteGroupoid) -> str:
    """The scalar label-by-label renderer: the oracle for multiplication_table."""
    width = max(len(e) for e in g.elements)
    width = max(width, 1)
    header = ["∘".ljust(width)] + [e.ljust(width) for e in g.elements]
    lines = ["  ".join(header).rstrip()]
    lines.append("-" * len(lines[0]))
    for b in g.elements:
        row = [b.ljust(width)]
        for a in g.elements:
            cell = g.compose_table.get((b, a), NOT_COMPOSABLE)
            row.append(cell.ljust(width))
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines) + "\n"


Z2_PAIR = build_from_table((Path(__file__).parent / "golden" / "z2_pair.groupoid").read_text(encoding="utf-8"))
_CELL_BASES = (build_a2(), *(build_pair_groupoid(n) for n in range(1, 6)), Z2_PAIR)

CORRUPTIONS = ("rewrite", "delete", "extra", "inverse", "source", "target", "unit")


def _corrupt(g: FiniteGroupoid, rng: random.Random, kinds=CORRUPTIONS, count: int = 1) -> FiniteGroupoid:
    """g with `count` random edits: a compose entry rewritten, deleted or added,
    or a wrong inverse, source, target or unit.  Edits may leave g valid."""
    maps = {name: dict(getattr(g, name)) for name in ("source", "target", "unit_of", "inverse", "compose_table")}
    table, elements = maps["compose_table"], g.elements
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "rewrite":
            table[rng.choice(list(table))] = rng.choice(elements)
        elif kind == "delete" and len(table) > 1:
            del table[rng.choice(list(table))]
        elif kind == "extra":
            table[(rng.choice(elements), rng.choice(elements))] = rng.choice(elements)
        elif kind in ("source", "target"):
            maps[kind][rng.choice(elements)] = rng.choice(g.outcomes)
        elif kind == "inverse":
            maps["inverse"][rng.choice(elements)] = rng.choice(elements)
        elif kind == "unit":
            maps["unit_of"][rng.choice(g.outcomes)] = rng.choice(elements)
    return FiniteGroupoid(outcomes=g.outcomes, elements=elements, **maps)


def test_validate_axioms_matches_scalar_oracle_on_seeded_corruptions():
    rng = random.Random(20240531)
    z3 = build_from_table(Z3_BESIDE_UNIT)
    assert validate_axioms(z3) == _reference_validate(z3) == ValidationReport(())
    bases = (build_a2(), build_pair_groupoid(3), build_pair_groupoid(4), build_from_table(GROUP_Z2), z3)
    broken, axioms = 0, set()
    for case in range(3000):
        g = _corrupt(bases[case % len(bases)], rng, count=1 + case % 3)
        expected = _reference_validate(g)
        got = validate_axioms(g).failures
        assert got == expected.failures
        # Padding a's carry the index E, which would print as None.
        assert not any(f.axiom == "associativity" and ") ∘ None =" in f.message for f in got)
        broken += not expected.ok
        axioms.update(f.axiom for f in expected.failures)
    assert broken > 2500
    no_pairs = FiniteGroupoid(
        outcomes=("o1", "o2"), elements=("e",), source={"e": "o1"}, target={"e": "o2"},
        unit_of={"o1": "e", "o2": "e"}, inverse={"e": "e"}, compose_table={},
    )
    assert validate_axioms(no_pairs) == _reference_validate(no_pairs)
    assert axioms == {
        "composition-domain", "composition-endpoints", "unit-endpoints", "unit-law",
        "inverse-endpoints", "inverse-involution", "inverse-law", "associativity",
    }


def _cells_validate(g: FiniteGroupoid) -> ValidationReport:
    """validate_axioms as it read the E x E table cell by cell, kept as the oracle
    for the walk over composable pairs: two E x E masks, b ∘ a gathered per
    composable cell, the failing cells listed in row-major order."""
    failures: list[AxiomFailure] = []

    def fail(axiom: str, message: str) -> None:
        failures.append(AxiomFailure(axiom, message))

    n = len(g.elements)
    names = g.elements + (None,)
    T = g.compose_table.table
    src, tgt = np.append(g.source.array, -1), np.append(g.target.array, -1)
    unit, inv = g.unit_of.array, g.inverse.array
    defined = T[:n, :n] != n
    composable = src[:n, None] == tgt[None, :n]
    flat = T.ravel()
    pairs = np.flatnonzero(composable)
    pair_b, pair_a = np.divmod(pairs, n)
    made = flat[pairs + pair_b]
    bad = defined != composable
    bad.flat[pairs[(src[made] != src[pair_a]) | (tgt[made] != tgt[pair_b])]] = True
    for i, j in zip(*np.divmod(np.flatnonzero(bad), n)):
        b, a = names[i], names[j]
        if not defined[i, j]:
            fail("composition-domain", f"missing composition for ({b}, {a})")
        elif not composable[i, j]:
            fail("composition-domain", f"({b}, {a}) is not composable but the table defines it")
        else:
            c = names[T[i, j]]
            fail(
                "composition-endpoints",
                f"{b} ∘ {a} = {c} maps {g.source[c]} -> {g.target[c]}, "
                f"expected {g.source[a]} -> {g.target[b]}",
            )

    outcome_ids = np.arange(len(g.outcomes))
    for i in np.flatnonzero((src[unit] != outcome_ids) | (tgt[unit] != outcome_ids)).tolist():
        o = g.outcomes[i]
        u = g.unit_of[o]
        fail("unit-endpoints", f"unit {u} of outcome {o} maps {g.source[u]} -> {g.target[u]}")
    ids = np.arange(n)
    left_unit, right_unit = unit[tgt[:n]], unit[src[:n]]
    left, right = T[left_unit, ids], T[ids, right_unit]
    for i in np.flatnonzero((left != ids) | (right != ids)).tolist():
        a = names[i]
        if left[i] != i:
            fail("unit-law", f"{names[left_unit[i]]} ∘ {a} = {names[left[i]]}, expected {a}")
        if right[i] != i:
            fail("unit-law", f"{a} ∘ {names[right_unit[i]]} = {names[right[i]]}, expected {a}")

    inv_ends = (src[inv] != tgt[:n]) | (tgt[inv] != src[:n])
    after, before = T[inv, ids], T[ids, inv]
    bad = inv_ends | (inv[inv] != ids) | (after != right_unit) | (before != left_unit)
    for i in np.flatnonzero(bad).tolist():
        a, ia = names[i], names[inv[i]]
        if inv_ends[i]:
            fail("inverse-endpoints", f"inverse of {a} is {ia} mapping {g.source[ia]} -> {g.target[ia]}")
            continue
        if inv[inv[i]] != i:
            fail("inverse-involution", f"inverse(inverse({a})) = {names[inv[inv[i]]]}")
        if after[i] != right_unit[i]:
            fail("inverse-law", f"{ia} ∘ {a} = {names[after[i]]}, expected {names[right_unit[i]]}")
        if before[i] != left_unit[i]:
            fail("inverse-law", f"{a} ∘ {ia} = {names[before[i]]}, expected {names[left_unit[i]]}")

    counts = np.bincount(tgt[:n], minlength=len(g.outcomes))
    by_target = np.argsort(tgt[:n], kind="stable")
    sorted_tgt = tgt[by_target]
    groups = np.full((len(g.outcomes), int(counts.max())), n, dtype=np.intp)
    groups[sorted_tgt, ids - (np.cumsum(counts) - counts)[sorted_tgt]] = by_target
    if failures or not groupoid_module._light_certifies(T, pair_b, pair_a, made, groups, src, tgt):
        failures += groupoid_module._associativity_walk(names, T, pair_b, pair_a, made, groups, src)
    return ValidationReport(tuple(failures))


CELL_EDITS = ("undefine", "unchained", "wrong", "unit", "inverse")


@st.composite
def _cell_corruptions(draw):
    """a2, pair:1..pair:5 or the z2_pair file, with one to three edits: a defined cell
    undefined, a cell defined for a pair that does not chain, a defined cell pointed
    at another element, or a unit or an inverse moved to another element."""
    g = draw(st.sampled_from(_CELL_BASES))
    maps = {name: dict(getattr(g, name)) for name in ("source", "target", "unit_of", "inverse", "compose_table")}
    table, elements = maps["compose_table"], g.elements
    kinds = draw(st.lists(st.sampled_from(CELL_EDITS), min_size=1, max_size=3))
    for kind in kinds:
        if kind == "undefine" and table:
            del table[draw(st.sampled_from(sorted(table)))]
        elif kind == "unchained":
            apart = [(b, a) for b in elements for a in elements if maps["source"][b] != maps["target"][a]]
            if apart:
                table[draw(st.sampled_from(apart))] = draw(st.sampled_from(elements))
        elif kind == "wrong" and table:
            key = draw(st.sampled_from(sorted(table)))
            table[key] = draw(st.sampled_from([e for e in elements if e != table[key]] or [table[key]]))
        elif kind == "unit":
            o = draw(st.sampled_from(g.outcomes))
            maps["unit_of"][o] = draw(st.sampled_from(elements))
        elif kind == "inverse":
            maps["inverse"][draw(st.sampled_from(elements))] = draw(st.sampled_from(elements))
    return FiniteGroupoid(outcomes=g.outcomes, elements=elements, **maps), kinds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cell_corruptions())
def test_validate_axioms_matches_the_cell_oracle(case):
    g, kinds = case
    got, want = validate_axioms(g), _cells_validate(g)
    assert got == want
    assert [str(f) for f in got.failures] == [str(f) for f in want.failures]
    event(f"{'+'.join(sorted(set(kinds)))}: {'ok' if want.ok else 'broken'}")


@pytest.fixture
def walk_calls(monkeypatch) -> list:
    """Records each run of the associativity walk, the only code that lists witnesses."""
    calls = []
    walk = groupoid_module._associativity_walk

    def spy(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(groupoid_module, "_associativity_walk", spy)
    return calls


def _rewrites(g: FiniteGroupoid) -> list[FiniteGroupoid]:
    """g with one compose cell rewritten to another element with the cell's endpoints.

    Domain and endpoints stay right, so what breaks is a unit or inverse law,
    associativity, or nothing.
    """
    table = dict(g.compose_table)
    out = []
    for (b, a), c in table.items():
        for e in g.elements:
            if e != c and g.source[e] == g.source[a] and g.target[e] == g.target[b]:
                maps = {name: getattr(g, name) for name in ("source", "target", "unit_of", "inverse")}
                out.append(FiniteGroupoid(g.outcomes, g.elements, **maps, compose_table={**table, (b, a): e}))
    return out


def test_light_certificate_accepts_only_what_the_oracle_accepts(walk_calls):
    # The corpus of the scalar-oracle test above, replayed with the walk watched.
    rng = random.Random(20240531)
    z3 = build_from_table(Z3_BESIDE_UNIT)
    bases = (build_a2(), build_pair_groupoid(3), build_pair_groupoid(4), build_from_table(GROUP_Z2), z3)
    accepted = associativity_only = 0
    for case in range(3000):
        g = _corrupt(bases[case % len(bases)], rng, count=1 + case % 3)
        expected = _reference_validate(g)
        walk_calls.clear()
        assert validate_axioms(g) == expected
        if not walk_calls:
            accepted += 1
            assert expected.ok
        elif {f.axiom for f in expected.failures} == {"associativity"}:
            associativity_only += 1
    assert accepted > 100
    assert associativity_only == 12


def test_light_certificate_rejects_every_associativity_failure_of_rewritten_tables(walk_calls):
    # One wrong cell with the right endpoints: the certificate's S (arrivals
    # and departures of one base per component) is a strict subset of
    # Z2_PAIR's elements, yet a failing triple anywhere must be caught.
    groupoids = _rewrites(Z2_PAIR) + _rewrites(build_from_table(Z3_BESIDE_UNIT))
    outcomes = set()
    for g in groupoids:
        expected = _reference_validate(g)
        walk_calls.clear()
        assert validate_axioms(g) == expected
        assert bool(walk_calls) == (not expected.ok)
        outcomes.add(frozenset(f.axiom for f in expected.failures))
    assert frozenset({"associativity"}) in outcomes


def test_light_certificate_accepts_valid_groupoids_without_the_walk(walk_calls):
    groupoids = [
        build_a2(), *(build_pair_groupoid(n) for n in range(1, 9)), build_pair_groupoid(("q", "p", "r")),
        build_from_table(GROUP_Z2), build_from_table(Z3_BESIDE_UNIT), Z2_PAIR,
    ]
    assert [validate_axioms(g) for g in groupoids] == [ValidationReport(())] * len(groupoids)
    assert walk_calls == []


def test_build_from_table_error_text_matches_scalar_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = _corrupt(build_pair_groupoid(3), rng, kinds=("rewrite",), count=2)
        expected = _reference_validate(g)
        if expected.ok:
            continue
        with pytest.raises(GroupoidParseError) as exc:
            build_from_table(groupoid_to_text(g))
        assert str(exc.value) == "groupoid axioms violated: " + "; ".join(
            str(f) for f in expected.failures[:5]
        )


@pytest.mark.parametrize("chunk", [1, 7, groupoid_module._ASSOC_CHUNK])
def test_associativity_chunk_seams_do_not_change_reports(chunk, monkeypatch, walk_calls):
    broken = _corrupt(build_pair_groupoid(4), random.Random(3), kinds=("rewrite", "delete", "extra"), count=4)
    valid = build_pair_groupoid(6)
    expected_broken = _reference_validate(broken)
    assert any(f.axiom == "associativity" for f in expected_broken.failures)
    padded = _corrupt(build_from_table(Z3_BESIDE_UNIT), random.Random(1), kinds=("rewrite",), count=2)
    expected_padded = _reference_validate(padded)
    assert any(f.axiom == "associativity" for f in expected_padded.failures)
    # Associativity alone fails, so the certificate reads its slots and must reject.
    twisted = [g for g in _rewrites(Z2_PAIR) if {f.axiom for f in _reference_validate(g).failures} == {"associativity"}]
    expected_twisted = [_reference_validate(g) for g in twisted]
    assert len(twisted) > 5
    monkeypatch.setattr(groupoid_module, "_ASSOC_CHUNK", chunk)
    assert validate_axioms(broken) == expected_broken
    assert validate_axioms(padded) == expected_padded
    assert len(walk_calls) == 2
    # The certificate alone accepts the valid groupoids, cut into chunks at pair:6.
    assert validate_axioms(valid) == validate_axioms(Z2_PAIR) == ValidationReport(())
    assert len(walk_calls) == 2
    assert [validate_axioms(g) for g in twisted] == expected_twisted
    assert len(walk_calls) == 2 + len(twisted)


def _shuffled_pair(n: int, seed: int) -> FiniteGroupoid:
    """pair:n read from a groupoid file that declares its elements in a shuffled order."""
    lines = groupoid_to_text(build_pair_groupoid(n)).splitlines(keepends=True)
    shuffled = [line for line in lines if line.startswith("element:")]
    random.Random(seed).shuffle(shuffled)
    elements = iter(shuffled)
    return build_from_table("".join(next(elements) if line.startswith("element:") else line for line in lines))


def _table_groupoids() -> list[FiniteGroupoid]:
    """Groupoids whose tables exercise every rendering edge, pair:16 among them."""
    # Labels of mixed widths, the widest first or last; blank labels, which
    # rstrip removes along with the padding before them.
    blank = FiniteGroupoid(
        outcomes=("o",), elements=("", " "), source={"": "o", " ": "o"}, target={"": "o", " ": "o"},
        unit_of={"o": ""}, inverse={"": "", " ": " "},
        compose_table={("", ""): "", ("", " "): " ", (" ", ""): " ", (" ", " "): ""},
    )
    # Row "" ends in a window of one blank cell after a mark, so its rstrip
    # reaches through the window into the marks.
    blank_after_mark = FiniteGroupoid(
        outcomes=("o", "p"), elements=("u", ""), source={"u": "o", "": "p"}, target={"u": "o", "": "p"},
        unit_of={"o": "u", "p": ""}, inverse={"u": "u", "": ""},
        compose_table={("u", "u"): "u", ("", ""): ""},
    )
    pair3 = build_pair_groupoid(3)
    no_row = replace(pair3, compose_table={k: c for k, c in pair3.compose_table.items() if k[0] != "(x2,x1)"})
    # Cells of four code points beside the two-byte marks.
    astral = build_pair_groupoid(("\U0001d51e", "b", "\U0001f600x"))
    groupoids = [
        build_a2(), *(build_pair_groupoid(n) for n in (*range(1, 7), 12, 16)),
        build_pair_groupoid(("a", "bb", "ccc")), build_pair_groupoid(("ccc", "bb", "a")),
        build_from_table(Z3_BESIDE_UNIT), blank, blank_after_mark, no_row, astral, Z2_PAIR,
        *(_shuffled_pair(4, seed) for seed in range(3)),
    ]
    rng = random.Random(11)
    for base in (build_a2(), build_pair_groupoid(3), build_pair_groupoid(("ccc", "bb", "a"))):
        for _ in range(20):
            groupoids.append(_corrupt(base, rng, kinds=("delete", "extra", "rewrite"), count=3))
    return groupoids


def _rows_and_window(g: FiniteGroupoid) -> tuple[list[list[str | None]], int]:
    """Each row's cells (None where undefined) and s, its widest span of defined cells."""
    rows = [[g.compose_table.get((b, a)) for a in g.elements] for b in g.elements]
    defined = [[i for i, c in enumerate(row) if c is not None] for row in rows]
    return rows, max(cols[-1] - cols[0] + 1 for cols in defined if cols)


def _render_with_gathers(g: FiniteGroupoid, monkeypatch) -> tuple[str, list[np.ndarray]]:
    """multiplication_table(g) and the array each of its np.take gathers returned."""
    gathers = []
    take = np.take

    def recording_take(*args, **kwargs):
        gathers.append(take(*args, **kwargs))
        return gathers[-1]

    with monkeypatch.context() as m:
        m.setattr(np, "take", recording_take)
        return multiplication_table(g), gathers


def test_multiplication_table_matches_scalar_renderer():
    groupoids = _table_groupoids()
    assert any(
        (b, a) in g.compose_table and not g.is_composable(b, a)
        for g in groupoids for b in g.elements for a in g.elements
    )
    # Windows of s cells: a row with no defined cell; a window moved left to end
    # at the last column; marks inside a window; a window of blank cells ending
    # its row after a mark; labels outside the BMP.
    windows = [(row, s) for g in groupoids for rows, s in [_rows_and_window(g)] for row in rows]
    assert any(row.count(None) == len(row) for row, _ in windows)
    spans = [[i for i, c in enumerate(row) if c is not None] for row, _ in windows]
    narrow = [(row, s, cols) for (row, s), cols in zip(windows, spans) if cols and s < len(row)]
    assert any(cols[0] > len(row) - s for row, s, cols in narrow)
    assert any(None in row[cols[0]:cols[-1]] for row, s, cols in narrow)
    assert any(None in row[:-s] and all(c is not None and not c.strip() for c in row[-s:]) for row, s in windows)
    assert any(ord(max(e)) > 0xFFFF for g in groupoids for e in g.elements if e)
    # Rows end in "∗" and in defined cells narrower than the column, so rstrip
    # strips padding after both.
    last_cells = [(g, g.compose_table.get((b, g.elements[-1]))) for g in groupoids for b in g.elements]
    assert any(c is None for _, c in last_cells)
    assert any(c is not None and len(c) < max(map(len, g.elements)) for g, c in last_cells)
    for g in groupoids:
        assert multiplication_table(g) == _reference_table(g)


# A pair:16 table row (z,y) gathers its window: the 16 cells (z,y) ∘ (y,x), each
# "(x16,x16)  " at the widest, 11 UCS4 code points.
PAIR16_ROW_BYTES = 4 * 11 * 16


# Byte budgets: one row per step; 48 pair:16 rows per step, which leaves a
# partial last step on pair:16 (256 rows) and pair:12 (64 rows per step, 144
# rows); the default.
@pytest.mark.parametrize("budget", [1, 48 * PAIR16_ROW_BYTES, groupoid_module._TABLE_BYTES])
def test_table_chunk_seams_do_not_change_rendering(budget, monkeypatch):
    groupoids = _table_groupoids()
    expected = [_reference_table(g) for g in groupoids]
    monkeypatch.setattr(groupoid_module, "_TABLE_BYTES", budget)
    rendered = [_render_with_gathers(g, monkeypatch) for g in groupoids]
    assert [text for text, _ in rendered] == expected
    pair16 = rendered[groupoids.index(build_pair_groupoid(16))][1]
    rows = max(1, budget // PAIR16_ROW_BYTES)
    assert [len(a) for a in pair16] == [min(rows, 256 - lo) for lo in range(0, 256, rows)]
    assert all(a.nbytes == len(a) * PAIR16_ROW_BYTES for a in pair16)


def test_table_gathers_stay_within_the_byte_budget(monkeypatch):
    budget = groupoid_module._TABLE_BYTES
    long_labels = tuple(f"outcome-{i:02d}-of-eleven" for i in range(11))
    long = build_pair_groupoid(long_labels)
    assert max(map(len, long.elements)) == 43
    steps = []
    for g in (build_pair_groupoid(16), build_pair_groupoid(32), _shuffled_pair(16, 0), long):
        _, gathers = _render_with_gathers(g, monkeypatch)
        row_bytes = gathers[0].nbytes // len(gathers[0])
        assert sum(map(len, gathers)) == len(g.elements)
        # Within the budget unless one row alone exceeds it, every step but the
        # last as full as the budget allows, and all of them in one buffer.
        assert all(a.nbytes <= budget or len(a) == 1 for a in gathers)
        assert all(a.nbytes + row_bytes > budget for a in gathers[:-1])
        assert len({a.ctypes.data for a in gathers}) == 1
        steps.append([len(a) for a in gathers])
    assert steps[0] == [139, 117]  # 256 rows of 4 * 11 * 16 bytes
    assert steps[-1] == [49, 49, 23]  # 121 rows of 4 * 45 * 11 bytes


def test_pair32_table_is_byte_identical_at_the_ceiling():
    g = build_pair_groupoid(32)
    tracemalloc.start()
    try:
        text = multiplication_table(g)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # ~22 MiB of the peak is the text: 11.6 million characters, two bytes each because of "∗"
    assert len(text) == 11_559_179 and peak <= 26, peak
    text = text.encode("utf-8")
    assert len(text) == 13_590_797
    assert hashlib.sha256(text).hexdigest() == "b5518c801d3a6e0791adf0d4c3217ff648e30720d8debea8355a299e46423d61"


def test_validate_axioms_memory_stays_bounded():
    g = build_pair_groupoid(16)
    tracemalloc.start()
    try:
        assert validate_axioms(g).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_groupoid_equality_is_structural():
    g = build_pair_groupoid(3)
    assert g == g
    assert g == build_pair_groupoid(("x1", "x2", "x3"))  # built apart from g
    reordered = FiniteGroupoid(
        outcomes=tuple(reversed(g.outcomes)),
        elements=tuple(reversed(g.elements)),
        source=dict(list(g.source.items())[::-1]),
        target=dict(g.target),
        unit_of=dict(g.unit_of),
        inverse=dict(g.inverse),
        compose_table=dict(list(g.compose_table.items())[::-1]),
    )
    assert reordered == g and g == reordered
    table = dict(g.compose_table)
    table[next(iter(table))] = g.elements[-1]
    changed = FiniteGroupoid(
        outcomes=g.outcomes, elements=g.elements, source=dict(g.source), target=dict(g.target),
        unit_of=dict(g.unit_of), inverse=dict(g.inverse), compose_table=table,
    )
    assert changed != g


def _reference_pair_groupoid(labels_or_size) -> FiniteGroupoid:
    """The label-dict triple loop build_pair_groupoid replaced, verbatim: the oracle."""
    if isinstance(labels_or_size, int):
        if labels_or_size < 1:
            raise ValueError("pair groupoid size must be at least 1")
        labels = tuple(f"x{i}" for i in range(1, labels_or_size + 1))
    else:
        labels = tuple(groupoid_module._check_label(str(x)) for x in labels_or_size)
        if not labels:
            raise ValueError("pair groupoid needs at least one outcome label")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
    elements, source, target, inverse = [], {}, {}, {}
    for y in labels:
        for x in labels:
            e = pair_element(y, x)
            elements.append(e)
            source[e] = x
            target[e] = y
            inverse[e] = pair_element(x, y)
    table = {}
    for z in labels:
        for y in labels:
            for x in labels:
                table[(pair_element(z, y), pair_element(y, x))] = pair_element(z, x)
    return FiniteGroupoid(
        outcomes=labels,
        elements=tuple(elements),
        source=source,
        target=target,
        unit_of={x: pair_element(x, x) for x in labels},
        inverse=inverse,
        compose_table=table,
    )


@pytest.mark.parametrize("spec", [*range(1, 9), ("a", "b", "c"), ["z9", "y", "alpha", "q"]], ids=str)
def test_pair_groupoid_matches_dict_builder(spec):
    g, want = build_pair_groupoid(spec), _reference_pair_groupoid(spec)
    assert dict(g.compose_table) == dict(want.compose_table)
    assert list(g.compose_table.items()) == list(want.compose_table.items())
    assert len(g.compose_table) == len(want.compose_table)
    assert (g.outcomes, g.elements) == (want.outcomes, want.elements)
    for name in ("source", "target", "unit_of", "inverse"):
        assert list(getattr(g, name).items()) == list(getattr(want, name).items())
    assert g == want and want == g and hash(g) == hash(want)
    assert multiplication_table(g) == multiplication_table(want)
    assert groupoid_to_text(g) == groupoid_to_text(want)
    assert validate_axioms(g).ok


def test_pair_compose_table_is_a_read_only_mapping():
    g = build_pair_groupoid(("a", "b", "c"))
    table = g.compose_table
    ab, ba, aa = pair_element("a", "b"), pair_element("b", "a"), pair_element("a", "a")
    assert table[(ab, ba)] == table.get((ab, ba)) == aa
    assert (ab, ba) in table
    for key in ((ab, ab), ("nope", ab), (ab, "nope"), "nope", (ab, ba, aa)):
        assert key not in table and table.get(key) is None
        with pytest.raises(KeyError):
            table[key]
    with pytest.raises(TypeError):
        table[(ab, ab)] = aa
    with pytest.raises(KeyError):
        g.compose("nope", ab)
    with pytest.raises(KeyError):
        g.compose(ab, "nope")
    with pytest.raises(NotComposable):
        g.compose(ab, ab)
    assert g.compose(ab, ba) == aa


def test_groupoid_tables_are_built_once_and_read_only():
    for g in (build_pair_groupoid(3), build_a2(), build_from_table(GROUP_Z2)):
        law = g.compose_table
        assert isinstance(law, groupoid_module._ComposeTable) and g.compose_table is law
        assert law.table.shape == (len(g.elements) + 1,) * 2 and law.table.dtype == np.int32
        with pytest.raises(ValueError):
            law.table[0, 0] = 0
        with pytest.raises(ValueError):
            law.table[-1] = 0
        # A table over the same elements is taken as it is, not rebuilt.
        rebuilt = replace(g, source=dict(g.source))
        assert rebuilt.compose_table is law and rebuilt == g


@pytest.mark.parametrize("spec", [1, 2, 4, ("p", "q", "r")], ids=str)
def test_array_born_groupoid_equals_dict_born_in_any_order(spec):
    g, ref = build_pair_groupoid(spec), _reference_pair_groupoid(spec)

    def reversed_maps(**changes):
        maps = {name: dict(list(getattr(ref, name).items())[::-1])
                for name in ("source", "target", "unit_of", "inverse", "compose_table")}
        maps.update(changes)
        return FiniteGroupoid(outcomes=tuple(reversed(ref.outcomes)), elements=tuple(reversed(ref.elements)), **maps)

    reordered = reversed_maps()
    for x, y in ((g, reordered), (reordered, g), (g, ref), (g, build_pair_groupoid(spec))):
        assert x == y and hash(x) == hash(y)
    if len(g.elements) == 1:
        return
    first = next(iter(ref.compose_table))
    rewritten = dict(ref.compose_table)
    rewritten[first] = next(e for e in ref.elements if e != rewritten[first])
    deleted = dict(ref.compose_table)
    del deleted[first]
    for table in (rewritten, deleted):
        changed = reversed_maps(compose_table=table)
        assert changed != g and g != changed


def test_pair_groupoid_retained_memory_is_bounded(monkeypatch):
    # an empty cache, so pair:16 is built here even when an earlier test built it;
    # the figure covers the build and the entry the process keeps
    monkeypatch.setattr(groupoid_module, "_PAIRS", {})
    build_pair_groupoid(2)
    tracemalloc.start()
    try:
        g = build_pair_groupoid(16)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g.elements) == 256
    assert retained <= 0.5 * 2**20


def test_element_ceiling_is_checked_before_anything_is_built():
    side = math.isqrt(groupoid_module.MAX_ELEMENTS)
    assert side * side == groupoid_module.MAX_ELEMENTS == 1024
    assert len(build_pair_groupoid(side).elements) == groupoid_module.MAX_ELEMENTS
    labels = tuple(f"o{i}" for i in range(side + 1))
    names = tuple(f"e{i}" for i in range(groupoid_module.MAX_ELEMENTS + 1))
    maps = dict(source=dict.fromkeys(names, "o"), target=dict.fromkeys(names, "o"), unit_of={"o": "e0"},
                inverse={e: e for e in names}, compose_table={})
    tracemalloc.start()
    try:
        for spec in (side + 1, labels):
            with pytest.raises(ValueError, match=r"size 33 has 1089 elements, more than MAX_ELEMENTS = 1024"):
                build_pair_groupoid(spec)
        with pytest.raises(ValueError, match=r"1025 elements, more than MAX_ELEMENTS = 1024"):
            FiniteGroupoid(outcomes=("o",), elements=names, **maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the 33x33 labels alone would take more; the table 4.5 MB


def test_build_from_table_rejects_an_element_past_the_ceiling():
    count = groupoid_module.MAX_ELEMENTS
    text = "outcomes: o\n" + "".join(f"element: e{i} o o\n" for i in range(count + 1))
    with pytest.raises(GroupoidParseError) as exc:
        build_from_table(text)
    assert str(exc.value) == f"line {count + 2}: more than MAX_ELEMENTS = {count} elements"
