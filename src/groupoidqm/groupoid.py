"""Finite groupoids as immutable, validated values.

A groupoid is described by outcome labels, transition labels, source/target
maps, one unit per outcome, one inverse per transition and a partial
composition table.  ``compose_table[(beta, alpha)] = gamma`` encodes
``beta ∘ alpha = gamma`` and must be present exactly when
``source(beta) == target(alpha)``.  Rendered multiplication tables follow the
same reading: the cell at (row, column) holds row ∘ column, with "∗" marking
non-composable pairs.

Every groupoid holds its structure as read-only integer arrays over element
indices 0..E-1 and outcome indices 0..O-1, both in declaration order: the
source and target outcome of each element, the inverse of each element, the
unit of each outcome, and the composition law as one ``(E+1) x (E+1)`` int32
table in which E means "undefined" and absorbs.  Pair groupoids build these
arrays by index arithmetic; label mappings given to the constructor are
converted to them once.  ``source``, ``target``, ``inverse``, ``unit_of`` and
``compose_table`` are always read-only mapping views of the arrays, and every
reader (validation, rendering, equality, convolution) reads the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

NOT_COMPOSABLE = "∗"

# Canonical labels for the four-element two-outcome groupoid.
OUT_MINUS = "-"
OUT_PLUS = "+"
UNIT_MINUS = "1-"
UNIT_PLUS = "1+"
ALPHA = "alpha"
ALPHA_INV = "alpha^-1"

# Composable triples gathered per associativity step; bounds validation memory.
_ASSOC_CHUNK = 4096
# Bytes multiplication_table gathers per step (whole rows, at least one), and the
# most text the CLI's sweep formats per block of rows.  Under glibc malloc's 128 KiB
# mmap threshold, so the gather buffer, a block's template and its text come from
# the heap rather than a fresh mapping whose pages fault in again on every render.
_TABLE_BYTES = 96 * 1024
# Elements per groupoid, checked before any table is built.  The compose table
# is 4(E+1)^2 bytes.  At the ceiling (pair:32), under tracemalloc,
# multiplication_table peaks at ~24.4 MiB, ~22 MiB of it the text (11.6 million
# characters, two bytes each because of "∗"; the gather buffer is 95 KiB).  The
# CLI's `table` command peaks at ~55 MiB when it writes that text: encoding it
# as UTF-8 reserves three bytes per character.  `validate` peaks at ~6.1 MiB.
MAX_ELEMENTS = 1024


class GroupoidParseError(ValueError):
    """A groupoid description is malformed or encodes an invalid groupoid."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NotComposable(ValueError):
    """Composition was requested for a pair that does not chain."""

    def __init__(self, groupoid: "FiniteGroupoid", beta: str, alpha: str):
        self.beta = beta
        self.alpha = alpha
        super().__init__(
            f"{beta!r} ∘ {alpha!r} is undefined: {beta!r} maps "
            f"{groupoid.source[beta]} -> {groupoid.target[beta]} and cannot follow "
            f"{alpha!r} mapping {groupoid.source[alpha]} -> {groupoid.target[alpha]}"
        )


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    message: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[AxiomFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return "all groupoid axioms hold"
        return "\n".join(str(f) for f in self.failures)


def _index(labels: tuple[str, ...]) -> dict[str, int]:
    return dict(zip(labels, range(len(labels))))


class _IndexMap(Mapping):
    """Read-only ``keys[i] -> labels[array[i]]`` mapping over an integer array.

    ``index`` maps each key to its position i.  Without ``labels`` the values
    are the array's own entries, as Python scalars.  Keys iterate in order.
    The array is checked to index ``labels`` once, here; it is read-only, so
    every groupoid given this view can take it as it is.
    """

    __slots__ = ("keys_", "index", "labels", "array")

    def __init__(self, keys: tuple[str, ...], index: dict[str, int], labels: tuple[str, ...] | None, array: np.ndarray):
        if array.shape != (len(keys),):
            raise ValueError(f"expected {len(keys)} entries, got shape {array.shape}")
        # A negative entry wraps to a huge unsigned one, so one maximum bounds both ends.
        if labels is not None and array.size and array.astype(np.uintp).max() >= len(labels):
            raise ValueError("index array points outside its labels")
        array.setflags(write=False)
        self.keys_, self.index, self.labels, self.array = keys, index, labels, array

    def __getitem__(self, key: str):
        value = self.array.item(self.index[key])
        return value if self.labels is None else self.labels[value]

    def __contains__(self, key) -> bool:
        return key in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys_)

    def __len__(self) -> int:
        return len(self.keys_)

    def __repr__(self) -> str:
        return f"_IndexMap({dict(self)!r})"


class _ComposeTable(Mapping):
    """Read-only ``(beta, alpha) -> gamma`` mapping over an integer compose table.

    ``table[b, a]`` is the index of ``elements[b] ∘ elements[a]``, or E (the
    element count) where the pair does not compose; row and column E are E.
    Keys iterate row by row, beta-major, in element order.
    """

    __slots__ = ("elements", "index", "table")

    def __init__(self, elements: tuple[str, ...], index: dict[str, int], table: np.ndarray):
        table.setflags(write=False)
        self.elements = elements
        self.index = index
        self.table = table

    @classmethod
    def from_mapping(
        cls, elements: tuple[str, ...], index: dict[str, int], mapping: Mapping[tuple[str, str], str]
    ) -> "_ComposeTable":
        n = len(elements)
        stride = n + 1
        table = np.full((stride, stride), n, dtype=np.int32)
        table.flat[[index[b] * stride + index[a] for b, a in mapping]] = [index[c] for c in mapping.values()]
        return cls(elements, index, table)

    def __getitem__(self, key: tuple[str, str]) -> str:
        try:
            beta, alpha = key
            c = self.table[self.index[beta], self.index[alpha]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if c == len(self.elements):
            raise KeyError(key)
        return self.elements[c]

    def _defined(self) -> tuple[list[int], list[int]]:
        rows, cols = np.nonzero(self.table[:-1, :-1] != len(self.elements))
        return rows.tolist(), cols.tolist()

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names = self.elements
        return ((names[b], names[a]) for b, a in zip(*self._defined()))

    def __len__(self) -> int:
        return len(self._defined()[0])

    def __repr__(self) -> str:
        return f"_ComposeTable({dict(self)!r})"


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Immutable finite groupoid.

    The constructor enforces referential integrity only (every label used is
    declared); the algebraic axioms are checked by :func:`validate_axioms` so
    that deliberately broken tables can still be represented and diagnosed.
    The structure maps may be passed as any label mappings.  Each is held as
    a read-only integer array behind a mapping view: ``source.array`` and
    ``target.array`` give each element's outcome index, ``inverse.array``
    each element's inverse index, ``unit_of.array`` each outcome's unit index,
    and ``compose_table.table`` the int32 composition table.  A view over the
    same labels, such as another groupoid's, is taken as it is.
    """

    outcomes: tuple[str, ...]
    elements: tuple[str, ...]
    source: Mapping[str, str]
    target: Mapping[str, str]
    unit_of: Mapping[str, str]
    inverse: Mapping[str, str]
    compose_table: Mapping[tuple[str, str], str]

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        elements = tuple(self.elements)
        if len(elements) > MAX_ELEMENTS:
            raise ValueError(f"{len(elements)} elements, more than MAX_ELEMENTS = {MAX_ELEMENTS}")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("duplicate outcome labels")
        law = self.compose_table
        held = isinstance(law, _ComposeTable) and law.elements == elements
        eindex = law.index if held else _index(elements)
        if len(eindex) != len(elements):
            raise ValueError("duplicate element labels")
        if not outcomes:
            raise ValueError("a groupoid needs at least one outcome")
        oindex = _index(outcomes)

        def view(mapping, name, keys, index, key_kind, labels, label_index, label_kind) -> _IndexMap:
            if isinstance(mapping, _IndexMap) and mapping.keys_ == keys and mapping.labels == labels:
                return mapping
            found = [label_index.get(mapping.get(k), -1) for k in keys]
            if -1 in found:
                k = keys[found.index(-1)]
                if k not in mapping:
                    raise ValueError(f"no {name} for {key_kind} {k!r}")
                raise ValueError(f"{name} of {key_kind} {k!r} is {mapping[k]!r}, not a declared {label_kind}")
            if len(mapping) != len(keys):
                extra = next(k for k in mapping if k not in index)
                raise ValueError(f"{name} given for {extra!r}, not a declared {key_kind}")
            return _IndexMap(keys, index, labels, np.array(found, dtype=np.intp))

        source = view(self.source, "source", elements, eindex, "element", outcomes, oindex, "outcome")
        target = view(self.target, "target", elements, eindex, "element", outcomes, oindex, "outcome")
        unit_of = view(self.unit_of, "unit", outcomes, oindex, "outcome", elements, eindex, "element")
        inverse = view(self.inverse, "inverse", elements, eindex, "element", elements, eindex, "element")
        if not held:
            for (b, a), c in law.items():
                if b not in eindex or a not in eindex or c not in eindex:
                    x = next(x for x in (b, a, c) if x not in eindex)
                    raise ValueError(f"composition {b!r} ∘ {a!r} = {c!r} names {x!r}, not a declared element")
            law = _ComposeTable.from_mapping(elements, eindex, law)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "unit_of", unit_of)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "compose_table", law)

    def __eq__(self, other) -> bool:
        """Structural equality; label declaration order is irrelevant."""
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        if self is other:
            return True
        if set(self.outcomes) != set(other.outcomes) or set(self.elements) != set(other.elements):
            return False
        # operm[j], perm[j]: the index in self of other's outcome j, element j.
        oindex, index = self.unit_of.index, self.compose_table.index
        operm = np.array([oindex[o] for o in other.outcomes], dtype=np.intp)
        perm = np.array([index[e] for e in other.elements], dtype=np.intp)
        return (
            np.array_equal(self.source.array[perm], operm[other.source.array])
            and np.array_equal(self.target.array[perm], operm[other.target.array])
            and np.array_equal(self.unit_of.array[operm], perm[other.unit_of.array])
            and np.array_equal(self.inverse.array[perm], perm[other.inverse.array])
            and self._same_law(other, perm)
        )

    def _same_law(self, other: "FiniteGroupoid", perm: np.ndarray) -> bool:
        """Equal compose tables, given perm from other's element indices to self's."""
        perm = np.append(perm, len(self.elements))  # E stays E
        mine, theirs = self.compose_table.table, other.compose_table.table
        return bool(np.array_equal(mine[np.ix_(perm, perm)], perm[theirs]))

    def __hash__(self):
        return hash((frozenset(self.outcomes), frozenset(self.elements)))

    def is_composable(self, beta: str, alpha: str) -> bool:
        return self.source[beta] == self.target[alpha]

    def compose(self, beta: str, alpha: str) -> str:
        """Return beta ∘ alpha, or raise :class:`NotComposable`."""
        try:
            return self.compose_table[(beta, alpha)]
        except KeyError:
            if beta not in self.source or alpha not in self.source:
                missing = beta if beta not in self.source else alpha
                raise KeyError(f"unknown element {missing!r}") from None
            raise NotComposable(self, beta, alpha) from None


# a2, converted once; it is immutable, so every build_a2() returns this one value.
_A2 = FiniteGroupoid(
    outcomes=(OUT_MINUS, OUT_PLUS),
    elements=(UNIT_PLUS, UNIT_MINUS, ALPHA, ALPHA_INV),
    source={UNIT_PLUS: OUT_PLUS, UNIT_MINUS: OUT_MINUS, ALPHA: OUT_PLUS, ALPHA_INV: OUT_MINUS},
    target={UNIT_PLUS: OUT_PLUS, UNIT_MINUS: OUT_MINUS, ALPHA: OUT_MINUS, ALPHA_INV: OUT_PLUS},
    unit_of={OUT_PLUS: UNIT_PLUS, OUT_MINUS: UNIT_MINUS},
    inverse={UNIT_PLUS: UNIT_PLUS, UNIT_MINUS: UNIT_MINUS, ALPHA: ALPHA_INV, ALPHA_INV: ALPHA},
    compose_table={
        (UNIT_PLUS, UNIT_PLUS): UNIT_PLUS,
        (UNIT_PLUS, ALPHA_INV): ALPHA_INV,
        (UNIT_MINUS, UNIT_MINUS): UNIT_MINUS,
        (UNIT_MINUS, ALPHA): ALPHA,
        (ALPHA, UNIT_PLUS): ALPHA,
        (ALPHA, ALPHA_INV): UNIT_MINUS,
        (ALPHA_INV, UNIT_MINUS): ALPHA_INV,
        (ALPHA_INV, ALPHA): UNIT_PLUS,
    },
)


def build_a2() -> FiniteGroupoid:
    """The four-element groupoid on outcomes (-, +).

    ``alpha`` maps + to -; the outcome order (-, +) fixes the basis order used
    by every matrix representation downstream.
    """
    return _A2


def pair_element(target_label: str, source_label: str) -> str:
    """Label of the transition source_label -> target_label, written (target,source)."""
    return f"({target_label},{source_label})"


def _check_label(label: str) -> str:
    if not label or any(ch.isspace() for ch in label) or "," in label:
        raise ValueError(f"label {label!r} must be non-empty, without whitespace or commas")
    return label


def build_pair_groupoid(labels_or_size: int | Sequence[str]) -> FiniteGroupoid:
    """Pair groupoid over given outcome labels (or x1..xn for an integer size).

    There is exactly one transition (y,x): x -> y per ordered outcome pair,
    composing as (z,y) ∘ (y,x) = (z,x).  At most MAX_ELEMENTS transitions,
    which is checked before any label or array is built.
    """
    if isinstance(labels_or_size, int):
        if labels_or_size < 1:
            raise ValueError("pair groupoid size must be at least 1")
        _check_pair_size(labels_or_size)
        labels = tuple(f"x{i}" for i in range(1, labels_or_size + 1))
    else:
        labels = tuple(_check_label(str(x)) for x in labels_or_size)
        if not labels:
            raise ValueError("pair groupoid needs at least one outcome label")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        _check_pair_size(len(labels))
    # Element (y,x) has index k = y*n + x: source x = k % n, target y = k // n,
    # inverse (x,y), and the unit of x is (x,x) = x*(n + 1).  (z,y) ∘ (y,x) = (z,x):
    # viewed as [z, y, y', x], the table's first n*n rows and columns hold z*n + x
    # on the diagonal y == y', written in one assignment.
    n = len(labels)
    elements = tuple([f"({y},{x})" for y in labels for x in labels])  # pair_element, inlined
    index = _index(elements)
    k = np.arange(n * n)
    source, target = k % n, k // n
    table = np.full((n * n + 1, n * n + 1), n * n, dtype=np.int32)
    ys = np.arange(n)
    table[: n * n, : n * n].reshape(n, n, n, n).transpose(1, 2, 0, 3)[ys, ys] = k.reshape(n, n)
    return FiniteGroupoid(
        outcomes=labels,
        elements=elements,
        source=_IndexMap(elements, index, labels, source),
        target=_IndexMap(elements, index, labels, target),
        unit_of=_IndexMap(labels, _index(labels), elements, k[:n] * (n + 1)),
        inverse=_IndexMap(elements, index, elements, source * n + target),
        compose_table=_ComposeTable(elements, index, table),
    )


def _check_pair_size(n: int) -> None:
    if n * n > MAX_ELEMENTS:
        raise ValueError(f"pair groupoid of size {n} has {n * n} elements, more than MAX_ELEMENTS = {MAX_ELEMENTS}")


def validate_axioms(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustively check every groupoid axiom, reporting failures with witnesses.

    The work follows the P composable pairs (b, a), not the E^2 cells of the
    groupoid's integer compose table (on pair:n, P = n^3 against E^2 = n^4).
    Row o of an O x W index array lists the elements with target o in
    element order, padded with the filler index E, where W is the largest
    number of elements sharing a target; a groupoid whose every outcome ends
    W elements (every pair groupoid) pads nothing.  Element b's row is then
    its candidate a's, so the pairs are listed, in row-major order, from E x W
    slots, and b ∘ a is gathered once per pair and checked to map
    source(a) -> target(b).  The table is read whole once, to count its
    defined cells: when every composable cell is defined and maps right,
    P defined cells means no other cell is defined.  Only when that count or
    an endpoint check fails are the two E x E masks built, to list the
    failing cells as witnesses.  The unit and inverse checks are O(E).

    Associativity is decided on composable triples (c, b, a): each composable
    pair (c, b) reads the padded row of b's candidate a's, the filler masked
    out.  When the domain, endpoint, unit and inverse checks all hold, a
    certificate decides it first (see :func:`_light_certifies`): Light's test
    on a generating set S, the elements leaving or entering one base outcome
    per component (2n-1 on pair:n), reads only the triples whose middle factor
    is in S, |S| x W^2 slots (about 2n^3 on pair:n).  It is a proof, not a
    sample.  Only when it fails, or an earlier check failed, does the walk
    read all P x W slots (n^4 on pair:n) and list every failing triple.

    The table (4(E+1)^2 bytes) is built with the groupoid; validation adds
    one E x E boolean for the count (the masks too, when a cell fails),
    O(P) index arrays (the certificate's pairs are a subset of the P), the
    O x W and E x W padded rows and, on either associativity path, one chunk
    of at most max(_ASSOC_CHUNK, W) slots at a time.  No result is kept
    between calls.  Witnesses come in element order: (beta, alpha) cells,
    units, inverses, then (c, b, a) triples, and are formatted only where a
    check fails.
    """
    failures: list[AxiomFailure] = []

    def fail(axiom: str, message: str) -> None:
        failures.append(AxiomFailure(axiom, message))

    n = len(g.elements)
    names = g.elements + (None,)  # the undefined index n prints as None
    T = g.compose_table.table
    src, tgt = np.append(g.source.array, -1), np.append(g.target.array, -1)  # index n ends -1
    unit, inv = g.unit_of.array, g.inverse.array
    ids = np.arange(n)
    # Row o of `groups` lists the elements with target o in element order, then
    # the filler n.
    counts = np.bincount(tgt[:n], minlength=len(g.outcomes))
    by_target = np.argsort(tgt[:n], kind="stable")
    sorted_tgt = tgt[by_target]
    groups = np.full((len(g.outcomes), int(counts.max())), n, dtype=np.intp)
    groups[sorted_tgt, ids - (np.cumsum(counts) - counts)[sorted_tgt]] = by_target
    # The composable (b, a), row-major: row b pairs with the a's of groups[source(b)].
    # b ∘ a, read from the flat table in which row b starts at b * (n + 1), must
    # map source(a) -> target(b), compared as the slot target * O + source; an
    # undefined one (index n, ends -1) has a negative slot.  With every composable
    # cell defined and mapping right, the table defines no other cell exactly
    # when it defines P cells (row and column n hold n).
    candidates = groups[src[:n]]
    pair_a = candidates[candidates != n]
    pair_b = np.repeat(ids, counts[src[:n]])
    made = T.ravel()[pair_b * (n + 1) + pair_a]
    slot = tgt * len(g.outcomes) + src
    ends = slot[made] != tgt[pair_b] * len(g.outcomes) + src[pair_a]
    if ends.any() or np.count_nonzero(T != n) != len(made):
        defined = T[:n, :n] != n
        composable = src[:n, None] == tgt[None, :n]  # [b, a]: source(b) == target(a)
        bad = defined != composable
        bad[pair_b[ends], pair_a[ends]] = True
        for i, j in zip(*np.nonzero(bad)):
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
    left_unit, right_unit = unit[tgt[:n]], unit[src[:n]]
    left, right = T[left_unit, ids], T[ids, right_unit]
    for i in np.flatnonzero((left != ids) | (right != ids)).tolist():
        a = names[i]
        if left[i] != i:
            fail("unit-law", f"{names[left_unit[i]]} ∘ {a} = {names[left[i]]}, expected {a}")
        if right[i] != i:
            fail("unit-law", f"{a} ∘ {names[right_unit[i]]} = {names[right[i]]}, expected {a}")

    inv_ends = (src[inv] != tgt[:n]) | (tgt[inv] != src[:n])
    after, before = T[inv, ids], T[ids, inv]  # inv ∘ a, a ∘ inv
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

    if failures or not _light_certifies(T, pair_b, pair_a, made, groups, src, tgt):
        failures += _associativity_walk(names, T, pair_b, pair_a, made, groups, src)
    return ValidationReport(tuple(failures))


def _misassociated(T, c, b, cb, groups, src) -> Iterator[tuple[int, ...]]:
    """The composable triples (c, b, a) of compose table T that fail associativity.

    c, b list composable pairs and cb their products c ∘ b; each pair reads
    the row ``groups[source(b)]`` of candidate a's, the filler E masked out.
    A triple fails where (c ∘ b) ∘ a and c ∘ (b ∘ a) differ or are undefined
    (E).  The pairs are read in chunks of at most max(_ASSOC_CHUNK, W) slots
    for rows of width W, and each failure comes as (c, b, a, (c ∘ b) ∘ a,
    c ∘ (b ∘ a)) indices in the pairs' order, then a's row order.
    """
    n, width = len(T) - 1, groups.shape[1]
    flat, stride = T.ravel(), n + 1
    step = max(1, _ASSOC_CHUNK // width)
    for lo in range(0, len(c), step):
        ci, bi = c[lo : lo + step, None], b[lo : lo + step, None]
        ai = groups[src[bi[:, 0]]]
        lefts = flat[cb[lo : lo + step, None].astype(np.intp) * stride + ai]
        rights = flat[ci * stride + flat[bi * stride + ai]]
        bad = ((lefts != rights) | (lefts == n)) & (ai != n)
        for p, k in zip(*np.divmod(np.flatnonzero(bad), width)):
            yield ci[p, 0], bi[p, 0], ai[p, k], lefts[p, k], rights[p, k]


def _light_certifies(T, c, b, cb, groups, src, tgt) -> bool:
    """True only if T is associative: Light's test on a generating set.

    Needs T's domain, endpoints, units and inverses to be right.  Then the
    sources of the elements ending at an outcome are its whole component, and
    the largest of them is the component's base.  S is the set of elements
    leaving or entering a base.  The s that satisfy (x ∘ s) ∘ y == x ∘ (s ∘ y)
    for every x and y, "undefined" included, are closed under composition
    (Light, 1949).  So T is associative if every s in S does and S generates
    T.  For s in S only x with source(x) == target(s) and y with
    target(y) == source(s) need reading: both sides of every other (x, y)
    are undefined.  Those are the triples (x, s, y) whose middle factor is
    in S, |S| x W^2 slots, against the walk's P x W.  S then generates T
    with no further check: for g: a -> b and k: a -> base in S, the
    identity at s = k^-1 and the inverse and unit laws give
    (g ∘ k^-1) ∘ k = g ∘ (k^-1 ∘ k) = g, and g ∘ k^-1 leaves the base.
    """
    base = src[groups].max(axis=1)  # the filler's source is -1
    source, target = src[:-1], tgt[:-1]
    in_s = (base[source] == source) | (base[target] == target)
    keep = np.flatnonzero(in_s[b])
    return next(_misassociated(T, c[keep], b[keep], cb[keep], groups, src), None) is None


def _associativity_walk(names, T, c, b, cb, groups, src) -> list[AxiomFailure]:
    """An associativity failure, with its witness, per composable triple that fails."""
    failures = []
    for triple in _misassociated(T, c, b, cb, groups, src):
        x, y, z, left, right = (names[i] for i in triple)
        message = f"({x} ∘ {y}) ∘ {z} = {left} but {x} ∘ ({y} ∘ {z}) = {right}"
        failures.append(AxiomFailure("associativity", message))
    return failures


def multiplication_table(g: FiniteGroupoid) -> str:
    """Human-readable multiplication grid; cell (row, col) is row ∘ col.

    Each row gathers only its window of defined cells, n of them on pair:n, so
    a table costs about n³ cells rather than n⁴; the rest of a row is marks.
    """
    width = max(1, max(map(len, g.elements)))
    n = len(g.elements)
    names = [f"{e.ljust(width)}  " for e in g.elements]
    header = "".join(["∘".ljust(width + 2), *names]).rstrip()
    w = width + 2
    mark = NOT_COMPOSABLE.ljust(w)
    # Row b's defined cells lie in its window of s columns from starts[b], and
    # the rest of the row is marks.  s is the widest span of defined cells in a
    # row (n when a row has none; n on pair:n), and a window that would run past
    # the last column is moved left to end there.
    table = g.compose_table.table
    defined = np.not_equal(table[:n, :n], n)
    first = defined.argmax(axis=1)
    s = n - min((defined[:, ::-1].argmax(axis=1) + first).tolist())
    at = np.minimum(first, n - s)  # each window's first column; below, its flat index
    starts = at.tolist()
    # windows[i] is flat[i : i + s], a read-only view with no copy: a step reads
    # its rows' window indices as rows of it, at each window's flat start.
    flat = table.ravel()
    windows = np.ndarray((flat.size - s + 1, s), flat.dtype, flat, 0, (flat.itemsize, flat.itemsize))
    at += np.arange(0, n * (n + 1), n + 1)
    # Every step gathers into one buffer of at most _TABLE_BYTES (or one row).
    # The indices are in range by construction, so mode="clip" changes nothing
    # but lets np.take write into it directly; "raise" would copy via a temporary.
    # A buffer row of s cells of w code points, viewed as one string, is the
    # window's cells, each followed by "  ": the last two blanks separate it from
    # the marks after it, or go with the row's rstrip when the window ends it.
    # The text is the pieces of every row, joined once; a mark run is made once
    # per length, and the trailing one is stored stripped.
    cells = np.array(names + [mark], dtype=f"<U{w}")
    step = max(1, _TABLE_BYTES // (cells.itemsize * s))
    buffer = np.empty((min(step, n), s), dtype=cells.dtype)
    texts = buffer.view(f"<U{s * w}")[:, 0]
    runs = {k: (mark * k, (mark * (n - s - k)).rstrip() + "\n") for k in set(starts)}
    pieces = [header, "\n", "-" * len(header), "\n"]
    for lo in range(0, n, step):
        rows = windows[at[lo : lo + step]]
        np.take(cells, rows, axis=0, out=buffer[: len(rows)], mode="clip")
        for name, k, text in zip(names[lo : lo + step], starts[lo : lo + step], texts[: len(rows)].tolist()):
            lead, tail = runs[k]
            if k < n - s:
                pieces += name, lead, text, tail
            elif text := text.rstrip():
                pieces += name, lead, text, "\n"
            else:  # blank cells to the end: the row's rstrip reaches into name and marks
                pieces += (name + lead).rstrip(), "\n"
    return "".join(pieces)


def build_from_table(text: str) -> FiniteGroupoid:
    """Parse the line-oriented groupoid format.

    Directives (one per line, ``#`` starts a comment):

    - ``outcomes: a b c``            ordered outcome labels
    - ``element: NAME SRC TGT``      one line per transition
    - ``unit: OUTCOME NAME``         optional when the loop at OUTCOME is unique
    - ``inverse: NAME NAME``         symmetric; every element needs one
    - ``compose: BETA ALPHA = GAMMA``  every composable pair must be listed

    A label that no line declares fails the :class:`FiniteGroupoid`
    constructor, whose message becomes the parse error.  The parsed groupoid
    must pass :func:`validate_axioms`; otherwise parsing fails naming the
    violated axiom.
    """
    outcomes: list[str] | None = None
    elements: list[str] = []
    source: dict[str, str] = {}
    target: dict[str, str] = {}
    unit_of: dict[str, str] = {}
    inverse: dict[str, str] = {}
    table: dict[tuple[str, str], str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        tokens = rest.split()
        if head == "outcomes":
            if outcomes is not None:
                raise GroupoidParseError("duplicate outcomes line", lineno)
            if not tokens:
                raise GroupoidParseError("outcomes line lists no labels", lineno)
            if len(set(tokens)) != len(tokens):
                raise GroupoidParseError("duplicate outcome labels", lineno)
            outcomes = tokens
        elif head == "element":
            if len(tokens) != 3:
                raise GroupoidParseError("element line needs NAME SRC TGT", lineno)
            name, src, tgt = tokens
            if name in source:
                raise GroupoidParseError(f"element {name} declared twice", lineno)
            if len(elements) == MAX_ELEMENTS:
                raise GroupoidParseError(f"more than MAX_ELEMENTS = {MAX_ELEMENTS} elements", lineno)
            elements.append(name)
            source[name] = src
            target[name] = tgt
        elif head == "unit":
            if len(tokens) != 2:
                raise GroupoidParseError("unit line needs OUTCOME NAME", lineno)
            o, name = tokens
            if o in unit_of and unit_of[o] != name:
                raise GroupoidParseError(f"conflicting unit for outcome {o}", lineno)
            unit_of[o] = name
        elif head == "inverse":
            if len(tokens) != 2:
                raise GroupoidParseError("inverse line needs NAME NAME", lineno)
            a, b = tokens
            for x, y in ((a, b), (b, a)):
                if x in inverse and inverse[x] != y:
                    raise GroupoidParseError(f"conflicting inverse for {x}", lineno)
                inverse[x] = y
        elif head == "compose":
            if len(tokens) != 4 or tokens[2] != "=":
                raise GroupoidParseError("compose line needs BETA ALPHA = GAMMA", lineno)
            b, a, _, c = tokens
            if (b, a) in table and table[(b, a)] != c:
                raise GroupoidParseError(f"conflicting composition for ({b}, {a})", lineno)
            table[(b, a)] = c
        else:
            raise GroupoidParseError(f"unknown directive {head!r}", lineno)

    if outcomes is None:
        raise GroupoidParseError("missing outcomes line")
    for o in outcomes:
        if o not in unit_of:
            loops = [e for e in elements if source[e] == o and target[e] == o]
            if len(loops) == 1:
                unit_of[o] = loops[0]
            else:
                raise GroupoidParseError(
                    f"unit undefined for {o}: found {len(loops)} loop candidates, add a unit line"
                )
    for e in elements:
        if e not in inverse:
            raise GroupoidParseError(f"inverse undefined for {e}")
    try:
        g = FiniteGroupoid(tuple(outcomes), tuple(elements), source, target, unit_of, inverse, table)
    except ValueError as exc:  # a label no line declares
        raise GroupoidParseError(str(exc)) from None
    report = validate_axioms(g)
    if not report.ok:
        raise GroupoidParseError("groupoid axioms violated: " + "; ".join(str(f) for f in report.failures[:5]))
    return g


@dataclass(frozen=True)
class OutcomePartition:
    """Non-empty, disjoint, covering blocks of outcome labels."""

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValueError("partition blocks must be non-empty")
        flat = [x for b in blocks for x in b]
        if len(set(flat)) != len(flat):
            raise ValueError("partition blocks must be disjoint")
        object.__setattr__(self, "blocks", blocks)

    def validate_against(self, outcomes: Iterable[str]) -> None:
        flat = {x for b in self.blocks for x in b}
        missing = set(outcomes) - flat
        extra = flat - set(outcomes)
        if missing:
            raise ValueError(f"partition does not cover outcomes: {sorted(missing)}")
        if extra:
            raise ValueError(f"partition mentions unknown outcomes: {sorted(extra)}")

    def block_label(self, block: tuple[str, ...]) -> str:
        if len(block) == 1:
            return block[0]
        return "{" + "+".join(block) + "}"
