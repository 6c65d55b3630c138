"""The *-algebra spanned by the transitions of a finite groupoid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .groupoid import FiniteGroupoid
from .lagrangian import QLagrangian


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Finite formal combination of transitions; absent coefficients are zero."""

    groupoid: FiniteGroupoid
    coefficients: Mapping[str, complex]

    def __post_init__(self):
        unknown = self.coefficients.keys() - self.groupoid.compose_table.index.keys()
        if unknown:
            raise ValueError(f"coefficients for unknown elements {sorted(unknown)}")
        object.__setattr__(self, "coefficients", MappingProxyType(dict(self.coefficients)))

    def __getitem__(self, element: str):
        return self.coefficients.get(element, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.groupoid != other.groupoid:
            return False
        keys = set(self.coefficients) | set(other.coefficients)
        return all(self[k] == other[k] for k in keys)

    def __hash__(self):
        return hash(self.groupoid)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        coeffs = dict(self.coefficients)
        for k, v in other.coefficients.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return AlgebraElement(self.groupoid, coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        coeffs = dict(self.coefficients)
        for k, v in other.coefficients.items():
            coeffs[k] = coeffs.get(k, 0) - v
        return AlgebraElement(self.groupoid, coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return AlgebraElement(self.groupoid, {k: v * other for k, v in self.coefficients.items()})

    def __rmul__(self, scalar):
        return AlgebraElement(self.groupoid, {k: scalar * v for k, v in self.coefficients.items()})

    def __neg__(self):
        return AlgebraElement(self.groupoid, {k: -v for k, v in self.coefficients.items()})

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.groupoid != other.groupoid:
            raise ValueError("elements live over different groupoids")


def delta(g: FiniteGroupoid, element: str, coefficient: complex = 1) -> AlgebraElement:
    """Basis element: coefficient on a single transition."""
    if element not in g.source:
        raise ValueError(f"unknown element {element!r}")
    return AlgebraElement(g, {element: coefficient})


def algebra_unit(g: FiniteGroupoid) -> AlgebraElement:
    """Sum of all unit transitions; the multiplicative identity."""
    return AlgebraElement(g, {g.unit_of[o]: 1 for o in g.outcomes})


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product (a·b)_gamma = sum of a_beta b_alpha over beta ∘ alpha = gamma.

    The bits are those of the loop over a's then b's coefficients that skips
    each pair whose endpoints do not chain (source(beta) != target(alpha)) or
    whose cell the table leaves undefined, and adds each complex product,
    formed as CPython forms it, to out.get(gamma, 0).  Only the chaining pairs
    are formed: b's coefficients are grouped by target, in coefficient order,
    and a's i-th coefficient pairs with the group at its source, so the pairs
    come in the loop's order.  Each gamma is read from the groupoid's integer
    table, each product is a separate ufunc per term (nothing fuses) and
    np.bincount adds them in sequence; an undefined cell (index E, only in a
    broken table) collects its products in a bin that is dropped.  Keys come
    in order of first contribution; coefficients come out as Python complex.
    Overflow gives inf or nan, as CPython's multiply does, without a warning.
    """
    a._check_same(b)
    g = a.groupoid
    law, n = g.compose_table, len(g.elements)
    beta = np.array([law.index[k] for k in a.coefficients], dtype=np.intp)
    alpha = np.array([law.index[k] for k in b.coefficients], dtype=np.intp)
    ca = np.array(list(a.coefficients.values()), dtype=complex)
    cb = np.array(list(b.coefficients.values()), dtype=complex)
    # b's positions grouped by target, each group in coefficient order; a's i-th
    # coefficient pairs with the group at its source, so the pairs come row-major.
    targets = g.target.array[alpha]
    by_target = targets.argsort(kind="stable")
    counts = np.bincount(targets, minlength=len(g.outcomes))
    sources = g.source.array[beta]
    lens = counts[sources]
    i = np.arange(len(beta)).repeat(lens)
    # pair p, in row i, is b's position by_target[p - (row i's first p) + (its group's first slot)]
    shift = (counts.cumsum() - counts)[sources] - (lens.cumsum() - lens)
    j = by_target[np.arange(len(i)) + shift.repeat(lens)]
    gamma = law.table.ravel()[beta[i] * (n + 1) + alpha[j]]
    x, y = ca[i], cb[j]
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.bincount(gamma, weights=xr * yr - xi * yi, minlength=n + 1)
        im = np.bincount(gamma, weights=xr * yi + xi * yr, minlength=n + 1)
    first = dict.fromkeys(gamma.tolist())  # in order of first contribution
    first.pop(n, None)
    keys = np.fromiter(first, dtype=np.intp, count=len(first))
    z = np.empty(len(keys), dtype=complex)
    z.real, z.imag = re[keys], im[keys]
    names = g.elements
    return AlgebraElement(g, dict(zip([names[k] for k in first], z.tolist())))


def involute(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: conjugate coefficients transported to the inverse transitions."""
    g = a.groupoid
    return AlgebraElement(g, {g.inverse[k]: v.conjugate() for k, v in a.coefficients.items()})


def is_observable(a: AlgebraElement, tol: float = 1e-10) -> bool:
    """True when a equals its adjoint within tol, coefficientwise."""
    adj = involute(a)
    keys = set(a.coefficients) | set(adj.coefficients)
    return all(abs(a[k] - adj[k]) <= tol for k in keys)


def lagrangian_element(ell: QLagrangian) -> AlgebraElement:
    """Embed a transition weight function as an algebra element."""
    return AlgebraElement(ell.groupoid, dict(ell.values))


def fundamental_rep(a: AlgebraElement) -> np.ndarray:
    """Matrix on the outcome basis: entry [target, source] sums the coefficients.

    Rows and columns follow the groupoid's declared outcome order.  Entries
    shared by several transitions add up in coefficient order, one
    np.bincount per part, as the loop's complex += adds them.
    """
    g = a.groupoid
    k = len(g.outcomes)
    index = g.compose_table.index
    ids = np.array([index[el] for el in a.coefficients], dtype=np.intp)
    c = np.array(list(a.coefficients.values()), dtype=complex)
    cell = g.target.array[ids] * k + g.source.array[ids]
    m = np.empty(k * k, dtype=complex)
    m.real = np.bincount(cell, weights=c.real, minlength=k * k)
    m.imag = np.bincount(cell, weights=c.imag, minlength=k * k)
    return m.reshape(k, k)


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value of the fundamental representation."""
    return float(np.linalg.norm(fundamental_rep(a), 2))


@dataclass(frozen=True)
class StateVector:
    """Pure state amplitudes in the groupoid's outcome order."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", tuple(complex(z) for z in self.amplitudes))

    def norm(self) -> float:
        return math.hypot(*(x for z in self.amplitudes for x in (z.real, z.imag)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)


def element_from_lines(g: FiniteGroupoid, text: str) -> AlgebraElement:
    """Parse one 'NAME = re,im' line per element, as a hand-written weight file holds them.

    Blank lines and '#' comments are skipped.  Each element may be named once;
    a second line for it is an error.  Unnamed elements get coefficient zero;
    re and im must be finite reals.
    """
    coeffs: dict[str, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'NAME = re,im'")
        name = name.strip()
        if name not in g.source:
            raise ValueError(f"line {lineno}: unknown element {name!r}")
        if name in coeffs:
            raise ValueError(f"line {lineno}: duplicate element {name!r}")
        parts = value.strip().split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two comma-separated reals")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"line {lineno}: expected finite reals, got {value.strip()!r}")
        coeffs[name] = complex(re, im)
    return AlgebraElement(g, coeffs)
