"""Transition weight functions and outcome biases."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .groupoid import FiniteGroupoid, _IndexMap, build_a2

SELF_ADJOINT_TOL = 1e-12
BIAS_SUM_TOL = 1e-12
# The groupoid of qubit_lagrangian: build_a2() returns this one immutable value,
# so a command that has built a2 builds it no second time for its weights.
_A2 = build_a2()


@dataclass(frozen=True)
class QLagrangian:
    """Complex weight per transition, constrained by l(a) = conj(l(inverse(a))).

    The constraint makes the induced algebra element an observable and keeps
    history actions compatible with orientation reversal.  ``values`` may be
    given as a label mapping or as an array of weights in the groupoid's
    element order.  It is held as one read-only complex128 array,
    ``values.array``, and ``values`` is its mapping view; the constraint is
    one comparison of that array with its conjugate permuted by
    ``groupoid.inverse.array``.
    """

    groupoid: FiniteGroupoid
    values: Mapping[str, complex]

    def __post_init__(self):
        g = self.groupoid
        values = self.values
        if isinstance(values, np.ndarray):
            w = np.array(values, dtype=complex)
            if w.shape != (len(g.elements),):
                raise ValueError(f"lagrangian needs {len(g.elements)} weights, got shape {w.shape}")
        else:
            vals = {k: complex(v) for k, v in values.items()}
            missing = set(g.elements) - set(vals)
            if missing:
                raise ValueError(f"lagrangian missing values for {sorted(missing)}")
            extra = set(vals) - set(g.elements)
            if extra:
                raise ValueError(f"lagrangian has values for unknown elements {sorted(extra)}")
            w = np.array([vals[e] for e in g.elements], dtype=complex)
        inv = g.inverse.array
        mate = w[inv].conj()
        with np.errstate(all="ignore"):
            gap = w - mate
            ok = np.abs(gap) <= SELF_ADJOINT_TOL  # a NaN gap fails too
        if not ok.all():
            i = int(ok.argmin())  # the first failing element
            a, ia = g.elements[i], g.elements[inv[i]]
            if math.isfinite(gap[i].real) and math.isfinite(gap[i].imag):
                abs(gap.item(i))  # an overflowing modulus raises, as Python's abs does
            raise ValueError(
                f"lagrangian is not self-adjoint at {a}: "
                f"l({a}) = {w.item(i)}, conj(l({ia})) = {mate.item(i)}"
            )
        object.__setattr__(self, "values", _IndexMap(g.elements, g.compose_table.index, None, w))

    def __getitem__(self, element: str) -> complex:
        return self.values[element]

    def weights_on(self, g: FiniteGroupoid) -> np.ndarray:
        """The weights in g's element order, g being equal to ``groupoid``.

        Equal groupoids may declare their elements in different orders, so
        the array is re-indexed by label unless the two orders agree.
        """
        if g.elements == self.groupoid.elements:
            return self.values.array
        index = self.values.index
        return self.values.array[[index[e] for e in g.elements]]


def qubit_lagrangian(v_plus: float, v_minus: float, mu: float, delta: float) -> QLagrangian:
    """Weights on the two-outcome groupoid: units carry -V, the flips mu ± i delta.

    They are given in a2's element order (1+, 1-, alpha, alpha^-1).
    """
    weights = [complex(-v_plus, 0.0), complex(-v_minus, 0.0), complex(mu, delta), complex(mu, -delta)]
    return QLagrangian(_A2, np.array(weights))


@dataclass(frozen=True)
class OutcomeBias:
    """Probability weight per outcome; non-negative and summing to one."""

    probabilities: Mapping[str, float]

    def __post_init__(self):
        probs = {k: float(v) for k, v in self.probabilities.items()}
        if not probs:
            raise ValueError("bias must cover at least one outcome")
        for k, v in probs.items():
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"bias for {k} must be finite and non-negative, got {v}")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > BIAS_SUM_TOL:
            raise ValueError(f"bias must sum to 1 within {BIAS_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "probabilities", MappingProxyType(probs))

    def __getitem__(self, outcome: str) -> float:
        return self.probabilities[outcome]

    @classmethod
    def uniform(cls, g: FiniteGroupoid) -> "OutcomeBias":
        n = len(g.outcomes)
        return cls({o: 1.0 / n for o in g.outcomes})


def qubit_bias(p_plus: float) -> OutcomeBias:
    """Bias on the two-outcome groupoid from the + probability, constrained to [0, 1/2]."""
    if not 0.0 <= p_plus <= 0.5:
        raise ValueError(f"p_plus must lie in [0, 1/2], got {p_plus}")
    from .groupoid import OUT_MINUS, OUT_PLUS

    return OutcomeBias({OUT_MINUS: 1.0 - p_plus, OUT_PLUS: p_plus})
