"""Transition weight functions and outcome biases."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .groupoid import ALPHA, ALPHA_INV, UNIT_MINUS, UNIT_PLUS, FiniteGroupoid, build_a2

SELF_ADJOINT_TOL = 1e-12
BIAS_SUM_TOL = 1e-12


@dataclass(frozen=True)
class QLagrangian:
    """Complex weight per transition, constrained by l(a) = conj(l(inverse(a))).

    The constraint makes the induced algebra element an observable and keeps
    history actions compatible with orientation reversal.
    """

    groupoid: FiniteGroupoid
    values: Mapping[str, complex]

    def __post_init__(self):
        g = self.groupoid
        vals = {k: complex(v) for k, v in self.values.items()}
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
        object.__setattr__(self, "values", MappingProxyType(vals))

    def __getitem__(self, element: str) -> complex:
        return self.values[element]


def qubit_lagrangian(v_plus: float, v_minus: float, mu: float, delta: float) -> QLagrangian:
    """Weights on the two-outcome groupoid: units carry -V, the flips mu ± i delta."""
    return QLagrangian(build_a2(), _qubit_weights(v_plus, v_minus, mu, delta))


def _qubit_weights(v_plus: float, v_minus: float, mu: float, delta: float) -> dict[str, complex]:
    """The values of qubit_lagrangian, by a2 element label."""
    return {
        UNIT_PLUS: complex(-v_plus, 0.0),
        UNIT_MINUS: complex(-v_minus, 0.0),
        ALPHA: complex(mu, delta),
        ALPHA_INV: complex(mu, -delta),
    }


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
