"""Quotient of a pair groupoid by an outcome partition, with averaged weights."""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain
from operator import add

import numpy as np

from .groupoid import FiniteGroupoid, OutcomePartition, build_pair_groupoid
from .lagrangian import QLagrangian


def pair_index(g: FiniteGroupoid) -> np.ndarray | None:
    """Each ordered outcome pair's transition, as a k x k array of element indices [target, source].

    k is the outcome count.  None unless every pair has exactly one transition.
    """
    k = len(g.outcomes)
    at = np.full(k * k, -1, dtype=np.intp)
    at[g.target.array * k + g.source.array] = np.arange(len(g.elements))
    # k*k transitions that leave no pair empty give every pair exactly one
    return at.reshape(k, k) if len(g.elements) == k * k and at.min() >= 0 else None


def is_principal(g: FiniteGroupoid) -> bool:
    """True when there is exactly one transition per ordered outcome pair."""
    return pair_index(g) is not None


def coarse_grain(
    g: FiniteGroupoid, partition: OutcomePartition, ell: QLagrangian
) -> tuple[FiniteGroupoid, QLagrangian]:
    """Collapse partition blocks into outcomes and average the weights.

    The block-to-block weight is the arithmetic mean of the fine-grained
    weights over every cross transition, which keeps the result self-adjoint.
    Only pair-structured groupoids are accepted; on those the quotient is
    again a pair groupoid over the block labels.  Each block sum adds the
    weights, gathered from the Lagrangian's array, left to right: target
    outcomes in block order, then source outcomes in block order.
    """
    at = pair_index(g)
    if at is None:
        raise ValueError("coarse graining requires a pair-structured groupoid "
                         "(exactly one transition per ordered outcome pair)")
    return _coarse_grain(g, at, partition, ell)


def _coarse_grain(
    g: FiniteGroupoid, at: np.ndarray, partition: OutcomePartition, ell: QLagrangian
) -> tuple[FiniteGroupoid, QLagrangian]:
    """coarse_grain on a groupoid g whose pair_index is at, for a caller that has checked it."""
    if ell.groupoid != g:
        raise ValueError("lagrangian is defined on a different groupoid")
    partition.validate_against(g.outcomes)

    labels = tuple(partition.block_label(b) for b in partition.blocks)
    quotient = build_pair_groupoid(labels)

    # rows[i][j]: the weight of (order[i], order[j]), outcomes taken block by block
    outcome = g.unit_of.index  # outcome label -> index
    order = np.array([outcome[o] for b in partition.blocks for o in b], dtype=np.intp)
    rows = ell.weights_on(g)[at[np.ix_(order, order)]].tolist()
    ends = list(accumulate(len(b) for b in partition.blocks))
    spans = list(zip([0, *ends], ends))
    values = [
        reduce(add, chain.from_iterable(row[s0:s1] for row in rows[t0:t1]), 0j) / ((t1 - t0) * (s1 - s0))
        for t0, t1 in spans
        for s0, s1 in spans
    ]
    return quotient, QLagrangian(quotient, np.array(values))
