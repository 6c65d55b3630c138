"""Quotient of a pair groupoid by an outcome partition, with averaged weights."""

from __future__ import annotations

import numpy as np

from .groupoid import FiniteGroupoid, OutcomePartition, build_pair_groupoid, pair_element
from .lagrangian import QLagrangian


def is_principal(g: FiniteGroupoid) -> bool:
    """True when there is exactly one transition per ordered outcome pair."""
    k = len(g.outcomes)
    idx = {o: i for i, o in enumerate(g.outcomes)}
    pairs = [idx[g.target[e]] * k + idx[g.source[e]] for e in g.elements]
    return bool(np.all(np.bincount(pairs, minlength=k * k) == 1))


def coarse_grain(
    g: FiniteGroupoid, partition: OutcomePartition, ell: QLagrangian
) -> tuple[FiniteGroupoid, QLagrangian]:
    """Collapse partition blocks into outcomes and average the weights.

    The block-to-block weight is the arithmetic mean of the fine-grained
    weights over every cross transition, which keeps the result self-adjoint.
    Only pair-structured groupoids are accepted; on those the quotient is
    again a pair groupoid over the block labels.
    """
    # the transition of each (target, source) pair; the pair structure holds
    # exactly when there are k*k distinct pairs and k*k transitions
    by_pair = {(g.target[e], g.source[e]): e for e in g.elements}
    k = len(g.outcomes)
    if not len(by_pair) == len(g.elements) == k * k:
        raise ValueError("coarse graining requires a pair-structured groupoid "
                         "(exactly one transition per ordered outcome pair)")
    if ell.groupoid != g:
        raise ValueError("lagrangian is defined on a different groupoid")
    partition.validate_against(g.outcomes)

    labels = tuple(partition.block_label(b) for b in partition.blocks)
    quotient = build_pair_groupoid(labels)

    values: dict[str, complex] = {}
    for bt, lt in zip(partition.blocks, labels):
        for bs, ls in zip(partition.blocks, labels):
            total = 0j
            for y in bt:
                for x in bs:
                    total += ell[by_pair[(y, x)]]
            values[pair_element(lt, ls)] = total / (len(bt) * len(bs))
    return quotient, QLagrangian(quotient, values)
