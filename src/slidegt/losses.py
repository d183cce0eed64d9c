"""Training objectives: cross-entropy and the clustering regularizer.

The clustering regularizer scores a soft assignment S (rows sum to 1) against
the self-loop adjacency A: the cut term -Tr(S'AS)/Tr(S'DS) lives in [-1, 0]
and rewards assignments that keep edges inside clusters (computed from the
normalized N = D^-1/2 A D^-1/2 as <N Z, Z>/<Z, Z> with Z = D^1/2 S); the
orthogonality term || S'S/||S'S||_F - I/sqrt(p) ||_F lives in [0, 2] and
rewards balanced, near-hard assignments.

Each of the two is one tape op in ``tensor`` (``cross_entropy`` and
``mincut_terms``); this module checks their inputs and weighs the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor


@dataclass
class LossWeights:
    """Mixing weights for the joint objective."""

    typing: float = 1.0
    staging: float = 1.0
    mincut: float = 1.0


class MinCutTerms(NamedTuple):
    cut: float
    ortho: float
    total: Tensor


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under row softmax, as
    one tape op (``tensor.cross_entropy``).

    logits: (B, C) tensor; labels: length-B sequence of ints in [0, C).
    """
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ContractError(f"cross_entropy needs 2-D logits, got shape {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise ContractError(f"expected {b} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"labels must lie in [0, {c}), got {labels.tolist()}")
    return T.cross_entropy(logits, labels)


def mincut_loss(s, norm_adj, deg_tilde):
    """Cut and orthogonality terms for a soft assignment, as one tape op
    (``tensor.mincut_terms``).

    s: (n, p) tensor with rows on the simplex; norm_adj: (n, n) normalized
    self-loop adjacency operator; deg_tilde: (n,) self-loop degrees.
    Returns (cut, ortho, total): two floats and the scalar tensor cut + ortho.
    """
    if s.shape[1] < 1:
        raise ContractError("assignment needs at least one cluster column")
    # the bound of np.allclose(row_sums, 1.0, atol=1e-6): atol + rtol * |1|
    if not np.abs(s.data.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-6 + 1e-5:
        raise ContractError("assignment rows must sum to 1")
    total, cut, ortho = T.mincut_terms(s, norm_adj, deg_tilde)
    return MinCutTerms(cut, ortho, total)


def total_loss(task_losses, mincut_total, weights):
    """Weighted sum w_typing * L_typing + w_staging * L_staging + w_mincut * L_cluster.

    task_losses: mapping task name -> scalar tensor; absent tasks contribute
    nothing (single-task training).  mincut_total: scalar tensor or None.
    """
    terms = []
    for task, loss in task_losses.items():
        w = getattr(weights, task, None)
        if w is None:
            raise ContractError(f"no loss weight defined for task {task!r}")
        terms.append(T.scale(loss, w))
    if mincut_total is not None:
        terms.append(T.scale(mincut_total, weights.mincut))
    if not terms:
        return T.constant(np.asarray(0.0))
    out = terms[0]
    for term in terms[1:]:
        out = T.add(out, term)
    return out
