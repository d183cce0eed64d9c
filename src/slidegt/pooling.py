"""Graph pooling operators behind one interface.

Every pool maps node embeddings (n, d) to a fixed-size token matrix and
returns ``(pooled, aux)``.  MulGT pools typing by random node drop and
staging by adjacency-aware soft clustering (gcmincut); the other kinds are
minimal forms of published alternatives for the ablations.  Eight kinds rest
on three ideas, one class each:

- ``SelectPool`` keeps node rows (drop, sort, topk, sag; the topk/sag scorer
  is saved state, not trained) and publishes their indices as ``aux["kept"]``;
- ``ClusterPool`` pools as Sᵀh through a soft assignment S (gcmincut, diff,
  mincut); only gcmincut publishes S, as ``aux["assignment"]``, and the
  clustering regularizer is applied exactly where that key is present;
- ``GraphMultisetPool`` cross-attends trainable seed rows over the nodes (gm).

``draws`` says whether a pool reads the rng it is handed.  Only drop does,
so evaluation may reuse every other pool's output across drop seeds.  drop
never reads the rows either: ``SelectPool.select(n, rng)`` picks its kept
indices from the row count alone, which lets the model inject only those
rows when no tape is recording.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import MultiHeadWeights, attend
from .errors import ConfigError
from .nn import glorot, normal_param

POOL_KINDS = ("drop", "gcmincut", "sort", "topk", "sag", "diff", "mincut", "gm")
SELECT_KINDS = ("drop", "sort", "topk", "sag")
CLUSTER_KINDS = ("gcmincut", "diff", "mincut")


class SelectPool:
    """Keep at most ``keep`` node rows.

    drop keeps a uniform random subset in original row order.  The others
    keep the highest-scoring rows in descending score order: sort scores by
    the last feature channel, topk by a linear score h·w, and sag by its
    adjacency-smoothed form Â(h·w).  Hard selection is not differentiable in
    the scores, so the scorer ``w`` is saved state that never trains.
    """

    def __init__(self, kind, keep, rng=None, dim=None):
        if keep < 1:
            raise ConfigError(f"{kind} pool must keep at least one node, got {keep}")
        self.kind = kind
        self.keep = keep
        self.draws = kind == "drop"
        self.w = T.Tensor(glorot(rng, dim, 1).data) if kind in ("topk", "sag") else None

    def _scores(self, h, norm_adj):
        if self.kind == "sort":
            return h.data[:, -1]
        if self.kind == "topk":
            return (h.data @ self.w.data)[:, 0]
        return (norm_adj @ (h.data @ self.w.data))[:, 0]

    def select(self, n, rng):
        """drop's kept indices among n rows, sorted; reads rng, not the rows."""
        return np.sort(rng.permutation(n)[:self.keep])

    def __call__(self, h, norm_adj, rng):
        if self.draws:
            kept = self.select(h.shape[0], rng)
        else:
            kept = np.argsort(-self._scores(h, norm_adj), kind="stable")[:self.keep]
        return T.take_rows(h, kept), {"kept": kept}

    def parameters(self, prefix):
        return [] if self.w is None else [(f"{prefix}.w", self.w)]


class ClusterPool:
    """Soft-cluster nodes into ``clusters`` rows through an assignment S.

    Scores are h·w, propagated as Â(h·w) except for mincut; gcmincut also
    applies relu.  S is the row softmax of the scores (an all-zero relu row
    softmaxes to uniform).  For gcmincut only, ``assign_softmax=False``
    divides the relu scores by their row sums instead (``T.normalize_rows``,
    which maps an all-zero row to the uniform distribution).
    """

    draws = False

    def __init__(self, kind, rng, dim, clusters, assign_softmax=True):
        if clusters < 1:
            raise ConfigError(f"cluster count must be >= 1, got {clusters}")
        self.kind = kind
        self.relu_normalize = kind == "gcmincut" and not assign_softmax
        self.w = glorot(rng, dim, clusters)

    def assignment(self, h, norm_adj):
        scores = T.matmul(h, self.w)
        if self.kind != "mincut":
            scores = T.spmm(norm_adj, scores)
        if self.kind == "gcmincut":
            scores = T.relu(scores)
        return T.normalize_rows(scores) if self.relu_normalize else T.softmax_rows(scores)

    def __call__(self, h, norm_adj, rng):
        s = self.assignment(h, norm_adj)
        aux = {"assignment": s} if self.kind == "gcmincut" else {}
        return T.matmul(T.transpose(s), h), aux

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w)]


class GraphMultisetPool:
    """Trainable seed queries cross-attend the node set into k output rows."""

    kind = "gm"
    draws = False

    def __init__(self, rng, dim, seeds, heads, scale_scores=True):
        if seeds < 1:
            raise ConfigError(f"seed count must be >= 1, got {seeds}")
        self.seeds = normal_param(rng, (seeds, dim))
        self.attn = MultiHeadWeights(rng, dim, heads, scale_scores)

    def __call__(self, h, norm_adj, rng):
        return attend(self.attn, self.seeds, h), {}

    def parameters(self, prefix):
        return ([(f"{prefix}.seeds", self.seeds)]
                + self.attn.parameters(f"{prefix}.attn"))


def make_pool(kind, rng, dim, size, heads=1, assign_softmax=True, scale_scores=True):
    """Build a pool by kind name; ``size`` is the kept-node or cluster count."""
    if kind in SELECT_KINDS:
        return SelectPool(kind, size, rng, dim)
    if kind in CLUSTER_KINDS:
        return ClusterPool(kind, rng, dim, size, assign_softmax)
    if kind == "gm":
        return GraphMultisetPool(rng, dim, size, heads, scale_scores)
    raise ConfigError(f"unknown pooling kind {kind!r}; expected one of {POOL_KINDS}")
