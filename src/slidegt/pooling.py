"""Graph pooling operators behind one interface.

Every pool maps node embeddings (n, d) to a fixed-size token matrix and
returns ``(pooled, aux)``.  The two production pools are random node drop
(typing branch) and adjacency-aware soft clustering (staging branch); the
remaining kinds are minimal forms of published alternatives so an ablation
harness can swap them without touching the model.

Only the adjacency-aware clustering pool publishes its soft assignment in
``aux["assignment"]``; the clustering regularizer is applied exactly where
that key is present.  Selection pools publish kept row indices under
``aux["kept"]``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import MultiHeadWeights, attend
from .errors import ConfigError
from .nn import glorot, normal_param

POOL_KINDS = ("drop", "gcmincut", "sort", "topk", "sag", "diff", "mincut", "gm")


class NodeDropPool:
    """Keep a uniform random subset of node rows, original order preserved."""

    kind = "drop"

    def __init__(self, keep):
        if keep < 1:
            raise ConfigError(f"drop pool must keep at least one node, got {keep}")
        self.keep = keep

    def __call__(self, h, norm_adj, rng):
        n = h.shape[0]
        k = min(self.keep, n)
        kept = np.sort(rng.permutation(n)[:k])
        return T.take_rows(h, kept), {"kept": kept}

    def parameters(self, prefix):
        return []


class GcMinCutPool:
    """Soft-cluster nodes with an adjacency-aware linear assignment.

    Assignment scores are norm_adj @ h @ w; by default a row softmax over
    relu scores yields the cluster distribution per node (an all-zero relu row
    softmaxes to uniform).  With ``assign_softmax=False`` the relu scores are
    normalized by their row sums instead, with all-zero rows mapped to the
    uniform distribution explicitly.
    """

    kind = "gcmincut"

    def __init__(self, rng, dim, clusters, assign_softmax=True):
        if clusters < 1:
            raise ConfigError(f"cluster count must be >= 1, got {clusters}")
        self.clusters = clusters
        self.assign_softmax = assign_softmax
        self.w = glorot(rng, dim, clusters)

    def assignment(self, h, norm_adj):
        scores = T.relu(T.spmm(norm_adj, T.matmul(h, self.w)))
        if self.assign_softmax:
            return T.softmax_rows(scores)
        # plain row normalization; zero rows get a constant row -> uniform
        zero_rows = scores.data.sum(axis=1) == 0.0
        if zero_rows.any():
            fix = np.zeros_like(scores.data)
            fix[zero_rows] = 1.0
            scores = T.add(scores, T.constant(fix))
        row_sums = T.matmul(scores, T.constant(np.ones((self.clusters, 1))))
        inv = T.div(T.constant(np.ones((h.shape[0], 1))), row_sums)
        return T.mul(scores, inv)

    def __call__(self, h, norm_adj, rng):
        s = self.assignment(h, norm_adj)
        return T.matmul(T.transpose(s), h), {"assignment": s}

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w)]


class SortPool:
    """Keep the k rows with the largest last feature channel, sorted by it."""

    kind = "sort"

    def __init__(self, keep):
        if keep < 1:
            raise ConfigError(f"sort pool must keep at least one node, got {keep}")
        self.keep = keep

    def __call__(self, h, norm_adj, rng):
        order = np.argsort(-h.data[:, -1], kind="stable")
        kept = order[:min(self.keep, h.shape[0])]
        return T.take_rows(h, kept), {"kept": kept}

    def parameters(self, prefix):
        return []


class _ScoredSelectPool:
    """Shared body for linear-scorer selection pools (top-k and its
    adjacency-smoothed variant).  Rows come out in descending score order;
    the scorer sees no gradient because hard selection is not differentiable
    in the scores."""

    def __init__(self, rng, dim, keep):
        if keep < 1:
            raise ConfigError(f"selection pool must keep at least one node, got {keep}")
        self.keep = keep
        self.w = glorot(rng, dim, 1)

    def _scores(self, h, norm_adj):
        raise NotImplementedError

    def __call__(self, h, norm_adj, rng):
        scores = self._scores(h, norm_adj)[:, 0]
        order = np.argsort(-scores, kind="stable")
        kept = order[:min(self.keep, h.shape[0])]
        return T.take_rows(h, kept), {"kept": kept}

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w)]


class TopKPool(_ScoredSelectPool):
    kind = "topk"

    def _scores(self, h, norm_adj):
        return h.data @ self.w.data


class SagPool(_ScoredSelectPool):
    kind = "sag"

    def _scores(self, h, norm_adj):
        return norm_adj @ (h.data @ self.w.data)


class DiffPool:
    """Soft clustering with an adjacency-propagated softmax assignment."""

    kind = "diff"

    def __init__(self, rng, dim, clusters):
        if clusters < 1:
            raise ConfigError(f"cluster count must be >= 1, got {clusters}")
        self.clusters = clusters
        self.w = glorot(rng, dim, clusters)

    def __call__(self, h, norm_adj, rng):
        s = T.softmax_rows(T.spmm(norm_adj, T.matmul(h, self.w)))
        return T.matmul(T.transpose(s), h), {}

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w)]


class MinCutLinearPool:
    """Soft clustering with a plain linear softmax assignment (no adjacency)."""

    kind = "mincut"

    def __init__(self, rng, dim, clusters):
        if clusters < 1:
            raise ConfigError(f"cluster count must be >= 1, got {clusters}")
        self.clusters = clusters
        self.w = glorot(rng, dim, clusters)

    def __call__(self, h, norm_adj, rng):
        s = T.softmax_rows(T.matmul(h, self.w))
        return T.matmul(T.transpose(s), h), {}

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w)]


class GraphMultisetPool:
    """Trainable seed queries cross-attend the node set into k output rows."""

    kind = "gm"

    def __init__(self, rng, dim, seeds, heads):
        if seeds < 1:
            raise ConfigError(f"seed count must be >= 1, got {seeds}")
        self.seeds = normal_param(rng, (seeds, dim))
        self.attn = MultiHeadWeights(rng, dim, heads)

    def __call__(self, h, norm_adj, rng):
        return attend(self.attn, self.seeds, h, h), {}

    def parameters(self, prefix):
        return ([(f"{prefix}.seeds", self.seeds)]
                + self.attn.parameters(f"{prefix}.attn"))


def make_pool(kind, rng, dim, size, heads=1, assign_softmax=True):
    """Build a pool by kind name; ``size`` is the kept-node or cluster count."""
    if kind == "drop":
        return NodeDropPool(size)
    if kind == "gcmincut":
        return GcMinCutPool(rng, dim, size, assign_softmax)
    if kind == "sort":
        return SortPool(size)
    if kind == "topk":
        return TopKPool(rng, dim, size)
    if kind == "sag":
        return SagPool(rng, dim, size)
    if kind == "diff":
        return DiffPool(rng, dim, size)
    if kind == "mincut":
        return MinCutLinearPool(rng, dim, size)
    if kind == "gm":
        return GraphMultisetPool(rng, dim, size, heads)
    raise ConfigError(f"unknown pooling kind {kind!r}; expected one of {POOL_KINDS}")
