"""Shared graph-convolutional encoder.

Each layer computes relu(norm_adj @ h @ w) with a square weight per layer, so
node embeddings keep the model width end to end.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigError, DimensionError
from .nn import glorot


class GcnStack:
    """A fixed-depth stack of graph convolutions over one shared width."""

    def __init__(self, rng, dim, depth):
        if depth < 1:
            raise ConfigError(f"gcn depth must be >= 1, got {depth}")
        self.dim = dim
        self.weights = [glorot(rng, dim, dim) for _ in range(depth)]

    def __call__(self, h, norm_adj):
        """Propagate node features; h is (n, dim), norm_adj an (n, n) operator."""
        if h.shape[1] != self.dim:
            raise DimensionError(
                f"gcn expects width {self.dim}, got features of width {h.shape[1]}")
        for w in self.weights:
            h = T.relu(T.spmm(norm_adj, T.matmul(h, w)))
        return h

    def parameters(self, prefix="gcn"):
        return [(f"{prefix}.layer{i}.w", w) for i, w in enumerate(self.weights)]
