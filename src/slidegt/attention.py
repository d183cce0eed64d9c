"""Multi-head dot-product attention.

Heads split the model width (head width = dim / heads); each head projects
the query rows to queries and the key rows to both keys and values, mixes the
values under a row softmax of the query-key scores, and the concatenated
heads pass through one output projection.  Score scaling by
1/sqrt(head width) is on by default but can be disabled to recover the
bare-product variant.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .nn import glorot


class MultiHeadWeights:
    """Projection weights for one attention site."""

    def __init__(self, rng, dim, heads, scale_scores=True):
        if heads < 1:
            raise ConfigError(f"heads must be >= 1, got {heads}")
        if dim % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide width ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.scale_scores = scale_scores
        self.wq = [glorot(rng, dim, self.head_dim) for _ in range(heads)]
        self.wk = [glorot(rng, dim, self.head_dim) for _ in range(heads)]
        self.wv = [glorot(rng, dim, self.head_dim) for _ in range(heads)]
        self.wo = glorot(rng, dim, dim)

    def parameters(self, prefix):
        params = []
        for i in range(self.heads):
            params.append((f"{prefix}.head{i}.wq", self.wq[i]))
            params.append((f"{prefix}.head{i}.wk", self.wk[i]))
            params.append((f"{prefix}.head{i}.wv", self.wv[i]))
        params.append((f"{prefix}.wo", self.wo))
        return params


def attend(weights, queries, keys):
    """Mix the key rows, projected as values, into one output row per query row.

    queries: (n_q, dim); keys: (n_k, dim), which also serve as the values.
    """
    if keys.shape[0] == 0:
        raise ContractError("attention needs at least one key")
    if queries.shape[1] != weights.dim or keys.shape[1] != weights.dim:
        raise DimensionError(
            f"attention width {weights.dim} does not match inputs "
            f"{queries.shape} / {keys.shape}")
    inv_scale = 1.0 / np.sqrt(weights.head_dim)
    heads = []
    for i in range(weights.heads):
        q = T.matmul(queries, weights.wq[i])
        k = T.matmul(keys, weights.wk[i])
        v = T.matmul(keys, weights.wv[i])
        scores = T.matmul(q, T.transpose(k))
        if weights.scale_scores:
            scores = T.scale(scores, inv_scale)
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.matmul(T.concat_cols(heads), weights.wo)
