"""Multi-head dot-product attention.

Heads split the model width (head width = dim / heads); each head projects
the query rows to queries and the key rows to both keys and values, mixes the
values under a row softmax of the query-key scores, and the concatenated
heads pass through one output projection.  Score scaling by
1/sqrt(head width) is on by default but can be disabled to recover the
bare-product variant.

An attention site is two tape ops: ``tensor.attention_heads`` computes every
head at once (the projections batched over the heads through ``np.matmul``)
and ``tensor.matmul`` applies the output projection.  Each role's weights
are one (heads, dim, head width) stack, so a site has four parameters for any
head count.  The batched products repeat per head the 2-D products of one op
per head on that head's contiguous block, so every output and gradient bit
is the same; ``np.einsum`` over the heads would sum in another order and
change them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .nn import glorot


class MultiHeadWeights:
    """Projection weights for one attention site: ``wq``, ``wk`` and ``wv``
    are (heads, dim, head width) stacks, ``wo`` the (dim, dim) output
    projection."""

    def __init__(self, rng, dim, heads, scale_scores=True):
        if heads < 1:
            raise ConfigError(f"heads must be >= 1, got {heads}")
        if dim % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide width ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.scale_scores = scale_scores
        self.wq = glorot(rng, dim, self.head_dim, (heads,))
        self.wk = glorot(rng, dim, self.head_dim, (heads,))
        self.wv = glorot(rng, dim, self.head_dim, (heads,))
        self.wo = glorot(rng, dim, dim)

    def parameters(self, prefix):
        return [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
                (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo)]


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
    inv_scale = 1.0 / np.sqrt(weights.head_dim) if weights.scale_scores else None
    mixed = T.attention_heads(queries, keys, weights.wq, weights.wk, weights.wv, inv_scale)
    return T.matmul(mixed, weights.wo)
