"""Small trainable building blocks shared by the model components.

Initialization draws from a caller-supplied ``numpy.random.Generator`` in a
fixed order, so a model seeded the same way is reproduced bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True)


def normal_param(rng, shape, std=0.02):
    return Tensor(rng.normal(0.0, std, shape), requires_grad=True)


class Linear:
    """Affine map x @ w + b on row-major feature matrices."""

    def __init__(self, rng, d_in, d_out, zero_init=False):
        if zero_init:
            self.w = Tensor(np.zeros((d_in, d_out)), requires_grad=True)
        else:
            self.w = glorot(rng, d_in, d_out)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x):
        return T.add(T.matmul(x, self.w), self.b)

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class LayerNorm:
    """Row-wise layer normalization with trainable scale and shift."""

    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta)

    def parameters(self, prefix):
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


class FeedForward:
    """Two-layer row-wise MLP with a ReLU in between."""

    def __init__(self, rng, dim, hidden):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)

    def __call__(self, x):
        return self.lin2(T.relu(self.lin1(x)))

    def parameters(self, prefix):
        return self.lin1.parameters(f"{prefix}.lin1") + self.lin2.parameters(f"{prefix}.lin2")
