"""Adam with bias correction, at the fixed decay rates beta1 = 0.9 and
beta2 = 0.999 and the denominator guard eps = 1e-8.

Parameters are visited in registration order every step, and moment buffers
are plain f64 arrays, so two optimizers fed identical gradients stay bitwise
identical.  A non-finite gradient aborts immediately, naming the parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NonFiniteError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params, lr=1e-4):
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be > 0, got {lr}")
        self.params = list(params)  # [(name, tensor)], order fixed
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self):
        for _, p in self.params:
            p.grad[...] = 0.0

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for i, (name, p) in enumerate(self.params):
            g = p.grad
            if not math.isfinite(float(g.sum())):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
