import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt.errors import ConfigError, DimensionError
from slidegt.gcn import GcnStack
from slidegt.tensor import Tensor, constant

seeds = st.integers(0, 2**32 - 1)


def reference_layer(adj, h, w):
    """Scalar triple-loop oracle for relu(adj @ h @ w)."""
    n, d_in = h.shape
    d_out = w.shape[1]
    hw = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            for k in range(d_in):
                hw[i, j] += h[i, k] * w[k, j]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            for k in range(n):
                out[i, j] += adj[i, k] * hw[k, j]
    return np.maximum(out, 0.0)


def random_norm_adj(rng, n):
    """Symmetric normalized adjacency of a random graph with self-loops."""
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T + np.eye(n)
    d = a.sum(axis=1)
    return a / np.sqrt(np.outer(d, d))


@given(seeds)
def test_single_layer_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d = 5, 4
    adj = random_norm_adj(rng, n)
    h = rng.normal(0, 1, (n, d))
    stack = GcnStack(np.random.default_rng(seed + 1), dim=d, depth=1)
    out = stack(constant(h), adj)
    assert_allclose(out.data, reference_layer(adj, h, stack.weights[0].data),
                    atol=1e-12)


@given(seeds)
def test_two_layers_compose(seed):
    rng = np.random.default_rng(seed)
    n, d = 4, 3
    adj = random_norm_adj(rng, n)
    h = rng.normal(0, 1, (n, d))
    stack = GcnStack(np.random.default_rng(seed + 1), dim=d, depth=2)
    out = stack(constant(h), adj)
    step = reference_layer(adj, h, stack.weights[0].data)
    expected = reference_layer(adj, step, stack.weights[1].data)
    assert_allclose(out.data, expected, atol=1e-12)


def test_zero_features_stay_zero():
    stack = GcnStack(np.random.default_rng(0), dim=3, depth=2)
    adj = random_norm_adj(np.random.default_rng(1), 4)
    out = stack(constant(np.zeros((4, 3))), adj)
    assert_array_equal(out.data, np.zeros((4, 3)))


@given(seeds)
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    n, d = 6, 4
    adj = random_norm_adj(rng, n)
    h = rng.normal(0, 1, (n, d))
    perm = rng.permutation(n)
    stack = GcnStack(np.random.default_rng(seed + 1), dim=d, depth=2)
    base = stack(constant(h), adj).data
    permuted = stack(constant(h[perm]),
                     adj[np.ix_(perm, perm)]).data
    assert_allclose(permuted, base[perm], atol=1e-10)


def test_gradients_match_fd():
    rng = np.random.default_rng(3)
    n, d = 4, 3
    adj = random_norm_adj(rng, n)
    h = Tensor(rng.normal(0, 1, (n, d)), requires_grad=True)
    stack = GcnStack(np.random.default_rng(4), dim=d, depth=2)
    c = constant(rng.normal(0, 1, (n, d)))
    params = [h] + [w for w in stack.weights]
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(stack(h, adj), c)), params)


def test_width_mismatch_and_bad_depth():
    stack = GcnStack(np.random.default_rng(0), dim=4, depth=1)
    with pytest.raises(DimensionError, match="width"):
        stack(constant(np.zeros((3, 5))), np.eye(3))
    with pytest.raises(ConfigError):
        GcnStack(np.random.default_rng(0), dim=4, depth=0)
