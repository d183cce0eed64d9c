import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt.attention import MultiHeadWeights, attend
from slidegt.errors import ConfigError, ContractError, DimensionError
from slidegt.tensor import Tensor, constant

seeds = st.integers(0, 2**32 - 1)


def reference_attention(w, q, k):
    """Independent loop oracle over heads, query rows, and key rows."""
    n_q, n_k = q.shape[0], k.shape[0]
    head_outs = []
    for h in range(w.heads):
        qh = q @ w.wq[h].data
        kh = k @ w.wk[h].data
        vh = k @ w.wv[h].data
        out = np.zeros((n_q, w.head_dim))
        for i in range(n_q):
            scores = np.array([qh[i] @ kh[j] for j in range(n_k)])
            if w.scale_scores:
                scores = scores / np.sqrt(w.head_dim)
            weights = np.exp(scores - scores.max())
            weights = weights / weights.sum()
            for j in range(n_k):
                out[i] += weights[j] * vh[j]
        head_outs.append(out)
    return np.concatenate(head_outs, axis=1) @ w.wo.data


@given(seeds, st.booleans())
def test_matches_loop_oracle(seed, scaled):
    rng = np.random.default_rng(seed)
    dim, heads = 6, 2
    w = MultiHeadWeights(np.random.default_rng(seed + 1), dim, heads,
                         scale_scores=scaled)
    q = rng.normal(0, 1, (3, dim))
    k = rng.normal(0, 1, (4, dim))
    out = attend(w, constant(q), constant(k))
    assert_allclose(out.data, reference_attention(w, q, k), atol=1e-12)


def test_single_key_ignores_scores():
    # with one key the softmax is 1 regardless of the query
    rng = np.random.default_rng(0)
    dim = 4
    w = MultiHeadWeights(np.random.default_rng(1), dim, 2)
    k = rng.normal(0, 1, (1, dim))
    q1 = rng.normal(0, 1, (2, dim))
    q2 = rng.normal(0, 1, (2, dim))
    out1 = attend(w, constant(q1), constant(k)).data
    out2 = attend(w, constant(q2), constant(k)).data
    assert_allclose(out1, out2, atol=1e-12)
    assert_allclose(out1[0], out1[1], atol=1e-12)


def test_identical_keys_give_uniform_mixture():
    rng = np.random.default_rng(2)
    dim = 4
    w = MultiHeadWeights(np.random.default_rng(3), dim, 1)
    # a zero key projection maps every key row to the same key, so each query
    # scores all rows alike and mixes their values uniformly
    w.wk[0] = Tensor(np.zeros((dim, dim)), requires_grad=True)
    rows = rng.normal(0, 1, (5, dim))
    q = constant(rng.normal(0, 1, (3, dim)))
    out = attend(w, q, constant(rows)).data
    expected = np.tile(rows.mean(axis=0) @ w.wv[0].data @ w.wo.data, (3, 1))
    assert_allclose(out, expected, atol=1e-12)


@given(seeds)
def test_invariant_to_key_value_permutation(seed):
    rng = np.random.default_rng(seed)
    dim = 6
    w = MultiHeadWeights(np.random.default_rng(seed + 1), dim, 3)
    q = rng.normal(0, 1, (2, dim))
    k = rng.normal(0, 1, (5, dim))  # the key rows are also the values
    perm = rng.permutation(5)
    base = attend(w, constant(q), constant(k)).data
    shuffled = attend(w, constant(q), constant(k[perm])).data
    assert_allclose(shuffled, base, atol=1e-10)


@given(seeds)
def test_query_rows_are_independent(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    w = MultiHeadWeights(np.random.default_rng(seed + 1), dim, 2)
    k = rng.normal(0, 1, (4, dim))
    q = rng.normal(0, 1, (3, dim))
    base = attend(w, constant(q), constant(k)).data
    q2 = q.copy()
    q2[2] += rng.normal(0, 1, dim)  # perturb only the last query row
    moved = attend(w, constant(q2), constant(k)).data
    assert_allclose(moved[:2], base[:2], atol=1e-12)


def test_gradients_match_fd():
    rng = np.random.default_rng(5)
    dim = 4
    w = MultiHeadWeights(np.random.default_rng(6), dim, 2)
    q = Tensor(rng.normal(0, 1, (2, dim)), requires_grad=True)
    k = Tensor(rng.normal(0, 1, (3, dim)), requires_grad=True)
    c = constant(rng.normal(0, 1, (2, dim)))
    params = [q, k] + [p for _, p in w.parameters("attn")]
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(attend(w, q, k), c)), params, tol=2e-4)


def test_config_and_shape_errors():
    with pytest.raises(ConfigError, match="divide"):
        MultiHeadWeights(np.random.default_rng(0), 6, 4)
    w = MultiHeadWeights(np.random.default_rng(0), 4, 2)
    with pytest.raises(DimensionError, match="width"):
        attend(w, constant(np.zeros((2, 5))), constant(np.zeros((3, 4))))
    with pytest.raises(ContractError, match="at least one key"):
        attend(w, constant(np.zeros((2, 4))), constant(np.zeros((0, 4))))
