import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import chi2

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt.errors import ConfigError
from slidegt.graph import build_graph
from slidegt.pooling import (POOL_KINDS, ClusterPool, GraphMultisetPool, SelectPool,
                             make_pool)
from slidegt.tensor import Tensor, constant
from test_graph import grid_from_mask
from test_train import ops_made

seeds = st.integers(0, 2**32 - 1)


def rand_h(rng, n, d, grad=False):
    return Tensor(rng.normal(0, 1, (n, d)), requires_grad=grad)


def eye_adj(n):
    return np.eye(n)


# ----------------------------------------------------------------- node drop


def test_drop_keeps_everything_when_k_covers_n():
    rng = np.random.default_rng(0)
    h = rand_h(rng, 4, 3)
    pool = SelectPool("drop", keep=9)
    out, aux = pool(h, eye_adj(4), np.random.default_rng(1))
    assert_array_equal(out.data, h.data)  # original order preserved
    assert_array_equal(aux["kept"], [0, 1, 2, 3])


def test_drop_rows_keep_original_order():
    rng = np.random.default_rng(2)
    h = rand_h(rng, 10, 3)
    pool = SelectPool("drop", keep=4)
    out, aux = pool(h, eye_adj(10), np.random.default_rng(3))
    kept = aux["kept"]
    assert len(kept) == 4
    assert (np.diff(kept) > 0).all()
    assert_array_equal(out.data, h.data[kept])


def test_drop_is_deterministic_under_a_fixed_seed():
    rng = np.random.default_rng(4)
    h = rand_h(rng, 8, 2)
    pool = SelectPool("drop", keep=3)
    a = pool(h, eye_adj(8), np.random.default_rng(11))[1]["kept"]
    b = pool(h, eye_adj(8), np.random.default_rng(11))[1]["kept"]
    assert_array_equal(a, b)


@pytest.mark.parametrize("n, keep", [(10, 4), (4, 9), (1, 1)])
def test_drop_select_matches_call_and_leaves_rng_alike(n, keep):
    h = rand_h(np.random.default_rng(5), n, 3)
    pool = SelectPool("drop", keep=keep)
    rng_call, rng_select = np.random.default_rng(12), np.random.default_rng(12)
    _, aux = pool(h, eye_adj(n), rng_call)
    assert_array_equal(pool.select(n, rng_select), aux["kept"])
    assert rng_select.bit_generator.state == rng_call.bit_generator.state


def test_drop_subsets_are_uniform_chi_squared():
    # all 6 two-element subsets of 4 nodes should be equally likely
    pool = SelectPool("drop", keep=2)
    h = rand_h(np.random.default_rng(5), 4, 2)
    adj = eye_adj(4)
    counts = {frozenset(c): 0 for c in itertools.combinations(range(4), 2)}
    draws = 10_000
    rng = np.random.default_rng(1234)
    for _ in range(draws):
        kept = pool(h, adj, rng)[1]["kept"]
        counts[frozenset(kept.tolist())] += 1
    expected = draws / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p_value = 1.0 - chi2.cdf(stat, df=len(counts) - 1)
    assert p_value > 0.01, f"chi-squared p={p_value:.4f}, counts={counts}"


def test_drop_marked_node_retention_matches_hypergeometric_mean():
    # 4 nodes, 2 marked, keep 2: expected marked survivors = 1
    pool = SelectPool("drop", keep=2)
    h = rand_h(np.random.default_rng(6), 4, 2)
    adj = eye_adj(4)
    marked = {0, 1}
    draws = 10_000
    rng = np.random.default_rng(99)
    total = sum(len(marked & set(pool(h, adj, rng)[1]["kept"].tolist()))
                for _ in range(draws))
    mean = total / draws
    # hypergeometric: var = k * (K/N) * (1-K/N) * (N-k)/(N-1) = 1/3
    sigma_of_mean = np.sqrt((1.0 / 3.0) / draws)
    assert abs(mean - 1.0) < 3.0 * sigma_of_mean


# ------------------------------------------------------------ soft clustering


def reference_gcmincut(adj, h, w):
    scores = np.maximum(adj @ (h @ w), 0.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s, s.T @ h


@given(seeds)
def test_gcmincut_matches_numpy_oracle(seed):
    rng = np.random.default_rng(seed)
    g = build_graph(grid_from_mask(rng.random((3, 4)) < 0.8, dim=5, seed=seed))
    n = g.n_nodes
    if n == 0:
        return
    pool = ClusterPool("gcmincut", np.random.default_rng(seed + 1), dim=5, clusters=3)
    h = rand_h(rng, n, 5)
    out, aux = pool(h, g.norm_adj, None)
    s_ref, pooled_ref = reference_gcmincut(g.norm_adj @ np.eye(n), h.data,
                                           pool.w.data)
    assert_allclose(aux["assignment"].data, s_ref, atol=1e-12)
    assert_allclose(out.data, pooled_ref, atol=1e-12)
    assert_allclose(aux["assignment"].data.sum(axis=1), 1.0, atol=1e-12)


def test_gcmincut_relu_normalized_variant():
    rng = np.random.default_rng(7)
    n, d, p = 4, 3, 2
    pool = ClusterPool("gcmincut", np.random.default_rng(8), dim=d, clusters=p,
                       assign_softmax=False)
    h = rand_h(rng, n, d)
    adj = eye_adj(n)
    s = pool.assignment(h, adj).data
    scores = np.maximum(h.data @ pool.w.data, 0.0)
    sums = scores.sum(axis=1, keepdims=True)
    expected = np.where(sums > 0, scores / np.where(sums > 0, sums, 1.0),
                        1.0 / p)
    assert_allclose(s, expected, atol=1e-12)
    assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


def test_gcmincut_zero_rows_become_uniform_in_both_variants():
    n, d, p = 3, 4, 5
    h = constant(np.zeros((n, d)))
    adj = eye_adj(n)
    for assign_softmax in (True, False):
        pool = ClusterPool("gcmincut", np.random.default_rng(9), dim=d, clusters=p,
                           assign_softmax=assign_softmax)
        s = pool.assignment(h, adj).data
        assert_allclose(s, np.full((n, p), 1.0 / p), atol=1e-12)


def test_gcmincut_gradients_match_fd():
    rng = np.random.default_rng(10)
    g = build_graph(grid_from_mask([[True, True], [True, False]], dim=3, seed=1))
    h = rand_h(rng, 3, 3, grad=True)
    pool = ClusterPool("gcmincut", np.random.default_rng(11), dim=3, clusters=2)
    c = constant(rng.normal(0, 1, (2, 3)))
    adj = g.norm_adj
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(pool(h, adj, None)[0], c)), [h, pool.w])


# ------------------------------------------------------- swap-in alternatives


def test_topk_returns_rows_in_score_order():
    h = constant(np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 2.0]]))
    pool = SelectPool("topk", keep=2, rng=np.random.default_rng(0), dim=2)
    pool.w.data[...] = np.array([[0.0], [1.0]])  # score = second channel
    out, aux = pool(h, eye_adj(3), None)
    assert_array_equal(aux["kept"], [1, 2])
    assert_array_equal(out.data, [[0.0, 3.0], [0.0, 2.0]])


def test_sort_orders_by_last_channel():
    h = constant(np.array([[9.0, 1.0], [8.0, 3.0], [7.0, 2.0]]))
    pool = SelectPool("sort", keep=2)
    out, aux = pool(h, eye_adj(3), None)
    assert_array_equal(aux["kept"], [1, 2])
    assert_array_equal(out.data, [[8.0, 3.0], [7.0, 2.0]])


def test_sag_equals_topk_when_adjacency_degenerates():
    # with no edges the normalized adjacency is the identity, so the
    # propagated scorer collapses to the plain linear scorer
    g = build_graph(grid_from_mask([[True, False, True, False, True]], dim=3))
    assert_array_equal(g.norm_adj @ np.eye(3), np.eye(3))
    rng = np.random.default_rng(12)
    h = rand_h(rng, 3, 3)
    topk = SelectPool("topk", keep=2, rng=np.random.default_rng(13), dim=3)
    sag = SelectPool("sag", keep=2, rng=np.random.default_rng(14), dim=3)
    sag.w.data[...] = topk.w.data
    adj = g.norm_adj
    out_a, aux_a = topk(h, adj, None)
    out_b, aux_b = sag(h, adj, None)
    assert_array_equal(aux_a["kept"], aux_b["kept"])
    assert_array_equal(out_a.data, out_b.data)


def test_diff_with_one_cluster_is_column_sum():
    rng = np.random.default_rng(15)
    h = rand_h(rng, 5, 3)
    pool = ClusterPool("diff", np.random.default_rng(16), dim=3, clusters=1)
    out, _ = pool(h, eye_adj(5), None)
    assert_allclose(out.data, h.data.sum(axis=0, keepdims=True), atol=1e-12)


def test_mincut_linear_matches_softmax_oracle():
    rng = np.random.default_rng(17)
    h = rand_h(rng, 4, 3)
    pool = ClusterPool("mincut", np.random.default_rng(18), dim=3, clusters=2)
    scores = h.data @ pool.w.data
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    out, _ = pool(h, eye_adj(4), None)
    assert_allclose(out.data, s.T @ h.data, atol=1e-12)


def test_gm_shapes_and_gradients():
    rng = np.random.default_rng(19)
    h = rand_h(rng, 5, 4, grad=True)
    pool = GraphMultisetPool(np.random.default_rng(20), dim=4, seeds=3, heads=2)
    out, aux = pool(h, eye_adj(5), None)
    assert out.shape == (3, 4)
    assert aux == {}
    c = constant(rng.normal(0, 1, (3, 4)))
    params = [h] + [p for _, p in pool.parameters("gm")]
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(pool(h, eye_adj(5), None)[0], c)), params,
        tol=2e-4)


def test_selection_pools_clamp_to_node_count():
    rng = np.random.default_rng(21)
    h = rand_h(rng, 2, 3)
    for pool in (SelectPool("drop", 5), SelectPool("sort", 5),
                 SelectPool("topk", 5, np.random.default_rng(22), 3),
                 SelectPool("sag", 5, np.random.default_rng(23), 3)):
        out, aux = pool(h, eye_adj(2), np.random.default_rng(0))
        assert out.shape[0] == 2
        assert len(aux["kept"]) == 2


def test_make_pool_dispatches_and_rejects_unknown():
    rng = np.random.default_rng(24)
    kinds = {
        "drop": SelectPool, "gcmincut": ClusterPool, "sort": SelectPool,
        "topk": SelectPool, "sag": SelectPool, "diff": ClusterPool,
        "mincut": ClusterPool, "gm": GraphMultisetPool,
    }
    for kind, cls in kinds.items():
        pool = make_pool(kind, rng, dim=4, size=2, heads=2)
        assert isinstance(pool, cls)
        assert pool.kind == kind
    with pytest.raises(ConfigError, match="unknown pooling kind"):
        make_pool("mean", rng, dim=4, size=2)
    with pytest.raises(ConfigError):
        make_pool("drop", rng, dim=4, size=0)


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_only_drop_pool_reads_its_rng(kind):
    # evaluation reuses the output of a pool that does not draw across drop
    # seeds, which is only sound when that pool ignores the rng it is handed
    g = build_graph(grid_from_mask(np.random.default_rng(25).random((4, 4)) < 0.8))
    h = rand_h(np.random.default_rng(26), g.n_nodes, 4)
    pool = make_pool(kind, np.random.default_rng(27), dim=4, size=3, heads=2)
    assert pool.draws == (kind == "drop")
    if pool.draws:
        a, b = (pool(h, g.norm_adj, np.random.default_rng(s))[1]["kept"] for s in (1, 2))
        assert not np.array_equal(a, b)
        return
    runs = [pool(h, g.norm_adj, rng) for rng in
            (None, np.random.default_rng(1), np.random.default_rng(2))]
    for out, aux in runs[1:]:
        assert_array_equal(out.data, runs[0][0].data)
        assert aux.keys() == runs[0][1].keys()
        for key, value in aux.items():
            ref = runs[0][1][key]
            assert_array_equal(getattr(value, "data", value), getattr(ref, "data", ref))


@pytest.mark.parametrize("kind", ["diff", "mincut"])
def test_relu_normalized_assignment_reaches_gcmincut_only(kind):
    g = build_graph(grid_from_mask(np.random.default_rng(28).random((4, 4)) < 0.8))
    h = rand_h(np.random.default_rng(29), g.n_nodes, 4)
    outs = [make_pool(kind, np.random.default_rng(30), dim=4, size=3,
                      assign_softmax=flag)(h, g.norm_adj, None)[0].data
            for flag in (True, False)]
    assert_array_equal(outs[0], outs[1])
    gcmincut = [make_pool("gcmincut", np.random.default_rng(30), dim=4, size=3,
                          assign_softmax=flag)(h, g.norm_adj, None)[0].data
                for flag in (True, False)]
    assert not np.array_equal(gcmincut[0], gcmincut[1])


@pytest.mark.parametrize("assign_softmax", [True, False])
def test_gcmincut_assignment_is_four_ops(assign_softmax):
    # scores, propagation, relu and one row normalizer; the relu row
    # normalization is one op with an all-zero row too
    rng = np.random.default_rng(31)
    pool = ClusterPool("gcmincut", rng, dim=4, clusters=3, assign_softmax=assign_softmax)
    h = rand_h(rng, 5, 4, grad=True)
    h.data[2] = 0.0  # with an identity adjacency, an all-zero score row
    s, made = ops_made(lambda: pool.assignment(h, eye_adj(5)))
    assert made == 4
    assert_allclose(s.data[2], np.full(3, 1.0 / 3), atol=1e-15)
