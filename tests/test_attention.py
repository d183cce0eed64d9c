import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import assert_grads_match_fd
from slidegt import injection, model, pooling
from slidegt import tensor as T
from slidegt.attention import MultiHeadWeights, attend
from slidegt.errors import ConfigError, ContractError, DimensionError
from slidegt.injection import InjectionBlock, TokenBank
from slidegt.model import BranchConfig, ModelConfig, SlideGraphTransformer
from slidegt.nn import glorot
from slidegt.pooling import GraphMultisetPool
from slidegt.tensor import Tensor, backward, constant
from test_model import small_graph

seeds = st.integers(0, 2**32 - 1)


def reference_attention(w, q, k):
    """Independent loop oracle over heads, query rows, and key rows."""
    n_q, n_k = q.shape[0], k.shape[0]
    head_outs = []
    for h in range(w.heads):
        qh = q @ w.wq.data[h]
        kh = k @ w.wk.data[h]
        vh = k @ w.wv.data[h]
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
    w.wk = Tensor(np.zeros((1, dim, dim)), requires_grad=True)
    rows = rng.normal(0, 1, (5, dim))
    q = constant(rng.normal(0, 1, (3, dim)))
    out = attend(w, q, constant(rows)).data
    expected = np.tile(rows.mean(axis=0) @ w.wv.data[0] @ w.wo.data, (3, 1))
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


@pytest.mark.parametrize("heads", range(1, 17))
def test_stacks_hold_the_successive_per_head_draws(heads):
    # one draw over a (heads, dim, head width) block yields the values of one
    # (dim, head width) draw per head, so every initial value keeps its bits
    for head_dim in (1, 5):
        dim = heads * head_dim
        w = MultiHeadWeights(np.random.default_rng(heads), dim, heads)
        rng = np.random.default_rng(heads)
        per_head = [np.array([glorot(rng, dim, head_dim).data for _ in range(heads)])
                    for _ in range(3)] + [glorot(rng, dim, dim).data]
        params = w.parameters("attn")
        assert [name for name, _ in params] == ["attn.wq", "attn.wk", "attn.wv", "attn.wo"]
        assert [p.data.tobytes() for _, p in params] == [a.tobytes() for a in per_head]


# ------------------------------------------------ bits of the per-head ops


class PerHeadAttend:
    """Attention as one tape op per step of every head, the way it ran before
    its heads were fused: the bitwise reference for ``attend``.  Each head
    runs on its own leaf copy of its block of ``wq``, ``wk`` and ``wv``, made
    at a site's first call; ``fold_grads`` then writes the copies' gradients,
    stacked in head order, into the stacks' ``grad``.  The heads are stacked
    as transposed rows, which moves the same values as a side-by-side
    concatenation."""

    def __init__(self):
        self.copies = {}  # id(weights) -> (weights, per-head leaves of wq, wk, wv)

    def __call__(self, w, queries, keys):
        if id(w) not in self.copies:
            self.copies[id(w)] = (w, [[Tensor(stack.data[i], requires_grad=True)
                                       for i in range(w.heads)]
                                      for stack in (w.wq, w.wk, w.wv)])
        wq, wk, wv = self.copies[id(w)][1]
        inv_scale = 1.0 / np.sqrt(w.head_dim)
        stacked = None
        for i in range(w.heads):
            q = T.matmul(queries, wq[i])
            k = T.matmul(keys, wk[i])
            v = T.matmul(keys, wv[i])
            scores = T.matmul(q, T.transpose(k))
            if w.scale_scores:
                scores = T.scale(scores, inv_scale)
            head = T.transpose(T.matmul(T.softmax_rows(scores), v))
            stacked = head if stacked is None else T.concat_rows(stacked, head)
        return T.matmul(T.transpose(stacked), w.wo)

    def fold_grads(self):
        for w, roles in self.copies.values():
            for stack, heads in zip((w.wq, w.wk, w.wv), roles):
                stack.grad[...] = np.array([head.grad for head in heads])


def fold_grads(attend_fn):
    if isinstance(attend_fn, PerHeadAttend):
        attend_fn.fold_grads()


def run_site(attend_fn, w, q_data, k_data, layout):
    """Output bytes and every gradient's bytes of one attention site.

    layout: "cross" (queries and keys are op outputs), "self" (the keys are
    the queries), "constant-keys" (the keys need no gradient) or "leaves"
    (queries and keys are parameters, as a token bank or gm seeds are)."""
    for _, p in w.parameters("attn"):
        p.grad[...] = 0.0
    q_leaf = Tensor(q_data, requires_grad=True)
    k_leaf = Tensor(k_data, requires_grad=True)
    if layout == "leaves":
        queries, keys = q_leaf, k_leaf
    else:
        queries = T.scale(q_leaf, 1.0)
        keys = {"cross": lambda: T.scale(k_leaf, 1.0), "self": lambda: queries,
                "constant-keys": lambda: constant(k_data)}[layout]()
    out = attend_fn(w, queries, keys)
    c = np.random.default_rng(3).normal(0, 1, out.shape)
    backward(T.sum_all(T.mul(out, constant(c))))
    fold_grads(attend_fn)
    grads = [q_leaf.grad, k_leaf.grad] + [p.grad for _, p in w.parameters("attn")]
    return [out.data.tobytes()] + [g.tobytes() for g in grads]


@pytest.mark.parametrize("heads", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("layout", ["cross", "self", "constant-keys", "leaves"])
@pytest.mark.parametrize("rows", [(5, 7), (37, 16), (1, 6), (4, 1)])
def test_attend_keeps_the_bits_of_per_head_ops(heads, scaled, layout, rows):
    # width 16 gives head widths 16 down to 1.  BLAS can sum a product of
    # narrow, one-row or one-column operands differently by their width and
    # layout, so projecting all heads at once through one (dim, dim) matrix
    # and taking each head as a column slice of it would change bits here; a
    # head's contiguous block of a (heads, dim, head width) stack does not
    nq, nk = (rows[0], rows[0]) if layout == "self" else rows
    rng = np.random.default_rng(heads * 10 + nq)
    q_data, k_data = rng.normal(0, 1, (nq, 16)), rng.normal(0, 1, (nk, 16))
    w = MultiHeadWeights(np.random.default_rng(heads), 16, heads, scale_scores=scaled)
    assert (run_site(attend, w, q_data, k_data, layout)
            == run_site(PerHeadAttend(), w, q_data, k_data, layout))


def test_shared_bank_and_gm_pool_keep_the_bits_of_per_head_ops():
    # one token bank read by two injection blocks, then gm seeds attending
    # the refined rows: every attention parameter and the shared leaves
    rng = np.random.default_rng(8)
    bank = TokenBank(np.random.default_rng(1), 3, 8)
    blocks = [InjectionBlock(np.random.default_rng(2 + i), 8, heads=2) for i in range(2)]
    pool = GraphMultisetPool(np.random.default_rng(4), 8, 2, heads=4)
    h_data = rng.normal(0, 1, (6, 8))
    params = ([bank.tokens, pool.seeds]
              + [p for b in blocks for _, p in b.parameters("b")]
              + [p for _, p in pool.parameters("gm")])

    def run(attend_fn, monkeypatch):
        monkeypatch.setattr(injection, "attend", attend_fn)
        monkeypatch.setattr(pooling, "attend", attend_fn)
        for p in params:
            p.grad[...] = 0.0
        h = Tensor(h_data, requires_grad=True)
        rows = T.add(blocks[0](h, bank), blocks[1](h, bank))
        out, _ = pool(rows, None, None)
        backward(T.sum_all(T.mul(out, out)))
        fold_grads(attend_fn)
        return [out.data.tobytes(), h.grad.tobytes()] + [p.grad.tobytes() for p in params]

    with pytest.MonkeyPatch.context() as mp:
        fused = run(attend, mp)
    with pytest.MonkeyPatch.context() as mp:
        assert run(PerHeadAttend(), mp) == fused


@pytest.mark.parametrize("scheme, pooling_kinds", [
    ("specific", ("drop", "gcmincut")),
    ("shared", ("gm", "gcmincut")),
])
def test_model_keeps_the_bits_of_per_head_ops(scheme, pooling_kinds):
    config = ModelConfig(
        input_dim=5, dim=8, gcn_layers=1, heads=2, transformer_depth=2,
        token_scheme=scheme, head_init="random",
        branches=tuple(BranchConfig(task=task, pooling=kind, tokens=3, pool_size=3)
                       for task, kind in zip(("typing", "staging"), pooling_kinds)))
    graph = small_graph(5, rows=4, cols=4)

    def run(attend_fn):
        with pytest.MonkeyPatch.context() as mp:
            for module in (injection, pooling, model):
                mp.setattr(module, "attend", attend_fn)
            net = SlideGraphTransformer(config, seed=2)
            out = net.forward(graph, np.random.default_rng(0))
            loss = T.add(T.sum_all(T.mul(out.logits["typing"], out.logits["typing"])),
                         T.sum_all(out.logits["staging"]))
            backward(loss)
            fold_grads(attend_fn)
            return ([out.logits[t].data.tobytes() for t in sorted(out.logits)]
                    + [p.grad.tobytes() for _, p in net.parameters()])

    assert run(attend) == run(PerHeadAttend())
