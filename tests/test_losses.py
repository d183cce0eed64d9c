from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt import train as tr
from slidegt.data import SyntheticSpec, generate
from slidegt.errors import ContractError
from slidegt.graph import build_graph
from slidegt.losses import (LossWeights, MinCutTerms, cross_entropy, mincut_loss,
                            total_loss)
from slidegt.model import SlideGraphTransformer
from slidegt.optim import Adam
from slidegt.tensor import Tensor, backward, constant
from test_train import CRITERION5, ops_made

seeds = st.integers(0, 2**32 - 1)


def reference_ce(logits, labels):
    """Scalar-loop oracle for mean negative log-likelihood."""
    total = 0.0
    for row, lab in zip(logits, labels):
        shifted = row - row.max()
        total -= shifted[lab] - np.log(np.exp(shifted).sum())
    return total / len(labels)


def normalized(adj_tilde):
    """(D^-1/2 A D^-1/2, row sums of A) for a self-loop adjacency A."""
    deg = adj_tilde.sum(axis=1)
    return adj_tilde / np.sqrt(np.outer(deg, deg)), deg


def two_triangles():
    """Two disjoint 3-cliques; returns (norm_adj, deg_tilde).

    With self loops each block of the adjacency is all-ones, so a hard
    per-block assignment has no cut mass outside its cluster.
    """
    a = np.zeros((6, 6))
    a[:3, :3] = 1.0
    a[3:, 3:] = 1.0
    return normalized(a)


# -------------------------------------------------------------- cross-entropy


def test_zero_logits_give_log_class_count():
    for c in range(2, 7):
        loss = cross_entropy(constant(np.zeros((3, c))), [0, c - 1, 1])
        assert abs(float(loss.data) - np.log(c)) < 1e-12


@given(seeds)
def test_cross_entropy_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    b, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    logits = rng.normal(0, 3, (b, c))
    labels = rng.integers(0, c, b)
    got = float(cross_entropy(constant(logits), labels).data)
    assert_allclose(got, reference_ce(logits, labels), atol=1e-12)


def test_cross_entropy_is_mean_over_rows():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 1, (2, 3))
    both = float(cross_entropy(constant(logits), [0, 2]).data)
    one = float(cross_entropy(constant(logits[:1]), [0]).data)
    two = float(cross_entropy(constant(logits[1:]), [2]).data)
    assert_allclose(both, (one + two) / 2.0, atol=1e-12)


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    assert_grads_match_fd(lambda: cross_entropy(logits, [1, 0, 3]), [logits])


def test_cross_entropy_rejects_bad_labels():
    logits = constant(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="labels must lie"):
        cross_entropy(logits, [0, 3])
    with pytest.raises(ContractError, match="labels must lie"):
        cross_entropy(logits, [-1, 0])
    with pytest.raises(ContractError, match="expected 2 labels"):
        cross_entropy(logits, [0])
    with pytest.raises(ContractError, match="2-D logits"):
        cross_entropy(constant(np.zeros(3)), [0])


# ------------------------------------------------------ clustering regularizer


def test_hard_assignment_on_disjoint_cliques_is_exact():
    adj, deg = two_triangles()
    s = np.zeros((6, 2))
    s[:3, 0] = 1.0
    s[3:, 1] = 1.0
    terms = mincut_loss(constant(s), adj, deg)
    # block-perfect clustering: cut term at its floor, ortho term at its floor
    assert abs(terms.cut - (-1.0)) < 1e-12
    assert abs(terms.ortho) < 1e-12
    assert abs(float(terms.total.data) - (-1.0)) < 1e-12


def test_uniform_assignment_on_cliques_matches_closed_form():
    adj, deg = two_triangles()
    s = np.full((6, 2), 0.5)
    terms = mincut_loss(constant(s), adj, deg)
    # S'S = 1.5 * ones(2); ||S'S||_F = 3; normalized matrix is all 1/2
    expected_ortho = np.sqrt(2 * (0.5 - 1 / np.sqrt(2)) ** 2 + 2 * 0.25)
    assert_allclose(terms.cut, -1.0, atol=1e-12)
    assert_allclose(terms.ortho, expected_ortho, atol=1e-12)


def reference_mincut(s, adj, deg):
    cut = -np.trace(s.T @ adj @ s) / np.trace(s.T @ np.diag(deg) @ s)
    sts = s.T @ s
    p = s.shape[1]
    diff = sts / np.linalg.norm(sts) - np.eye(p) / np.sqrt(p)
    return cut, np.linalg.norm(diff)


@given(seeds)
def test_mincut_matches_trace_oracle(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T + np.eye(n)
    deg = adj.sum(axis=1)
    raw = rng.random((n, p)) + 1e-3
    s = raw / raw.sum(axis=1, keepdims=True)
    terms = mincut_loss(constant(s), *normalized(adj))
    cut_ref, ortho_ref = reference_mincut(s, adj, deg)
    assert_allclose(terms.cut, cut_ref, atol=1e-10)
    assert_allclose(terms.ortho, ortho_ref, atol=1e-10)


def test_term_bounds_hold_over_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n, p = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        adj = (rng.random((n, n)) < rng.random()).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T + np.eye(n)
        raw = rng.random((n, p)) + 1e-6
        s = raw / raw.sum(axis=1, keepdims=True)
        terms = mincut_loss(constant(s), *normalized(adj))
        assert -1.0 - 1e-9 <= terms.cut <= 0.0 + 1e-9
        assert 0.0 <= terms.ortho <= 2.0 + 1e-9


def test_mincut_gradient_matches_fd():
    rng = np.random.default_rng(3)
    adj, deg = two_triangles()
    x = Tensor(rng.normal(0, 1, (6, 2)), requires_grad=True)
    assert_grads_match_fd(
        lambda: mincut_loss(T.softmax_rows(x), adj, deg).total, [x])


def test_optimizing_assignment_recovers_the_planted_cut():
    # free logits through a row softmax keep S on the simplex
    adj, deg = two_triangles()
    x = Tensor(np.random.default_rng(4).normal(0, 0.1, (6, 2)),
               requires_grad=True)
    opt = Adam([("x", x)], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        terms = mincut_loss(T.softmax_rows(x), adj, deg)
        backward(terms.total)
        opt.step()
    final = mincut_loss(T.softmax_rows(x), adj, deg)
    assert final.cut <= -0.9


def test_mincut_rejects_bad_assignments():
    adj, deg = two_triangles()
    with pytest.raises(ContractError, match="rows must sum to 1"):
        mincut_loss(constant(np.full((6, 2), 0.3)), adj, deg)
    with pytest.raises(ContractError, match="at least one cluster"):
        mincut_loss(constant(np.zeros((6, 0))), adj, deg)


# ----------------------------------------------------------------- total loss


def test_total_loss_is_linear_in_each_weight():
    losses = {"typing": constant(np.asarray(0.7)),
              "staging": constant(np.asarray(1.3))}
    mc = constant(np.asarray(-0.4))

    def value(w):
        return float(total_loss(losses, mc, w).data)

    base = value(LossWeights(typing=0.0, staging=0.0, mincut=0.0))
    assert base == 0.0
    # two-point slope along each weight axis equals the matching term
    assert_allclose(value(LossWeights(2.0, 0.0, 0.0)) - base, 2 * 0.7, atol=1e-12)
    assert_allclose(value(LossWeights(0.0, 3.0, 0.0)) - base, 3 * 1.3, atol=1e-12)
    assert_allclose(value(LossWeights(0.0, 0.0, 5.0)) - base, 5 * -0.4, atol=1e-12)
    assert_allclose(value(LossWeights(1.0, 1.0, 1.0)), 0.7 + 1.3 - 0.4, atol=1e-12)


def test_total_loss_skips_absent_terms():
    only_typing = total_loss({"typing": constant(np.asarray(0.5))}, None,
                             LossWeights())
    assert_allclose(float(only_typing.data), 0.5, atol=1e-12)
    empty = total_loss({}, None, LossWeights())
    assert float(empty.data) == 0.0


def test_total_loss_rejects_unknown_task():
    with pytest.raises(ContractError, match="no loss weight"):
        total_loss({"grading": constant(np.asarray(1.0))}, None, LossWeights())


# ------------------------------------------------ one op per loss, every bit kept
#
# The op chains that both losses once were, kept as oracles.  Four of their
# ops have no other caller, so they are rebuilt here as they were.


def chain_sub(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        return g if need_a else None, -g if need_b else None

    return T._result(a.data - b.data, (a, b), back)


def chain_div_by_scalar(a, b):
    need_a = a.requires_grad
    a_data = a.data if b.requires_grad else None
    b_data = b.data

    def back(g):
        ga = g / b_data if need_a else None
        if a_data is None:
            return ga, None
        return ga, np.asarray((-g * a_data / (b_data * b_data)).sum())

    return T._result(a.data / b.data, (a, b), back)


def chain_sqrt(a):
    out_data = np.sqrt(a.data)

    def back(g):
        return (g * 0.5 / out_data,)

    return T._result(out_data, (a,), back)


def chain_log_softmax_rows(a):
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    soft = np.exp(out_data)

    def back(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return T._result(out_data, (a,), back)


def chain_cross_entropy(logits, labels):
    b, c = logits.shape
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = T.mul(chain_log_softmax_rows(logits), constant(onehot))
    return T.scale(T.sum_all(picked), -1.0 / b)


def chain_mincut_loss(s, norm_adj, deg_tilde):
    n, p = s.shape
    root = np.sqrt(np.asarray(deg_tilde, dtype=np.float64)).reshape(n, 1)
    z = T.mul(s, constant(np.repeat(root, p, axis=1)))
    cut_num = T.sum_all(T.mul(T.spmm(norm_adj, z), z))
    cut_den = T.sum_all(T.mul(z, z))
    cut = T.scale(chain_div_by_scalar(cut_num, cut_den), -1.0)
    sts = T.matmul(T.transpose(s), s)
    fro = chain_sqrt(T.sum_all(T.mul(sts, sts)))
    diff = chain_sub(chain_div_by_scalar(sts, fro), constant(np.eye(p) / np.sqrt(p)))
    ortho = chain_sqrt(T.sum_all(T.mul(diff, diff)))
    return MinCutTerms(float(cut.data), float(ortho.data), T.add(cut, ortho))


LOSS_MODELS = {
    "criterion5": CRITERION5,
    "relu_normalize": replace(CRITERION5, assign_softmax=False),
    "two_gcmincut": replace(CRITERION5, branches=(
        replace(CRITERION5.branches[0], pooling="gcmincut", pool_size=4),
        CRITERION5.branches[1])),
}


@pytest.mark.parametrize("side", [16, 64])
@pytest.mark.parametrize("variant", sorted(LOSS_MODELS))
def test_loss_ops_keep_the_bits_of_the_op_chains(variant, side, monkeypatch):
    sample = generate(SyntheticSpec(samples=2, rows=side, cols=side, dim=32, seed=4,
                                    folds=2)).samples[0]
    graph = build_graph(sample.grid)
    model = SlideGraphTransformer(LOSS_MODELS[variant], seed=side)
    labels = {task: sample.label(task) for task in model.branches}
    weights = LossWeights(typing=0.7, staging=1.3, mincut=0.4)

    def step():
        model.zero_grad()
        loss = tr.assemble_loss(model.forward(graph, np.random.default_rng(0)), graph,
                                labels, weights)
        backward(loss)
        return [loss.data.tobytes()] + [p.grad.tobytes() for _, p in model.parameters()]

    fused = step()
    monkeypatch.setattr(tr, "cross_entropy", chain_cross_entropy)
    monkeypatch.setattr(tr, "mincut_loss", chain_mincut_loss)
    assert step() == fused


@given(seeds)
def test_loss_ops_keep_the_bits_of_the_op_chains_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    b, c = int(rng.integers(1, 6)), int(rng.integers(2, 8))
    logits_data, labels = rng.normal(0, 3, (b, c)), rng.integers(0, c, b)
    # from two clusters: at one, the chain's gradients are NaN
    n, p = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    adj = (rng.random((n, n)) < 0.5).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T + np.eye(n)
    x_data = rng.normal(0, 1, (n, p))

    def run(ce, mc):
        logits = Tensor(logits_data, requires_grad=True)
        x = Tensor(x_data, requires_grad=True)
        loss = T.add(ce(logits, labels), mc(T.softmax_rows(x), *normalized(adj)).total)
        backward(loss)
        return loss.data.tobytes(), logits.grad.tobytes(), x.grad.tobytes()

    assert run(cross_entropy, mincut_loss) == run(chain_cross_entropy, chain_mincut_loss)


def test_each_loss_is_one_tape_op():
    rng = np.random.default_rng(5)
    adj, deg = two_triangles()
    x = Tensor(rng.normal(0, 1, (6, 2)), requires_grad=True)
    s = T.softmax_rows(x)
    terms, made = ops_made(lambda: mincut_loss(s, adj, deg))
    assert made == 1
    assert terms.total._node.parents == (s._node,)
    assert isinstance(terms.cut, float) and isinstance(terms.ortho, float)
    assert terms.total.item() == terms.cut + terms.ortho
    loss, made = ops_made(lambda: cross_entropy(x, [1, 0, 0, 1, 1, 0]))
    assert made == 1
    assert loss._node.parents == (x._node,)
