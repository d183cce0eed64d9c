import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt.errors import ConfigError
from slidegt.injection import InjectionBlock, TokenBank
from slidegt.tensor import Tensor, backward, constant
from test_attention import reference_attention

seeds = st.integers(0, 2**32 - 1)


def reference_layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def reference_injection(block, bank, h):
    """Composed numpy oracle: cross-attention, residual norms, feed-forward."""
    mixed = reference_attention(block.attn, h, bank.tokens.data)
    z = reference_layer_norm(h + mixed, block.ln_mix.gamma.data,
                             block.ln_mix.beta.data)
    ff = np.maximum(z @ block.ff.lin1.w.data + block.ff.lin1.b.data, 0.0)
    ff = ff @ block.ff.lin2.w.data + block.ff.lin2.b.data
    return reference_layer_norm(z + ff, block.ln_out.gamma.data,
                                block.ln_out.beta.data)


@given(seeds)
def test_matches_composed_oracle(seed):
    rng = np.random.default_rng(seed)
    dim, m = 6, 4
    block = InjectionBlock(np.random.default_rng(seed + 1), dim, heads=2)
    bank = TokenBank(np.random.default_rng(seed + 2), m, dim)
    h = rng.normal(0, 1, (5, dim))
    out = block(constant(h), bank)
    assert_allclose(out.data, reference_injection(block, bank, h), atol=1e-10)


@given(seeds)
def test_output_rows_depend_only_on_own_input_row(seed):
    rng = np.random.default_rng(seed)
    dim = 4
    block = InjectionBlock(np.random.default_rng(seed + 1), dim, heads=2)
    bank = TokenBank(np.random.default_rng(seed + 2), 3, dim)
    h = rng.normal(0, 1, (4, dim))
    base = block(constant(h), bank).data
    h2 = h.copy()
    h2[0] += rng.normal(0, 1, dim)  # other rows must not move
    moved = block(constant(h2), bank).data
    assert_allclose(moved[1:], base[1:], atol=1e-12)


@given(seeds)
def test_row_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    dim = 6
    block = InjectionBlock(np.random.default_rng(seed + 1), dim, heads=3)
    bank = TokenBank(np.random.default_rng(seed + 2), 4, dim)
    h = rng.normal(0, 1, (5, dim))
    perm = rng.permutation(5)
    base = block(constant(h), bank).data
    permuted = block(constant(h[perm]), bank).data
    assert_allclose(permuted, base[perm], atol=1e-10)


def test_gradients_match_fd_including_tokens():
    rng = np.random.default_rng(7)
    dim = 4
    block = InjectionBlock(np.random.default_rng(8), dim, heads=2)
    bank = TokenBank(np.random.default_rng(9), 3, dim)
    h = Tensor(rng.normal(0, 1, (3, dim)), requires_grad=True)
    c = constant(rng.normal(0, 1, (3, dim)))
    params = [h, bank.tokens] + [p for _, p in block.parameters("inj")]
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(block(h, bank), c)), params, tol=2e-4)


def test_separate_banks_do_not_leak_gradients():
    rng = np.random.default_rng(10)
    dim = 4
    block_a = InjectionBlock(np.random.default_rng(11), dim, heads=2)
    block_b = InjectionBlock(np.random.default_rng(12), dim, heads=2)
    bank_a = TokenBank(np.random.default_rng(13), 3, dim)
    bank_b = TokenBank(np.random.default_rng(14), 3, dim)
    h = constant(rng.normal(0, 1, (4, dim)))
    backward(T.sum_all(block_a(h, bank_a)))
    assert np.abs(bank_a.tokens.grad).max() > 0.0
    assert_array_equal(bank_b.tokens.grad, np.zeros((3, dim)))
    for _, p in block_b.parameters("b"):
        assert_array_equal(p.grad, np.zeros_like(p.data))


def test_shared_bank_accumulates_from_both_consumers():
    rng = np.random.default_rng(15)
    dim = 4
    block_a = InjectionBlock(np.random.default_rng(16), dim, heads=2)
    block_b = InjectionBlock(np.random.default_rng(17), dim, heads=2)
    shared = TokenBank(np.random.default_rng(18), 3, dim)
    h = constant(rng.normal(0, 1, (4, dim)))

    backward(T.sum_all(block_a(h, shared)))
    grad_a = shared.tokens.grad.copy()
    shared.tokens.grad[...] = 0.0
    backward(T.sum_all(block_b(h, shared)))
    grad_b = shared.tokens.grad.copy()
    shared.tokens.grad[...] = 0.0
    backward(T.add(T.sum_all(block_a(h, shared)), T.sum_all(block_b(h, shared))))
    assert_allclose(shared.tokens.grad, grad_a + grad_b, atol=1e-12)


def test_empty_bank_rejected():
    with pytest.raises(ConfigError, match="at least one token"):
        TokenBank(np.random.default_rng(0), 0, 4)
