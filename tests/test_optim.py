import numpy as np
import pytest
from numpy.testing import assert_allclose

from slidegt import optim, tensor as T
from slidegt.errors import ConfigError, NonFiniteError
from slidegt.optim import Adam
from slidegt.tensor import Tensor, backward


def test_trajectory_matches_scalar_recurrence():
    """Drive one scalar parameter with a fixed gradient stream and compare
    against the update rule written out longhand, step by step."""
    lr, b1, b2, eps = 0.01, optim.BETA1, optim.BETA2, optim.EPS
    grads = np.random.default_rng(0).normal(0, 1, 20)

    p = Tensor(np.asarray([2.5]), requires_grad=True)
    opt = Adam([("p", p)], lr=lr)

    x, m, v = 2.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert_allclose(p.data[0], x, atol=1e-12)


def test_quadratic_bowl_converges():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = T.mul(p, p)
        backward(T.sum_all(loss))
        opt.step()
    assert abs(float(p.data[0])) < 1e-3


def test_two_optimizers_stay_bitwise_identical():
    def run():
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)
        opt = Adam([("p", p)], lr=0.05)
        for _ in range(50):
            p.grad[...] = rng.normal(0, 1, (4, 3))
            opt.step()
        return p.data.copy()

    assert (run() == run()).all()


def test_non_finite_gradient_aborts_and_names_the_parameter():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    q = Tensor(np.asarray([1.0]), requires_grad=True)
    opt = Adam([("alpha", p), ("beta", q)], lr=0.1)
    p.grad[...] = 1.0
    q.grad[...] = np.nan
    with pytest.raises(NonFiniteError, match="beta"):
        opt.step()


def test_zero_grad_clears_accumulated_gradients():
    p = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    p.grad[...] = 7.0
    opt.zero_grad()
    assert (p.grad == 0.0).all()


def test_config_validation():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    with pytest.raises(ConfigError, match="learning rate"):
        Adam([("p", p)], lr=0.0)
