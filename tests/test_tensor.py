import inspect
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import assert_grads_match_fd
from slidegt import tensor as T
from slidegt.errors import ContractError, DimensionError, NonFiniteError
from slidegt.graph import FeatureGrid, build_graph
from slidegt.tensor import Tensor, backward, constant

seeds = st.integers(0, 2**32 - 1)


def rand(rng, *shape):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


# ----------------------------------------------------------------- forwards


def test_matmul_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = T.matmul(x, Tensor(np.eye(3)))
    assert_array_equal(out.data, x.data)


def test_matmul_small_case():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert_array_equal(out.data, [[11.0]])


def test_relu_sign_cases_and_idempotence():
    x = Tensor([[-1.0, 0.0, 2.0]])
    out = T.relu(x)
    assert_array_equal(out.data, [[0.0, 0.0, 2.0]])
    assert_array_equal(T.relu(out).data, out.data)


def test_softmax_uniform_on_constant_row():
    out = T.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
    assert_allclose(out.data, np.full((1, 4), 0.25), rtol=0, atol=1e-15)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 1, (4, 5)))
    assert_allclose(T.log_softmax_rows(x).data, np.log(T.softmax_rows(x).data),
                    atol=1e-12)


def test_layer_norm_constant_row_maps_to_beta():
    gamma = Tensor(np.ones(3))
    beta = Tensor([1.0, -2.0, 0.5])
    out = T.layer_norm(Tensor([[7.0, 7.0, 7.0]]), gamma, beta)
    assert_allclose(out.data, [[1.0, -2.0, 0.5]], atol=1e-12)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(3.0, 2.0, (6, 32)))
    out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
    assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)  # eps shrinks variance


def test_take_rows_and_concat():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    picked = T.take_rows(x, np.array([2, 0]))
    assert_array_equal(picked.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
    both = T.concat_rows(picked, picked)
    assert both.shape == (4, 3)
    wide = T.concat_cols([picked, picked])
    assert wide.shape == (2, 6)
    assert_array_equal(wide.data[:, 3:], picked.data)


def test_scalar_reductions():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.sum_all(x).item() == 15.0


def test_forward_is_bitwise_repeatable():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 1, (5, 4))
    b = rng.normal(0, 1, (4, 3))

    def run():
        return T.softmax_rows(T.matmul(Tensor(a), Tensor(b))).data.tobytes()

    assert run() == run()


@given(seeds)
def test_softmax_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    out = T.softmax_rows(Tensor(rng.normal(0, 3, (4, 6)))).data
    assert (out >= 0).all()
    assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


@given(seeds, st.floats(-50, 50))
def test_softmax_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 2, (3, 5))
    a = T.softmax_rows(Tensor(x)).data
    b = T.softmax_rows(Tensor(x + shift)).data
    assert_allclose(a, b, atol=1e-12)


@given(seeds, st.floats(0.5, 2.0), st.floats(-3, 3))
def test_layer_norm_row_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 2, (4, 16))
    gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
    base = T.layer_norm(Tensor(x), gamma, beta).data
    moved = T.layer_norm(Tensor(a * x + b), gamma, beta).data
    assert_allclose(moved, base, atol=1e-4)  # eps keeps this from being exact


# ---------------------------------------------------------------- gradients


def scalarize(out, rng):
    """Reduce an op output to a generic scalar so every element gets a pull."""
    c = constant(rng.normal(0.0, 1.0, out.shape))
    return T.sum_all(T.mul(out, c))


def test_backward_of_plain_sum_is_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(T.sum_all(w))
    assert_array_equal(w.grad, np.ones((2, 3)))


def test_gradients_match_fd_elementwise_ops():
    rng = np.random.default_rng(7)
    a = rand(rng, 4, 3)
    b = rand(rng, 4, 3)
    s = Tensor(0.7, requires_grad=True)
    col = rand(rng, 4, 1)
    c = constant(rng.normal(0, 1, (4, 3)))

    cases = [
        (lambda: T.sum_all(T.mul(T.add(a, b), c)), [a, b]),
        (lambda: T.sum_all(T.mul(T.sub(a, b), c)), [a, b]),
        (lambda: T.sum_all(T.mul(T.mul(a, b), c)), [a, b]),
        (lambda: T.sum_all(T.mul(T.mul(a, col), c)), [a, col]),
        (lambda: T.sum_all(T.mul(T.div(a, s), c)), [a, s]),
        (lambda: T.sum_all(T.mul(T.scale(a, -1.7), c)), [a]),
    ]
    for build, params in cases:
        assert_grads_match_fd(build, params)


def test_gradients_match_fd_bias_broadcast():
    rng = np.random.default_rng(8)
    x = rand(rng, 5, 3)
    bias = Tensor(rng.normal(0, 1, 3), requires_grad=True)
    c = constant(rng.normal(0, 1, (5, 3)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.add(x, bias), c)), [x, bias])


def test_gradients_match_fd_matmul_transpose():
    rng = np.random.default_rng(9)
    a = rand(rng, 4, 3)
    b = rand(rng, 3, 5)
    c = constant(rng.normal(0, 1, (4, 5)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.matmul(a, b), c)), [a, b])
    ct = constant(rng.normal(0, 1, (3, 4)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.transpose(a), ct)), [a])


def test_gradients_match_fd_spmm():
    rng = np.random.default_rng(17)
    mask = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]], dtype=bool)
    table = build_graph(FeatureGrid(3, 4, mask, np.zeros((9, 1)))).norm_adj
    sym = rng.normal(0, 1, (5, 5))
    for adj in (table, sym + sym.T):
        n = adj.shape[0]
        x = rand(rng, n, 3)
        c = constant(rng.normal(0, 1, (n, 3)))
        # two products in a row, so the backward runs the operator on a gradient
        assert_grads_match_fd(
            lambda: T.sum_all(T.mul(T.spmm(adj, T.spmm(adj, x)), c)), [x])


def test_gradients_match_fd_relu_away_from_kink():
    rng = np.random.default_rng(10)
    vals = rng.normal(0, 1, (4, 4))
    vals[np.abs(vals) < 0.1] = 0.5  # keep the FD step away from the kink
    x = Tensor(vals, requires_grad=True)
    c = constant(rng.normal(0, 1, (4, 4)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.relu(x), c)), [x])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([[0.0, -1.0, 3.0]], requires_grad=True)
    backward(T.sum_all(T.relu(x)))
    assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_gradients_match_fd_sqrt():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(0.5, 3.0, (3, 3)), requires_grad=True)
    c = constant(rng.normal(0, 1, (3, 3)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.sqrt(x), c)), [x])


def test_gradients_match_fd_softmaxes():
    rng = np.random.default_rng(12)
    x = rand(rng, 3, 5)
    c = constant(rng.normal(0, 1, (3, 5)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.softmax_rows(x), c)), [x])
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.log_softmax_rows(x), c)), [x])


def test_gradients_match_fd_layer_norm():
    rng = np.random.default_rng(13)
    x = rand(rng, 4, 6)
    gamma = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    beta = Tensor(rng.normal(0, 1, 6), requires_grad=True)
    c = constant(rng.normal(0, 1, (4, 6)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.layer_norm(x, gamma, beta), c)),
        [x, gamma, beta])


def test_gradients_match_fd_take_and_concat():
    rng = np.random.default_rng(14)
    x = rand(rng, 5, 3)
    y = rand(rng, 2, 3)
    idx = np.array([4, 1, 2])
    c = constant(rng.normal(0, 1, (3, 3)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.take_rows(x, idx), c)), [x])
    c2 = constant(rng.normal(0, 1, (7, 3)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.concat_rows(x, y), c2)), [x, y])
    c3 = constant(rng.normal(0, 1, (2, 6)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.concat_cols([y, y]), c3)), [y])


def test_shared_parameter_accumulates_both_paths():
    w = Tensor([[2.0]], requires_grad=True)
    # loss = w*w -> gradient 2w = 4
    backward(T.sum_all(T.mul(w, w)))
    assert_allclose(w.grad, [[4.0]])


def test_disconnected_parameter_keeps_zero_gradient():
    rng = np.random.default_rng(15)
    used = rand(rng, 2, 2)
    unused = rand(rng, 2, 2)
    backward(T.sum_all(T.mul(used, used)))
    assert_array_equal(unused.grad, np.zeros((2, 2)))


def test_backward_accumulates_across_calls():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    backward(T.sum_all(w))
    backward(T.sum_all(w))
    assert_array_equal(w.grad, np.full((2, 2), 2.0))


# Every op, called on positive inputs of these shapes (spmm's operator and
# take_rows' indices are fixed arguments, not parents).  Each case keeps its
# own id, so deleting a case renames no other.
OP_CASES = [
    ("add-0", T.add, [(3, 4), (3, 4)]),
    ("add-2", T.add, [(3, 4), (4,)]),
    ("sub-3", T.sub, [(3, 4), (3, 4)]),
    ("mul-5", T.mul, [(3, 4), (3, 4)]),
    ("mul-7", T.mul, [(3, 4), (3, 1)]),
    ("div-8", T.div, [(3, 4), (3, 4)]),
    ("div-9", T.div, [(3, 4), ()]),
    ("scale-10", lambda a: T.scale(a, 0.5), [(3, 4)]),
    ("matmul-11", T.matmul, [(3, 4), (4, 2)]),
    ("spmm-12", lambda x: T.spmm(np.eye(3), x), [(3, 4)]),
    ("transpose-13", T.transpose, [(3, 4)]),
    ("relu-14", T.relu, [(3, 4)]),
    ("sqrt-15", T.sqrt, [(3, 4)]),
    ("sum_all-16", T.sum_all, [(3, 4)]),
    ("softmax_rows-17", T.softmax_rows, [(3, 4)]),
    ("log_softmax_rows-18", T.log_softmax_rows, [(3, 4)]),
    ("layer_norm-19", T.layer_norm, [(3, 4), (4,), (4,)]),
    ("take_rows-20", lambda x: T.take_rows(x, np.array([2, 0])), [(3, 4)]),
    ("concat_rows-21", T.concat_rows, [(3, 4), (2, 4)]),
    ("concat_cols-22", lambda *parts: T.concat_cols(parts), [(3, 4), (3, 1), (3, 2)]),
]


def closure_tensors(fn):
    """Every Tensor reachable from the cells of fn's closure, through
    containers and nested closures."""
    found = []
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        value = stack.pop()
        if isinstance(value, Tensor):
            found.append(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif inspect.isfunction(value):
            stack.extend(cell.cell_contents for cell in value.__closure__ or ())
    return found


def test_op_cases_cover_every_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_")} - {"no_grad", "is_recording", "backward", "constant"}
    assert {case.rsplit("-", 1)[0] for case, _, _ in OP_CASES} == ops


@pytest.mark.parametrize("case, op, shapes", OP_CASES,
                         ids=[case for case, _, _ in OP_CASES])
def test_backward_closures_hold_no_tensor(case, op, shapes):
    rng = np.random.default_rng(19)
    for needs in itertools.product([False, True], repeat=len(shapes)):
        if not any(needs):
            continue
        inputs = [Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=need)
                  for shape, need in zip(shapes, needs)]
        node = op(*inputs)._node
        assert [p is not None for p in node.parents] == list(needs), (case, needs)
        assert closure_tensors(node.backward) == [], (case, needs)


def test_unsaved_intermediates_die_before_backward():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(0.0, 1.0, (5, 4)))
    w = rand(rng, 4, 3)
    b = Tensor(rng.normal(0.0, 1.0, 3), requires_grad=True)
    products = []

    def tracked_matmul(a, c):
        out = T.matmul(a, c)
        products.append(weakref.ref(out.data))
        return out

    # add saves no operand and relu only its mask, so nothing holds x @ w
    h = T.relu(T.add(tracked_matmul(x, w), b))
    assert products[0]() is None
    backward(T.sum_all(h))
    mask = (x.data @ w.data + b.data > 0.0).astype(float)
    assert_array_equal(w.grad, x.data.T @ mask)
    assert_array_equal(b.grad, mask.sum(axis=0))


def test_backward_releases_replayed_nodes():
    rng = np.random.default_rng(17)
    w = rand(rng, 3, 3)
    h = T.relu(T.matmul(w, w))
    loss = T.sum_all(T.mul(h, w))
    # the relu output's buffer, which only mul's backward closure now holds
    ref = weakref.ref(h.data)
    del h
    assert ref() is not None
    backward(loss)
    assert ref() is None  # the saved array died during the replay
    assert loss._node.parents == ()


def test_second_backward_through_a_replayed_tape_raises():
    rng = np.random.default_rng(18)
    w = rand(rng, 3, 3)
    h = T.relu(T.matmul(w, w))
    loss = T.sum_all(T.mul(h, h))
    backward(loss)
    after_first = w.grad.copy()
    with pytest.raises(ContractError, match="already replayed"):
        backward(loss)
    with pytest.raises(ContractError, match="already replayed"):
        backward(T.sum_all(T.add(h, w)))  # a new loss on a replayed intermediate
    assert_array_equal(w.grad, after_first)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(16)
        a = rand(rng, 6, 6)
        b = rand(rng, 6, 6)
        h = T.relu(T.matmul(a, b))
        h = T.softmax_rows(T.add(h, T.matmul(h, b)))
        backward(T.sum_all(T.mul(h, h)))
        return a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


# ------------------------------------------------------------------- errors


def test_shape_mismatch_raises_with_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        T.add(a, b)
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        T.matmul(a, b)
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        T.spmm(a.data, b)
    with pytest.raises(DimensionError):
        T.mul(a, Tensor(np.zeros((3, 1))))
    # a scalar b is no case of add, sub or mul; div keeps it
    wide, scalar = Tensor(np.zeros((3, 4))), Tensor(1.0)
    for op in (T.add, T.sub, T.mul):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(\)"):
            op(wide, scalar)


def test_non_scalar_loss_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError, match="scalar"):
        backward(T.relu(x))


def test_non_finite_values_rejected_at_creation_and_after_ops():
    with pytest.raises(NonFiniteError):
        Tensor([[np.nan]])
    with pytest.raises(NonFiniteError):
        Tensor([[np.inf]])
    big = Tensor([[1.7e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.add(big, big)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            T.div(Tensor([[1.0]]), Tensor(0.0))


def test_constant_wrapper_does_not_track_gradients():
    arr = np.ones((2, 2))
    c = constant(arr)
    assert not c.requires_grad
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    backward(T.sum_all(T.mul(c, w)))
    assert_array_equal(w.grad, np.ones((2, 2)))


def test_no_grad_records_no_tape_and_restores_on_exception():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    assert T.is_recording()
    with T.no_grad():
        assert not T.is_recording()
        y = T.matmul(w, w)
        assert not y.requires_grad
        assert y._node is None
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            T.div(w, Tensor(0.0))  # the eager finite check stays on
    assert T.matmul(w, w).requires_grad
    with pytest.raises(ContractError):
        with T.no_grad():
            raise ContractError("inside")
    assert T.is_recording()
    z = T.matmul(w, w)
    assert z.requires_grad
    backward(T.sum_all(z))
    assert_array_equal(w.grad, np.full((2, 2), 4.0))
