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
    both = T.concat_rows(picked, x)
    assert both.shape == (6, 3)
    assert_array_equal(both.data[:2], picked.data)
    assert_array_equal(both.data[2:], x.data)


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


def mean_based_layer_norm(x, gamma, beta, g, eps=1e-5):
    """layer_norm's forward and its x gradient written with ``np.mean``."""
    centred = x - x.mean(axis=1, keepdims=True)
    var = (centred * centred).sum(axis=1, keepdims=True) / x.shape[1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    return xhat * gamma + beta, dx


@pytest.mark.parametrize("d", [1, 4, 32, 129])
def test_layer_norm_keeps_the_bits_of_np_mean(d):
    rng = np.random.default_rng(d)
    x_data = rng.normal(2.0, 3.0, (6, d))
    x_data[1] = 7.25  # constant rows
    x_data[4] = 0.0
    gamma, beta = rng.uniform(0.5, 1.5, d), rng.normal(0, 1, d)
    g = rng.normal(0, 1, (6, d))
    x = Tensor(x_data, requires_grad=True)
    out = T.layer_norm(x, Tensor(gamma), Tensor(beta))
    backward(T.sum_all(T.mul(out, constant(g))))
    want_out, want_dx = mean_based_layer_norm(x_data, gamma, beta, g)
    assert out.data.tobytes() == want_out.tobytes()
    assert x.grad.tobytes() == want_dx.tobytes()


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
    c = constant(rng.normal(0, 1, (4, 3)))

    cases = [
        (lambda: T.sum_all(T.mul(T.add(a, b), c)), [a, b]),
        (lambda: T.sum_all(T.mul(T.mul(a, b), c)), [a, b]),
        (lambda: T.sum_all(T.mul(T.scale(a, -1.7), c)), [a]),
    ]
    for build, params in cases:
        assert_grads_match_fd(build, params)


def test_gradients_match_fd_bias_broadcast():
    # the row bias is broadcast by linear, the one op that adds a bias
    rng = np.random.default_rng(8)
    x = rand(rng, 5, 4)
    w = rand(rng, 4, 3)
    bias = Tensor(rng.normal(0, 1, 3), requires_grad=True)
    c = constant(rng.normal(0, 1, (5, 3)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.linear(x, w, bias), c)), [x, w, bias])


def test_linear_keeps_the_bits_of_matmul_then_bias():
    rng = np.random.default_rng(21)
    x, w = rand(rng, 5, 4), rand(rng, 4, 3)
    b = Tensor(rng.normal(0, 1, 3), requires_grad=True)
    g = rng.normal(0, 1, (5, 3))
    out = T.linear(x, w, b)
    backward(T.sum_all(T.mul(out, constant(g))))
    assert out.data.tobytes() == (x.data @ w.data + b.data).tobytes()
    assert x.grad.tobytes() == (g @ w.data.T).tobytes()
    assert w.grad.tobytes() == (x.data.T @ g).tobytes()
    assert b.grad.tobytes() == g.sum(axis=0).tobytes()


@pytest.mark.parametrize("heads, inv_scale", [(1, None), (2, 0.5), (3, None)])
def test_gradients_match_fd_attention_heads(heads, inv_scale):
    rng = np.random.default_rng(22 + heads)
    queries, keys = rand(rng, 3, 4), rand(rng, 5, 4)
    wq, wk, wv = (rand(rng, heads, 4, 2) for _ in range(3))
    params = [queries, keys, wq, wk, wv]
    c = constant(rng.normal(0, 1, (3, 2 * heads)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.attention_heads(queries, keys, wq, wk, wv,
                                                  inv_scale), c)), params)
    # the queries are the keys: both paths reach one tensor
    c = constant(rng.normal(0, 1, (3, 2 * heads)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.attention_heads(queries, queries, wq, wk, wv,
                                                  inv_scale), c)), [queries])


def test_attention_heads_rejects_mismatched_inputs():
    rng = np.random.default_rng(23)
    q, k = rand(rng, 3, 4), rand(rng, 5, 4)
    w = rand(rng, 1, 4, 2)
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(5, 3\)"):
        T.attention_heads(q, rand(rng, 5, 3), w, w, w, None)
    for bad in (rand(rng, 2, 4, 2), rand(rng, 1, 4, 3), rand(rng, 1, 3, 2)):
        with pytest.raises(DimensionError, match=r"weight stacks \(1, 4, 2\), "):
            T.attention_heads(q, k, w, bad, w, None)
    for bad in (rand(rng, 4, 2), rand(rng, 0, 4, 2)):
        with pytest.raises(DimensionError, match="weight stacks"):
            T.attention_heads(q, k, bad, bad, bad, None)


def test_attention_heads_names_the_non_finite_stage():
    q, k = Tensor(np.full((2, 2), 1e200)), Tensor(np.full((3, 2), 1e200))
    w = Tensor(np.full((1, 2, 1), 1e200))
    small = Tensor(np.ones((1, 2, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="attention queries"):
            T.attention_heads(q, k, w, small, small, None)
        with pytest.raises(NonFiniteError, match="attention keys"):
            T.attention_heads(Tensor(np.ones((2, 2))), k, small, w, small, None)
        with pytest.raises(NonFiniteError, match="attention values"):
            T.attention_heads(Tensor(np.ones((2, 2))), k, small, small, w, None)
        with pytest.raises(NonFiniteError, match="attention scores"):
            T.attention_heads(Tensor(np.full((2, 2), 1e160)), Tensor(np.full((3, 2), 1e160)),
                              small, small, small, None)


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


def test_gradients_match_fd_softmaxes():
    rng = np.random.default_rng(12)
    x = rand(rng, 3, 5)
    c = constant(rng.normal(0, 1, (3, 5)))
    assert_grads_match_fd(lambda: T.sum_all(T.mul(T.softmax_rows(x), c)), [x])


def test_gradients_match_fd_normalize_rows_beside_an_all_zero_row():
    # the zero row is a constant, since an FD step would make it nonzero
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(0.2, 1.5, (3, 4)), requires_grad=True)
    zero = constant(np.zeros((1, 4)))
    c = constant(rng.normal(0, 1, (4, 4)))
    assert_grads_match_fd(
        lambda: T.sum_all(T.mul(T.normalize_rows(T.concat_rows(x, zero)), c)), [x])
    assert_array_equal(T.normalize_rows(T.concat_rows(x, zero)).data[3], [0.25] * 4)


# The relu assignment's row normalization as the chain of generic ops it
# was, kept as an oracle.  Two of those ops (a same-shape div, a mul by a
# column) have no other caller, so they are rebuilt here as they were.


def chain_div(a, b):
    need_a = a.requires_grad
    a_data = a.data if b.requires_grad else None
    b_data = b.data

    def back(g):
        return (g / b_data if need_a else None,
                None if a_data is None else -g * a_data / (b_data * b_data))

    return T._result(a.data / b.data, (a, b), back)


def chain_mul_column(a, col):
    a_data = a.data if col.requires_grad else None
    col_data = col.data if a.requires_grad else None

    def back(g):
        return (None if col_data is None else g * col_data,
                None if a_data is None else (g * a_data).sum(axis=1, keepdims=True))

    return T._result(a.data * col.data, (a, col), back)


def chain_normalize_rows(scores):
    n, p = scores.shape
    zero_rows = scores.data.sum(axis=1) == 0.0
    if zero_rows.any():
        fix = np.zeros_like(scores.data)
        fix[zero_rows] = 1.0
        scores = T.add(scores, constant(fix))
    row_sums = T.matmul(scores, constant(np.ones((p, 1))))
    inv = chain_div(constant(np.ones((n, 1))), row_sums)
    return chain_mul_column(scores, inv)


@pytest.mark.parametrize("n", [1, 7, 255, 257, 899])
@pytest.mark.parametrize("p", [1, 3, 16, 39])
def test_normalize_rows_keeps_the_bits_of_the_op_chain(n, p):
    rng = np.random.default_rng(1000 * n + p)
    for zero_share in (0.0, 0.2, 1.0):
        data = np.maximum(rng.normal(0.0, 1.0, (n, p)), 0.0)  # relu-like
        data[rng.random(n) < zero_share] = 0.0
        g = constant(rng.normal(0.0, 1.0, (n, p)))

        def run(op):
            x = Tensor(data, requires_grad=True)
            out = op(T.relu(x))
            backward(T.sum_all(T.mul(out, g)))
            return out.data.tobytes(), x.grad.tobytes()

        assert run(T.normalize_rows) == run(chain_normalize_rows), zero_share


@pytest.mark.parametrize("clusters", [1, 3])
def test_gradients_match_fd_loss_ops(clusters):
    rng = np.random.default_rng(24 + clusters)
    logits = rand(rng, 4, 3)
    assert_grads_match_fd(lambda: T.cross_entropy(logits, np.array([2, 0, 1, 1])), [logits])
    # any positive s, off the simplex too; at one cluster ortho is 0 and its
    # path is skipped
    sym = rng.normal(0, 1, (5, 5))
    adj, deg = sym + sym.T, rng.uniform(1.0, 4.0, 5)
    s = Tensor(rng.uniform(0.2, 1.0, (5, clusters)), requires_grad=True)
    assert (T.mincut_terms(s, adj, deg)[2] == 0.0) == (clusters == 1)
    assert_grads_match_fd(lambda: T.mincut_terms(s, adj, deg)[0], [s])


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
    ("mul-5", T.mul, [(3, 4), (3, 4)]),
    ("scale-10", lambda a: T.scale(a, 0.5), [(3, 4)]),
    ("matmul-11", T.matmul, [(3, 4), (4, 2)]),
    ("spmm-12", lambda x: T.spmm(np.eye(3), x), [(3, 4)]),
    ("transpose-13", T.transpose, [(3, 4)]),
    ("relu-14", T.relu, [(3, 4)]),
    ("sum_all-16", T.sum_all, [(3, 4)]),
    ("softmax_rows-17", T.softmax_rows, [(3, 4)]),
    ("layer_norm-19", T.layer_norm, [(3, 4), (4,), (4,)]),
    ("take_rows-20", lambda x: T.take_rows(x, np.array([2, 0])), [(3, 4)]),
    ("concat_rows-21", T.concat_rows, [(3, 4), (2, 4)]),
    ("linear-23", T.linear, [(3, 4), (4, 2), (2,)]),
    ("attention_heads-24", lambda *a: T.attention_heads(*a, 0.5),
     [(3, 4), (5, 4)] + [(2, 4, 2)] * 3),
    ("attention_heads-25", lambda *a: T.attention_heads(*a, None),
     [(1, 4), (2, 4)] + [(1, 4, 3)] * 3),
    ("cross_entropy-26", lambda x: T.cross_entropy(x, np.array([2, 0, 3])), [(3, 4)]),
    ("mincut_terms-27", lambda s: T.mincut_terms(s, np.eye(3), np.ones(3))[0], [(3, 4)]),
    ("normalize_rows-28", T.normalize_rows, [(3, 4)]),
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
        # an op may list an input more than once (attention_heads does, once
        # per head and path); the parents are exactly the inputs that need a
        # gradient, each by its own node
        wanted = [t._node for t in inputs if t.requires_grad]
        assert all(p is None or any(p is n for n in wanted) for p in node.parents), (case, needs)
        assert all(any(p is n for p in node.parents) for n in wanted), (case, needs)
        assert closure_tensors(node.backward) == [], (case, needs)


def test_unsaved_intermediates_die_before_backward():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(0.0, 1.0, (5, 4)))
    w = rand(rng, 4, 3)
    b = Tensor(rng.normal(0.0, 1.0, (5, 3)), requires_grad=True)
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
    assert_array_equal(b.grad, mask)


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
    # nor is a column b of mul
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 1\)"):
        T.mul(a, Tensor(np.zeros((2, 1))))
    # a row bias is no case of add; linear adds it
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(3,\)"):
        T.add(a, Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\), \(3, 2\) and \(3,\)"):
        T.linear(a, Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"\(2, 3\), \(3, 3\) and \(2,\)"):
        T.mincut_terms(a, np.eye(3), np.ones(2))
    # a scalar b is no case of add or mul
    wide, scalar = Tensor(np.zeros((3, 4))), Tensor(1.0)
    for op in (T.add, T.mul):
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
    huge = Tensor([[1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.mul(huge, huge)


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
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            huge = T.scale(w, 1e200)
            T.mul(huge, huge)  # the eager finite check stays on
    assert T.matmul(w, w).requires_grad
    with pytest.raises(ContractError):
        with T.no_grad():
            raise ContractError("inside")
    assert T.is_recording()
    z = T.matmul(w, w)
    assert z.requires_grad
    backward(T.sum_all(z))
    assert_array_equal(w.grad, np.full((2, 2), 4.0))
