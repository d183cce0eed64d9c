"""Dense f64 tensors with tape-based reverse-mode differentiation.

The tape is a graph of ``_Node`` entries kept apart from the values.  An op
whose inputs need gradients gives its output a node holding the parents'
nodes, a backward closure and a monotonically increasing op id.  The closure
saves exactly the arrays its backward reads (a matmul saves its operands, a
relu its mask, an add only shapes) and never a ``Tensor``, so an
intermediate output that no closure reads dies with the expression that made
it.  A closure maps the output's gradient to one gradient (or ``None``) per
parent, by position.  ``backward`` replays the closures in strictly
decreasing op-id order, which is exactly the reverse of execution order, so
accumulation into shared parameters is deterministic.  A tape is replayed
once: each node drops its closure and parents as soon as its closure has
run, so the saved arrays are freed while the tape is replayed, and a second
``backward`` through a replayed node raises ``ContractError``.

Ops are as coarse as the bits allow, since most of a small op's cost is
per-op overhead: ``linear`` is ``x @ w + b`` in one op, and
``attention_heads`` is every head of an attention site in one op.  It
takes each role's weights as one (heads, dim, head width) stack and runs the
heads batched through ``np.matmul``, which repeats per head the 2-D product,
operand layouts included, of one op per head, so every output and gradient
keeps its bits; ``np.einsum`` over the heads would sum in another order.
Each loss term is one op too (``cross_entropy``, ``mincut_terms``), as is
``normalize_rows``; each backward repeats in replay order the arithmetic of
the chain of generic ops it stands for.

Tensors are dense numpy arrays; a graph's sparse adjacency enters only as the
fixed operator of ``spmm``.  Every op output is checked for NaN/Inf up front
instead of letting bad values propagate into training.  Tensors are treated
as immutable after creation; only gradient buffers (and parameter data,
inside the optimizer step) are written in place.  Inside ``no_grad()`` ops
still compute and check their outputs but record nothing on the tape.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

_op_counter = itertools.count()
_recording = True


@contextlib.contextmanager
def no_grad():
    """Within the block, op outputs get no tape node."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def is_recording():
    """Whether op outputs currently get tape nodes (False inside ``no_grad``)."""
    return _recording


def _ensure_finite(arr, what="tensor"):
    # A full-array sum is NaN or Inf iff some element is non-finite (finite
    # values can only overflow the sum near 1e308, far outside desk scale).
    if not math.isfinite(float(arr.sum())):
        raise NonFiniteError(f"non-finite values in {what}")


class _Node:
    """A tape entry: the parents' nodes (``None`` where no gradient flows),
    the backward closure, the op id, and for a leaf the tensor whose ``grad``
    receives its total (``backward`` is then ``None``)."""

    __slots__ = ("parents", "backward", "op_id", "leaf")

    def __init__(self, parents, backward, op_id, leaf=None):
        self.parents = parents
        self.backward = backward
        self.op_id = op_id
        self.leaf = leaf


class Tensor:
    """A numpy array plus, when it needs a gradient, its tape node."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)  # leaves own their buffer
        _ensure_finite(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        op_id = next(_op_counter)
        self._node = _Node((), None, op_id, self) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(arr):
    """Wrap an existing f64 array without copying; caller must not mutate it."""
    arr = np.asarray(arr, dtype=np.float64)
    _ensure_finite(arr)
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    t._node = None
    next(_op_counter)  # every tensor draws one op id
    return t


def _result(data, parents, backward):
    """Build an op output; it gets a tape node only when recording is on and
    some parent needs a gradient."""
    _ensure_finite(data, "op output")
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    op_id = next(_op_counter)
    if _recording and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._node = _Node(tuple(p._node for p in parents), backward, op_id)
    else:
        t.requires_grad = False
        t._node = None
    return t


def _replayed(g):
    raise ContractError("tape node already replayed")


def backward(loss):
    """Accumulate d(loss)/d(leaf) into the ``grad`` buffer of every reachable
    leaf created with ``requires_grad=True``.  ``loss`` must be scalar.

    The tape holds the arrays each closure saved, not the op outputs.  Each
    closure returns one gradient per parent, by position, and gradients
    reaching one node are summed in replay order.  The tape is consumed:
    every replayed node drops its closure and parents (and with them the
    arrays they saved), so the tape is freed during the replay.  Replaying
    through such a node again raises ``ContractError``; leaf totals are
    applied only at the end, so a failed call leaves every ``grad`` buffer
    unchanged."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    seed = np.ones_like(loss.data)
    root = loss._node
    if root is None:
        return
    if root.backward is None:
        loss.grad += seed
        return
    # Collect reachable tape nodes, then replay in reverse execution order.
    nodes = [root]
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if parent is not None and parent.backward is not None and id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
                stack.append(parent)
    nodes.sort(key=lambda n: n.op_id)
    grads = {id(root): seed}
    leaf_totals = {}  # id -> (leaf node, merged grad); one += per leaf per call
    while nodes:
        node = nodes.pop()  # popped, so the list keeps no replayed node alive
        g = grads.pop(id(node), None)
        if g is None:  # reachable but received no gradient (dead branch)
            continue
        parents = node.parents
        parent_grads = node.backward(g)
        node.backward = _replayed
        node.parents = ()
        for parent, pg in zip(parents, parent_grads):
            if parent is None:
                continue
            key = id(parent)
            if parent.backward is None:
                held = leaf_totals.get(key)
                leaf_totals[key] = (parent, pg if held is None else held[1] + pg)
            else:
                held = grads.get(key)
                # never mutate stored arrays in place: closures may return
                # their incoming gradient unchanged (aliasing hazard)
                grads[key] = pg if held is None else held + pg
    for node, total in leaf_totals.values():
        node.leaf.grad += total


# ---------------------------------------------------------------- arithmetic
#
# Each backward closure captures arrays, shapes and flags only, never a
# ``Tensor``, and returns one gradient per parent (``None`` where the parent
# needs none).


def add(a, b):
    """Elementwise a + b.  b has a's shape."""
    if a.shape != b.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        return g, g

    return _result(a.data + b.data, (a, b), back)


def mul(a, b):
    """Elementwise a * b.  b has a's shape."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    a_data = a.data if b.requires_grad else None  # read only for b's gradient
    b_data = b.data if a.requires_grad else None

    def back(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else g * a_data)

    return _result(a.data * b.data, (a, b), back)


def scale(a, c):
    """Multiply by a python float constant."""
    c = float(c)

    def back(g):
        return (g * c,)

    return _result(a.data * c, (a,), back)


def matmul(a, b):
    """2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    a_data = a.data if b.requires_grad else None  # read only for b's gradient
    b_data = b.data if a.requires_grad else None

    def back(g):
        return (None if b_data is None else g @ b_data.T,
                None if a_data is None else a_data.T @ g)

    return _result(a.data @ b.data, (a, b), back)


def linear(x, w, b):
    """Affine map x @ w + b: a 2-D x, a 2-D w and a row bias b of shape
    ``(w.shape[1],)``, as one op."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise DimensionError(
            f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    x_data = x.data if w.requires_grad else None  # read only for w's gradient
    w_data = w.data if x.requires_grad else None
    need_b = b.requires_grad

    def back(g):
        return (None if w_data is None else g @ w_data.T,
                None if x_data is None else x_data.T @ g,
                g.sum(axis=0) if need_b else None)

    return _result(x.data @ w.data + b.data, (x, w, b), back)


def spmm(adj, x):
    """adj @ x for a fixed symmetric operator ``adj`` (a dense array or a
    ``graph.NeighborTable``, not a tensor); symmetry makes the backward adj @ g."""
    if x.data.ndim != 2 or adj.shape[1] != x.shape[0]:
        raise DimensionError(f"spmm: incompatible shapes {adj.shape} and {x.shape}")

    def back(g):
        return (adj @ g,)

    return _result(adj @ x.data, (x,), back)


def transpose(a):
    if a.data.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def back(g):
        return (g.T,)

    return _result(a.data.T.copy(), (a,), back)


# -------------------------------------------------------------- nonlinearity


def relu(a):
    """max(x, 0); subgradient at exactly 0 is taken as 0."""
    mask = a.data > 0.0

    def back(g):
        return (g * mask,)

    return _result(np.where(mask, a.data, 0.0), (a,), back)


# ---------------------------------------------------------------- reductions


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    shape = a.shape

    def back(g):
        return (np.full(shape, float(g)),)

    return _result(np.asarray(a.data.sum()), (a,), back)


# ------------------------------------------------------- row normalization


def softmax_rows(a):
    """Row-wise softmax of a 2-D tensor (shift-invariant, numerically safe)."""
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows needs a 2-D tensor, got shape {a.shape}")
    # a max is exact in any order, and along the first axis of a transposed
    # copy numpy compares whole rows at once instead of short rows one by one
    shifted = a.data - np.ascontiguousarray(a.data.T).max(axis=0)[:, None]
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        return ((g - dot) * out_data,)

    return _result(out_data, (a,), back)


def normalize_rows(a):
    """Each row of a 2-D tensor of non-negative values divided by its sum,
    with an all-zero row taken as ones (so uniform).  The forward and the
    backward's two terms repeat, in replay order, the chain of generic ops it
    stands for: add ones to the zero rows, matmul by ones, divide, multiply."""
    if a.data.ndim != 2:
        raise DimensionError(f"normalize_rows needs a 2-D tensor, got shape {a.shape}")
    x = a.data.copy()
    x[~x.any(axis=1)] = 1.0
    ones = np.ones((x.shape[1], 1))
    row_sums = x @ ones
    inv = np.ones_like(row_sums) / row_sums

    def back(g):
        g_sums = -(g * x).sum(axis=1, keepdims=True) / (row_sums * row_sums)
        return (g * inv + g_sums @ ones.T,)

    return _result(x * inv, (a,), back)


# -------------------------------------------------------------------- losses


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of ``labels`` under the row softmax of
    ``logits``, as a scalar tensor.

    logits: (B, C) tensor; labels: (B,) integer array of classes in [0, C),
    which ``losses.cross_entropy`` checks.  The picked log-probabilities are
    the log-softmax times a one-hot mask, summed over the whole (B, C) array.
    """
    x = logits.data
    b, c = x.shape
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    shifted = x - x.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    soft = np.exp(log_p)
    weight = -1.0 / b

    def back(g):
        g_log_p = float(g * weight) * onehot
        return (g_log_p - soft * g_log_p.sum(axis=1, keepdims=True),)

    return _result((log_p * onehot).sum() * weight, (logits,), back)


def mincut_terms(s, norm_adj, deg_tilde):
    """The clustering regularizer of a soft assignment, as one op.

    s: (n, p) tensor; norm_adj: a fixed (n, n) operator (see ``spmm``);
    deg_tilde: (n,) self-loop degrees.  With z = D^1/2 s, the cut term is
    -<N z, z>/<z, z> and the orthogonality term ||s's/||s's||_F - I/sqrt(p)||_F.
    Returns ``(cut + ortho, cut, ortho)``: a scalar tensor and two floats.

    The backward sums its three gradients for ``s`` (through s's, through
    the transposed copy that s's is made from, and through z) in that order,
    the order a replay of the op chain adds them.  It keeps that chain's bits
    whenever no op made after this one reads ``s``.  Where ortho is exactly 0
    (always at p = 1) its norm has no gradient and the ortho path is skipped:
    the subgradient 0, and at p = 1 ortho is constant.
    """
    if (s.data.ndim != 2 or norm_adj.shape[1] != s.shape[0]
            or np.shape(deg_tilde) != s.shape[:1]):
        raise DimensionError(
            f"mincut_terms: incompatible shapes {s.shape}, {norm_adj.shape} "
            f"and {np.shape(deg_tilde)}")
    n, p = s.shape
    s_data = s.data
    root_deg = np.sqrt(np.asarray(deg_tilde, dtype=np.float64)).reshape(n, 1)
    z = s_data * root_deg
    nz = norm_adj @ z
    cut_num = (nz * z).sum()
    cut_den = (z * z).sum()
    cut = -(cut_num / cut_den)
    s_t = s_data.T.copy()
    sts = s_t @ s_data
    fro = np.sqrt((sts * sts).sum())
    diff = sts / fro - np.eye(p) / np.sqrt(p)
    ortho = np.sqrt((diff * diff).sum())

    def back(g):
        g_s = None
        if ortho != 0.0:  # ortho's norm, diff * diff, diff / fro, fro's norm, s's
            g_diff = float(g * 0.5 / ortho) * diff
            g_diff = g_diff + g_diff
            g_fro = (-g_diff * sts / (fro * fro)).sum()
            g_sts = float(g_fro * 0.5 / fro) * sts
            g_sts = g_diff / fro + g_sts + g_sts
            g_s = s_t.T @ g_sts + (g_sts @ s_data.T).T
        # cut = -num / den: den = <z, z>, then num = <N z, z>, then z = D^1/2 s
        g_num = float(-g / cut_den)
        g_den = float(g * cut_num / (cut_den * cut_den))
        g_z = (g_den * z + g_den * z + g_num * nz + norm_adj @ (g_num * z)) * root_deg
        return (g_z if g_s is None else g_s + g_z,)

    return _result(cut + ortho, (s,), back), float(cut), float(ortho)


# ----------------------------------------------------------------- attention


def attention_heads(queries, keys, wq, wk, wv, inv_scale):
    """Every head of one multi-head attention site, as one op.

    wq, wk and wv are (heads, dim, head width) stacks.  Head i mixes the
    values ``keys @ wv[i]`` under the row softmax of the scores
    ``(queries @ wq[i]) @ (keys @ wk[i]).T``, multiplied by ``inv_scale``
    unless it is ``None``; the output holds the heads side by side.  The
    heads run batched through ``np.matmul``, which applies to each head the
    2-D product, with the operand layouts, that one op per head applied, so
    the output and every gradient keep their bits (``np.einsum`` over the
    heads sums in another order and would not).

    The parents are ``keys`` (via the values), ``keys`` (via the keys) and
    ``queries`` once per head, from the last head to the first, then ``wv``,
    ``wk`` and ``wq``: the tape adds the contributions to ``queries`` and
    ``keys`` one at a time, in the order of a replay of per-head ops, and
    each stack gets its whole gradient in one piece.
    """
    if queries.data.ndim != 2 or keys.data.ndim != 2 or queries.shape[1] != keys.shape[1]:
        raise DimensionError(
            f"attention_heads: incompatible shapes {queries.shape} and {keys.shape}")
    (nq, dim), nk = queries.shape, keys.shape[0]
    if (wq.data.ndim != 3 or wq.shape[0] < 1 or wq.shape[1] != dim
            or wk.shape != wq.shape or wv.shape != wq.shape):
        raise DimensionError(
            f"attention_heads: weight stacks {wq.shape}, {wk.shape} and {wv.shape} "
            f"do not match width {dim}")
    heads, hd = wq.shape[0], wq.shape[2]
    # each head's matrix keeps the contiguous layout of a per-head op's
    # output, the keys' transposed to (H, hd, nk): BLAS sums some narrow or
    # one-row products differently by layout
    q = np.matmul(queries.data, wq.data)                # (H, nq, hd)
    _ensure_finite(q, "attention queries")
    kT = np.ascontiguousarray(np.matmul(keys.data, wk.data).transpose(0, 2, 1))
    _ensure_finite(kT, "attention keys")
    v = np.matmul(keys.data, wv.data)                   # (H, nk, hd)
    _ensure_finite(v, "attention values")
    scores = np.matmul(q, kT)                           # (H, nq, nk)
    if inv_scale is not None:
        inv_scale = float(inv_scale)
        scores = scores * inv_scale
    _ensure_finite(scores, "attention scores")
    # a max is exact in any order, and along the middle axis of a transposed
    # copy numpy compares whole rows at once instead of short rows one by one
    row_max = np.ascontiguousarray(scores.transpose(0, 2, 1)).max(axis=1)
    e = np.exp(scores - row_max[:, :, None])
    p = e / e.sum(axis=2, keepdims=True)
    out_data = np.concatenate(np.matmul(p, v), axis=1)  # the heads side by side

    need_queries, need_keys = queries.requires_grad, keys.requires_grad
    need_wq, need_wk, need_wv = wq.requires_grad, wk.requires_grad, wv.requires_grad
    q_path, k_path = need_queries or need_wq, need_keys or need_wk
    v_path = need_keys or need_wv
    # inputs only for the weights' gradients, weights only for the inputs'
    queries_data = queries.data if need_wq else None
    keys_data = keys.data if need_wk or need_wv else None
    wq_data = wq.data if need_queries else None
    wk_data, wv_data = (wk.data, wv.data) if need_keys else (None, None)

    def back(g):
        g_heads = g.reshape(nq, heads, hd).transpose(1, 0, 2)        # (H, nq, hd)
        g_v = np.matmul(p.transpose(0, 2, 1), g_heads) if v_path else None
        g_q = g_k = None
        if q_path or k_path:
            g_p = np.matmul(g_heads, v.transpose(0, 2, 1))
            g_s = (g_p - (g_p * p).sum(axis=2, keepdims=True)) * p
            if inv_scale is not None:
                g_s = g_s * inv_scale
            if q_path:
                g_q = np.matmul(g_s, kT.transpose(0, 2, 1))
            if k_path:
                g_k = np.matmul(q.transpose(0, 2, 1), g_s).transpose(0, 2, 1)
        none = [None] * heads
        # (H, hd, dim): each head's block transposed, laid out as its own .T
        keys_v = np.matmul(g_v, wv_data.transpose(0, 2, 1)) if need_keys else none
        keys_k = np.matmul(g_k, wk_data.transpose(0, 2, 1)) if need_keys else none
        queries_q = np.matmul(g_q, wq_data.transpose(0, 2, 1)) if need_queries else none
        grads = []
        for i in reversed(range(heads)):
            grads += [keys_v[i], keys_k[i], queries_q[i]]
        return grads + [np.matmul(keys_data.T, g_v) if need_wv else None,
                        np.matmul(keys_data.T, g_k) if need_wk else None,
                        np.matmul(queries_data.T, g_q) if need_wq else None]

    return _result(out_data, (keys, keys, queries) * heads + (wv, wk, wq), back)


# ------------------------------------------------------------ normalization


def layer_norm(x, gamma, beta, eps=1e-5):
    """Row-wise layer normalization with affine parameters.

    Each row of ``x`` (n, d) is standardized with its own mean and (biased)
    variance, then scaled by ``gamma`` (d,) and shifted by ``beta`` (d,).
    A constant row maps to ``beta`` exactly.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm needs a 2-D tensor, got shape {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match width {d}")
    # centre once; a mean is a row sum / d, the operations of ``np.mean`` and
    # ``x.var`` without their Python-level wrappers, so the same bits
    centred = x.data - x.data.sum(axis=1, keepdims=True) / d
    var = (centred * centred).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    gamma_data = gamma.data
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    out_data = xhat * gamma_data + beta.data

    def back(g):
        dx = None
        if need_x:
            dxhat = g * gamma_data
            dx = inv * (dxhat
                        - dxhat.sum(axis=1, keepdims=True) / d
                        - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / d))
        return (dx,
                (g * xhat).sum(axis=0) if need_gamma else None,
                g.sum(axis=0) if need_beta else None)

    return _result(out_data, (x, gamma, beta), back)


# ------------------------------------------------------------- rearranging


def take_rows(x, indices):
    """Select rows by index.  Indices must be unique; backward scatters."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take_rows expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError(f"take_rows: index out of range for {x.shape[0]} rows")
    shape = x.shape

    def back(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _result(x.data[idx].copy(), (x,), back)


def concat_rows(a, b):
    """Stack two 2-D tensors vertically."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    na = a.shape[0]

    def back(g):
        return g[:na], g[na:]

    return _result(np.concatenate([a.data, b.data], axis=0), (a, b), back)

