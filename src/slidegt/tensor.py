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
    """Elementwise a + b.  b has a's shape, or a is 2-D and b is a row bias
    of shape ``(a.shape[1],)``."""
    need_b = b.requires_grad
    if a.shape == b.shape:
        def back(g):
            return g, g
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def back(g):
            return g, g.sum(axis=0) if need_b else None
    else:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data + b.data, (a, b), back)


def sub(a, b):
    """Elementwise a - b.  b has a's shape."""
    if a.shape != b.shape:
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        return g if need_a else None, -g if need_b else None

    return _result(a.data - b.data, (a, b), back)


def mul(a, b):
    """Elementwise a * b.  b has a's shape, or a is 2-D and b is a column
    of shape ``(a.shape[0], 1)``, broadcast along each row."""
    a_data = a.data if b.requires_grad else None  # read only for b's gradient
    b_data = b.data if a.requires_grad else None
    if a.shape == b.shape:
        def reduce_b(gb):
            return gb
    elif a.data.ndim == 2 and b.shape == (a.shape[0], 1):
        def reduce_b(gb):
            return gb.sum(axis=1, keepdims=True)
    else:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else reduce_b(g * a_data))

    return _result(a.data * b.data, (a, b), back)


def div(a, b):
    """Elementwise a / b (same shape) or a / scalar-tensor b."""
    if b.shape not in ((), a.shape):
        raise DimensionError(f"div: incompatible shapes {a.shape} and {b.shape}")
    need_a, scalar_b = a.requires_grad, b.shape == ()
    a_data = a.data if b.requires_grad else None  # read only for b's gradient
    b_data = b.data

    def back(g):
        ga = g / b_data if need_a else None
        if a_data is None:
            return ga, None
        gb = -g * a_data / (b_data * b_data)
        return ga, np.asarray(gb.sum()) if scalar_b else gb

    return _result(a.data / b.data, (a, b), back)


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


def sqrt(a):
    out_data = np.sqrt(a.data)

    def back(g):
        return (g * 0.5 / out_data,)

    return _result(out_data, (a,), back)


# ---------------------------------------------------------------- reductions


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    shape = a.shape

    def back(g):
        return (np.full(shape, float(g)),)

    return _result(np.asarray(a.data.sum()), (a,), back)


# ------------------------------------------------------------ row softmaxes


def softmax_rows(a):
    """Row-wise softmax of a 2-D tensor (shift-invariant, numerically safe)."""
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows needs a 2-D tensor, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        return ((g - dot) * out_data,)

    return _result(out_data, (a,), back)


def log_softmax_rows(a):
    if a.data.ndim != 2:
        raise DimensionError(f"log_softmax_rows needs a 2-D tensor, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def back(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _result(out_data, (a,), back)


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
    # centre once; the same operations as ``x.var``, so the same bits
    centred = x.data - x.data.mean(axis=1, keepdims=True)
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
                        - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
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


def concat_cols(parts):
    """Concatenate 2-D tensors side by side."""
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise DimensionError("concat_cols: row counts differ")
    offsets = np.concatenate([[0], np.cumsum([p.shape[1] for p in parts])])

    def back(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1))

    return _result(np.concatenate([p.data for p in parts], axis=1), parts, back)
