"""Dense f64 tensors with tape-based reverse-mode differentiation.

Every operation allocates a fresh result, records its parents and a backward
closure, and stamps a monotonically increasing op id.  ``backward`` replays
the closures in strictly decreasing op-id order, which is exactly the reverse
of execution order, so accumulation into shared parameters is deterministic.
A tape is replayed once: each node drops its closure and parents as soon as
its closure has run, so the tape is freed while it is replayed, and a second
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
    """Within the block, op outputs keep no parents and no backward closure."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _ensure_finite(arr, what="tensor"):
    # A full-array sum is NaN or Inf iff some element is non-finite (finite
    # values can only overflow the sum near 1e308, far outside desk scale).
    if not math.isfinite(float(arr.sum())):
        raise NonFiniteError(f"non-finite values in {what}")


class Tensor:
    """A numpy-backed node of the differentiation tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op_id")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)  # leaves own their buffer
        _ensure_finite(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None
        self._op_id = next(_op_counter)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(arr):
    """Wrap an existing f64 array without copying; caller must not mutate it."""
    arr = np.asarray(arr, dtype=np.float64)
    _ensure_finite(arr)
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    t._parents = ()
    t._backward = None
    t._op_id = next(_op_counter)
    return t


def _result(data, parents, backward):
    """Build an op output; constant-folds when no parent needs gradients or
    when recording is off."""
    _ensure_finite(data, "op output")
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t._op_id = next(_op_counter)
    if _recording and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._backward = backward
    else:
        t.requires_grad = False
        t._parents = ()
        t._backward = None
    return t


def _replayed(g):
    raise ContractError("tape node already replayed")


def backward(loss):
    """Accumulate d(loss)/d(leaf) into the ``grad`` buffer of every reachable
    leaf created with ``requires_grad=True``.  ``loss`` must be scalar.

    The tape is consumed: every replayed node drops its closure and parents
    (and with them the arrays they hold), so intermediates are freed during
    the replay.  Replaying through such a node again raises ``ContractError``;
    leaf totals are applied only at the end, so a failed call leaves every
    ``grad`` buffer unchanged."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    seed = np.ones_like(loss.data)
    if loss._backward is None:
        if loss.requires_grad:
            loss.grad += seed
        return
    # Collect reachable tape nodes, then replay in reverse execution order.
    nodes = [loss]
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent._backward is not None and id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
                stack.append(parent)
    nodes.sort(key=lambda t: t._op_id)
    grads = {id(loss): seed}
    leaf_totals = {}  # id -> (leaf, merged grad); one += per leaf per call
    while nodes:
        node = nodes.pop()  # popped, so the list keeps no replayed node alive
        g = grads.pop(id(node), None)
        if g is None:  # reachable but received no gradient (dead branch)
            continue
        pairs = node._backward(g)
        node._backward = _replayed
        node._parents = ()
        for parent, pg in pairs:
            if not parent.requires_grad:
                continue
            key = id(parent)
            if parent._backward is None:
                held = leaf_totals.get(key)
                leaf_totals[key] = (parent, pg if held is None else held[1] + pg)
            else:
                held = grads.get(key)
                # never mutate stored arrays in place: closures may return
                # their incoming gradient unchanged (aliasing hazard)
                grads[key] = pg if held is None else held + pg
    for leaf, total in leaf_totals.values():
        leaf.grad += total


# ---------------------------------------------------------------- arithmetic


def add(a, b):
    """Elementwise a + b; b may also be a scalar or a row vector (bias)."""
    if a.shape == b.shape:
        def back(g):
            return [(a, g), (b, g)]
    elif b.shape == ():
        def back(g):
            out = [(a, g)]
            if b.requires_grad:
                out.append((b, np.asarray(g.sum())))
            return out
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def back(g):
            out = [(a, g)]
            if b.requires_grad:
                out.append((b, g.sum(axis=0)))
            return out
    else:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data + b.data, (a, b), back)


def sub(a, b):
    """Elementwise a - b (same shape, or scalar b)."""
    if a.shape == b.shape:
        def back(g):
            out = []
            if a.requires_grad:
                out.append((a, g))
            if b.requires_grad:
                out.append((b, -g))
            return out
    elif b.shape == ():
        def back(g):
            out = []
            if a.requires_grad:
                out.append((a, g))
            if b.requires_grad:
                out.append((b, np.asarray(-g.sum())))
            return out
    else:
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data - b.data, (a, b), back)


def mul(a, b):
    """Elementwise a * b; b may also be scalar or a broadcast column (n, 1)."""
    if a.shape == b.shape:
        def back(g):
            out = []
            if a.requires_grad:
                out.append((a, g * b.data))
            if b.requires_grad:
                out.append((b, g * a.data))
            return out
    elif b.shape == ():
        def back(g):
            out = []
            if a.requires_grad:
                out.append((a, g * b.data))
            if b.requires_grad:
                out.append((b, np.asarray((g * a.data).sum())))
            return out
    elif a.data.ndim == 2 and b.shape == (a.shape[0], 1):
        def back(g):
            out = []
            if a.requires_grad:
                out.append((a, g * b.data))
            if b.requires_grad:
                out.append((b, (g * a.data).sum(axis=1, keepdims=True)))
            return out
    else:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data * b.data, (a, b), back)


def div(a, b):
    """Elementwise a / b (same shape) or a / scalar-tensor b."""
    if b.shape not in ((), a.shape):
        raise DimensionError(f"div: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        out = []
        if a.requires_grad:
            out.append((a, g / b.data))
        if b.requires_grad:
            gb = -g * a.data / (b.data * b.data)
            out.append((b, np.asarray(gb.sum()) if b.shape == () else gb))
        return out

    return _result(a.data / b.data, (a, b), back)


def scale(a, c):
    """Multiply by a python float constant."""
    c = float(c)

    def back(g):
        return [(a, g * c)]

    return _result(a.data * c, (a,), back)


def matmul(a, b):
    """2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        out = []
        if a.requires_grad:
            out.append((a, g @ b.data.T))
        if b.requires_grad:
            out.append((b, a.data.T @ g))
        return out

    return _result(a.data @ b.data, (a, b), back)


def spmm(adj, x):
    """adj @ x for a fixed symmetric operator ``adj`` (a dense array or a
    ``graph.NeighborTable``, not a tensor); symmetry makes the backward adj @ g."""
    if x.data.ndim != 2 or adj.shape[1] != x.shape[0]:
        raise DimensionError(f"spmm: incompatible shapes {adj.shape} and {x.shape}")

    def back(g):
        return [(x, adj @ g)]

    return _result(adj @ x.data, (x,), back)


def transpose(a):
    if a.data.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def back(g):
        return [(a, g.T)]

    return _result(a.data.T.copy(), (a,), back)


# -------------------------------------------------------------- nonlinearity


def relu(a):
    """max(x, 0); subgradient at exactly 0 is taken as 0."""
    mask = a.data > 0.0

    def back(g):
        return [(a, g * mask)]

    return _result(np.where(mask, a.data, 0.0), (a,), back)


def sqrt(a):
    out_data = np.sqrt(a.data)

    def back(g):
        return [(a, g * 0.5 / out_data)]

    return _result(out_data, (a,), back)


# ---------------------------------------------------------------- reductions


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    def back(g):
        return [(a, np.full(a.data.shape, float(g)))]

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
        return [(a, (g - dot) * out_data)]

    return _result(out_data, (a,), back)


def log_softmax_rows(a):
    if a.data.ndim != 2:
        raise DimensionError(f"log_softmax_rows needs a 2-D tensor, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def back(g):
        return [(a, g - soft * g.sum(axis=1, keepdims=True))]

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
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out_data = xhat * gamma.data + beta.data

    def back(g):
        out = []
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = inv * (dxhat
                        - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
            out.append((x, dx))
        if gamma.requires_grad:
            out.append((gamma, (g * xhat).sum(axis=0)))
        if beta.requires_grad:
            out.append((beta, g.sum(axis=0)))
        return out

    return _result(out_data, (x, gamma, beta), back)


# ------------------------------------------------------------- rearranging


def take_rows(x, indices):
    """Select rows by index.  Indices must be unique; backward scatters."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take_rows expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError(f"take_rows: index out of range for {x.shape[0]} rows")

    def back(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return [(x, full)]

    return _result(x.data[idx].copy(), (x,), back)


def concat_rows(a, b):
    """Stack two 2-D tensors vertically."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"concat_rows: incompatible shapes {a.shape} and {b.shape}")
    na = a.shape[0]

    def back(g):
        out = []
        if a.requires_grad:
            out.append((a, g[:na]))
        if b.requires_grad:
            out.append((b, g[na:]))
        return out

    return _result(np.concatenate([a.data, b.data], axis=0), (a, b), back)


def concat_cols(parts):
    """Concatenate 2-D tensors side by side."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise DimensionError("concat_cols: row counts differ")
    widths = [p.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def back(g):
        return [(p, g[:, offsets[i]:offsets[i + 1]])
                for i, p in enumerate(parts) if p.requires_grad]

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), back)
