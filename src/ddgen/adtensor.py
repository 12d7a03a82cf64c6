"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays. Every operation builds a node that records
its parents and a closure computing parent gradients from the node gradient;
``Tensor.backward`` walks the recorded graph once in reverse topological
order. Gradients accumulate additively across repeated backward calls until
``zero_grad`` is invoked.

Gradient arrays are never written in place, because ``_accum`` hands the
same array to several nodes without copying. The one exception is
``split``: its parts write their slices into a zeroed buffer that only their
collector node holds, and the collector passes that buffer to the split
input once and then drops it. So all parts of one split cost one
parent-sized gradient, not one each.

Broadcasting is restricted: elementwise binary ops accept operands of equal
rank where any axis of one operand may be 1 (plus plain python scalars via
``scale``/``shift``). Everything else must match shapes exactly and raises
with the offending op name.
"""

from __future__ import annotations

import json
import os

import numpy as np

_LOG10_DIV10 = np.log(10.0) / 10.0


class Tensor:
    """A value node in the autodiff graph: data plus gradient accumulator."""

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def backward(self, seed=None):
        """Accumulate gradients of this node w.r.t. every graph ancestor."""
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError("backward: seed gradient shape %s != value shape %s"
                                 % (seed.shape, self.data.shape))
        order = _toposort(self)
        _accum(self, seed)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return "Tensor(shape=%s)" % (self.data.shape,)


def _toposort(root):
    # Iterative post-order DFS; graphs routinely exceed Python's recursion cap.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accum(t, g):
    # Never mutate gradient arrays in place: they may be aliased across nodes.
    t.grad = g if t.grad is None else t.grad + g


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def tensor(data):
    """Wrap data as a leaf node (parameter or constant)."""
    return Tensor(np.array(data, dtype=np.float64))


def const(data):
    arr = np.asarray(data, dtype=np.float64)
    return Tensor(arr)


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a, b, op):
    if a.ndim != b.ndim:
        raise ValueError("%s: rank mismatch %s vs %s" % (op, a.shape, b.shape))
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ValueError("%s: incompatible shapes %s vs %s" % (op, a.shape, b.shape))


# ---------------------------------------------------------------------------
# elementwise binary ops

def add(a, b):
    _check_broadcast(a.data, b.data, "add")
    out = Tensor(a.data + b.data, (a, b))

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    out._backward = back
    return out


def sub(a, b):
    _check_broadcast(a.data, b.data, "sub")
    out = Tensor(a.data - b.data, (a, b))

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    out._backward = back
    return out


def mul(a, b):
    _check_broadcast(a.data, b.data, "mul")
    out = Tensor(a.data * b.data, (a, b))

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    out._backward = back
    return out


def div(a, b):
    _check_broadcast(a.data, b.data, "div")
    out = Tensor(a.data / b.data, (a, b))

    def back(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
    out._backward = back
    return out


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    out = Tensor(a.data * c, (a,))
    out._backward = lambda g: _accum(a, g * c)
    return out


def shift(a, c):
    """Add a python scalar."""
    out = Tensor(a.data + float(c), (a,))
    out._backward = lambda g: _accum(a, g)
    return out


# ---------------------------------------------------------------------------
# matmul and structure ops

def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError("matmul: inner dims %s @ %s" % (a.data.shape, b.data.shape))
    if a.data.ndim > 2 and b.data.ndim == 2:
        # stacked batch times a plain weight matrix: run one flat GEMM
        lead = a.data.shape[:-1]
        n, k = b.data.shape
        a2 = a.data.reshape(-1, n)
        out = Tensor((a2 @ b.data).reshape(lead + (k,)), (a, b))

        def back(g):
            g2 = g.reshape(-1, k)
            _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            _accum(b, a2.T @ g2)
        out._backward = back
        return out
    out = Tensor(np.matmul(a.data, b.data), (a, b))

    def back(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))
    out._backward = back
    return out


def transpose_last(a):
    out = Tensor(np.swapaxes(a.data, -1, -2), (a,))
    out._backward = lambda g: _accum(a, np.swapaxes(g, -1, -2))
    return out


def concat(parts, axis=-1):
    if not parts:
        raise ValueError("concat: empty input list")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])
    out._backward = back
    return out


def narrow(a, axis, start, length):
    """Contiguous slice along one axis."""
    if start < 0 or start + length > a.data.shape[axis]:
        raise ValueError("narrow: [%d, %d) outside axis %d of %s"
                         % (start, start + length, axis, a.data.shape))
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx], (a,))

    def back(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accum(a, buf)
    out._backward = back
    return out


def split(a, axis, sizes):
    """Cut one axis into consecutive parts of the given sizes.

    The parts are views of ``a.data``. Their backwards write into one zeroed
    buffer held by a collector node, which hands it to ``a`` once.
    """
    axis %= a.data.ndim
    if min(sizes, default=0) < 1 or sum(sizes) != a.data.shape[axis]:
        raise ValueError("split: sizes %s do not cover axis %d of %s"
                         % (list(sizes), axis, a.data.shape))
    collector = Tensor(a.data, (a,))
    held = [None]  # the gradient buffer, shared by the parts until handed on

    def collect(_):
        buf, held[0] = held[0], None
        _accum(a, buf)
    collector._backward = collect

    parts = []
    lo = 0
    for n in sizes:
        idx = (slice(None),) * axis + (slice(lo, lo + n),)
        lo += n
        part = Tensor(a.data[idx], (collector,))

        def back(g, idx=idx):
            if held[0] is None:
                held[0] = np.zeros_like(a.data)
            held[0][idx] = g
        part._backward = back
        parts.append(part)
    return parts


def gather_last(a, cols):
    """Select (possibly repeated) columns along the last axis."""
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(a.data[..., cols], (a,))
    repeated = np.unique(cols % a.data.shape[-1]).size < cols.size

    def back(g):
        buf = np.zeros_like(a.data)
        if repeated:
            np.add.at(buf, (Ellipsis, cols), g)
        else:
            buf[..., cols] = g
        _accum(a, buf)
    out._backward = back
    return out


def repeat(a, times, axis):
    """Tile a size-1 axis; the transpose of a sum reduction."""
    if a.data.shape[axis] != 1:
        raise ValueError("repeat: axis %d of %s must have size 1" % (axis, a.data.shape))
    reps = [1] * a.data.ndim
    reps[axis] = times
    out = Tensor(np.tile(a.data, reps), (a,))
    out._backward = lambda g: _accum(a, g.sum(axis=axis, keepdims=True))
    return out


# ---------------------------------------------------------------------------
# reductions

def sum_all(a):
    out = Tensor(np.asarray(a.data.sum()), (a,))
    out._backward = lambda g: _accum(a, np.broadcast_to(g, a.data.shape).copy())
    return out


def mean_all(a):
    n = a.data.size
    out = Tensor(np.asarray(a.data.mean()), (a,))
    out._backward = lambda g: _accum(a, np.broadcast_to(g / n, a.data.shape).copy())
    return out


def sum_axis(a, axis, keepdims=True):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())
    out._backward = back
    return out


def mean_axis(a, axis, keepdims=True):
    n = a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,))

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())
    out._backward = back
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def exp(a):
    y = np.exp(a.data)
    out = Tensor(y, (a,))
    out._backward = lambda g: _accum(a, g * y)
    return out


def sqrt(a):
    y = np.sqrt(a.data)
    out = Tensor(y, (a,))
    out._backward = lambda g: _accum(a, g * 0.5 / y)
    return out


def square(a):
    out = Tensor(a.data * a.data, (a,))
    out._backward = lambda g: _accum(a, g * 2.0 * a.data)
    return out


def sin(a):
    out = Tensor(np.sin(a.data), (a,))
    out._backward = lambda g: _accum(a, g * np.cos(a.data))
    return out


def cos(a):
    out = Tensor(np.cos(a.data), (a,))
    out._backward = lambda g: _accum(a, -g * np.sin(a.data))
    return out


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y, (a,))
    out._backward = lambda g: _accum(a, g * (1.0 - y * y))
    return out


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, (a,))
    out._backward = lambda g: _accum(a, g * y * (1.0 - y))
    return out


def relu(a):
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), (a,))
    out._backward = lambda g: _accum(a, g * mask)
    return out


def db_to_linear(a):
    """10^(x/10), the dB-to-linear power map."""
    y = np.exp(a.data * _LOG10_DIV10)
    out = Tensor(y, (a,))
    out._backward = lambda g: _accum(a, g * y * _LOG10_DIV10)
    return out


# ---------------------------------------------------------------------------
# composite ops

def softmax(a):
    """Row-stable softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, (a,))

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))
    out._backward = back
    return out


def layer_norm(a, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = Tensor(xhat * gamma.data + beta.data, (a, gamma, beta))

    def back(g):
        gg = g * gamma.data
        _accum(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        _accum(beta, _unbroadcast(g, beta.data.shape))
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accum(a, (gg - m1 - xhat * m2) * inv)
    out._backward = back
    return out


def smooth_l1(a, b, beta):
    """Elementwise Huber-style loss: quadratic inside |a-b| < beta, linear outside."""
    if beta <= 0:
        raise ValueError("smooth_l1: beta must be positive")
    _check_broadcast(a.data, b.data, "smooth_l1")
    d = a.data - b.data
    absd = np.abs(d)
    quad = absd < beta
    out = Tensor(np.where(quad, 0.5 * d * d / beta, absd - 0.5 * beta), (a, b))

    def back(g):
        dd = np.where(quad, d / beta, np.sign(d))
        _accum(a, _unbroadcast(g * dd, a.data.shape))
        _accum(b, _unbroadcast(-g * dd, b.data.shape))
    out._backward = back
    return out


def lstm_cell(gates, c_prev):
    """Fused LSTM cell update; returns the new (h, c) as two tensors.

    ``gates`` holds the input, forget, cell and output pre-activations side
    by side on its last axis (4 x hidden). One node applies the four gate
    nonlinearities and the state update, with the same arithmetic as the
    sigmoid/tanh/mul/add composition, and a hand-written backward.
    """
    hid = c_prev.data.shape[-1]
    z = gates.data
    if z.shape[-1] != 4 * hid:
        raise ValueError("lstm_cell: gates %s do not hold 4 x hidden %d"
                         % (z.shape, hid))
    i = 1.0 / (1.0 + np.exp(-z[..., :hid]))
    f = 1.0 / (1.0 + np.exp(-z[..., hid:2 * hid]))
    gg = np.tanh(z[..., 2 * hid:3 * hid])
    o = 1.0 / (1.0 + np.exp(-z[..., 3 * hid:]))
    c = f * c_prev.data + i * gg
    tc = np.tanh(c)
    state = Tensor(np.concatenate([o * tc, c], axis=-1), (gates, c_prev))

    def back(g):
        dh = g[..., :hid]
        dc = g[..., hid:] + dh * o * (1.0 - tc * tc)
        dz = np.empty_like(z)
        dz[..., :hid] = dc * gg * i * (1.0 - i)
        dz[..., hid:2 * hid] = dc * c_prev.data * f * (1.0 - f)
        dz[..., 2 * hid:3 * hid] = dc * i * (1.0 - gg * gg)
        dz[..., 3 * hid:] = dh * tc * o * (1.0 - o)
        _accum(gates, dz)
        _accum(c_prev, dc * f)
    state._backward = back
    return split(state, -1, (hid, hid))


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(fn, params, eps=1e-5):
    """Compare analytic gradients of a scalar-valued closure against central
    differences, coordinate by coordinate.

    ``fn`` rebuilds its graph from the current ``.data`` of each tensor in
    ``params`` on every call and returns a scalar Tensor. Returns the max of
    |analytic - numeric| / max(1, |numeric|) over all parameter entries.
    """
    zero_grad(params)
    out = fn()
    if out.data.ndim != 0:
        raise ValueError("grad_check: fn must return a scalar")
    out.backward(np.asarray(1.0))
    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn().data)
            flat[i] = orig - eps
            f_minus = float(fn().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError("grad_check: non-finite probe value at entry %d" % i)
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# checkpoint format: text header with a JSON manifest, then raw float64 bytes
# per tensor in manifest order.

_CKPT_MAGIC = b"ADTENSOR-CKPT v1\n"


def save_checkpoint(path, tensors, meta=None):
    """Write named arrays plus a JSON metadata block.

    ``tensors`` maps name -> Tensor or ndarray; insertion order is preserved
    and recorded in the manifest, so files are stable for identical inputs.
    """
    def as_array(t):
        return np.asarray(t.data if isinstance(t, Tensor) else t,
                          dtype=np.float64)

    entries = [{"name": name, "shape": list(as_array(t).shape)}
               for name, t in tensors.items()]
    header = json.dumps({"meta": meta or {}, "tensors": entries},
                        sort_keys=True, separators=(",", ":"))
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(header.encode("utf-8") + b"\n")
        # one array at a time, straight from its buffer: no copy of the
        # whole checkpoint is ever held
        for t in tensors.values():
            f.write(np.ascontiguousarray(as_array(t)).data)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (ordered dict name -> ndarray, meta dict)."""
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _CKPT_MAGIC:
            raise ValueError("not a checkpoint file: %s" % path)
        header = json.loads(f.readline().decode("utf-8"))
        arrays = {}
        for ent in header["tensors"]:
            shape = tuple(ent["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError("truncated checkpoint: %s" % path)
            arrays[ent["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        if f.read(1):
            raise ValueError("trailing bytes after the last tensor in "
                             "checkpoint: %s" % path)
    return arrays, header["meta"]
