"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays. ``tensor`` makes a differentiable leaf (a
parameter, or any input whose gradient is wanted); ``const`` makes a
value-only leaf. An op whose inputs include a differentiable tensor builds
a node that records those inputs and a closure computing their gradients
from the node gradient; an op whose inputs are all constants returns a
constant and records nothing. Backward closures compute no gradient for a
constant operand, so a constant's ``.grad`` stays ``None``.
``Tensor.backward`` walks the recorded graph once in reverse topological
order and releases it as it goes: once a node's closure has run, the node
drops its gradient, its closure and its parents, so each saved value is
freed as soon as the backward has read it. A released graph refuses a
second backward with a ``RuntimeError``; run the forward again to
differentiate again. Leaves keep their ``.grad``, and gradients from the
backward calls of separate graphs add up in them until ``zero_grad`` is
invoked.

Gradient arrays are never written in place, because ``_accum`` hands the
same array to several nodes without copying.

Broadcasting is restricted: elementwise binary ops accept operands of equal
rank where any axis of one operand may be 1 (plus plain python scalars via
``scale``/``shift``). Everything else must match shapes exactly and raises
with the offending op name.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

_LOG10_DIV10 = np.log(10.0) / 10.0


class Tensor:
    """A value node in the autodiff graph: data plus gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def backward(self, seed=None):
        """Accumulate gradients of this node w.r.t. every graph ancestor,
        releasing the graph behind it; only the leaves keep gradients."""
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError("backward: seed gradient shape %s != value shape %s"
                                 % (seed.shape, self.data.shape))
        order = _toposort(self)
        _accum(self, seed)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # a released node: None parents mark it as spent
                node.grad = node._backward = node._parents = None

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
        if node._parents is None:
            raise RuntimeError(
                "backward: the graph was released by an earlier backward; "
                "run the forward again to differentiate again")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accum(t, g):
    # Never mutate gradient arrays in place: they may be aliased across nodes.
    t.grad = g if t.grad is None else t.grad + g


def _node(data, inputs, backward):
    """An op's result: a recorded node when some input is differentiable,
    else a constant that keeps neither its inputs nor ``backward``."""
    live = tuple(t for t in inputs if t.requires_grad)
    if not live:
        return Tensor(data)
    return Tensor(data, live, backward, requires_grad=True)


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def tensor(data):
    """Wrap a copy of data as a differentiable leaf: backward fills its
    ``.grad``."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def const(data):
    """Wrap data as a constant: it gets no gradient, and ops whose inputs
    are all constants record nothing."""
    return Tensor(np.asarray(data, dtype=np.float64))


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape.
    ``_check_broadcast`` gives every operand the gradient's rank, so only
    size-1 axes are summed."""
    if grad.shape == shape:
        return grad
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

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))
    return _node(a.data + b.data, (a, b), back)


def sub(a, b):
    _check_broadcast(a.data, b.data, "sub")

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))
    return _node(a.data - b.data, (a, b), back)


def mul(a, b):
    _check_broadcast(a.data, b.data, "mul")

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _node(a.data * b.data, (a, b), back)


def div(a, b):
    _check_broadcast(a.data, b.data, "div")

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data),
                                   b.data.shape))
    return _node(a.data / b.data, (a, b), back)


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    return _node(a.data * c, (a,), lambda g: _accum(a, g * c))


def shift(a, c):
    """Add a python scalar."""
    return _node(a.data + float(c), (a,), lambda g: _accum(a, g))


# ---------------------------------------------------------------------------
# projection and structure ops

def affine(x, w, b):
    """``x @ w + b`` as one node, for a (..., n) input and an (n, k) weight.

    The leading axes of ``x`` are flattened into one GEMM and the bias
    broadcasts as in ``add``.
    """
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError("affine: inner dims %s @ %s"
                         % (x.data.shape, w.data.shape))
    n, k = w.data.shape
    x2 = x.data.reshape(-1, n)
    y = (x2 @ w.data).reshape(x.data.shape[:-1] + (k,))
    _check_broadcast(y, b.data, "affine")
    y += b.data

    def back(g):
        g2 = g.reshape(-1, k)
        if x.requires_grad:
            _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, x2.T @ g2)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))
    return _node(y, (x, w, b), back)


def concat(parts, axis=-1):
    if not parts:
        raise ValueError("concat: empty input list")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(p, g[tuple(idx)])
    return _node(np.concatenate([p.data for p in parts], axis=axis),
                 parts, back)


def narrow(a, axis, start, length):
    """Contiguous slice along one axis."""
    if start < 0 or start + length > a.data.shape[axis]:
        raise ValueError("narrow: [%d, %d) outside axis %d of %s"
                         % (start, start + length, axis, a.data.shape))
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def back(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accum(a, buf)
    return _node(a.data[idx], (a,), back)


def gather_last(a, cols):
    """Select (possibly repeated) columns along the last axis."""
    cols = np.asarray(cols, dtype=np.intp)
    repeated = np.unique(cols % a.data.shape[-1]).size < cols.size

    def back(g):
        buf = np.zeros_like(a.data)
        if repeated:
            np.add.at(buf, (Ellipsis, cols), g)
        else:
            buf[..., cols] = g
        _accum(a, buf)
    return _node(a.data[..., cols], (a,), back)


def repeat(a, times, axis):
    """Tile a size-1 axis; the transpose of a sum reduction."""
    if a.data.shape[axis] != 1:
        raise ValueError("repeat: axis %d of %s must have size 1" % (axis, a.data.shape))
    reps = [1] * a.data.ndim
    reps[axis] = times
    return _node(np.tile(a.data, reps), (a,),
                 lambda g: _accum(a, g.sum(axis=axis, keepdims=True)))


# ---------------------------------------------------------------------------
# reductions

def mean_all(a):
    n = a.data.size
    return _node(np.asarray(a.data.mean()), (a,), lambda g: _accum(
        a, np.broadcast_to(g / n, a.data.shape).copy()))


def sum_axis(a, axis, keepdims=True):
    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def mean_axis(a, axis, keepdims=True):
    n = a.data.shape[axis]

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())
    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def sqrt(a):
    y = np.sqrt(a.data)
    return _node(y, (a,), lambda g: _accum(a, g * 0.5 / y))


def square(a):
    return _node(a.data * a.data, (a,), lambda g: _accum(a, g * 2.0 * a.data))


def sin(a):
    return _node(np.sin(a.data), (a,), lambda g: _accum(a, g * np.cos(a.data)))


def cos(a):
    return _node(np.cos(a.data), (a,), lambda g: _accum(a, -g * np.sin(a.data)))


def relu(a):
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: _accum(a, g * mask))


def db_to_linear(a):
    """10^(x/10), the dB-to-linear power map."""
    y = np.exp(a.data * _LOG10_DIV10)
    return _node(y, (a,), lambda g: _accum(a, g * y * _LOG10_DIV10))


# ---------------------------------------------------------------------------
# composite ops

def add_layer_norm(x, a, gamma, beta, keep=None, p=0.0, eps=1e-5):
    """``layer_norm(x + a * keep / (1 - p))`` as one node: a residual sum
    whose branch ``a`` passes inverted dropout, normalized over the last
    axis, then scaled and shifted.

    ``keep`` is a boolean array of ``a``'s shape, the entries dropout keeps
    at rate ``p``; with ``keep=None`` the sum is plain ``x + a``. ``gamma``
    and ``beta`` hold one entry per position of the last axis. The variance
    is ``np.var``'s sum of squared deviations over n. Values and gradients
    are those of the add/mul/layer-norm composition: ``x`` gets the
    layer-norm input gradient, ``a`` that gradient times ``keep / (1 - p)``.
    """
    n = x.data.shape[-1]
    if a.data.shape != x.data.shape or (keep is not None
                                        and keep.shape != x.data.shape):
        raise ValueError("add_layer_norm: residual %s, branch %s and keep "
                         "mask %s must have one shape"
                         % (x.data.shape, a.data.shape,
                            None if keep is None else keep.shape))
    for t in (gamma, beta):
        if t.data.size != n or t.data.shape[-1] != n:
            raise ValueError("add_layer_norm: gamma/beta %s must hold the %d "
                             "entries of the last axis of %s"
                             % (t.data.shape, n, x.data.shape))
    if keep is None:
        xhat = x.data + a.data
    else:
        xhat = a.data * (keep / (1.0 - p))
        xhat += x.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data

    def back(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0)
                   .reshape(gamma.data.shape))
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, n).sum(axis=0).reshape(beta.data.shape))
        if not (x.requires_grad or a.requires_grad):
            return
        # (gg - mean(gg) - xhat * mean(gg * xhat)) * inv, gg = g * gamma
        gg = g * gamma.data
        m1 = gg.sum(axis=-1, keepdims=True) / n
        t = gg * xhat
        m2 = t.sum(axis=-1, keepdims=True) / n
        np.multiply(xhat, m2, out=t)
        gg -= m1
        gg -= t
        gg *= inv
        if x.requires_grad:
            _accum(x, gg)
        if a.requires_grad:
            _accum(a, gg if keep is None else gg * (keep / (1.0 - p)))
    return _node(y, (x, a, gamma, beta), back)


def projected_attention(x_q, x_kv, wqkv, wo, e, f, logit_scale):
    """Multi-head attention with keys and values compressed along the
    sequence axis, as one node.

    ``x_q`` is (b, Lq, d) and ``x_kv`` is (b, Lkv, d); ``wqkv`` is (d, 3d),
    the query, key and value projections side by side, and ``wo`` is
    (d, d); ``e`` and ``f`` are (h, B, Lkv), one projection per head.
    Head i reads columns i*d_k:(i+1)*d_k of the query, key and value
    projections, with d_k = d / h. Its logits are
    ``q_i @ (E_i k_i)^T * logit_scale``; a softmax over the B slots gives
    its attention weights, which weight ``F_i v_i``. The heads' outputs
    side by side go through ``wo``. Values are those of the per-head
    matmul/softmax composition.

    A self site (``x_kv is x_q``) projects Q, K and V with one GEMM against
    ``wqkv``; a cross site multiplies ``x_q`` by its first d columns and
    ``x_kv`` by the other 2d. All heads run as batched matmuls, and the
    backward is written out. Returns the (b, Lq, d) output tensor and the
    (b, h, Lq, B) attention weights as a plain array.
    """
    b, l_q, d = x_q.data.shape
    l_kv = x_kv.data.shape[1]
    heads, rank = e.data.shape[:2]
    if rank > l_kv:
        raise ValueError("projected_attention: projection rank %d exceeds "
                         "sequence length %d" % (rank, l_kv))
    if (not heads or d % heads or x_kv.data.shape != (b, l_kv, d)
            or wqkv.data.shape != (d, 3 * d) or wo.data.shape != (d, d)
            or e.data.shape != (heads, rank, l_kv)
            or f.data.shape != e.data.shape):
        raise ValueError(
            "projected_attention: inputs %s, %s, weights %s, %s and "
            "projections %s, %s do not fit (b, L, d), (d, 3d), (d, d) and "
            "(h, B, Lkv)" % (x_q.data.shape, x_kv.data.shape, wqkv.data.shape,
                             wo.data.shape, e.data.shape, f.data.shape))
    d_k = d // heads
    self_site = x_kv is x_q
    xq2 = x_q.data.reshape(-1, d)
    if self_site:
        xkv2 = xq2
        w_in = wqkv.data
        qkv = xq2 @ w_in
        q2, kv2 = qkv[:, :d], qkv[:, d:]
    else:
        xkv2 = x_kv.data.reshape(-1, d)
        w_in = wqkv.data[:, d:]
        q2, kv2 = xq2 @ wqkv.data[:, :d], xkv2 @ w_in

    def by_head(m, length):
        # (b*length, d) -> (b, h, length, d_k)
        return m.reshape(b, length, heads, d_k).transpose(0, 2, 1, 3)

    q = by_head(q2, l_q)
    k = by_head(kv2[:, :d], l_kv)
    v = by_head(kv2[:, d:], l_kv)
    k_low = np.matmul(e.data, k)                           # (b, h, B, d_k)
    v_low = np.matmul(f.data, v)
    attn = np.matmul(q, np.swapaxes(k_low, -1, -2))        # (b, h, Lq, B)
    attn *= logit_scale
    # row-stable softmax; the row max slice by slice, which is exact and
    # faster than a reduction over the short last axis
    top = attn[..., 0].copy()
    for j in range(1, rank):
        np.maximum(top, attn[..., j], out=top)
    attn -= top[..., None]
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx2 = np.matmul(attn, v_low).transpose(0, 2, 1, 3).reshape(-1, d)
    out = (ctx2 @ wo.data).reshape(b, l_q, d)

    def back(g):
        g2 = g.reshape(-1, d)
        if wo.requires_grad:
            _accum(wo, ctx2.T @ g2)
        g_ctx = by_head(g2 @ wo.data.T, l_q)
        g_v_low = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        g_s = np.matmul(g_ctx, np.swapaxes(v_low, -1, -2))
        dot = (g_s * attn).sum(axis=-1, keepdims=True)
        g_s -= dot
        g_s *= attn
        g_s *= logit_scale                                 # d loss / d logits
        g_k_low = np.matmul(np.swapaxes(g_s, -1, -2), q)
        # each projection's gradient sums its head over the batch: one GEMM
        # per head over the (b, d_k) pairs
        for p, g_low, kv in ((e, g_k_low, k), (f, g_v_low, v)):
            if p.requires_grad:
                _accum(p, np.matmul(
                    g_low.transpose(1, 2, 0, 3).reshape(heads, rank, -1),
                    kv.transpose(1, 0, 3, 2).reshape(heads, -1, l_kv)))
        # gradients of the projected q, k, v side by side, head-major as in
        # the forward's columns
        n_in = 3 if self_site else 2
        g_in = np.empty((b, l_kv, n_in, heads, d_k))
        g_in[:, :, n_in - 2] = np.matmul(np.swapaxes(e.data, -1, -2),
                                         g_k_low).transpose(0, 2, 1, 3)
        g_in[:, :, n_in - 1] = np.matmul(np.swapaxes(f.data, -1, -2),
                                         g_v_low).transpose(0, 2, 1, 3)
        g_q = np.matmul(g_s, k_low).transpose(0, 2, 1, 3)  # (b, Lq, h, d_k)
        if self_site:
            g_in[:, :, 0] = g_q
        else:
            g_q2 = g_q.reshape(-1, d)
            if x_q.requires_grad:
                _accum(x_q, (g_q2 @ wqkv.data[:, :d].T).reshape(x_q.data.shape))
        g_in2 = g_in.reshape(-1, n_in * d)
        if wqkv.requires_grad:
            g_w = xkv2.T @ g_in2
            if not self_site:
                g_w = np.concatenate([xq2.T @ g_q2, g_w], axis=1)
            _accum(wqkv, g_w)
        if x_kv.requires_grad:
            _accum(x_kv, (g_in2 @ w_in.T).reshape(x_kv.data.shape))

    inputs = (x_q,) if self_site else (x_q, x_kv)
    return _node(out, inputs + (wqkv, wo, e, f), back), attn


def smooth_l1(a, b, beta):
    """Elementwise Huber-style loss: quadratic inside |a-b| < beta, linear outside."""
    if beta <= 0:
        raise ValueError("smooth_l1: beta must be positive")
    _check_broadcast(a.data, b.data, "smooth_l1")
    d = a.data - b.data
    absd = np.abs(d)
    quad = absd < beta

    def back(g):
        dd = np.where(quad, d / beta, np.sign(d))
        if a.requires_grad:
            _accum(a, _unbroadcast(g * dd, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * dd, b.data.shape))
    return _node(np.where(quad, 0.5 * d * d / beta, absd - 0.5 * beta),
                 (a, b), back)


def lstm_bidir(x, wh):
    """Both directions of one bidirectional LSTM layer as one node.

    ``x`` is the layer's input projection x @ wx + b, shaped (b, T, 8H):
    the forward direction's input, forget, cell and output gate
    pre-activations side by side, then the backward direction's. ``wh`` is
    (2, H, 4H), the forward and backward recurrent weights. Step s of the
    recurrence advances the forward direction at time s and the backward
    direction at time T-1-s together, stacked as (2, b, 4H), from zero
    states and with the arithmetic of the per-step
    matmul/add/sigmoid/tanh/mul composition. Returns the (b, T, 2H)
    outputs, forward half first. The backward is BPTT written out; the
    ``wh`` gradient of each direction is one GEMM over all steps.
    """
    b, t_len, width = x.data.shape
    hid = width // 8
    if width != 8 * hid or wh.data.shape != (2, hid, 4 * hid):
        raise ValueError("lstm_bidir: input %s and recurrent weights %s are "
                         "not (b, T, 8H) and (2, H, 4H)"
                         % (x.data.shape, wh.data.shape))
    gates = 4 * hid
    # (direction, step, b, .) layout: the backward direction reads time reversed
    zx = np.stack([x.data[..., :gates].transpose(1, 0, 2),
                   x.data[:, ::-1, gates:].transpose(1, 0, 2)])
    acts = np.empty_like(zx)                 # gate activations i, f, g, o
    hs = np.zeros((2, t_len + 1, b, hid))    # hs[:, s]: state entering step s
    cs = np.zeros((2, t_len + 1, b, hid))
    tcs = np.empty((2, t_len, b, hid))       # tanh of the new cell state
    for s in range(t_len):
        z = zx[:, s] + np.matmul(hs[:, s], wh.data)
        a = acts[:, s]
        np.divide(1.0, 1.0 + np.exp(-z), out=a)
        a[..., 2 * hid:3 * hid] = np.tanh(z[..., 2 * hid:3 * hid])
        i, f, gg, o = (a[..., k * hid:(k + 1) * hid] for k in range(4))
        c = f * cs[:, s] + i * gg
        cs[:, s + 1] = c
        tcs[:, s] = np.tanh(c)
        hs[:, s + 1] = o * tcs[:, s]
    # C-contiguous, so a consumer's reshape(-1, 2H) is a view, not a copy
    out = np.empty((b, t_len, 2 * hid))
    out[..., :hid] = hs[0, 1:].transpose(1, 0, 2)
    out[..., hid:] = hs[1, :0:-1].transpose(1, 0, 2)

    def back(g):
        gh = np.stack([g[..., :hid].transpose(1, 0, 2),
                       g[:, ::-1, hid:].transpose(1, 0, 2)])
        wh_t = wh.data.transpose(0, 2, 1)
        dz = np.empty((2, t_len, b, gates))
        dh_next = np.zeros((2, b, hid))
        dc_next = np.zeros((2, b, hid))
        for s in range(t_len - 1, -1, -1):
            i, f, gg, o = (acts[:, s, :, k * hid:(k + 1) * hid]
                           for k in range(4))
            tc = tcs[:, s]
            dh = gh[:, s] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            d = dz[:, s]
            d[..., :hid] = dc * gg * i * (1.0 - i)
            d[..., hid:2 * hid] = dc * cs[:, s] * f * (1.0 - f)
            d[..., 2 * hid:3 * hid] = dc * i * (1.0 - gg * gg)
            d[..., 3 * hid:] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            if s:
                dh_next = np.matmul(d, wh_t)
        if x.requires_grad:
            gx = np.empty(x.data.shape)
            gx[..., :gates] = dz[0].transpose(1, 0, 2)
            gx[..., gates:] = dz[1, ::-1].transpose(1, 0, 2)
            _accum(x, gx)
        if wh.requires_grad:
            # every step's h_prev^T @ dz of a direction in one GEMM
            _accum(wh, np.matmul(
                hs[:, :t_len].reshape(2, -1, hid).transpose(0, 2, 1),
                dz.reshape(2, -1, gates)))
    return _node(out, (x, wh), back)


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


def load_checkpoint(path, skip=()):
    """Read a checkpoint; returns (ordered dict name -> ndarray, meta dict).

    Tensors whose names start with a prefix in ``skip`` are seeked past, not
    read; every other tensor is read straight into its own array. A file
    shorter or longer than its header declares raises ValueError, whatever
    is skipped.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _CKPT_MAGIC:
            raise ValueError("not a checkpoint file: %s" % path)
        header = json.loads(f.readline().decode("utf-8"))
        entries = [(ent["name"], tuple(ent["shape"]))
                   for ent in header["tensors"]]
        size = f.tell() + sum(8 * math.prod(shape) for _, shape in entries)
        actual = os.fstat(f.fileno()).st_size
        if actual < size:
            raise ValueError("truncated checkpoint: %s" % path)
        if actual > size:
            raise ValueError("trailing bytes after the last tensor in "
                             "checkpoint: %s" % path)
        arrays = {}
        for name, shape in entries:
            if name.startswith(skip):
                f.seek(8 * math.prod(shape), os.SEEK_CUR)
                continue
            arrays[name] = np.empty(shape, dtype=np.float64)
            f.readinto(arrays[name])
    return arrays, header["meta"]
