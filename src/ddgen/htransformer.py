"""Hybrid sequence generator: Transformer encoder/decoder with low-rank
projected attention, aggregated with a BiLSTM branch.

The encoder sees the L-step history after a series decomposition that
appends each step's deviation from the window mean. The decoder input is
the same decomposition, padded with mean/variance placeholder rows when the
generation window P exceeds L (or restricted to the last P steps when
P < L). Attention compresses keys and values to rank B along the sequence
axis with learned projections, so the context matrix holds L x B entries
per head instead of L x L. The decoder output is summed with a projected
BiLSTM pass over the decoder input, and a final affine head emits the
P-step feature sequence in one shot.

Every attention site, the decoder's self-attention included, is unmasked.
Both the encoder and the decoder read only the history, and all P steps
come out of one pass, so no output can see a target step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .adtensor import (Tensor, add, add_layer_norm, affine, concat, const,
                       lstm_bidir, mean_axis, narrow, projected_attention,
                       relu, repeat, square, sub, tensor)


@dataclass
class ModelConfig:
    """The model's shape. Its defaults live in ``config.RunConfig``, which
    builds it."""

    feature_dim: int
    lag: int
    window: int
    d_model: int
    heads: int
    enc_layers: int
    dec_layers: int
    ffn_dim: int
    rank: int
    bilstm_hidden: int
    bilstm_layers: int
    dropout: float

    def validate(self):
        for key in ("feature_dim", "lag", "window", "d_model", "heads",
                    "ffn_dim", "bilstm_hidden"):
            if getattr(self, key) < 1:
                raise ValueError("%s must be >= 1" % key)
        if self.d_model % self.heads != 0:
            raise ValueError("d_model (%d) must be divisible by heads (%d)"
                             % (self.d_model, self.heads))
        if self.d_model % 2 != 0:
            raise ValueError("d_model (%d) must be even for the positional "
                             "encoding" % self.d_model)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not (1 <= self.rank <= self.lag):
            raise ValueError("rank must satisfy 1 <= B <= lag")
        if min(self.enc_layers, self.dec_layers, self.bilstm_layers) < 1:
            raise ValueError("stacks need at least one layer")
        return self

    def to_dict(self):
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: d[k] for k in cls.__dataclass_fields__}).validate()


# ---------------------------------------------------------------------------
# parameter construction

def attention_params(params, prefix, d_model, heads, rank, kv_len, rng):
    """Append the learned matrices of one projected attention site: the
    (d, 3d) Q|K|V projection, the (d, d) output projection, and the
    (heads, B, Lkv) E and F stacks."""
    lim = 1.0 / math.sqrt(d_model)
    w = rng.uniform(-lim, lim, (4, d_model, d_model))
    params[prefix + ".wqkv"] = tensor(np.concatenate(w[:3], axis=1))
    params[prefix + ".wo"] = tensor(w[3])
    r = min(rank, kv_len)
    lim_p = 1.0 / math.sqrt(kv_len)
    ef = rng.uniform(-lim_p, lim_p, (heads, 2, r, kv_len))
    params[prefix + ".e"] = tensor(ef[:, 0])
    params[prefix + ".f"] = tensor(ef[:, 1])


def _affine(params, name, fan_in, fan_out, rng):
    lim = 1.0 / math.sqrt(fan_in)
    params[name + ".w"] = tensor(rng.uniform(-lim, lim, (fan_in, fan_out)))
    params[name + ".b"] = tensor(np.zeros((1, 1, fan_out)))


def _layernorm_params(params, name, d_model):
    params[name + ".g"] = tensor(np.ones((1, 1, d_model)))
    params[name + ".b"] = tensor(np.zeros((1, 1, d_model)))


def _ffn_params(params, prefix, d_model, ffn_dim, rng):
    _affine(params, prefix + ".ffn1", d_model, ffn_dim, rng)
    _affine(params, prefix + ".ffn2", ffn_dim, d_model, rng)


def _lstm_params(params, prefix, d_in, hidden, rng):
    """Append one bidirectional layer: the (d_in, 8H) input weights and the
    (1, 1, 8H) bias, forward direction first, and the (2, H, 4H) recurrent
    weights."""
    lim_x = 1.0 / math.sqrt(d_in)
    lim_h = 1.0 / math.sqrt(hidden)
    wx, wh = [], []
    for _ in range(2):
        wx.append(rng.uniform(-lim_x, lim_x, (d_in, 4 * hidden)))
        wh.append(rng.uniform(-lim_h, lim_h, (hidden, 4 * hidden)))
    params[prefix + ".wx"] = tensor(np.concatenate(wx, axis=1))
    params[prefix + ".wh"] = tensor(np.stack(wh))
    bias = np.zeros((1, 1, 2, 4 * hidden))
    bias[..., hidden:2 * hidden] = 1.0  # forget gates open at init
    params[prefix + ".b"] = tensor(bias.reshape(1, 1, 8 * hidden))


def init_params(cfg, seed=0):
    """All learned tensors, keyed by a stable dotted name."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    params = {}
    f2 = 2 * cfg.feature_dim
    _affine(params, "enc.proj", f2, cfg.d_model, rng)
    for i in range(cfg.enc_layers):
        attention_params(params, "enc.%d.attn" % i, cfg.d_model, cfg.heads,
                         cfg.rank, cfg.lag, rng)
        _layernorm_params(params, "enc.%d.ln1" % i, cfg.d_model)
        _ffn_params(params, "enc.%d" % i, cfg.d_model, cfg.ffn_dim, rng)
        _layernorm_params(params, "enc.%d.ln2" % i, cfg.d_model)
    _affine(params, "dec.proj", f2, cfg.d_model, rng)
    dec_len = cfg.window
    for i in range(cfg.dec_layers):
        attention_params(params, "dec.%d.self" % i, cfg.d_model, cfg.heads,
                         cfg.rank, dec_len, rng)
        _layernorm_params(params, "dec.%d.ln1" % i, cfg.d_model)
        attention_params(params, "dec.%d.cross" % i, cfg.d_model, cfg.heads,
                         cfg.rank, cfg.lag, rng)
        _layernorm_params(params, "dec.%d.ln2" % i, cfg.d_model)
        _ffn_params(params, "dec.%d" % i, cfg.d_model, cfg.ffn_dim, rng)
        _layernorm_params(params, "dec.%d.ln3" % i, cfg.d_model)
    d_in = f2
    for i in range(cfg.bilstm_layers):
        _lstm_params(params, "lstm.%d" % i, d_in, cfg.bilstm_hidden, rng)
        d_in = 2 * cfg.bilstm_hidden
    _affine(params, "lstm.proj", 2 * cfg.bilstm_hidden, cfg.d_model, rng)
    _affine(params, "head", cfg.d_model, cfg.feature_dim, rng)
    return params


def param_names(cfg):
    """The tensor names ``init_params`` gives ``cfg``'s model, in its order.
    They depend only on the three layer counts, so they are read off a
    model of the least valid widths, which costs next to nothing to draw."""
    return list(init_params(replace(
        cfg, feature_dim=1, lag=1, window=1, d_model=2, heads=1, ffn_dim=1,
        rank=1, bilstm_hidden=1)))


def param_count(params):
    return sum(t.data.size for t in params.values())


def model_summary(cfg, params):
    lines = ["hybrid transformer: d_model=%d heads=%d rank=%d lag=%d window=%d"
             % (cfg.d_model, cfg.heads, cfg.rank, cfg.lag, cfg.window)]
    for name, t in params.items():
        lines.append("  %-22s %-14s %7d" % (name, "x".join(map(str, t.shape)),
                                            t.data.size))
    lines.append("total parameters: %d" % param_count(params))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# building blocks

def sdb_encode(x):
    """Append each row's deviation from the sequence mean: (b,L,F) -> (b,L,2F)."""
    mean = mean_axis(x, 1, keepdims=True)
    return concat([x, sub(x, mean)], axis=-1)


def sdb_decode(x, window):
    """Decoder-side decomposition of the L-step history for a P-step window.

    P >= L: every history row with its deviation, then P-L identical
    placeholder rows carrying the history mean and elementwise variance.
    P < L: the last P rows decomposed against their own mean.
    """
    lag = x.data.shape[1]
    if window < lag:
        tail = narrow(x, 1, lag - window, window)
        mean = mean_axis(tail, 1, keepdims=True)
        return concat([tail, sub(tail, mean)], axis=-1)
    mean = mean_axis(x, 1, keepdims=True)
    dev = sub(x, mean)
    rows = concat([x, dev], axis=-1)
    if window == lag:
        return rows
    var = mean_axis(square(dev), 1, keepdims=True)
    placeholder = concat([mean, var], axis=-1)
    return concat([rows, repeat(placeholder, window - lag, axis=1)], axis=1)


def positional_encoding(length, d_model):
    """Sinusoidal position table, shaped (1, length, d_model) for adding."""
    if d_model % 2 != 0:
        raise ValueError("positional encoding needs an even width")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    freq = 1.0 / np.power(10000.0, idx / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq)
    return pe[None, :, :]


def projected_mha(x_q, x_kv, params, prefix):
    """Multi-head attention with rank-B compressed keys and values.

    Keys/values are projected along the sequence axis by the learned E/F
    stacks of this site, so each head's context matrix is (Lq x B). Every
    compressed slot mixes all key positions, so the site has no mask: a
    mask on slot indices would not hide later positions. The site is one
    ``projected_attention`` node; its head count is the leading axis of E,
    and the logits are scaled by 1/sqrt(d_model).
    """
    out, _ = projected_attention(
        x_q, x_kv, params[prefix + ".wqkv"], params[prefix + ".wo"],
        params[prefix + ".e"], params[prefix + ".f"],
        1.0 / math.sqrt(x_q.data.shape[-1]))
    return out


def _residual(x, a, params, name, cfg, training, rng):
    """The layer norm ``name`` of ``x`` plus the sublayer output ``a``,
    which passes inverted dropout while training."""
    keep = None
    if training and cfg.dropout > 0.0 and rng is not None:
        keep = rng.random(a.data.shape) >= cfg.dropout
    return add_layer_norm(x, a, params[name + ".g"], params[name + ".b"],
                          keep, cfg.dropout)


def _linear(x, params, name):
    return affine(x, params[name + ".w"], params[name + ".b"])


def _ffn(x, params, prefix):
    return _linear(relu(_linear(x, params, prefix + ".ffn1")), params,
                   prefix + ".ffn2")


def _encoder_layer(x, params, prefix, cfg, training, rng):
    a = projected_mha(x, x, params, prefix + ".attn")
    x = _residual(x, a, params, prefix + ".ln1", cfg, training, rng)
    f = _ffn(x, params, prefix)
    return _residual(x, f, params, prefix + ".ln2", cfg, training, rng)


def _decoder_layer(x, memory, params, prefix, cfg, training, rng):
    a = projected_mha(x, x, params, prefix + ".self")
    x = _residual(x, a, params, prefix + ".ln1", cfg, training, rng)
    c = projected_mha(x, memory, params, prefix + ".cross")
    x = _residual(x, c, params, prefix + ".ln2", cfg, training, rng)
    f = _ffn(x, params, prefix)
    return _residual(x, f, params, prefix + ".ln3", cfg, training, rng)


def bilstm_forward(x, params, prefix, hidden, layers=1):
    """Stacked bidirectional LSTM: (b,T,d_in) -> (b,T,2*hidden).

    Each layer is one input projection for both directions and one
    ``lstm_bidir`` node.
    """
    out = x
    for i in range(layers):
        name = "%s.%d" % (prefix, i)
        if params[name + ".wh"].data.shape[1] != hidden:
            raise ValueError("%s.wh does not have %d hidden units"
                             % (name, hidden))
        out = lstm_bidir(affine(out, params[name + ".wx"], params[name + ".b"]),
                         params[name + ".wh"])
    return out


def _as_batch(history):
    if isinstance(history, Tensor):
        if history.data.ndim != 3:
            raise ValueError("history tensor must be (batch, lag, features)")
        return history
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    return const(arr)


def hybrid_forward(history, cfg, params, training=False, dropout_rng=None):
    """Generate the P-step feature sequence from an L-step scaled history.

    Returns a (batch, P, feature_dim) tensor; 2-D input is treated as a
    single-example batch. The decoder input is built from the history
    only, never from the targets.
    """
    x = _as_batch(history)
    if x.data.shape[1] != cfg.lag or x.data.shape[2] != cfg.feature_dim:
        raise ValueError("history shape %s does not match lag=%d feature_dim=%d"
                         % (x.data.shape, cfg.lag, cfg.feature_dim))
    enc_in = sdb_encode(x)
    enc = _linear(enc_in, params, "enc.proj")
    enc = add(enc, const(positional_encoding(cfg.lag, cfg.d_model)))
    for i in range(cfg.enc_layers):
        enc = _encoder_layer(enc, params, "enc.%d" % i, cfg, training,
                             dropout_rng)
    dec_in = sdb_decode(x, cfg.window)
    dec = _linear(dec_in, params, "dec.proj")
    dec = add(dec, const(positional_encoding(cfg.window, cfg.d_model)))
    for i in range(cfg.dec_layers):
        dec = _decoder_layer(dec, enc, params, "dec.%d" % i, cfg, training,
                             dropout_rng)
    lstm = bilstm_forward(dec_in, params, "lstm", cfg.bilstm_hidden,
                          cfg.bilstm_layers)
    agg = add(dec, _linear(lstm, params, "lstm.proj"))
    return _linear(agg, params, "head")
