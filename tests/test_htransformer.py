import math

import numpy as np
import pytest

from conftest import tiny_model_config

from ddgen import adtensor as ad
from ddgen import htransformer as ht


def dense_mha_oracle(x, params, prefix, heads, d_model):
    """Ordinary multi-head attention, computed directly with numpy."""
    d_k = d_model // heads
    outs = []
    wqkv = params[prefix + ".wqkv"].data
    for i in range(heads):
        wq, wk, wv = (wqkv[:, j * d_model + i * d_k:j * d_model + (i + 1) * d_k]
                      for j in range(3))
        q, k, v = x @ wq, x @ wk, x @ wv
        logits = q @ k.T / math.sqrt(d_model)
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        attn = e / e.sum(axis=-1, keepdims=True)
        outs.append(attn @ v)
    return np.concatenate(outs, axis=-1) @ params[prefix + ".wo"].data


def make_attention_site(d_model, heads, rank, kv_len, seed=0, identity=False):
    params = {}
    rng = np.random.default_rng(seed)
    ht.attention_params(params, "site", d_model, heads, rank, kv_len, rng)
    if identity:
        params["site.e"] = ad.tensor(np.tile(np.eye(kv_len), (heads, 1, 1)))
        params["site.f"] = ad.tensor(np.tile(np.eye(kv_len), (heads, 1, 1)))
    return params


def test_sdb_encode_example():
    x = ad.const(np.array([[[1.0], [3.0]]]))
    out = ht.sdb_encode(x)
    assert np.allclose(out.data[0], [[1.0, -1.0], [3.0, 1.0]])


def test_sdb_encode_constant_history_zero_deviation():
    x = ad.const(np.full((1, 5, 3), 2.5))
    out = ht.sdb_encode(x)
    assert np.all(out.data[..., 3:] == 0.0)


def test_sdb_encode_deviation_columns_sum_to_zero():
    rng = np.random.default_rng(1)
    x = ad.const(rng.uniform(-3, 3, (2, 7, 4)))
    out = ht.sdb_encode(x)
    assert np.abs(out.data[..., 4:].sum(axis=1)).max() < 1e-9


def test_sdb_decode_placeholder_example():
    # mean 2, variance 1; the third row is the mean/variance placeholder
    x = ad.const(np.array([[[1.0], [3.0]]]))
    out = ht.sdb_decode(x, 3)
    assert np.allclose(out.data[0], [[1.0, -1.0], [3.0, 1.0], [2.0, 1.0]])


def test_sdb_decode_window_equals_lag_has_no_placeholders():
    rng = np.random.default_rng(2)
    x = ad.const(rng.uniform(0, 1, (1, 4, 3)))
    enc = ht.sdb_encode(x)
    dec = ht.sdb_decode(x, 4)
    assert np.array_equal(enc.data, dec.data)


def test_sdb_decode_placeholder_rows_identical():
    rng = np.random.default_rng(3)
    x = ad.const(rng.uniform(0, 1, (1, 3, 5)))
    out = ht.sdb_decode(x, 8)
    tail = out.data[:, 3:]
    assert np.all(tail == tail[:, :1])


def test_sdb_decode_short_window_uses_last_rows():
    rng = np.random.default_rng(4)
    arr = rng.uniform(0, 1, (1, 6, 2))
    out = ht.sdb_decode(ad.const(arr), 2)
    tail = arr[:, 4:]
    mean = tail.mean(axis=1, keepdims=True)
    assert np.allclose(out.data[..., :2], tail)
    assert np.allclose(out.data[..., 2:], tail - mean)


def test_positional_encoding_row_zero():
    pe = ht.positional_encoding(4, 8)[0]
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)


def test_positional_encoding_bounded_and_distinct():
    pe = ht.positional_encoding(10000, 16)[0]
    assert pe.min() >= -1.0 and pe.max() <= 1.0
    assert len(np.unique(pe.round(12), axis=0)) == 10000


def test_positional_encoding_rejects_odd_width():
    with pytest.raises(ValueError):
        ht.positional_encoding(8, 7)


def test_projected_equals_dense_with_identity_projections():
    rng = np.random.default_rng(5)
    d_model, heads, seq = 16, 4, 10
    for trial in range(100):
        params = make_attention_site(d_model, heads, rank=seq, kv_len=seq,
                                     seed=trial, identity=True)
        x = rng.standard_normal((seq, d_model))
        out = ht.projected_mha(ad.const(x[None]), ad.const(x[None]), params,
                               "site")
        want = dense_mha_oracle(x, params, "site", heads, d_model)
        assert np.abs(out.data[0] - want).max() < 1e-10


def test_context_matrix_rows_sum_to_one(attention_weights):
    params = make_attention_site(8, 2, rank=3, kv_len=12, seed=12)
    x = ad.const(np.random.default_rng(8).standard_normal((2, 12, 8)))
    ht.projected_mha(x, x, params, "site")
    assert len(attention_weights) == 1
    for mat in attention_weights:
        assert mat.shape == (2, 2, 12, 3)
        assert np.abs(mat.sum(axis=-1) - 1.0).max() < 1e-12


def test_context_storage_scales_linearly(attention_weights):
    rank, d_model, heads = 4, 8, 2
    counts = {}
    for seq in (16, 32):
        params = make_attention_site(d_model, heads, rank=rank, kv_len=seq,
                                     seed=13)
        x = ad.const(np.random.default_rng(9).standard_normal((1, seq, d_model)))
        attention_weights.clear()
        ht.projected_mha(x, x, params, "site")
        counts[seq] = sum(attn.size for attn in attention_weights)
        assert counts[seq] == heads * seq * rank
    assert counts[32] == 2 * counts[16]


def test_every_attention_weight_is_positive(attention_weights):
    # a softmax of finite logits has no zeros, so an exact zero weight can
    # only come from a mask: no site of the model masks its logits
    cfg = tiny_model_config(dec_layers=2)
    params = ht.init_params(cfg, seed=20)
    hist = np.random.default_rng(20).uniform(0, 1, (2, cfg.lag,
                                                    cfg.feature_dim))
    ht.hybrid_forward(hist, cfg, params)
    assert len(attention_weights) == cfg.enc_layers + 2 * cfg.dec_layers
    for attn in attention_weights:
        assert np.all(np.isfinite(attn)) and attn.min() > 0.0


def test_projection_rank_exceeding_length_rejected():
    params = make_attention_site(8, 2, rank=6, kv_len=6, seed=14)
    x = ad.const(np.zeros((1, 4, 8)))  # shorter than the projection width
    with pytest.raises(ValueError, match="rank"):
        ht.projected_mha(x, x, params, "site")


def test_head_permutation_invariance():
    d_model, heads, seq, d_k = 12, 3, 9, 4
    params = make_attention_site(d_model, heads, rank=5, kv_len=seq, seed=15)
    x = ad.const(np.random.default_rng(10).standard_normal((1, seq, d_model)))
    base = ht.projected_mha(x, x, params, "site").data

    perm = [2, 0, 1]
    # the columns of head i in each of the Q, K and V blocks, then the rows
    # of wo and the E/F slices of that head, all moved to position perm^-1
    cols = [j * d_model + i * d_k + c for j in range(3) for i in perm
            for c in range(d_k)]
    rows = [i * d_k + c for i in perm for c in range(d_k)]
    permuted = dict(params)
    permuted["site.wqkv"] = ad.tensor(params["site.wqkv"].data[:, cols])
    permuted["site.wo"] = ad.tensor(params["site.wo"].data[rows])
    for p in ("e", "f"):
        permuted["site." + p] = ad.tensor(params["site." + p].data[perm])
    out = ht.projected_mha(x, x, permuted, "site").data
    assert np.abs(out - base).max() < 1e-10


def test_bilstm_single_step():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=1)
    x = ad.const(np.random.default_rng(11).uniform(-1, 1, (2, 1, 2 * cfg.feature_dim)))
    out = ht.bilstm_forward(x, params, "lstm", cfg.bilstm_hidden,
                            cfg.bilstm_layers)
    assert out.data.shape == (2, 1, 2 * cfg.bilstm_hidden)


def test_bilstm_zero_weights_zero_output():
    hidden, d_in = 3, 4
    params = {"lstm.0.wx": ad.tensor(np.zeros((d_in, 8 * hidden))),
              "lstm.0.wh": ad.tensor(np.zeros((2, hidden, 4 * hidden))),
              "lstm.0.b": ad.tensor(np.zeros((1, 1, 8 * hidden)))}
    x = ad.const(np.random.default_rng(12).uniform(-1, 1, (1, 5, d_in)))
    out = ht.bilstm_forward(x, params, "lstm", hidden)
    assert np.all(out.data == 0.0)


def test_bilstm_reversal_symmetry():
    # with direction-shared weights, reversing the input swaps and reverses
    # the two output halves
    hidden, d_in, t_len = 3, 4, 6
    rng = np.random.default_rng(13)
    params = {}
    ht._lstm_params(params, "lstm.0", d_in, hidden, rng)
    gates = 4 * hidden
    for k in ("wx", "b"):  # the backward half copies the forward half
        params["lstm.0." + k].data[..., gates:] = params["lstm.0." + k].data[
            ..., :gates]
    params["lstm.0.wh"].data[1] = params["lstm.0.wh"].data[0]
    x = rng.uniform(-1, 1, (1, t_len, d_in))
    out = ht.bilstm_forward(ad.const(x), params, "lstm", hidden).data
    out_rev = ht.bilstm_forward(ad.const(x[:, ::-1].copy()), params, "lstm",
                                hidden).data
    swapped = np.concatenate([out[..., hidden:], out[..., :hidden]], axis=-1)
    assert np.abs(out_rev - swapped[:, ::-1]).max() < 1e-10


def test_hybrid_output_shape():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=2)
    hist = np.random.default_rng(14).uniform(0, 1, (cfg.lag, cfg.feature_dim))
    out = ht.hybrid_forward(hist, cfg, params)
    assert out.data.shape == (1, cfg.window, cfg.feature_dim)
    batched = ht.hybrid_forward(np.stack([hist, hist]), cfg, params)
    assert batched.data.shape == (2, cfg.window, cfg.feature_dim)
    assert np.abs(batched.data[0] - out.data[0]).max() < 1e-12


def test_hybrid_forward_deterministic():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=3)
    hist = np.random.default_rng(15).uniform(0, 1, (cfg.lag, cfg.feature_dim))
    a = ht.hybrid_forward(hist, cfg, params).data
    b = ht.hybrid_forward(hist, cfg, params).data
    assert np.array_equal(a, b)


def test_hybrid_window_longer_than_lag():
    cfg = tiny_model_config(window=9, rank=3)
    params = ht.init_params(cfg, seed=4)
    hist = np.random.default_rng(16).uniform(0, 1, (cfg.lag, cfg.feature_dim))
    out = ht.hybrid_forward(hist, cfg, params)
    assert out.data.shape == (1, 9, cfg.feature_dim)


def test_zeroing_bilstm_branch_recovers_decoder_path():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=5)
    hist = np.random.default_rng(17).uniform(0, 1, (cfg.lag, cfg.feature_dim))
    full = ht.hybrid_forward(hist, cfg, params).data

    ablated = dict(params)
    ablated["lstm.proj.w"] = ad.tensor(np.zeros_like(params["lstm.proj.w"].data))
    ablated["lstm.proj.b"] = ad.tensor(np.zeros_like(params["lstm.proj.b"].data))
    no_branch = ht.hybrid_forward(hist, cfg, ablated).data

    # reproduce the pure decoder path by hand: decoder output -> head
    def linear(t, name):
        return ad.const(t.data @ ablated[name + ".w"].data
                        + ablated[name + ".b"].data)

    x = ad.const(hist[None])
    enc = linear(ht.sdb_encode(x), "enc.proj")
    enc = ad.add(enc, ad.const(ht.positional_encoding(cfg.lag, cfg.d_model)))
    enc = ht._encoder_layer(enc, ablated, "enc.0", cfg, False, None)
    dec = linear(ht.sdb_decode(x, cfg.window), "dec.proj")
    dec = ad.add(dec, ad.const(ht.positional_encoding(cfg.window, cfg.d_model)))
    dec = ht._decoder_layer(dec, enc, ablated, "dec.0", cfg, False, None)
    want = linear(dec, "head").data
    assert np.abs(no_branch - want).max() < 1e-12
    assert np.abs(full - no_branch).max() > 0  # the branch does contribute


def test_one_backward_reaches_every_parameter():
    # every stored tensor is read by the forward: an unread one would keep
    # its None gradient and only take weight decay
    cfg = tiny_model_config(enc_layers=2, dec_layers=2, bilstm_layers=2)
    params = ht.init_params(cfg, seed=10)
    hist = np.random.default_rng(19).uniform(0, 1, (2, cfg.lag,
                                                    cfg.feature_dim))
    ad.mean_all(ad.square(ht.hybrid_forward(hist, cfg, params))).backward()
    assert [name for name, t in params.items() if t.grad is None] == []
    assert all(t.grad.shape == t.data.shape for t in params.values())


def test_hybrid_rejects_wrong_history_shape():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=6)
    with pytest.raises(ValueError, match="history"):
        ht.hybrid_forward(np.zeros((cfg.lag + 1, cfg.feature_dim)), cfg, params)


def test_dropout_only_active_in_training():
    cfg = tiny_model_config(dropout=0.5)
    params = ht.init_params(cfg, seed=7)
    hist = np.random.default_rng(18).uniform(0, 1, (cfg.lag, cfg.feature_dim))
    quiet = ht.hybrid_forward(hist, cfg, params, training=False).data
    again = ht.hybrid_forward(hist, cfg, params, training=False).data
    assert np.array_equal(quiet, again)
    noisy = ht.hybrid_forward(hist, cfg, params, training=True,
                              dropout_rng=np.random.default_rng(1)).data
    assert np.abs(noisy - quiet).max() > 1e-9
    replay = ht.hybrid_forward(hist, cfg, params, training=True,
                               dropout_rng=np.random.default_rng(1)).data
    assert np.array_equal(noisy, replay)


def test_model_config_validation():
    with pytest.raises(ValueError):
        tiny_model_config(d_model=9)  # not divisible by heads
    with pytest.raises(ValueError):
        tiny_model_config(rank=7)  # rank above lag
    with pytest.raises(ValueError):
        tiny_model_config(rank=0)


def test_model_summary_lists_every_tensor():
    cfg = tiny_model_config()
    params = ht.init_params(cfg, seed=8)
    text = ht.model_summary(cfg, params)
    for name in params:
        assert name in text
    assert "total parameters: %d" % ht.param_count(params) in text


def test_init_params_deterministic():
    cfg = tiny_model_config()
    a = ht.init_params(cfg, seed=9)
    b = ht.init_params(cfg, seed=9)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)


@pytest.mark.parametrize("layers", [(1, 1, 1), (2, 1, 3), (1, 3, 2)])
def test_param_names_are_init_params_names(layers):
    enc, dec, lstm = layers
    cfg = tiny_model_config(enc_layers=enc, dec_layers=dec,
                            bilstm_layers=lstm)
    assert ht.param_names(cfg) == list(ht.init_params(cfg, seed=3))
