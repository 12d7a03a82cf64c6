import ast
import inspect
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgen import adtensor as ad
from ddgen import htransformer as ht


def rnd(shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def test_identity_passthrough():
    x = ad.tensor(rnd((3, 4)))
    y = ad.add(x, ad.const(np.zeros((3, 4))))
    assert np.array_equal(y.data, x.data)


def test_backward_identity_seed():
    x = ad.tensor(np.array([3.0]))
    y = ad.add(x, ad.const(np.array([0.0])))
    y.backward(np.array([1.0]))
    assert np.array_equal(x.grad, np.array([1.0]))


def test_backward_sum_of_squares():
    x = ad.tensor(np.array([1.0, 2.0]))
    ad.sum_all(ad.mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_accumulates_without_reset():
    x = ad.tensor(np.array([1.0, 2.0]))
    ad.sum_all(ad.mul(x, x)).backward()
    ad.sum_all(ad.mul(x, x)).backward()
    assert np.allclose(x.grad, [4.0, 8.0])
    ad.zero_grad([x])
    assert x.grad is None


def test_gradient_linearity_over_partition():
    # the gradient of a partitioned sum equals the gradient of the full sum
    x1 = ad.tensor(rnd((6, 4), seed=4))
    x2 = ad.tensor(x1.data.copy())
    ad.sum_all(ad.mul(x1, x1)).backward()
    top = ad.sum_all(ad.mul(ad.narrow(x2, 0, 0, 3), ad.narrow(x2, 0, 0, 3)))
    bot = ad.sum_all(ad.mul(ad.narrow(x2, 0, 3, 3), ad.narrow(x2, 0, 3, 3)))
    ad.add(top, bot).backward()
    assert np.abs(x1.grad - x2.grad).max() < 1e-12


def test_concat_backward_splits_exactly():
    a = ad.tensor(rnd((2, 3), seed=5))
    b = ad.tensor(rnd((2, 2), seed=6))
    out = ad.concat([a, b], axis=-1)
    seed = rnd((2, 5), seed=7)
    out.backward(seed)
    assert np.array_equal(a.grad, seed[:, :3])
    assert np.array_equal(b.grad, seed[:, 3:])


def test_shape_mismatch_reports_op_name():
    with pytest.raises(ValueError, match="affine"):
        ad.affine(ad.tensor(rnd((2, 3))), ad.tensor(rnd((4, 2))),
                  ad.tensor(rnd((1, 2))))
    with pytest.raises(ValueError, match="add"):
        ad.add(ad.tensor(rnd((2, 3))), ad.tensor(rnd((2, 4))))


def test_sqrt_and_div_gradients():
    x = ad.tensor(rnd((4, 3), seed=9, lo=0.5, hi=3.0))
    y = ad.tensor(rnd((4, 3), seed=10, lo=0.5, hi=3.0))
    err = ad.grad_check(lambda: ad.sum_all(ad.div(ad.sqrt(x), y)), [x, y])
    assert err < 1e-8


def test_db_to_linear_matches_power_law():
    g = rnd((3, 5), seed=11, lo=-120, hi=-60)
    t = ad.tensor(g)
    assert np.allclose(ad.db_to_linear(t).data, 10.0 ** (g / 10.0), rtol=1e-14)
    err = ad.grad_check(lambda: ad.sum_all(ad.scale(ad.db_to_linear(t), 1e8)), [t])
    assert err < 1e-6


def test_broadcast_gradients():
    x = ad.tensor(rnd((2, 4, 5), seed=12))
    v = ad.tensor(rnd((2, 4, 1), seed=13, lo=0.5, hi=2.0))
    r = ad.tensor(rnd((1, 1, 5), seed=14))
    err = ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.add(ad.mul(x, v), r))), [x, v, r])
    assert err < 1e-8


def test_reduction_gradients():
    x = ad.tensor(rnd((3, 4, 5), seed=15))
    err = ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.mean_axis(x, 1, keepdims=True))), [x])
    assert err < 1e-8
    err = ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.sum_axis(x, -1, keepdims=False))), [x])
    assert err < 1e-8


def test_structure_op_gradients():
    x = ad.tensor(rnd((2, 5, 6), seed=16))

    def f():
        a = ad.narrow(x, 1, 1, 3)
        b = ad.gather_last(x, [0, 2, 2, 5])
        c = ad.repeat(ad.mean_axis(x, 1, keepdims=True), 4, axis=1)
        d = ad.gather_last(x, [5, 1, 3])  # unique columns
        return ad.sum_all(ad.square(ad.concat(
            [a, ad.narrow(b, 1, 0, 3), ad.narrow(c, 1, 0, 3),
             ad.narrow(d, 1, 2, 3)], axis=-1)))

    assert ad.grad_check(f, [x]) < 1e-8


def _weighted_sum(parts, seed):
    terms = [ad.sum_all(ad.mul(p, ad.const(rnd(p.shape, seed=seed + k))))
             for k, p in enumerate(parts)]
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


# Reference ops for the compositions the fused ops are checked against. No
# command runs them, so they live here, on the tape's own node constructor.

def _unbroadcast(grad, shape):
    """``ad._unbroadcast`` that also sums the leading axes an operand of
    lower rank lacks: the tape's ops require equal ranks, these references
    do not."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    return ad._unbroadcast(grad, shape)


def _matmul(a, b):
    if a.data.ndim > 2 and b.data.ndim == 2:
        # stacked batch times a plain weight matrix: one flat GEMM
        n, k = b.data.shape
        a2 = a.data.reshape(-1, n)

        def back(g):
            g2 = g.reshape(-1, k)
            if a.requires_grad:
                ad._accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                ad._accum(b, a2.T @ g2)
        return ad._node((a2 @ b.data).reshape(a.data.shape[:-1] + (k,)),
                        (a, b), back)

    def back(g):
        if a.requires_grad:
            ad._accum(a, _unbroadcast(
                np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            ad._accum(b, _unbroadcast(
                np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))
    return ad._node(np.matmul(a.data, b.data), (a, b), back)


def _tanh(a):
    y = np.tanh(a.data)
    return ad._node(y, (a,), lambda g: ad._accum(a, g * (1.0 - y * y)))


def _sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    return ad._node(y, (a,), lambda g: ad._accum(a, g * y * (1.0 - y)))


def _lstm_inputs(b, t_len, hid, seed):
    return (ad.tensor(rnd((b, t_len, 4 * hid), seed=seed)),
            ad.tensor(rnd((b, t_len, 4 * hid), seed=seed + 1)),
            ad.tensor(rnd((hid, 4 * hid), seed=seed + 2, lo=-1, hi=1)),
            ad.tensor(rnd((hid, 4 * hid), seed=seed + 3, lo=-1, hi=1)))


def _lstm_composition(x_fw, x_bw, wh_fw, wh_bw):
    """The per-step matmul/add/sigmoid/tanh/mul graph that lstm_bidir fuses."""
    b, t_len, _ = x_fw.shape
    hid = wh_fw.shape[0]
    halves = []
    for x, wh, order in ((x_fw, wh_fw, range(t_len)),
                         (x_bw, wh_bw, range(t_len - 1, -1, -1))):
        h = c = ad.const(np.zeros((b, 1, hid)))
        outs = {}
        for t in order:
            z = ad.add(ad.narrow(x, 1, t, 1), _matmul(h, wh))
            i, f, g, o = (ad.narrow(z, 2, k * hid, hid) for k in range(4))
            c = ad.add(ad.mul(_sigmoid(f), c), ad.mul(_sigmoid(i), _tanh(g)))
            h = ad.mul(_sigmoid(o), _tanh(c))
            outs[t] = h
        halves.append(ad.concat([outs[t] for t in range(t_len)], axis=1))
    return ad.concat(halves, axis=-1)


@pytest.mark.parametrize("t_len", [1, 4])
def test_lstm_bidir_gradients(t_len):
    inputs = _lstm_inputs(2, t_len, 3, seed=34)
    err = ad.grad_check(
        lambda: _weighted_sum([ad.lstm_bidir(*inputs)], seed=38), inputs)
    assert err < 1e-8


def test_lstm_bidir_gradients_through_two_layers():
    rng = np.random.default_rng(39)
    params = {}
    for i, d_in in enumerate((3, 4)):
        for d in ("fw", "bw"):
            ht._lstm_params(params, "l.%d.%s" % (i, d), d_in, 2, rng)
    x = ad.tensor(rnd((2, 3, 3), seed=40))
    err = ad.grad_check(
        lambda: _weighted_sum([ht.bilstm_forward(x, params, "l", 2, 2)],
                              seed=41),
        [x] + list(params.values()))
    assert err < 1e-8


def test_lstm_bidir_matches_composition():
    fused_in = _lstm_inputs(3, 5, 4, seed=42)
    ref_in = [ad.tensor(t.data.copy()) for t in fused_in]
    fused = ad.lstm_bidir(*fused_in)
    ref = _lstm_composition(*ref_in)
    assert np.array_equal(fused.data, ref.data)
    seed = rnd(fused.shape, seed=46)
    fused.backward(seed)
    ref.backward(seed)
    for got, want in zip(fused_in, ref_in):
        assert np.abs(got.grad - want.grad).max() < 1e-12
    with pytest.raises(ValueError, match="lstm_bidir"):
        ad.lstm_bidir(fused_in[0], fused_in[1], fused_in[2],
                      ad.tensor(rnd((3, 16))))


def test_affine_matches_matmul_add():
    for x_shape in ((2, 3, 4), (5, 4)):
        x1 = ad.tensor(rnd(x_shape, seed=47))
        w1 = ad.tensor(rnd((4, 6), seed=48))
        b1 = ad.tensor(rnd((1,) * (len(x_shape) - 1) + (6,), seed=49))
        x2, w2, b2 = (ad.tensor(t.data.copy()) for t in (x1, w1, b1))
        fused = ad.affine(x1, w1, b1)
        ref = ad.add(_matmul(x2, w2), b2)
        assert np.array_equal(fused.data, ref.data)
        seed = rnd(fused.shape, seed=50)
        fused.backward(seed)
        ref.backward(seed)
        for got, want in ((x1, x2), (w1, w2), (b1, b2)):
            assert np.array_equal(got.grad, want.grad)
    with pytest.raises(ValueError, match="affine"):
        ad.affine(x1, ad.tensor(rnd((5, 6))), b1)


def test_layer_norm_gradient():
    x = ad.tensor(rnd((2, 3, 8), seed=17))
    g = ad.tensor(np.ones((1, 1, 8)))
    b = ad.tensor(np.zeros((1, 1, 8)))
    err = ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.layer_norm(x, g, b))), [x, g, b])
    assert err < 1e-6


def _layer_norm_reference(a, gamma, beta, eps=1e-5):
    """``layer_norm`` as first written: ``np.var``, full-size temporaries,
    and gamma/beta gradients reduced by ``_unbroadcast``."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv

    def back(g):
        ad._accum(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        ad._accum(beta, _unbroadcast(g, beta.data.shape))
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        ad._accum(a, (gg - m1 - xhat * m2) * inv)
    return ad._node(xhat * gamma.data + beta.data, (a, gamma, beta), back)


@pytest.mark.parametrize("shape,affine_shape", [
    ((64, 20, 32), (1, 1, 32)), ((3, 5, 7), (1, 1, 7)), ((4, 6), (6,)),
    ((2, 3, 1), (1, 1, 1)),
])
def test_layer_norm_matches_previous_formula(shape, affine_shape):
    fused_in = (_t(shape, 71, -3, 3), _t(affine_shape, 72, 0.5, 2.0),
                _t(affine_shape, 73))
    ref_in = [ad.tensor(t.data.copy()) for t in fused_in]
    fused = ad.layer_norm(*fused_in)
    ref = _layer_norm_reference(*ref_in)
    assert np.array_equal(fused.data, ref.data)
    seed = rnd(shape, seed=74)
    fused.backward(seed)
    ref.backward(seed)
    for got, want in zip(fused_in, ref_in):
        assert np.array_equal(got.grad, want.grad)
    with pytest.raises(ValueError, match="layer_norm"):
        ad.layer_norm(fused_in[0], _t((1, 1, 2), 75), fused_in[2])


# ---------------------------------------------------------------------------
# projected attention against the per-head composition it fuses

def _transpose_last(a):
    return ad._node(np.swapaxes(a.data, -1, -2), (a,),
                    lambda g: ad._accum(a, np.swapaxes(g, -1, -2)))


def _softmax(a):
    """Row-stable softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        ad._accum(a, y * (g - dot))
    return ad._node(y, (a,), back)


def _attention_composition(x_q, x_kv, wq, wk, wv, wo, es, fs, logit_scale,
                           mask=None):
    """The per-head graph ``projected_attention`` fuses: three projections,
    then per head the E/F compressions, scaled logits, mask, softmax and
    weighted values, and the heads side by side through ``wo``."""
    d_k = wq.shape[1] // len(es)
    q_all, k_all, v_all = (_matmul(x_q, wq), _matmul(x_kv, wk),
                           _matmul(x_kv, wv))
    outs = []
    for i, (e, f) in enumerate(zip(es, fs)):
        q, k, v = (ad.narrow(t, 2, i * d_k, d_k) for t in (q_all, k_all, v_all))
        logits = ad.scale(_matmul(q, _transpose_last(_matmul(e, k))),
                          logit_scale)
        if mask is not None:
            logits = ad.add(logits, ad.const(mask[None]))
        outs.append(_matmul(_softmax(logits), _matmul(f, v)))
    return _matmul(ad.concat(outs, axis=-1), wo)


def _attention_inputs(b, l_q, l_kv, d_k, heads, rank, seed, cross,
                      make=ad.tensor):
    """(x_q, x_kv, [wq, wk, wv, wo], es, fs); x_kv is x_q unless cross."""
    rng = np.random.default_rng(seed)
    d = heads * d_k
    x_q = make(rng.standard_normal((b, l_q, d)))
    x_kv = make(rng.standard_normal((b, l_kv, d))) if cross else x_q
    ws = [make(rng.uniform(-1, 1, (d, d))) for _ in range(4)]
    es = [make(rng.uniform(-1, 1, (rank, l_kv))) for _ in range(heads)]
    fs = [make(rng.uniform(-1, 1, (rank, l_kv))) for _ in range(heads)]
    return x_q, x_kv, ws, es, fs


def _copied(x_q, x_kv, ws, es, fs):
    x_q2 = ad.tensor(x_q.data.copy())
    x_kv2 = x_q2 if x_kv is x_q else ad.tensor(x_kv.data.copy())
    return (x_q2, x_kv2, *([ad.tensor(t.data.copy()) for t in ts]
                           for ts in (ws, es, fs)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["self", "cross", "causal"]), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.data())
def test_projected_attention_matches_composition(site, heads, d_k, b, l_kv,
                                                 data):
    rank = data.draw(st.integers(1, l_kv), label="rank")
    l_q = (data.draw(st.integers(1, 6).filter(lambda n: n != l_kv),
                     label="l_q") if site == "cross" else l_kv)
    fused_in = _attention_inputs(b, l_q, l_kv, d_k, heads, rank,
                                 data.draw(st.integers(0, 2**16)),
                                 cross=site == "cross")
    ref_in = _copied(*fused_in)
    mask = ht._causal_mask(l_q, rank) if site == "causal" else None
    logit_scale = 1.0 / np.sqrt(heads * d_k)
    x_q, x_kv, ws, es, fs = fused_in
    fused, attn = ad.projected_attention(x_q, x_kv, *ws, es, fs, logit_scale,
                                         mask)
    ref = _attention_composition(ref_in[0], ref_in[1], *ref_in[2],
                                 ref_in[3], ref_in[4], logit_scale, mask)
    assert attn.shape == (b, heads, l_q, rank)
    assert np.abs(fused.data - ref.data).max() <= 1e-12
    seed = rnd(fused.shape, seed=76)
    fused.backward(seed)
    ref.backward(seed)

    def leaves(x_q, x_kv, ws, es, fs):
        return [x_q] + ([x_kv] if x_kv is not x_q else []) + ws + es + fs

    for got, want in zip(leaves(*fused_in), leaves(*ref_in)):
        err = np.abs(got.grad - want.grad).max()
        assert err <= 1e-12 * np.abs(want.grad).max()


def test_softmax_rows_sum_to_one():
    # the softmax inside projected_attention: at logit_scale 1e3 the logits
    # reach thousands, where an exp without the row max subtracted overflows
    x_q, x_kv, ws, es, fs = _attention_inputs(2, 6, 7, 2, 3, 5, seed=2,
                                              cross=True)
    for logit_scale in (1.0, 1e3):
        _, attn = ad.projected_attention(x_q, x_kv, *ws, es, fs, logit_scale)
        assert attn.shape == (2, 3, 6, 5) and np.isfinite(attn).all()
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_translation_invariance():
    # the softmax inside projected_attention: with E rows summing to one,
    # moving x_kv by a constant row moves every compressed key of a head by
    # the same vector, so every logit of a row moves by the same amount,
    # which the softmax ignores
    x_q, x_kv, ws, es, fs = _attention_inputs(2, 5, 9, 2, 2, 4, seed=3,
                                              cross=True, make=ad.const)
    es = [ad.const(np.abs(e.data) / np.abs(e.data).sum(axis=1, keepdims=True))
          for e in es]
    out, base = ad.projected_attention(x_q, x_kv, *ws, es, fs, 1.0)
    moved = ad.const(x_kv.data + rnd((1, 1, 4), seed=4, lo=-5, hi=5))
    moved_out, attn = ad.projected_attention(x_q, moved, *ws, es, fs, 1.0)
    assert np.abs(attn - base).max() < 1e-12
    assert np.abs(moved_out.data - out.data).max() > 1e-3  # values do move


def test_projected_attention_rejects_bad_shapes():
    x_q, x_kv, ws, es, fs = _attention_inputs(1, 3, 4, 2, 2, 3, seed=5,
                                              cross=True)
    with pytest.raises(ValueError, match="rank 3 exceeds sequence length 2"):
        ad.projected_attention(x_q, ad.narrow(x_kv, 1, 0, 2), *ws, es, fs, 1.0)
    for bad in ((x_q, x_kv, *ws, es, fs[:1], 1.0),
                (x_q, x_q, *ws, es, fs, 1.0),
                (x_q, x_kv, ws[0], ws[1], ws[2], _t((3, 4), 6), es, fs, 1.0)):
        with pytest.raises(ValueError, match="projected_attention"):
            ad.projected_attention(*bad)


def test_smooth_l1_values_and_junction():
    a = ad.tensor(np.array([2.0, 0.0, 1.0]))
    b = ad.const(np.array([0.0, 0.0, 0.0]))
    out = ad.smooth_l1(a, b, 1.0)
    assert np.allclose(out.data, [1.5, 0.0, 0.5])
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError):
            ad.smooth_l1(a, b, beta)
    # the junction |d| = beta is C1: both branches give value 0.5*beta and
    # slope sign(d)
    beta = 0.7
    d = beta
    quad = 0.5 * d * d / beta
    lin = abs(d) - 0.5 * beta
    assert abs(quad - lin) < 1e-15
    x = ad.tensor(np.array([d]))
    out = ad.smooth_l1(x, ad.const(np.array([0.0])), beta)
    assert out.data[0] == pytest.approx(0.5 * beta)
    out.backward(np.array([1.0]))
    assert abs(x.grad[0] - 1.0) < 1e-15


def test_smooth_l1_gradient():
    x = ad.tensor(rnd((4, 4), seed=19))
    y = ad.const(rnd((4, 4), seed=20) + 3.5)  # keep |d| away from the kink
    err = ad.grad_check(lambda: ad.mean_all(ad.smooth_l1(x, y, 1.0)), [x])
    assert err < 1e-8


def test_grad_check_rejects_nonscalar():
    x = ad.tensor(rnd((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ad.grad_check(lambda: ad.mul(x, x), [x])


def test_backward_seed_shape_check():
    x = ad.tensor(rnd((2, 2)))
    with pytest.raises(ValueError, match="seed"):
        ad.sum_all(x).backward(np.ones((2, 2)))


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "ck.bin")
    tensors = {"w": ad.tensor(rnd((3, 4), seed=21)),
               "b": ad.tensor(rnd((1, 1, 4), seed=22)),
               "scalar": np.asarray(2.5)}
    meta = {"note": "x", "count": 3}
    ad.save_checkpoint(path, tensors, meta)
    arrays, got_meta = ad.load_checkpoint(path)
    assert got_meta == meta
    assert list(arrays) == ["w", "b", "scalar"]
    for k in tensors:
        want = tensors[k].data if isinstance(tensors[k], ad.Tensor) else tensors[k]
        assert np.array_equal(arrays[k], want)


def test_checkpoint_rejects_other_files(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as f:
        f.write(b"not a checkpoint\n")
    with pytest.raises(ValueError, match="checkpoint"):
        ad.load_checkpoint(path)


def test_checkpoint_bytes_are_magic_header_then_float64(tmp_path):
    path = str(tmp_path / "ck.bin")
    w = rnd((3, 4), seed=42)
    t = np.asfortranarray(rnd((2, 5), seed=43))  # written in C order
    flags = np.array([True, False])
    ad.save_checkpoint(path, {"w": ad.tensor(w), "t": t, "flags": flags,
                              "s": np.asarray(2.5)}, {"k": 1})
    header = ('{"meta":{"k":1},"tensors":[{"name":"w","shape":[3,4]},'
              '{"name":"t","shape":[2,5]},{"name":"flags","shape":[2]},'
              '{"name":"s","shape":[]}]}')
    want = (b"ADTENSOR-CKPT v1\n" + header.encode() + b"\n" + w.tobytes()
            + t.tobytes() + flags.astype(np.float64).tobytes()
            + np.float64(2.5).tobytes())
    with open(path, "rb") as f:
        assert f.read() == want


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "ck.bin")
    ad.save_checkpoint(path, {"w": ad.tensor(rnd((2, 2)))})
    ad.load_checkpoint(path)
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        ad.load_checkpoint(path)


def _checkpoint_with_moments(path):
    """A checkpoint laid out as training writes one: parameters, then the
    optimizer moments last."""
    ad.save_checkpoint(path, {"w": rnd((3, 4), seed=50),
                              "s": np.asarray(1.5),
                              "opt.m.w": rnd((3, 4), seed=51),
                              "opt.v.w": rnd((3, 4), seed=52)}, {"k": 2})


def test_checkpoint_skip_reads_only_the_kept_tensors(tmp_path):
    path = str(tmp_path / "ck.bin")
    _checkpoint_with_moments(path)
    full, meta = ad.load_checkpoint(path)
    kept, kept_meta = ad.load_checkpoint(path, skip=("opt.",))
    assert list(kept) == ["w", "s"] and kept_meta == meta
    for k in kept:
        assert kept[k].shape == full[k].shape
        assert kept[k].tobytes() == full[k].tobytes()
        assert kept[k].flags.writeable and kept[k].flags.owndata


@pytest.mark.parametrize("skip", [(), ("opt.",)])
def test_checkpoint_truncated_inside_a_skipped_tensor(tmp_path, skip):
    path = str(tmp_path / "ck.bin")
    _checkpoint_with_moments(path)
    with open(path, "r+b") as f:
        f.truncate(f.seek(0, 2) - 8)  # the cut falls inside opt.v.w
    with pytest.raises(ValueError, match="truncated checkpoint"):
        ad.load_checkpoint(path, skip=skip)


def test_checkpoint_skip_still_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "ck.bin")
    _checkpoint_with_moments(path)
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        ad.load_checkpoint(path, skip=("opt.",))


# ---------------------------------------------------------------------------
# the constant rule

def test_ops_on_constants_record_nothing():
    c1, c2 = ad.const(rnd((2, 3), seed=51)), ad.const(rnd((3, 4), seed=52))
    x_q, x_kv, ws, es, fs = _attention_inputs(1, 2, 3, 1, 2, 2, seed=58,
                                              cross=True, make=ad.const)
    attended, _ = ad.projected_attention(x_q, x_kv, *ws, es, fs, 1.0)
    for out in (ad.add(c1, c1), ad.affine(c1, c2, ad.const(np.zeros((1, 4)))),
                ad.sin(c1), attended,
                ad.lstm_bidir(*(ad.const(t.data) for t in
                                _lstm_inputs(1, 2, 2, seed=53)))):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


def test_constant_operands_get_no_gradient():
    x = ad.tensor(rnd((2, 3, 4), seed=54))
    w = ad.tensor(rnd((4, 5), seed=55))
    c = ad.const(rnd((2, 3, 4), seed=56))
    b = ad.const(rnd((1, 1, 5), seed=57))
    hidden = ad.affine(ad.mul(ad.add(x, c), c), w, b)
    out = ad.sum_all(ad.concat([hidden, ad.affine(c, w, b)], axis=-1))
    out.backward()
    assert c.grad is None and b.grad is None
    assert x.grad is not None and w.grad is not None
    # only differentiable inputs are kept as parents
    assert all(p.requires_grad for p in hidden._parents)


# ---------------------------------------------------------------------------
# finite-difference check of every differentiable op

def _t(shape, seed, lo=-1.5, hi=1.5):
    return ad.tensor(rnd(shape, seed=seed, lo=lo, hi=hi))


def _case(op, *inputs, **kwargs):
    """A scalar that weights every output entry of ``op(*inputs)``
    differently, and the tensors to check."""
    params = [t for t in inputs if isinstance(t, ad.Tensor) and t.requires_grad]

    def fn():
        out = op(*inputs, **kwargs)
        return _weighted_sum(out if isinstance(out, list) else [out], seed=60)
    return fn, params


def _smooth_l1_case():
    a = _t((3, 4), 61)
    # |a - b| stays away from the kink at beta
    b = ad.tensor(a.data + np.where(rnd((3, 4), seed=62) > 0, 0.4, 2.5))
    return _case(ad.smooth_l1, a, b, 1.0)


def _attention_case(site):
    cross = site == "cross"
    x_q, x_kv, ws, es, fs = _attention_inputs(2, 3, 4 if cross else 3, 2, 2,
                                              2, seed=63, cross=cross)
    mask = ht._causal_mask(3, 2) if site == "causal" else None

    def fn():
        out, _ = ad.projected_attention(x_q, x_kv, *ws, es, fs, 0.5, mask)
        return _weighted_sum([out], seed=60)
    return fn, [x_q] + ([x_kv] if cross else []) + ws + es + fs


# Each case's id is pinned, so deleting a row leaves the ids of the others as
# they were.
GRAD_CASES = {
    "add-0": lambda: _case(ad.add, _t((2, 3, 4), 1), _t((1, 3, 1), 2)),
    "sub-1": lambda: _case(ad.sub, _t((2, 3, 4), 3), _t((2, 1, 4), 4)),
    "mul-2": lambda: _case(ad.mul, _t((2, 3, 4), 5), _t((1, 3, 4), 6)),
    "div-3": lambda: _case(ad.div, _t((2, 3), 7), _t((2, 1), 8, 0.5, 2.0)),
    "scale-4": lambda: _case(ad.scale, _t((2, 3), 9), -1.7),
    "shift-5": lambda: _case(ad.shift, _t((2, 3), 10), 0.3),
    "affine-8": lambda: _case(ad.affine, _t((2, 3, 4), 15), _t((4, 5), 16),
                              _t((1, 1, 5), 17)),
    "projected_attention-9": lambda: _attention_case("self"),
    "concat-10": lambda: _case(lambda a, b: ad.concat([a, b], axis=1),
                               _t((2, 3, 2), 19), _t((2, 1, 2), 20)),
    "narrow-11": lambda: _case(ad.narrow, _t((2, 5, 3), 21), 1, 1, 3),
    "projected_attention-12": lambda: _attention_case("cross"),
    "gather_last-13": lambda: _case(ad.gather_last, _t((2, 5), 23),
                                    [4, 0, 4, 2]),
    "repeat-14": lambda: _case(ad.repeat, _t((2, 1, 3), 24), 4, 1),
    "sum_all-15": lambda: _case(lambda a: ad.square(ad.sum_all(a)),
                                _t((2, 3), 25)),
    "mean_all-16": lambda: _case(lambda a: ad.square(ad.mean_all(a)),
                                 _t((2, 3), 26)),
    "sum_axis-17": lambda: _case(ad.sum_axis, _t((2, 3, 4), 27), 1, False),
    "mean_axis-18": lambda: _case(ad.mean_axis, _t((2, 3, 4), 28), -1),
    "sqrt-20": lambda: _case(ad.sqrt, _t((3, 4), 30, 0.5, 3.0)),
    "square-21": lambda: _case(ad.square, _t((3, 4), 31)),
    "sin-22": lambda: _case(ad.sin, _t((3, 4), 32)),
    "cos-23": lambda: _case(ad.cos, _t((3, 4), 33)),
    "relu-26": lambda: _case(ad.relu, _t((3, 4), 36)),
    "db_to_linear-27": lambda: _case(ad.db_to_linear, _t((3, 4), 37, -3, 3)),
    "projected_attention-28": lambda: _attention_case("causal"),
    "layer_norm-29": lambda: _case(ad.layer_norm, _t((2, 3, 6), 39),
                                   _t((1, 1, 6), 40), _t((1, 1, 6), 41)),
    "smooth_l1-30": _smooth_l1_case,
    "lstm_bidir-31": lambda: _case(ad.lstm_bidir, *_lstm_inputs(2, 3, 2, 42)),
}
# public functions of adtensor that are not differentiable ops
NOT_OPS = {"tensor", "const", "zero_grad", "grad_check", "save_checkpoint",
           "load_checkpoint"}
# ops that no other ddgen module calls, kept only for the tests: sum_all
# closes the graphs of the gradient checks
TEST_SUPPORT = {"sum_all"}


@pytest.mark.parametrize("make", GRAD_CASES.values(), ids=list(GRAD_CASES))
def test_op_gradients(make):
    fn, params = make()
    assert ad.grad_check(fn, params) < 1e-7


def _adtensor_calls():
    """Names of the adtensor functions the other ddgen modules call: as
    ``name(...)`` after ``from .adtensor import name``, or as
    ``alias.name(...)`` after ``from . import adtensor as alias``."""
    called = set()
    for path in pathlib.Path(ad.__file__).parent.glob("*.py"):
        if path.name == "adtensor.py":
            continue
        tree = ast.parse(path.read_text())
        names, aliases = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "adtensor":
                names.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                aliases.update(a.asname or a.name for a in node.names
                               if a.name == "adtensor")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in names:
                called.add(f.id)
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name) and f.value.id in aliases):
                called.add(f.attr)
    return called


def test_grad_cases_cover_every_differentiable_op():
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")}
    ops = public - NOT_OPS
    assert ops == {case.rsplit("-", 1)[0] for case in GRAD_CASES}
    # every op serves a command, or is named as test support
    assert ops - _adtensor_calls() == TEST_SUPPORT
