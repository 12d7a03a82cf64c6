import numpy as np
import pytest

from ddgen import adtensor as ad


def rnd(shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def test_identity_passthrough():
    x = ad.tensor(rnd((3, 4)))
    y = ad.add(x, ad.const(np.zeros((3, 4))))
    assert np.array_equal(y.data, x.data)


def test_matmul_identity():
    x = ad.tensor(rnd((4, 5), seed=1))
    out = ad.matmul(ad.const(np.eye(4)), x)
    assert np.allclose(out.data, x.data, atol=0, rtol=0)


def test_softmax_rows_sum_to_one():
    x = ad.tensor(rnd((2, 6, 7), seed=2, lo=-30, hi=30))
    s = ad.softmax(x)
    assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_translation_invariance():
    x = rnd((5, 9), seed=3)
    a = ad.softmax(ad.const(x)).data
    b = ad.softmax(ad.const(x + 123.456)).data
    assert np.abs(a - b).max() < 1e-12


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
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(ad.tensor(rnd((2, 3))), ad.tensor(rnd((4, 2))))
    with pytest.raises(ValueError, match="add"):
        ad.add(ad.tensor(rnd((2, 3))), ad.tensor(rnd((2, 4))))


@pytest.mark.parametrize("op,shape", [
    (ad.exp, (3, 4)), (ad.tanh, (3, 4)), (ad.sigmoid, (3, 4)),
    (ad.sin, (3, 4)), (ad.cos, (3, 4)), (ad.square, (3, 4)),
])
def test_elementwise_gradients(op, shape):
    x = ad.tensor(rnd(shape, seed=8, lo=-1.5, hi=1.5))
    err = ad.grad_check(lambda: ad.sum_all(ad.square(op(x))), [x])
    assert err < 1e-8


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


@pytest.mark.parametrize("axis,sizes", [
    (0, (1, 2)), (1, (2, 1, 1)), (2, (3, 2)), (-1, (1, 1, 3)),
])
def test_split_gradients_match_narrow(axis, sizes):
    x1 = ad.tensor(rnd((3, 4, 5), seed=30))
    x2 = ad.tensor(x1.data.copy())
    parts = ad.split(x1, axis, sizes)
    starts = np.cumsum((0,) + sizes[:-1])
    ref = [ad.narrow(x2, axis % 3, int(lo), n) for lo, n in zip(starts, sizes)]
    for p, r in zip(parts, ref):
        assert np.array_equal(p.data, r.data)
    # parts reach the output through different paths; one part is unused
    _weighted_sum(parts[:-1], seed=31).backward()
    _weighted_sum(ref[:-1], seed=31).backward()
    assert np.array_equal(x1.grad, x2.grad)


def test_split_keeps_accumulation_across_backward_calls():
    x1 = ad.tensor(rnd((2, 6), seed=32))
    x2 = ad.tensor(x1.data.copy())
    for _ in range(2):  # a fresh graph per call
        ad.sum_all(ad.square(ad.concat(ad.split(x1, 1, (4, 2)), 1))).backward()
    assert np.allclose(x1.grad, 4.0 * x1.data)
    # the same graph backed through twice behaves as the narrow composition
    x1.grad = None
    out1 = _weighted_sum(ad.split(x1, 1, (1, 3, 2)), seed=33)
    out2 = _weighted_sum([ad.narrow(x2, 1, 0, 1), ad.narrow(x2, 1, 1, 3),
                          ad.narrow(x2, 1, 4, 2)], seed=33)
    for _ in range(2):
        out1.backward()
        out2.backward()
    assert np.array_equal(x1.grad, x2.grad)


def test_split_rejects_sizes_that_miss_the_axis():
    x = ad.tensor(rnd((2, 6)))
    for sizes in ((4, 1), (4, 3), (), (6, 0)):
        with pytest.raises(ValueError, match="split"):
            ad.split(x, 1, sizes)


def test_split_and_lstm_cell_gradients():
    x = ad.tensor(rnd((2, 3, 5), seed=34))
    err = ad.grad_check(lambda: _weighted_sum(
        [ad.square(p) for p in ad.split(x, 1, (1, 2))], seed=35), [x])
    assert err < 1e-8
    gates = ad.tensor(rnd((2, 1, 12), seed=36))
    c_prev = ad.tensor(rnd((2, 1, 3), seed=37))

    def cell():
        h, c = ad.lstm_cell(gates, c_prev)
        return ad.add(_weighted_sum([h], seed=38), _weighted_sum([c], seed=39))

    assert ad.grad_check(cell, [gates, c_prev]) < 1e-8


def test_lstm_cell_forward_matches_composition():
    hid = 4
    gates = ad.tensor(rnd((3, 1, 4 * hid), seed=40, lo=-4, hi=4))
    c_prev = ad.tensor(rnd((3, 1, hid), seed=41))
    h, c = ad.lstm_cell(gates, c_prev)
    i_g, f_g, g_g, o_g = (ad.narrow(gates, 2, k * hid, hid) for k in range(4))
    c_ref = ad.add(ad.mul(ad.sigmoid(f_g), c_prev),
                   ad.mul(ad.sigmoid(i_g), ad.tanh(g_g)))
    h_ref = ad.mul(ad.sigmoid(o_g), ad.tanh(c_ref))
    assert np.array_equal(c.data, c_ref.data)
    assert np.array_equal(h.data, h_ref.data)
    with pytest.raises(ValueError, match="lstm_cell"):
        ad.lstm_cell(gates, ad.tensor(rnd((3, 1, hid + 1))))


def test_layer_norm_gradient():
    x = ad.tensor(rnd((2, 3, 8), seed=17))
    g = ad.tensor(np.ones((1, 1, 8)))
    b = ad.tensor(np.zeros((1, 1, 8)))
    err = ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.layer_norm(x, g, b))), [x, g, b])
    assert err < 1e-6


def test_softmax_gradient():
    x = ad.tensor(rnd((3, 6), seed=18))
    err = ad.grad_check(lambda: ad.sum_all(ad.square(ad.softmax(x))), [x])
    assert err < 1e-8


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
