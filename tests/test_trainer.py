import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from conftest import (grad_check, random_dataset, random_feature_rows,
                      tiny_model_config, tiny_run_config, traced_peak)

from ddgen import adtensor as ad
from ddgen import chanstats, gscm, trainer
from ddgen import htransformer as ht
from ddgen.config import desk_preset


# ---------------------------------------------------------------------------
# scaler

def test_scaler_midpoint():
    rows = np.zeros((3, gscm.feature_dim(1)))
    rows[:, 3] = [0.0, 10.0, 5.0]
    rows[:, 1] = [1.0, 2.0, 3.0]
    rows[:, 0] = [0.0, 1.0, 2.0]
    rows[:, 5:] = [[1, 2, 3, 4, 5, 6]] * 3 + np.arange(3)[:, None]
    spec = trainer.fit_scaler(rows, 1)
    assert spec.scale(rows)[2, 3] == pytest.approx(0.5)


def test_scaler_path_id_and_height_divided_by_n(small_dataset, small_scaler):
    scaled = small_scaler.scale(small_dataset.rows)
    n = small_dataset.n_paths
    for k, col in enumerate(gscm.path_id_cols(n)):
        assert np.all(scaled[:, col] == (k + 1) / n)
    assert np.all(scaled[:, 2] == 1.5 / n)


def test_scaler_roundtrip(small_dataset, small_scaler):
    scaled = small_scaler.scale(small_dataset.rows)
    back = small_scaler.unscale(scaled)
    assert np.abs(back - small_dataset.rows).max() < 1e-9


def test_scaler_rejects_constant_feature():
    rows = random_feature_rows(20, 2, seed=1)
    rows[:, 3] = -100.0  # total gain frozen: not a fixed feature
    with pytest.raises(ValueError, match="column 3"):
        trainer.fit_scaler(rows, 2)


def test_scaler_monotone_per_feature(small_dataset, small_scaler):
    lo = small_dataset.rows.min(axis=0)
    hi = small_dataset.rows.max(axis=0)
    s_lo = small_scaler.scale(lo[None])[0]
    s_hi = small_scaler.scale(hi[None])[0]
    free = ~small_scaler.fixed_mask
    assert np.all(s_hi[free] > s_lo[free])


# ---------------------------------------------------------------------------
# windows

def test_make_windows_counting():
    assert len(trainer.make_windows([(0, 10)], 6, 4, 1)) == 1
    assert len(trainer.make_windows([(0, 19)], 6, 4, 1)) == 10
    assert len(trainer.make_windows([(0, 9)], 6, 4, 1)) == 0
    assert len(trainer.make_windows([(0, 19)], 6, 4, 3)) == 4


def test_make_windows_respects_segments():
    segments = [(0, 10), (10, 20), (20, 33)]
    starts = trainer.make_windows(segments, 6, 4, 1)
    assert starts.dtype == np.intp
    assert starts.tolist() == [0, 10, 20, 21, 22, 23]
    # each window lies inside one segment, and every segment holds one
    inside = [[lo <= s and s + 10 <= hi for lo, hi in segments]
              for s in starts]
    assert all(sum(row) == 1 for row in inside)
    assert all(any(col) for col in zip(*inside))


def test_make_windows_rejects_bad_stride():
    with pytest.raises(ValueError):
        trainer.make_windows([(0, 10)], 6, 4, 0)


def test_gather_window_arrays_matches_per_window_slices(small_dataset):
    rows = small_dataset.rows
    starts = trainer.make_windows([(0, 40), (50, 90)], 6, 4, stride=3)
    hist, targ = trainer.gather_window_arrays(rows, starts, 6, 4)
    assert np.array_equal(hist, np.stack([rows[s:s + 6] for s in starts]))
    assert np.array_equal(targ, np.stack([rows[s + 6:s + 10]
                                          for s in starts]))


def test_split_ranges_single_trajectory(small_dataset):
    ds = gscm.Dataset(rows=small_dataset.rows[:120], n_paths=3, fc_ghz=2.4,
                      delta2d=1.0, h_rx=1.5, seed=0, traj_steps=(120,))
    train, evl = trainer.split_ranges(ds, 0.8)
    assert train == [(0, 96)] and evl == [(96, 120)]


def test_split_ranges_whole_trajectories(small_dataset):
    train, evl = trainer.split_ranges(small_dataset, 0.5)
    assert train == [(0, 120)] and evl == [(120, 240)]


@pytest.mark.parametrize("n_traj", range(1, 7))
def test_split_trains_on_leading_rows(n_traj):
    # train reads its split as the view rows[:end of the last train range]
    steps = tuple(int(n) for n in
                  np.random.default_rng(n_traj).integers(1, 40, n_traj))
    ds = gscm.Dataset(rows=np.zeros((sum(steps), gscm.feature_dim(1))),
                      n_paths=1, fc_ghz=2.4, delta2d=1.0, h_rx=1.5, seed=0,
                      traj_steps=steps)
    bounds = set(np.cumsum((0,) + steps).tolist())
    for frac in (0.01, 0.2, 0.5, 0.63, 0.8, 0.99):
        train, evl = trainer.split_ranges(ds, frac)
        assert train and evl and train[0][0] == 0, frac
        ranges = train + evl
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert ranges[-1][1] == sum(steps)
        if n_traj > 1:
            assert {b for r in ranges for b in r} <= bounds, frac


# ---------------------------------------------------------------------------
# losses and weights

def _stats(rows, delay, az, zn, gain_db):
    """A row_stats-shaped dict with every row holding the same values."""
    full = np.full(rows, 1.0)
    return {"delay_spread": delay * full, "az_dod_spread": az * full,
            "zn_dod_spread": zn * full, "az_doa_spread": az * full,
            "zn_doa_spread": zn * full,
            "gains_db": np.full((rows, 1), gain_db)}


def test_smooth_l1_values():
    def loss(pred, true, beta):
        gen = ad.tensor(np.array([[pred]]))
        return trainer.predictive_loss(np.array([[true]]), gen, beta).data

    assert loss(1.0, 1.0, 1.0) == 0.0
    assert loss(2.0, 0.0, 1.0) == pytest.approx(1.5)
    beta = 0.4
    d = beta
    assert loss(d, 0.0, beta) == pytest.approx(0.5 * beta)
    with pytest.raises(ValueError):
        loss(1.0, 0.0, 0.0)


def test_calibrate_weights_reciprocal_mean():
    w = trainer.calibrate_weights(_stats(4, 500e-9, 0.5, 0.1, -100.0))
    assert w.alpha_tau == pytest.approx(2e6)
    assert w.alpha_az == pytest.approx(2.0)
    assert w.alpha_zn == pytest.approx(10.0)
    assert w.alpha_g == pytest.approx(0.01)


def test_calibrate_weights_unit_stats_give_unit_weights():
    w = trainer.calibrate_weights(_stats(1, 1.0, 1.0, 1.0, 1.0))
    for v in w.to_dict().values():
        assert v == pytest.approx(1.0)
    with pytest.raises(ValueError):
        trainer.calibrate_weights(_stats(0, 1.0, 1.0, 1.0, 1.0))


def test_calibrate_weights_clamp_on_zero_stats():
    w = trainer.calibrate_weights(_stats(1, 0.0, 0.0, 0.0, 0.0))
    assert w.alpha_tau == trainer.ALPHA_MAX == 1e12


def test_calibration_normalizes_gscm_statistics(small_dataset):
    stats = chanstats.row_stats(small_dataset.rows, small_dataset.n_paths)
    w = trainer.calibrate_weights(stats)
    delay = np.mean(stats["delay_spread"])
    az = np.mean(np.abs(np.concatenate([stats["az_dod_spread"],
                                        stats["az_doa_spread"]])))
    assert 0.5 <= w.alpha_tau * delay <= 2.0
    assert 0.5 <= w.alpha_az * az <= 2.0


def test_stats_loss_zero_for_identical_windows(small_dataset, small_scaler):
    w = trainer.LossWeights(2e6, 2.0, 30.0, 0.01)
    targ = small_scaler.scale(small_dataset.rows[:4])[None]
    loss = trainer.stats_loss(targ, ad.const(targ.copy()), small_scaler, w, 1.0)
    assert loss.item() == 0.0


def test_window_stat_tensors_of_constant_record_nothing(small_dataset,
                                                       small_scaler):
    targ = small_scaler.scale(small_dataset.rows[:4])[None]
    stats = trainer.window_stat_tensors(ad.const(targ), small_scaler)
    assert set(stats) == set(chanstats.STAT_NAMES) | {"gains_db"}
    for t in stats.values():
        assert t._parents == () and not t.requires_grad


def test_window_stat_tensors_match_oracle_checked_row_stats(small_dataset,
                                                           small_scaler):
    # the loss's statistics are the ones criterion 1 checks against the
    # oracles, finished with sqrt(S^2 + eps) instead of sqrt(S^2)
    rows = small_dataset.rows[:60]
    window = small_scaler.scale(rows).reshape(6, 10, -1)
    got = trainer.window_stat_tensors(ad.tensor(window), small_scaler)
    want = chanstats.row_stats(rows, small_dataset.n_paths)
    for name in chanstats.STAT_NAMES:
        eps = (trainer.DELAY_SPREAD_EPS if name == "delay_spread"
               else trainer.ANGULAR_SPREAD_EPS)
        assert np.allclose(got[name].data.ravel(),
                           np.sqrt(want[name] ** 2 + eps),
                           rtol=1e-12, atol=0.0), name
    assert np.allclose(got["gains_db"].data.reshape(60, -1),
                       want["gains_db"], rtol=1e-12, atol=0.0)


# sha256 of a desk batch's stats_loss value and gradient bytes, pinned when
# both loss sides ran their own spread formulas: sharing the definition with
# row_stats left the loss op for op, and bit for bit, as it was
DESK_LOSS_HEX = "0x1.e396b6594d80dp-14"
DESK_LOSS_DIGEST = ("de562b37bef1d737cda95c06d02959ff"
                    "76d20050808a1b60491cacae1cf9daf9")


def test_stats_loss_bits_pinned_on_desk_batch():
    cfg = desk_preset()
    ds = gscm.synthesize_dataset(
        n_paths=cfg.n_scatterers, steps=cfg.steps, seed=1, fc_ghz=cfg.fc_ghz,
        delta2d=cfg.delta2d, trajectories=cfg.trajectories,
        hold_range=(cfg.hold_min, cfg.hold_max))
    train_ranges, _ = trainer.split_ranges(ds, cfg.train_frac)
    scaler = trainer.fit_scaler(ds.rows, ds.n_paths)
    rows = scaler.scale(ds.rows)
    starts = trainer.make_windows(train_ranges, cfg.lag, cfg.window,
                                  cfg.stride)[:cfg.batch_size]
    _, targ = trainer.gather_window_arrays(rows, starts, cfg.lag, cfg.window)
    _, moved = trainer.gather_window_arrays(rows, starts + 1, cfg.lag,
                                            cfg.window)
    gen = ad.tensor(moved)
    loss = trainer.stats_loss(targ, gen, scaler,
                              trainer.LossWeights(2e6, 2.0, 30.0, 0.01),
                              cfg.beta)
    loss.backward()
    assert loss.item().hex() == DESK_LOSS_HEX
    assert hashlib.sha256(loss.data.tobytes() + gen.grad.tobytes()
                          ).hexdigest() == DESK_LOSS_DIGEST


@pytest.mark.parametrize("chunk", [4096, 50])
def test_row_stats_gathered_equal_window_stats(small_dataset, small_scaler,
                                               chunk, monkeypatch):
    monkeypatch.setattr(trainer, "ROW_BLOCK", chunk)
    rows = small_scaler.scale(small_dataset.rows)
    # as train computes them: raw row blocks, each scaled on its own
    cached = trainer._per_row(
        trainer.true_stat_arrays,
        map(small_scaler.scale, trainer._row_blocks(small_dataset.rows)),
        small_scaler)
    rng = np.random.default_rng(12)
    lag, window = 6, 4
    for _ in range(5):
        batch = rng.integers(0, rows.shape[0] - lag - window + 1,
                             size=rng.integers(1, 20))
        _, targ = trainer.gather_window_arrays(rows, batch, lag, window)
        idx = trainer._window_rows(batch, lag, window)
        want = trainer.window_stat_tensors(ad.const(targ), small_scaler)
        for k, t in want.items():
            assert np.array_equal(cached[k][idx], t.data), k


def test_train_loss_from_cached_stats_equals_stats_loss(tmp_path,
                                                        monkeypatch):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=1)
    cfg = dataclasses.replace(cfg, batch_size=10**4)  # a single step
    seen = []
    real_gather, real_loss = trainer.gather_window_arrays, trainer.stats_loss

    def gather(*args):
        hist, targ = real_gather(*args)
        seen.append(targ)
        return hist, targ

    def loss(true, out, scaler, weights, beta):
        value = real_loss(true, out, scaler, weights, beta)
        seen.append((true, out, scaler, weights, beta, value.item()))
        return value

    monkeypatch.setattr(trainer, "gather_window_arrays", gather)
    monkeypatch.setattr(trainer, "stats_loss", loss)
    trainer.train(ds, cfg, path)
    assert len(seen) == 2
    targ, (true, out, scaler, weights, beta, got) = seen
    assert isinstance(true, dict)
    # the gathered target is raw; stats_loss takes it scaled
    assert real_loss(scaler.scale(targ), out, scaler, weights,
                     beta).item() == got


def test_history_as_constant_or_tensor_gives_identical_grads(small_dataset,
                                                             small_scaler):
    n = small_dataset.n_paths
    cfg = tiny_model_config(n_scatterers=n)
    params = ht.init_params(cfg, seed=3)
    rows = small_scaler.scale(small_dataset.rows)
    starts = trainer.make_windows([(0, 60)], cfg.lag, cfg.window, stride=5)
    hist, targ = trainer.gather_window_arrays(rows, starts, cfg.lag,
                                              cfg.window)
    weights = trainer.calibrate_weights(
        chanstats.row_stats(small_dataset.rows, n))
    grads = []
    for history in (ad.const(hist), ad.tensor(hist)):
        ad.zero_grad(params.values())
        out = ht.hybrid_forward(history, cfg, params)
        trainer.stats_loss(targ, out, small_scaler, weights, 1.0).backward()
        grads.append({k: p.grad for k, p in params.items()})
        assert (history.grad is not None) == history.requires_grad
    for k in params:
        assert np.array_equal(grads[0][k], grads[1][k]), k


def test_stats_loss_quadratic_branch_contribution():
    # only the delay statistic differs, by 0.5 in normalized units
    shape = (1, 3)
    gen_stats = {name: ad.const(np.full(shape, 1.0))
                 for name in chanstats.STAT_NAMES}
    gen_stats["gains_db"] = ad.const(np.full((1, 3, 2), -100.0))
    true_stats = {k: t.data.copy() for k, t in gen_stats.items()}
    gen_stats["delay_spread"] = ad.const(np.full(shape, 1.5))
    w = trainer.LossWeights(1.0, 1.0, 1.0, 1.0)
    loss = trainer.combine_stat_losses(gen_stats, true_stats, w, 1.0)
    assert loss.item() == pytest.approx(0.125, rel=1e-12)
    # with alpha 2 the same normalized offset comes from a raw offset of 0.25
    gen_stats["delay_spread"] = ad.const(np.full(shape, 1.25))
    w2 = trainer.LossWeights(2.0, 1e-12, 1e-12, 1e-12)
    true2 = {k: v.copy() for k, v in true_stats.items()}
    loss2 = trainer.combine_stat_losses(gen_stats, true2, w2, 1.0)
    assert loss2.item() == pytest.approx(0.125, rel=1e-6)


def test_stats_loss_gradient_finite_differences(small_dataset, small_scaler):
    w = trainer.LossWeights(2e6, 2.0, 30.0, 0.01)
    targ = small_scaler.scale(small_dataset.rows[:3])[None]
    gen = ad.tensor(small_scaler.scale(small_dataset.rows[3:6])[None])
    err = grad_check(
        lambda: trainer.stats_loss(targ, gen, small_scaler, w, 1.0), [gen],
        eps=1e-6)
    assert err < 1e-4


def test_stats_loss_spread_terms_permutation_invariant(small_dataset,
                                                       small_scaler):
    # reordering the per-path feature blocks leaves the spread terms alone;
    # only the index-aligned gain term may move
    n = small_dataset.n_paths
    w = trainer.LossWeights(2e6, 2.0, 30.0, 0.0)  # gain term silenced
    targ = small_scaler.scale(small_dataset.rows[:3])[None]
    gen_rows = small_dataset.rows[3:6].copy()
    base = trainer.stats_loss(targ, ad.const(small_scaler.scale(gen_rows)[None]),
                              small_scaler, w, 1.0).item()
    perm = [2, 0, 1]
    shuffled = gen_rows.copy()
    for new_i, old_i in enumerate(perm):
        src = 4 + 7 * old_i
        dst = 4 + 7 * new_i
        shuffled[:, dst:dst + 7] = gen_rows[:, src:src + 7]
    shuffled[:, gscm.path_id_cols(n)] = np.arange(1, n + 1)
    moved = trainer.stats_loss(targ, ad.const(small_scaler.scale(shuffled)[None]),
                               small_scaler, w, 1.0).item()
    assert moved == pytest.approx(base, rel=1e-9)


def test_stats_loss_reports_nonfinite_statistic(small_dataset, small_scaler):
    targ = small_scaler.scale(small_dataset.rows[:2])[None]
    bad = targ.copy()
    bad[0, 0, gscm.gain_cols(small_dataset.n_paths)[0]] = np.nan
    with pytest.raises(trainer.NonFiniteStat, match="delay_spread"):
        trainer.stats_loss(targ, ad.const(bad), small_scaler,
                           trainer.LossWeights(1, 1, 1, 1), 1.0)


def test_predictive_loss_values():
    a = np.zeros((1, 5, 4))
    assert trainer.predictive_loss(a, ad.const(a.copy()), 1.0).item() == 0.0
    b = a.copy()
    b[0, 2, 1] = 2.0  # linear branch: 2 - 0.5
    loss = trainer.predictive_loss(a, ad.const(b), 1.0)
    assert loss.item() == pytest.approx(1.5 / 20.0)


def test_predictive_loss_permutation_invariant():
    rng = np.random.default_rng(20)
    a = rng.uniform(0, 1, (1, 4, 6))
    b = rng.uniform(0, 1, (1, 4, 6))
    base = trainer.predictive_loss(a, ad.const(b), 1.0).item()
    perm = rng.permutation(24)
    a2 = a.reshape(1, -1)[:, perm].reshape(1, 4, 6)
    b2 = b.reshape(1, -1)[:, perm].reshape(1, 4, 6)
    assert trainer.predictive_loss(a2, ad.const(b2), 1.0).item() == \
        pytest.approx(base, rel=1e-12)


def test_predictive_loss_shape_mismatch():
    with pytest.raises(ValueError):
        trainer.predictive_loss(np.zeros((1, 2, 3)),
                                ad.const(np.zeros((1, 3, 2))), 1.0)


# ---------------------------------------------------------------------------
# optimizer and schedule

def test_adamw_zero_gradient_is_pure_decay():
    params = {"w": ad.tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))}
    before = params["w"].data.copy()
    opt = trainer.AdamW(params, weight_decay=0.01)
    opt.step(lr=1e-3)
    assert np.allclose(params["w"].data, before * (1 - 1e-3 * 0.01), rtol=0,
                       atol=1e-18)


def test_adamw_moves_against_gradient():
    params = {"w": ad.tensor(np.array([1.0]))}
    opt = trainer.AdamW(params, weight_decay=0.0)
    params["w"].grad = np.array([2.0])
    opt.step(lr=0.1)
    assert params["w"].data[0] < 1.0


def test_adamw_state_roundtrip():
    params = {"w": ad.tensor(np.array([1.0, 2.0]))}
    opt = trainer.AdamW(params)
    params["w"].grad = np.array([0.5, -0.5])
    opt.step(1e-3)
    arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = trainer.AdamW({"w": ad.tensor(np.array([1.0, 2.0]))})
    opt2.load_state(arrays, opt.t)
    assert opt2.t == 1
    assert np.array_equal(opt2.m["w"], opt.m["w"])
    assert np.array_equal(opt2.v["w"], opt.v["w"])


def test_adamw_in_place_step_matches_formula():
    rng = np.random.default_rng(12)
    shapes = {"a": (5, 7), "b": (1, 1, 4), "c": ()}
    params = {k: ad.tensor(rng.normal(size=s)) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.01, 3e-3
    opt = trainer.AdamW(params, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    for step in range(1, 4):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for k, t in params.items():
            t.grad = grads[k]
        opt.step(lr)
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
            ref[k] = ref[k] * (1.0 - lr * wd) - lr * update
        for k in shapes:
            assert np.array_equal(params[k].data, ref[k])
            assert np.array_equal(opt.m[k], m[k])
            assert np.array_equal(opt.v[k], v[k])


def test_learning_rate_schedule():
    assert trainer.learning_rate(5e-5, 0) == pytest.approx(5e-5)
    assert trainer.learning_rate(5e-5, 9) == pytest.approx(5e-5)
    assert trainer.learning_rate(5e-5, 10) == pytest.approx(4.5e-5)
    assert trainer.learning_rate(5e-5, 25) == pytest.approx(5e-5 * 0.81)


# ---------------------------------------------------------------------------
# training loop

def _tiny_training_setup(tmp_path, mode="gen", epochs=3, seed=5):
    ds = gscm.synthesize_dataset(n_paths=2, steps=60, seed=9, fc_ghz=2.4,
                                 delta2d=1.0, trajectories=2)
    cfg = tiny_run_config(mode=mode, epochs=epochs, batch_size=16, lr=1e-3,
                          stride=2, train_frac=0.5, seed=seed)
    return ds, cfg, str(tmp_path / "ck.bin")


def test_train_smoke_and_trace(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path)
    result = trainer.train(ds, cfg, path)
    assert len(result.trace) == 3
    epochs = [row[0] for row in result.trace]
    assert epochs == [1, 2, 3]
    assert all(math.isfinite(row[1]) for row in result.trace)
    assert result.trace[0][2] == pytest.approx(1e-3)
    arrays, meta = ad.load_checkpoint(path)
    assert meta["epoch"] == 3
    assert meta["model"]["lag"] == cfg.lag
    assert "scaler.mins" in arrays


def test_train_pred_mode_shares_pipeline(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path, mode="pred")
    result = trainer.train(ds, cfg, path)
    assert result.weights is None
    assert len(result.trace) == 3


def test_train_deterministic(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path)
    a = trainer.train(ds, cfg, path)
    b = trainer.train(ds, cfg, str(tmp_path / "ck2.bin"))
    assert a.trace == b.trace


def test_train_resume_matches_uninterrupted(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=3)
    full = trainer.train(ds, cfg, path)

    short = dataclasses.replace(cfg, epochs=2, checkpoint_every=2)
    part_path = str(tmp_path / "part.bin")
    trainer.train(ds, short, part_path)
    resumed = trainer.train(ds, cfg, str(tmp_path / "res.bin"),
                            resume_from=part_path)
    assert resumed.trace[-1][0] == 3
    assert abs(resumed.trace[-1][1] - full.trace[-1][1]) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_aborts(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path)
    wild = dataclasses.replace(cfg, lr=1e18, epochs=30)
    with pytest.raises(trainer.TrainingDiverged):
        trainer.train(ds, wild, path)


@pytest.mark.parametrize("mode", ["gen", "pred"])
def test_train_copies_no_dataset_sized_matrix(tmp_path, monkeypatch, mode):
    # 12000 rows of 26 paths: a 17.9 MB row matrix. With row blocks of 300
    # rows, what train holds beyond it is the per-row statistics of its
    # training rows (gen) and one block's temporaries.
    ds = random_dataset(12000, 26, seed=4)
    cfg = tiny_run_config(n_scatterers=26, mode=mode, epochs=1, stride=997,
                          batch_size=4, lr=1e-3)
    monkeypatch.setattr(trainer, "ROW_BLOCK", 300)
    _, peak = traced_peak(trainer.train, ds, cfg, str(tmp_path / "ck.bin"))
    assert peak < 0.5 * ds.rows.nbytes, peak / ds.rows.nbytes


def test_train_rejects_short_split(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path)
    single = gscm.Dataset(rows=ds.rows[:60], n_paths=ds.n_paths,
                          fc_ghz=ds.fc_ghz, delta2d=ds.delta2d, h_rx=ds.h_rx,
                          seed=ds.seed, traj_steps=(60,))
    bad = dataclasses.replace(cfg, train_frac=0.05)
    with pytest.raises(ValueError, match="short"):
        trainer.train(single, bad, path)


def test_write_trace_bytes_stable(tmp_path):
    trace = [(1, 0.123456789, 5e-5), (2, 0.1, 4.5e-5)]
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    trainer.write_trace(p1, trace, {"seed": 1})
    trainer.write_trace(p2, trace, {"seed": 1})
    assert open(p1, "rb").read() == open(p2, "rb").read()
    lines = open(p1).read().splitlines()
    assert lines[-1].split()[0] == "2"


# ---------------------------------------------------------------------------
# evaluation support

def test_cdf_report_floor_on_identical_pools(small_dataset):
    pools = trainer.collect_window_stats(small_dataset.rows[:50],
                                         small_dataset.n_paths)
    report = trainer.cdf_distance_report(pools, pools)
    for name in trainer.EVAL_STATS:
        assert report[name]["cdf_mse_db"] == -120.0


@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    ds, cfg, path = _tiny_training_setup(tmp_path_factory.mktemp("tiny"),
                                         epochs=1)
    return ds, cfg, trainer.train(ds, cfg, path)


def _tape_forward_rows(ds, model_cfg, params, scaler, starts, batch_size):
    """Unscaled generated rows from the forward on the parameter tensors
    themselves, one array per batch stacked at the end."""
    rows_scaled = scaler.scale(ds.rows)
    parts = []
    for lo in range(0, len(starts), batch_size):
        hist, _ = trainer.gather_window_arrays(
            rows_scaled, starts[lo:lo + batch_size], model_cfg.lag,
            model_cfg.window)
        out = ht.hybrid_forward(hist, model_cfg, params, training=False)
        parts.append(scaler.unscale(out.data).reshape(-1, ds.rows.shape[1]))
    return np.vstack(parts)


def test_evaluate_model_runs_and_pools(trained_tiny):
    ds, cfg, res = trained_tiny
    model_cfg = cfg.model_config()
    _, split_eval = trainer.split_ranges(ds, cfg.train_frac)
    # batches of 16 leave a partial last batch at every stride here
    for ranges in (split_eval, [(0, 40), (60, 120)]):
        for stride in (1, 2, 3):
            case = "ranges %s stride %d" % (ranges, stride)
            true_p, gen_p = trainer.evaluate_model(
                ds, model_cfg, {"m": res.params}, res.scaler, ranges,
                stride=stride, batch_size=16)
            assert list(gen_p) == ["m"]
            gen_p = gen_p["m"]
            starts = trainer.make_windows(ranges, cfg.lag, cfg.window, stride)
            n_windows = len(starts)
            assert len(true_p["delay_spread"]) == n_windows * cfg.window
            want = trainer.collect_window_stats(
                np.vstack([ds.rows[s + cfg.lag:s + cfg.lag + cfg.window]
                           for s in starts]), ds.n_paths)
            assert set(true_p) == set(want) == set(trainer.EVAL_STATS)
            for name in want:
                assert np.array_equal(true_p[name], want[name]), (case, name)
            want = trainer.collect_window_stats(
                _tape_forward_rows(ds, model_cfg, res.params, res.scaler,
                                   starts, 16), ds.n_paths)
            assert set(gen_p) == set(want)
            for name in want:
                assert np.array_equal(gen_p[name], want[name]), (case, name)
            assert len(gen_p["mpc_power"]) == (n_windows * cfg.window
                                               * ds.n_paths)


def test_evaluate_model_records_no_graph(trained_tiny, monkeypatch):
    ds, cfg, res = trained_tiny
    outputs = []

    def forward(*args, **kwargs):
        outputs.append(real_forward(*args, **kwargs))
        return outputs[-1]

    real_forward = trainer.hybrid_forward
    monkeypatch.setattr(trainer, "hybrid_forward", forward)
    trainer.evaluate_model(ds, cfg.model_config(), {"m": res.params},
                           res.scaler, [(60, 120)], stride=1, batch_size=16)
    assert len(outputs) == 4
    for out in outputs:
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
    assert all(t.requires_grad for t in res.params.values())


def test_evaluate_model_pools_each_model_as_if_alone(trained_tiny):
    ds, cfg, res = trained_tiny
    model_cfg = cfg.model_config()
    models = {"trained": res.params, "fresh": ht.init_params(model_cfg, 9)}
    alone = {label: trainer.evaluate_model(ds, model_cfg, {label: params},
                                           res.scaler, [(60, 120)], stride=2,
                                           batch_size=16)
             for label, params in models.items()}
    true_p, gen_p = trainer.evaluate_model(ds, model_cfg, models, res.scaler,
                                           [(60, 120)], stride=2,
                                           batch_size=16)
    assert list(gen_p) == list(models)
    for label, (true_alone, gen_alone) in alone.items():
        for name in trainer.EVAL_STATS:
            assert np.array_equal(true_p[name], true_alone[name])
            assert np.array_equal(gen_p[label][name], gen_alone[label][name])


def test_evaluate_model_pools_per_row_block_as_in_one_call(trained_tiny,
                                                            monkeypatch):
    ds, cfg, res = trained_tiny
    model_cfg = cfg.model_config()
    models = {"gen": res.params, "untrained": ht.init_params(model_cfg, 9)}
    calls = []
    real_collect = trainer.collect_window_stats

    def collect(rows, n_paths):
        calls.append(len(rows))
        return real_collect(rows, n_paths)

    # a block below one batch's 16 x 4 rows: every batch is pooled alone
    monkeypatch.setattr(trainer, "ROW_BLOCK", 20)
    monkeypatch.setattr(trainer, "collect_window_stats", collect)
    ranges = [(60, 120)]
    true_p, gen_p = trainer.evaluate_model(ds, model_cfg, models, res.scaler,
                                           ranges, stride=1, batch_size=16)
    starts = trainer.make_windows(ranges, cfg.lag, cfg.window)
    # each model pools every batch alone, then the true side its blocks
    assert len(calls) > 2 * -(-len(starts) // 16)
    assert max(calls) <= 16 * cfg.window
    for label, params in models.items():
        want = real_collect(_tape_forward_rows(ds, model_cfg, params,
                                               res.scaler, starts, 16),
                            ds.n_paths)
        for name in trainer.EVAL_STATS:
            assert np.array_equal(gen_p[label][name], want[name]), (label,
                                                                     name)
    want = real_collect(np.vstack([ds.rows[s + cfg.lag:s + cfg.lag
                                           + cfg.window] for s in starts]),
                        ds.n_paths)
    for name in trainer.EVAL_STATS:
        assert np.array_equal(true_p[name], want[name]), name


def test_evaluate_model_peaks_below_the_generated_rows():
    # 26 paths, 3000 rows and window 10: 29910 generated rows, 42 MB
    ds = random_dataset(3000, 26, seed=3)
    model_cfg = tiny_model_config(n_scatterers=26, window=10)
    scaler = trainer.fit_scaler(ds.rows, ds.n_paths)
    models = {"gen": ht.init_params(model_cfg, seed=1)}
    ranges = [(0, 3000)]
    _, peak = traced_peak(trainer.evaluate_model, ds, model_cfg, models,
                          scaler, ranges)
    starts = trainer.make_windows(ranges, model_cfg.lag, model_cfg.window)
    assert peak < len(starts) * model_cfg.window * ds.rows.shape[1] * 8


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_evaluate_model_skips_short_ranges(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=1)
    res = trainer.train(ds, cfg, path)
    model_cfg = cfg.model_config()
    with pytest.warns(UserWarning, match="skipped"):
        true_p, _ = trainer.evaluate_model(ds, model_cfg, {"m": res.params},
                                           res.scaler, [(0, 5), (60, 120)],
                                           stride=2)
    assert len(true_p["delay_spread"]) > 0
    with pytest.raises(ValueError, match="windows"):
        trainer.evaluate_model(ds, model_cfg, {"m": res.params}, res.scaler,
                               [(0, 5)])


def test_train_frees_each_step_graph(tmp_path, monkeypatch):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=2)
    outputs, alive = [], []

    def live_outputs():
        return sum(ref() is not None for ref in outputs)

    def forward(*args, **kwargs):
        alive.append(live_outputs())
        out = real_forward(*args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    def save(*args, **kwargs):
        alive.append(live_outputs())
        return real_save(*args, **kwargs)

    real_forward, real_save = trainer.hybrid_forward, trainer.save_train_checkpoint
    monkeypatch.setattr(trainer, "hybrid_forward", forward)
    monkeypatch.setattr(trainer, "save_train_checkpoint", save)
    gc.disable()  # reference counting alone must release the graph
    try:
        trainer.train(ds, cfg, path)
    finally:
        gc.enable()
    assert len(outputs) > 2
    assert alive == [0] * (len(outputs) + 1)


def test_train_starts_each_forward_without_gradients(tmp_path, monkeypatch):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=2)
    cfg = dataclasses.replace(cfg, enc_layers=2, dec_layers=2,
                              bilstm_layers=2, dropout=0.1)
    stale, backwards = [], []

    def forward(history, model_cfg, params, **kwargs):
        stale.append([k for k, t in params.items() if t.grad is not None])
        return real_forward(history, model_cfg, params, **kwargs)

    def backward(node, *args, **kwargs):
        backwards.append(len(stale))
        return real_backward(node, *args, **kwargs)

    real_forward, real_backward = trainer.hybrid_forward, ad.Tensor.backward
    monkeypatch.setattr(trainer, "hybrid_forward", forward)
    monkeypatch.setattr(ad.Tensor, "backward", backward)
    trainer.train(ds, cfg, path)
    # one backward after each forward, and no forward sees a gradient
    assert len(stale) > 2 and backwards == list(range(1, len(stale) + 1))
    assert stale == [[]] * len(stale)


@pytest.mark.parametrize("mode", ["gen", "pred"])
def test_micro_batches_sum_to_the_batch_gradient(tmp_path, monkeypatch,
                                                 mode):
    ds, cfg, path = _tiny_training_setup(tmp_path, mode=mode, epochs=1)
    cfg = dataclasses.replace(cfg, batch_size=10**4)  # one batch, dropout 0
    n_windows = len(trainer.make_windows(
        trainer.split_ranges(ds, cfg.train_frac)[0], cfg.lag, cfg.window,
        cfg.stride))
    forwards, stepped = [], []
    real_forward, real_step = trainer.hybrid_forward, trainer.AdamW.step

    def forward(*args, **kwargs):
        forwards.append(len(args[0]))
        return real_forward(*args, **kwargs)

    def step(opt, lr):
        stepped.append({k: p.grad.copy() for k, p in opt.params.items()})
        return real_step(opt, lr)

    monkeypatch.setattr(trainer, "hybrid_forward", forward)
    monkeypatch.setattr(trainer.AdamW, "step", step)
    whole = trainer.train(ds, cfg, path)
    assert forwards == [n_windows] and len(stepped) == 1
    # two micro-batches of unequal size, one optimizer step
    monkeypatch.setattr(trainer, "MICRO_BATCH", n_windows // 2 + 3)
    split = trainer.train(ds, cfg, str(tmp_path / "split.bin"))
    assert forwards[1:] == [n_windows // 2 + 3, n_windows - n_windows // 2 - 3]
    assert len(stepped) == 2
    for name, grad in stepped[0].items():
        err = np.abs(stepped[1][name] - grad).max()
        assert err <= 1e-12 * np.abs(grad).max(), name
    loss, split_loss = whole.trace[0][1], split.trace[0][1]
    assert abs(split_loss - loss) <= 1e-12 * abs(loss)


def test_checkpoint_roundtrip_through_trainer(tmp_path):
    ds, cfg, path = _tiny_training_setup(tmp_path, epochs=1)
    res = trainer.train(ds, cfg, path)
    params, scaler, opt_arrays, meta = trainer.load_train_checkpoint(path)
    assert set(params) == set(res.params)
    for k in params:
        assert np.array_equal(params[k].data, res.params[k].data)
    assert np.array_equal(scaler.mins, res.scaler.mins)
    assert meta["settings"]["mode"] == "gen"
    assert meta["weights"]["alpha_tau"] == res.weights.alpha_tau
    assert any(k.startswith("opt.m.") for k in opt_arrays)
    only, only_scaler, no_opt, only_meta = trainer.load_train_checkpoint(
        path, optimizer=False)
    assert no_opt == {} and only_meta == meta
    assert list(only) == list(params)
    for k in params:
        assert np.array_equal(only[k].data, params[k].data)
        assert only[k].requires_grad
    assert np.array_equal(only_scaler.maxs, scaler.maxs)
    assert np.array_equal(only_scaler.fixed_mask, scaler.fixed_mask)
