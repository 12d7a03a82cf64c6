"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

The smoke-training criteria run the desk preset (5 scatterers, d_model 32,
2 heads, rank 8, lag 20, 2000 samples as 10 trajectories, 30 epochs,
batch 64) over three fixed seeds; full-scale table values are reference
points only and are not reproduced here.
"""

import json
import math
import os
import time

import numpy as np

from conftest import (grad_check, oracle_angular_spread, oracle_delay_spread,
                      pathloss_db, paths_row, random_feature_rows, sum_all,
                      tiny_model_config)

from ddgen import adtensor as ad
from ddgen import chanstats, cli, gscm, trainer
from ddgen import htransformer as ht
from ddgen.config import desk_preset
from ddgen.htransformer import init_params

SEEDS = (1, 2, 3)


def _report(name, ok, detail):
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


# ---------------------------------------------------------------------------
# criterion 1: statistics oracle equivalence

def test_criterion_1_statistics_oracle_equivalence():
    # each draw is one dataset row in file units; every angle group holds
    # the drawn angles, so all four angular spreads meet the same oracle
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 27))
        powers = rng.uniform(0.0, 1.0, n)
        powers[int(rng.integers(0, n))] += 0.05
        delays = rng.uniform(0.0, 4e-6, n)
        angles = rng.uniform(-math.pi, math.pi, n)
        stats = chanstats.row_stats(paths_row(powers, delays, angles), n)
        pairs = [(stats["delay_spread"][0],
                  oracle_delay_spread(powers, delays))]
        want_ang = oracle_angular_spread(powers, angles)
        for name in chanstats.STAT_NAMES[1:]:
            pairs.append((stats[name][0], want_ang))
            assert 0.0 <= stats[name][0] <= 1.0
        for got, want in pairs:
            if want > 1e-12:
                worst = max(worst, abs(got - want) / want)
            else:
                assert abs(got - want) < 1e-12  # zero-spread single-path case
    elapsed = time.monotonic() - start
    _report("criterion 1 statistics oracle", worst < 1e-10 and elapsed < 10.0,
            "row_stats max rel err %.3e over 1000 sets x 5 spreads in %.1fs"
            % (worst, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: pathloss golden values

def test_criterion_2_pathloss_golden_values():
    near = pathloss_db(100.0, 2.4, 1.5)
    far = pathloss_db(1000.0, 2.4, 1.5)
    ok = abs(near - 99.3042) < 1e-4 and abs(far - 138.3842) < 1e-4
    _report("criterion 2 pathloss golden values", ok,
            "PL(100m)=%.6f dB, PL(1000m)=%.6f dB" % (near, far))


# ---------------------------------------------------------------------------
# criterion 3: projected-attention equivalence and linear storage

def _dense_attention(x, params, heads, d_model):
    d_k = d_model // heads
    outs = []
    wqkv = params["a.wqkv"].data
    for i in range(heads):
        wq, wk, wv = (wqkv[:, j * d_model + i * d_k:j * d_model + (i + 1) * d_k]
                      for j in range(3))
        q, k, v = x @ wq, x @ wk, x @ wv
        logits = (q @ k.T) / math.sqrt(d_model)
        z = np.exp(logits - logits.max(axis=-1, keepdims=True))
        outs.append((z / z.sum(axis=-1, keepdims=True)) @ v)
    return np.concatenate(outs, axis=-1) @ params["a.wo"].data


def test_criterion_3_projected_attention_equivalence(attention_weights):
    d_model, heads, seq = 16, 4, 12
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        params = {}
        ht.attention_params(params, "a", d_model, heads, rank=seq,
                            kv_len=seq, rng=np.random.default_rng(trial))
        params["a.e"] = ad.tensor(np.tile(np.eye(seq), (heads, 1, 1)))
        params["a.f"] = ad.tensor(np.tile(np.eye(seq), (heads, 1, 1)))
        x = rng.standard_normal((seq, d_model))
        got = ht.projected_mha(ad.const(x[None]), ad.const(x[None]), params,
                               "a").data[0]
        worst = max(worst, np.abs(got - _dense_attention(x, params, heads,
                                                         d_model)).max())

    counts = {}
    rank = 4
    for length in (16, 32):
        params = {}
        ht.attention_params(params, "a", d_model, heads, rank=rank,
                            kv_len=length, rng=np.random.default_rng(7))
        x = ad.const(rng.standard_normal((1, length, d_model)))
        attention_weights.clear()
        ht.projected_mha(x, x, params, "a")
        counts[length] = sum(attn.size for attn in attention_weights)
    linear = (counts[16] == heads * 16 * rank and counts[32] == 2 * counts[16])
    _report("criterion 3 projected attention", worst < 1e-10 and linear,
            "max |proj - dense| = %.3e; context entries %d -> %d at L 16 -> 32"
            % (worst, counts[16], counts[32]))


# ---------------------------------------------------------------------------
# criterion 4: gradient integrity of every block

def test_criterion_4_gradient_integrity():
    start = time.monotonic()
    errs = {}
    rng = np.random.default_rng(303)

    w = ad.tensor(rng.uniform(-0.5, 0.5, (6, 4)))
    b = ad.tensor(rng.uniform(-0.5, 0.5, (1, 1, 4)))
    x_lin = ad.const(rng.uniform(-1, 1, (2, 3, 6)))
    errs["linear"] = grad_check(
        lambda: sum_all(ad.square(ad.affine(x_lin, w, b))), [w, b])

    attn_params = {}
    ht.attention_params(attn_params, "a", 8, 2, rank=3, kv_len=5,
                        rng=np.random.default_rng(9))
    x_attn = ad.const(rng.standard_normal((1, 5, 8)))
    errs["softmax attention head"] = grad_check(
        lambda: sum_all(ad.square(ht.projected_mha(
            x_attn, x_attn, attn_params, "a"))),
        list(attn_params.values()))

    x_sdb = ad.tensor(rng.uniform(-1, 1, (1, 5, 4)))
    errs["series decomposition"] = grad_check(
        lambda: sum_all(ad.square(ht.sdb_decode(x_sdb, 8))), [x_sdb])

    lstm_params = {}
    ht._lstm_params(lstm_params, "l.0", 5, 3, np.random.default_rng(10))
    x_lstm = ad.const(rng.uniform(-1, 1, (1, 4, 5)))
    errs["bilstm cell"] = grad_check(
        lambda: sum_all(ad.square(ht.bilstm_forward(x_lstm, lstm_params,
                                                    "l", 3))),
        list(lstm_params.values()))

    cfg = tiny_model_config()
    params = init_params(cfg, seed=12)
    hist = rng.uniform(0, 1, (1, cfg.lag, cfg.feature_dim))
    errs["hybrid model"] = grad_check(
        lambda: ad.mean_all(ad.square(ht.hybrid_forward(hist, cfg, params))),
        list(params.values()))

    pred = ad.tensor(rng.uniform(-2, 2, (3, 4)))
    target = ad.const(rng.uniform(-2, 2, (3, 4)) + 2.7)
    errs["smooth l1"] = grad_check(
        lambda: ad.mean_all(ad.smooth_l1(pred, target, 1.0)), [pred])

    rows = random_feature_rows(8, 2, seed=13)
    scaler = trainer.fit_scaler(rows, 2)
    weights = trainer.LossWeights(2e6, 2.0, 30.0, 0.01)
    true_scaled = scaler.scale(rows[:3])[None]
    gen = ad.tensor(scaler.scale(rows[3:6])[None])
    errs["stats loss"] = grad_check(
        lambda: trainer.stats_loss(true_scaled, gen, scaler, weights, 1.0),
        [gen], eps=1e-6)

    elapsed = time.monotonic() - start
    worst_name = max(errs, key=errs.get)
    ok = all(e < 1e-4 for e in errs.values()) and errs["linear"] < 1e-8 \
        and elapsed < 120.0
    _report("criterion 4 gradient integrity", ok,
            "worst %s %.3e; linear %.3e; %.0fs"
            % (worst_name, errs[worst_name], errs["linear"], elapsed))


# ---------------------------------------------------------------------------
# criterion 5: scaler roundtrip on a 10K-sample dataset

def test_criterion_5_scaler_roundtrip():
    cfg = desk_preset()
    ds = gscm.synthesize_dataset(
        n_paths=cfg.n_scatterers, steps=1000, seed=17, fc_ghz=cfg.fc_ghz,
        delta2d=cfg.delta2d, trajectories=10,
        hold_range=(cfg.hold_min, cfg.hold_max))
    assert ds.rows.shape[0] == 10000
    scaler = trainer.fit_scaler(ds.rows, ds.n_paths)
    scaled = scaler.scale(ds.rows)
    err = np.abs(scaler.unscale(scaled) - ds.rows).max()
    ids_exact = all(
        np.all(scaled[:, col] == (k + 1) / ds.n_paths)
        for k, col in enumerate(gscm.path_cols(ds.n_paths, "n")))
    _report("criterion 5 scaler roundtrip", err < 1e-9 and ids_exact,
            "max roundtrip err %.3e over %d rows; path ids exact: %s"
            % (err, ds.rows.shape[0], ids_exact))


# ---------------------------------------------------------------------------
# criterion 6: CDF metric floor and analytic offset

def test_criterion_6_cdf_metric():
    base = np.linspace(0.0, 0.9, 512)
    same = chanstats.cdf_mse_db(base, base.copy())
    offset = chanstats.cdf_mse_db(base, base + 0.1)
    ok = same == -120.0 and abs(offset - (-20.0)) < 1e-9
    _report("criterion 6 cdf metric", ok,
            "identical -> %.1f dB; 0.1 offset -> %.12f dB" % (same, offset))


# ---------------------------------------------------------------------------
# criteria 7 and 8: desk-scale smoke training

def _desk_dataset(cfg, seed):
    return gscm.synthesize_dataset(
        n_paths=cfg.n_scatterers, steps=cfg.steps, seed=seed,
        fc_ghz=cfg.fc_ghz, delta2d=cfg.delta2d, trajectories=cfg.trajectories,
        hold_range=(cfg.hold_min, cfg.hold_max))


def _distances(ds, model_cfg, models, scaler, eval_ranges):
    """CDF distances (dB) by model label, then by statistic."""
    true_pools, gen_pools = trainer.evaluate_model(
        ds, model_cfg, models, scaler, eval_ranges, stride=2)
    out = {}
    for label, pools in gen_pools.items():
        report = trainer.cdf_distance_report(true_pools, pools)
        out[label] = {name: report[name]["cdf_mse_db"]
                      for name in trainer.EVAL_STATS}
    return out


def test_criterion_7_smoke_training(tmp_path):
    start = time.monotonic()
    cfg = desk_preset()
    model_cfg = cfg.model_config()
    assert ds_total_samples(cfg) == 2000
    first, last = [], []
    trained = {n: [] for n in ("delay_spread", "az_dod_spread",
                               "az_doa_spread")}
    untrained = {n: [] for n in trained}
    for seed in SEEDS:
        ds = _desk_dataset(cfg, seed)
        _, eval_ranges = trainer.split_ranges(ds, cfg.train_frac)
        cfg.mode, cfg.seed = "gen", seed
        result = trainer.train(ds, cfg, str(tmp_path / ("c7_%d.bin" % seed)))
        first.append(result.trace[0][1])
        last.append(result.trace[-1][1])
        fresh = init_params(model_cfg, seed=trainer.seed_split(seed)[0])
        dist = _distances(ds, model_cfg,
                          {"trained": result.params, "untrained": fresh},
                          result.scaler, eval_ranges)
        for name in trained:
            trained[name].append(dist["trained"][name])
            untrained[name].append(dist["untrained"][name])
    ratio = np.mean(last) / np.mean(first)
    beats = {name: np.mean(trained[name]) < np.mean(untrained[name])
             for name in trained}
    elapsed = time.monotonic() - start
    ok = ratio <= 0.5 and all(beats.values()) and elapsed < 600.0
    _report("criterion 7 smoke training", ok,
            "loss %.3f -> %.3f (ratio %.3f); trained vs untrained dB: %s; %.0fs"
            % (np.mean(first), np.mean(last), ratio,
               {n: "%.1f/%.1f" % (np.mean(trained[n]), np.mean(untrained[n]))
                for n in trained}, elapsed))


def ds_total_samples(cfg):
    return cfg.steps * cfg.trajectories


def test_criterion_8_gen_vs_pred_trend(tmp_path):
    cfg = desk_preset()
    cfg.window = 40
    model_cfg = cfg.model_config()
    wins = 0
    margins = []
    for seed in SEEDS:
        ds = _desk_dataset(cfg, seed)
        _, eval_ranges = trainer.split_ranges(ds, cfg.train_frac)
        per_mode = {}
        for mode in ("gen", "pred"):
            cfg.mode, cfg.seed = mode, seed
            result = trainer.train(
                ds, cfg, str(tmp_path / ("c8_%s_%d.bin" % (mode, seed))))
            per_mode[mode] = _distances(ds, model_cfg, {mode: result.params},
                                        result.scaler, eval_ranges)[mode]
        margin = per_mode["pred"]["delay_spread"] - per_mode["gen"]["delay_spread"]
        margins.append(margin)
        if per_mode["gen"]["delay_spread"] <= per_mode["pred"]["delay_spread"]:
            wins += 1
    _report("criterion 8 gen-vs-pred trend", wins >= 2,
            "statistics-aided mode at or below predictive delay-spread "
            "distance in %d/3 seeds (gen-minus-pred dB: %s)"
            % (wins, ["%.2f" % -m for m in margins]))


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns

def test_criterion_9_determinism(tmp_path):
    gen_args = ["gen", "--seed", "11", "--steps", "100",
                "--trajectories", "2", "--set", "n_scatterers=3"]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert cli.main(gen_args + ["--out", a]) == 0
    assert cli.main(gen_args + ["--out", b]) == 0
    ds_same = open(a, "rb").read() == open(b, "rb").read()
    twin_same = open(a + ".npy", "rb").read() == open(b + ".npy", "rb").read()
    rows_sha256 = [json.load(open(p + ".manifest.json"))["outputs"]
                   ["rows_sha256"] for p in (a, b)]
    twin_same = twin_same and rows_sha256[0] == rows_sha256[1]

    train_args = ["train", "--dataset", a, "--seed", "12", "--mode", "gen",
                  "--set", "epochs=2", "--set", "batch_size=16",
                  "--set", "stride=2", "--set", "train_frac=0.5",
                  "--set", "d_model=8", "--set", "heads=2", "--set", "rank=3",
                  "--set", "ffn_dim=8", "--set", "bilstm_hidden=4",
                  "--set", "bilstm_layers=1", "--set", "enc_layers=1",
                  "--set", "dec_layers=1", "--set", "lag=6",
                  "--set", "window=4", "--set", "dropout=0.1"]
    c1, c2 = str(tmp_path / "c1.bin"), str(tmp_path / "c2.bin")
    assert cli.main(train_args + ["--out", c1]) == 0
    assert cli.main(train_args + ["--out", c2]) == 0
    trace_same = open(c1 + ".trace.txt", "rb").read() == \
        open(c2 + ".trace.txt", "rb").read()

    evals = []
    for ckpt in (c1, c1, c2):
        out = str(tmp_path / ("eval%d" % len(evals)))
        assert cli.main(["evaluate", "--checkpoint", ckpt, "--dataset", a,
                         "--out", out]) == 0
        report, table = os.path.join(out, "report.json"), out + ".table.txt"
        assert cli.main(["table", report, "--out", table]) == 0
        evals.append([open(path, "rb").read() for path in (report, table)])
    eval_same = evals[0] == evals[1] == evals[2]
    _report("criterion 9 determinism",
            ds_same and twin_same and trace_same and eval_same,
            "dataset bytes identical: %s; twin bytes and digests identical: "
            "%s; loss trace bytes identical: %s; evaluate report and its "
            "table bytes identical (c1 twice, c2 once): %s"
            % (ds_same, twin_same, trace_same, eval_same))
