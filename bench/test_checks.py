"""Fast tests of the benchmark's output checks: each passes a real ddgen
output and rejects the same output with one value corrupted.

Run from the repository root: python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from ddgen import cli, gscm, trainer  # noqa: E402
from ddgen.htransformer import (  # noqa: E402
    ModelConfig, hybrid_forward, init_params)

TINY = ["--set", "n_scatterers=3", "--set", "d_model=8", "--set", "heads=2",
        "--set", "rank=3", "--set", "ffn_dim=8", "--set", "bilstm_hidden=4",
        "--set", "bilstm_layers=1", "--set", "enc_layers=1", "--set",
        "dec_layers=1", "--set", "lag=6", "--set", "window=4", "--set",
        "dropout=0.0", "--set", "epochs=1", "--set", "batch_size=16",
        "--set", "stride=2"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    ds, ckpt, ev = str(d / "data.txt"), str(d / "model.ckpt"), str(d / "ev")
    assert cli.main(["gen", "--out", ds, "--seed", "3", "--steps", "40",
                     "--trajectories", "4", "--delta2d", "2"] + TINY) == 0
    assert cli.main(["train", "--dataset", ds, "--out", ckpt, "--seed", "3",
                     "--mode", "gen"] + TINY) == 0
    assert cli.main(["evaluate", "--checkpoint", ckpt, "--dataset", ds,
                     "--stride", "1", "--out", ev]) == 0
    with open(os.path.join(ev, "report.json")) as f:
        report = json.load(f)
    return ds, ckpt, report


def test_dataset_checks_pass_and_reject_a_gain_off_by_a_tenth_db(pipeline):
    ds = pipeline[0]
    rows = gscm.read_dataset(ds).rows
    assert checks.check_dataset_file(ds, ds + ".manifest.json", 2.0,
                                     rows) == []
    meta, parsed, _ = checks.parse_dataset(ds)
    args = (3, float(meta["fc_ghz"]), 2.0, [40] * 4)
    assert checks.check_dataset_rows(parsed, *args) == []
    bad = parsed.copy()
    bad[17, checks.path_columns(3, 1)[1]] += 0.1
    fails = checks.check_dataset_rows(bad, *args)
    assert any("pathloss law" in f for f in fails)
    bad = parsed.copy()
    bad[5, 3] -= 0.1
    fails = checks.check_dataset_rows(bad, *args)
    assert any("total gain" in f for f in fails)
    bad = parsed.copy()
    bad[9, 0] += 0.5
    assert any("RX moved" in f for f in checks.check_dataset_rows(bad, *args))


def test_dataset_file_check_rejects_changed_bytes(pipeline, tmp_path):
    ds = pipeline[0]
    with open(ds, "rb") as f:
        text = f.read()
    copy = str(tmp_path / "data.txt")
    with open(copy, "wb") as f:
        f.write(text.replace(b"\n100 100 1.5 ", b"\n100 100 1.50 ", 1))
    fails = checks.check_dataset_file(copy, ds + ".manifest.json", 2.0)
    assert any("sha256" in f for f in fails)
    assert any("read back" in f for f in fails)


def test_report_check_passes_and_rejects_one_altered_cdf_value(pipeline):
    ds, _, report = pipeline
    rows = gscm.read_dataset(ds).rows
    assert checks.check_report(report, rows, 3, 6, 4, 1, "gen") == []
    cdf = report["cdfs"]["gen"]["delay_spread"]["true"]
    i = len(cdf) // 2
    cdf[i] += 0.01
    fails = checks.check_report(report, rows, 3, 6, 4, 1, "gen")
    assert any("delay_spread: true CDF" in f for f in fails)
    cdf[i] -= 0.01
    report["cells"][0]["cdf_mse_db"] += 0.01
    fails = checks.check_report(report, rows, 3, 6, 4, 1, "gen")
    assert any("cdf_mse_db" in f for f in fails)
    report["cells"][0]["cdf_mse_db"] -= 0.01


def test_loss_trace_check(tmp_path):
    path = str(tmp_path / "trace.txt")
    with open(path, "w") as f:
        f.write("# ddgen loss trace v1\n1 2.0 0.1\n2 0.9 0.1\n")
    assert checks.check_loss_trace(path, 2, 0.5) == []
    assert checks.check_loss_trace(path, 2, 0.4) != []
    assert checks.check_loss_trace(path, 3) != []
    with open(path, "a") as f:
        f.write("3 nan 0.1\n")
    assert checks.check_loss_trace(path, 3) != []


def test_gradient_check_passes_and_rejects_one_perturbed_entry(pipeline):
    ds, _, _ = pipeline
    dataset = gscm.read_dataset(ds)
    cfg = ModelConfig(feature_dim=gscm.feature_dim(3), lag=6, window=4,
                      d_model=8, heads=2, enc_layers=1, dec_layers=1,
                      ffn_dim=8, rank=3, bilstm_hidden=4, bilstm_layers=1,
                      dropout=0.0)
    params = init_params(cfg, seed=5)
    scaler = trainer.fit_scaler(dataset.rows, 3)
    rows = scaler.scale(dataset.rows)
    hist = np.stack([rows[s:s + 6] for s in (0, 3, 7)])
    targ = np.stack([rows[s + 6:s + 10] for s in (0, 3, 7)])
    weights = trainer.LossWeights(1e7, 1.0, 1.0, 0.01)

    def loss():
        out = hybrid_forward(hist, cfg, params)
        return trainer.stats_loss(targ, out, scaler, weights, 1.0)

    grads, direction, numeric = checks.directional_derivative(
        loss, params, seed=0, eps=1e-5)
    assert checks.check_directional(grads, direction, numeric) == []
    norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
    grads["head.w"] = grads["head.w"].copy()
    grads["head.w"][1, 2] += 1e-2 * norm
    assert checks.check_directional(grads, direction, numeric) != []
