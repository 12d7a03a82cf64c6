import ast
import dataclasses
import glob
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ddgen
from ddgen import adtensor as ad
from ddgen import chanstats, cli, gscm, trainer
from ddgen.config import ConfigError, RunConfig, apply_overrides, load_config
from ddgen.htransformer import ModelConfig

TINY_MODEL = ["--set", "d_model=8", "--set", "heads=2", "--set", "rank=3",
              "--set", "ffn_dim=8", "--set", "bilstm_hidden=4",
              "--set", "bilstm_layers=1", "--set", "enc_layers=1",
              "--set", "dec_layers=1", "--set", "lag=6", "--set", "window=4",
              "--set", "dropout=0"]


def gen_args(out, steps=50, trajectories=2, seed=3):
    return ["gen", "--out", out, "--seed", str(seed), "--steps", str(steps),
            "--trajectories", str(trajectories), "--set", "n_scatterers=2"]


def train_args(dataset, out, mode="gen", seed=4, epochs=2):
    return (["train", "--dataset", dataset, "--out", out, "--mode", mode,
             "--seed", str(seed), "--set", "epochs=%d" % epochs,
             "--set", "batch_size=16", "--set", "stride=2",
             "--set", "lr=1e-3", "--set", "train_frac=0.5",
             "--set", "n_scatterers=2"] + TINY_MODEL)


@pytest.fixture()
def dataset_path(tmp_path):
    path = str(tmp_path / "ds.txt")
    assert cli.main(gen_args(path)) == 0
    return path


@pytest.fixture()
def checkpoint_path(tmp_path, dataset_path):
    path = str(tmp_path / "ck.bin")
    assert cli.main(train_args(dataset_path, path)) == 0
    return path


def test_gen_defaults_match_full_scale_setup():
    cfg = RunConfig()
    assert cfg.n_scatterers == 26
    assert cfg.fc_ghz == 2.4
    assert gscm.DEFAULT_TX == (0.0, 0.0, 25.0)
    assert gscm.DEFAULT_RX_START == (100.0, 100.0, 1.5)
    assert gscm.DEFAULT_BOUNDS == ((-550.0, 500.0), (-550.0, 500.0),
                                   (0.0, 30.0))
    assert gscm.HEADING_COUNT == 50
    assert cfg.steps == 125000


def test_gen_writes_dataset_and_manifest(tmp_path, dataset_path):
    ds = gscm.read_dataset(dataset_path)
    assert ds.rows.shape == (100, gscm.feature_dim(2))
    manifest = json.load(open(dataset_path + ".manifest.json"))
    assert manifest["command"] == "gen"
    outputs = manifest["outputs"]
    assert outputs["sha256"] == ds.sha256 == _sha256(dataset_path)
    assert outputs["rows"] == dataset_path + ".npy"
    assert outputs["rows_sha256"] == _sha256(dataset_path + ".npy")
    assert manifest["config"]["seed"] == 3
    # the rows are those of the twin that the manifest binds
    assert np.array_equal(ds.rows, np.load(outputs["rows"]))


def test_gen_single_step(tmp_path):
    out = str(tmp_path / "one.txt")
    assert cli.main(["gen", "--out", out, "--steps", "1",
                     "--set", "n_scatterers=2", "--seed", "1"]) == 0
    assert gscm.read_dataset(out).rows.shape[0] == 1


def test_gen_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert cli.main(gen_args(a)) == 0
    assert cli.main(gen_args(b)) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".npy", "rb").read() == open(b + ".npy", "rb").read()
    rows_sha256 = [json.load(open(p + ".manifest.json"))["outputs"]
                   ["rows_sha256"] for p in (a, b)]
    assert rows_sha256[0] == rows_sha256[1]


def test_gen_delta2d_presets(tmp_path):
    for delta in (0.5, 1.0, 1.5):
        out = str(tmp_path / ("d%s.txt" % delta))
        assert cli.main(["gen", "--out", out, "--steps", "30", "--seed", "2",
                         "--delta2d", str(delta), "--set", "n_scatterers=2"]) == 0
        ds = gscm.read_dataset(out)
        assert ds.delta2d == delta
        d = np.hypot(np.diff(ds.rows[:, 0]), np.diff(ds.rows[:, 1]))
        assert np.abs(d - delta).max() < 1e-9


def test_train_writes_trace_and_checkpoint(tmp_path, dataset_path,
                                           checkpoint_path):
    trace = open(checkpoint_path + ".trace.txt").read().splitlines()
    data_rows = [l for l in trace if not l.startswith("#")]
    assert len(data_rows) == 2
    params, scaler, _, meta = trainer.load_train_checkpoint(checkpoint_path)
    assert meta["settings"]["mode"] == "gen"
    assert scaler.n_paths == 2
    manifest = json.load(open(checkpoint_path + ".manifest.json"))
    assert manifest["inputs"]["sha256"] == _sha256(dataset_path)


def test_train_trace_deterministic(tmp_path, dataset_path):
    t1, t2 = str(tmp_path / "c1.bin"), str(tmp_path / "c2.bin")
    assert cli.main(train_args(dataset_path, t1)) == 0
    assert cli.main(train_args(dataset_path, t2)) == 0
    assert open(t1 + ".trace.txt", "rb").read() == \
        open(t2 + ".trace.txt", "rb").read()


def test_train_pred_mode(tmp_path, dataset_path):
    out = str(tmp_path / "ckp.bin")
    assert cli.main(train_args(dataset_path, out, mode="pred")) == 0
    _, _, _, meta = trainer.load_train_checkpoint(out)
    assert meta["settings"]["mode"] == "pred"
    assert meta["weights"] is None


def test_evaluate_writes_report(tmp_path, dataset_path, checkpoint_path,
                                capsys):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2", "--with-untrained"]) == 0
    assert sorted(os.listdir(out_dir)) == ["report.json",
                                           "report.json.manifest.json"]
    report_path = os.path.join(out_dir, "report.json")
    report = json.load(open(report_path))
    models = {c["model"] for c in report["cells"]}
    assert models == {"gen", "untrained"}
    stats = {c["statistic"] for c in report["cells"]}
    assert stats == set(trainer.EVAL_STATS)
    # bookkeeping: evaluation rows must not intersect the training split
    train_rows = set()
    for lo, hi in report["row_ranges"]["train"]:
        train_rows.update(range(lo, hi))
    for lo, hi in report["row_ranges"]["eval"]:
        assert not train_rows.intersection(range(lo, hi))
    # evaluate prints the table that ``ddgen table`` derives from the report
    table = capsys.readouterr().out
    assert "delay_spread / untrained" in table
    assert table == cli.format_table(report["cells"])
    assert cli.main(["table", report_path]) == 0
    assert capsys.readouterr().out == table
    manifest = json.load(open(report_path + ".manifest.json"))
    assert manifest["inputs"]["dataset_sha256"] == _sha256(dataset_path)
    assert manifest["outputs"] == {"report": report_path}


def test_evaluate_output_bytes(tmp_path, dataset_path, checkpoint_path):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "1", "--with-untrained"]) == 0
    with open(os.path.join(out_dir, "report.json")) as f:
        text = f.read()
    payload = json.loads(text)
    # the pure-Python encoder writes the same bytes as the C one
    pure = "".join(json.JSONEncoder(sort_keys=True).iterencode(payload))
    assert text == pure + "\n"


def test_evaluate_with_untrained_computes_the_true_side_once(
        tmp_path, dataset_path, checkpoint_path, monkeypatch):
    # one row_stats call for the true side, one for each model's windows
    calls = []
    row_stats = chanstats.row_stats

    def counted(*args):
        calls.append(args)
        return row_stats(*args)
    monkeypatch.setattr(chanstats, "row_stats", counted)
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", str(tmp_path / "e"),
                     "--with-untrained"]) == 0
    assert len(calls) == 3


def test_evaluate_untrained_is_the_model_train_starts_from(
        tmp_path, dataset_path, monkeypatch):
    seen = {}
    real_init, real_evaluate = trainer.init_params, trainer.evaluate_model

    def init(*args, **kwargs):
        params = real_init(*args, **kwargs)
        seen["start"] = {k: t.data.copy() for k, t in params.items()}
        return params

    def evaluate(dataset, model_cfg, models, *args, **kwargs):
        seen["untrained"] = models["untrained"]
        return real_evaluate(dataset, model_cfg, models, *args, **kwargs)
    monkeypatch.setattr(trainer, "init_params", init)
    monkeypatch.setattr(trainer, "evaluate_model", evaluate)
    checkpoint = str(tmp_path / "ck.bin")
    assert cli.main(train_args(dataset_path, checkpoint)) == 0
    assert cli.main(["evaluate", "--checkpoint", checkpoint,
                     "--dataset", dataset_path, "--out", str(tmp_path / "e"),
                     "--with-untrained"]) == 0
    assert set(seen["untrained"]) == set(seen["start"])
    for k, t in seen["untrained"].items():
        assert np.array_equal(t.data, seen["start"][k]), k


def test_evaluate_rejects_other_path_count(tmp_path, checkpoint_path,
                                           capsys):
    three = str(tmp_path / "three.txt")
    assert cli.main(gen_args(three) + ["--set", "n_scatterers=3"]) == 0
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", checkpoint_path,
                   "--dataset", three, "--out", str(tmp_path / "ev")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "2 paths" in err and "has 3" in err
    assert not os.path.exists(tmp_path / "ev")


# ids are pinned so a case keeps its name when cases are added or removed
@pytest.mark.parametrize("flags,want", [
    pytest.param(["--stride", "0"], "--stride", id="flags1---stride"),
    pytest.param(["--stride", "-1"], "--stride", id="flags2---stride"),
])
def test_evaluate_rejects_bad_flags_before_loading(tmp_path, capsys, flags,
                                                   want):
    # neither input exists: loading either would exit 3, not 1
    rc = cli.main(["evaluate", "--checkpoint", str(tmp_path / "no.bin"),
                   "--dataset", str(tmp_path / "no.txt"),
                   "--out", str(tmp_path / "ev")] + flags)
    assert rc == 1
    assert "config error: %s" % want in capsys.readouterr().err


def test_export_cdfs(tmp_path, dataset_path, checkpoint_path):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2", "--with-untrained"]) == 0
    report = os.path.join(out_dir, "report.json")
    cdf_dir = str(tmp_path / "cdfs")
    assert cli.main(["export-cdfs", "--report", report, "--out", cdf_dir]) == 0
    # two files per statistic per model, each one "%.17g %.17g" line per
    # grid point of the report's CDF
    payload = json.load(open(report))
    want = {}
    for model, stats in payload["cdfs"].items():
        for name, cdf in stats.items():
            for which in ("true", "gen"):
                want["%s_%s_%s.csv" % (name, model, which)] = "".join(
                    "%.17g %.17g\n" % gv
                    for gv in zip(np.asarray(cdf["grid"]),
                                  np.asarray(cdf[which])))
    assert len(want) == 2 * 2 * len(trainer.EVAL_STATS)
    assert sorted(os.listdir(cdf_dir)) == sorted(want)
    for name, text in want.items():
        with open(os.path.join(cdf_dir, name)) as f:
            assert f.read() == text, name
    path = os.path.join(cdf_dir, "delay_spread_gen_true.csv")
    rows = np.loadtxt(path)
    assert rows.shape == (chanstats.CDF_GRID_SIZE, 2)
    assert np.all(np.diff(rows[:, 1]) >= 0)  # CDF column nondecreasing
    first = open(path, "rb").read()
    assert cli.main(["export-cdfs", "--report", report, "--out", cdf_dir]) == 0
    assert open(path, "rb").read() == first  # byte-identical re-export


def test_export_cdfs_svg(tmp_path, dataset_path, checkpoint_path):
    pytest.importorskip("matplotlib")
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2"]) == 0
    cdf_dir = str(tmp_path / "cdfs")
    assert cli.main(["export-cdfs", "--report",
                     os.path.join(out_dir, "report.json"),
                     "--out", cdf_dir, "--svg"]) == 0
    assert os.path.exists(os.path.join(cdf_dir, "delay_spread.svg"))


def _write_report(path, cells):
    """A ``report.json`` of the given cells and no model's CDFs."""
    with open(path, "w") as f:
        json.dump({"cells": cells, "cdfs": {},
                   "row_ranges": {"train": [], "eval": []}}, f)


def _delay_cell(P, db):
    return {"statistic": "delay_spread", "model": "gen", "L": 20, "P": P,
            "delta2d": 1.0, "cdf_mse_db": db}


def test_table_merges_and_averages(tmp_path):
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    _write_report(r1, [_delay_cell(40, -30.0)])
    _write_report(r2, [_delay_cell(40, -20.0)])
    out = str(tmp_path / "table.txt")
    assert cli.main(["table", r1, r2, "--out", out]) == 0
    text = open(out).read()
    assert "-25.0000" in text  # three-run style averaging of duplicate cells


@pytest.mark.parametrize("how", ["truncated", "no-cells", "no-cdfs",
                                 "no-cdf_mse_db", "cells-not-a-list",
                                 "text-cdf_mse_db", "valid"])
def test_table_rejects_malformed_cells(tmp_path, capsys, how):
    # table and export-cdfs read a report through the same checks
    path = str(tmp_path / "report.json")
    _write_report(path, [_delay_cell(P, -30.0) for P in (4, 8)])
    text = open(path).read()
    payload = json.loads(text)
    if how == "truncated":
        text = text[:len(text) // 2]
        want = "report.json: not a JSON report"
    elif how == "no-cdf_mse_db":
        del payload["cells"][1]["cdf_mse_db"]
        want = "report.json: cell 1 lacks 'cdf_mse_db'"
    elif how == "cells-not-a-list":
        payload = {"cells": 5, "cdfs": {}}
        want = "report.json: 'cells' is not a list"
    elif how == "text-cdf_mse_db":
        payload["cells"][1]["cdf_mse_db"] = "x"
        want = "report.json: cell 1: 'cdf_mse_db' is not a number"
    elif how.startswith("no-"):
        del payload[how[3:]]
        want = "report.json: the report lacks %r" % how[3:]
    else:
        want = None
    with open(path, "w") as f:
        f.write(text if how == "truncated" else json.dumps(payload))
    runs = {"table": ["table", path],
            "export-cdfs": ["export-cdfs", "--report", path,
                            "--out", str(tmp_path / "cdfs")]}
    for command, args in runs.items():
        capsys.readouterr()
        rc = cli.main(args)
        captured = capsys.readouterr()
        if want is not None:
            assert rc == 2 and want in captured.err, command
            assert captured.out == "", command
        elif command == "table":
            assert rc == 0 and captured.out.count("-30.0000") == 2
        else:  # the report holds no model's CDFs
            assert rc == 0 and captured.out == ""


@pytest.mark.parametrize("how", ["no-grid", "no-true", "short-gen",
                                 "not-a-map", "text-grid", "null-gen",
                                 "bool-true"])
def test_export_cdfs_checks_every_cdf_before_writing(tmp_path, capsys, how):
    path = str(tmp_path / "report.json")
    cdf = {"grid": [0.0, 1.0], "true": [0.5, 1.0], "gen": [0.0, 1.0]}
    payload = {"cells": [_delay_cell(4, -30.0)], "row_ranges": {},
               "cdfs": {model: {name: dict(cdf) for name in trainer.EVAL_STATS}
                        for model in ("gen", "untrained")}}
    # the last entry written, so every other file would come first
    bad = payload["cdfs"]["untrained"]
    name = sorted(bad)[-1]
    want = "lacks grid, true and gen lists of one length"
    if how == "not-a-map":
        bad[name] = [0.0, 1.0]
    elif how == "short-gen":
        bad[name]["gen"] = [1.0]
    elif how.startswith("no-"):
        del bad[name][how[3:]]
    else:  # one entry of a list that is not a number
        value, key = how.split("-")
        bad[name][key] = [{"text": "a", "null": None, "bool": True}[value],
                          1.0]
        want = "holds a value that is not a number"
    with open(path, "w") as f:
        json.dump(payload, f)
    out_dir = str(tmp_path / "cdfs")
    rc = cli.main(["export-cdfs", "--report", path, "--out", out_dir])
    captured = capsys.readouterr()
    assert rc == 2
    assert ("report.json: the %s CDF of model untrained %s"
            % (name, want)) in captured.err
    assert captured.out == "" and not os.path.exists(out_dir)


def test_table_refuses_to_mix_lags(tmp_path, capsys):
    r20, r40 = str(tmp_path / "l20.json"), str(tmp_path / "l40.json")
    _write_report(r20, [_delay_cell(10, -30.0)])
    _write_report(r40, [dict(_delay_cell(10, -10.0), L=40)])
    out = str(tmp_path / "table.txt")
    assert cli.main(["table", r20, r40, "--out", out]) == 2
    captured = capsys.readouterr()
    assert ("delay_spread / gen mixes cells of lag L 20 and L 40"
            in captured.err)
    assert captured.out == "" and not os.path.exists(out)
    # one lag per (statistic, model) block: other blocks may differ
    _write_report(r40, [dict(_delay_cell(10, -10.0), L=40, model="pred")])
    assert cli.main(["table", r20, r40]) == 0
    text = capsys.readouterr().out
    assert "-30.0000" in text and "-10.0000" in text


MALLOC_PROBE = """
import ctypes, sys
import numpy as np
from ddgen import cli
class Info(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
if sys.argv[1] == "main":
    cli.main(["reference"])
before = libc.mallinfo2().hblks
block = np.ones(1 << 17)
print(libc.mallinfo2().hblks - before)
"""


@pytest.mark.skipif(cli._LIBC is None or not hasattr(cli._LIBC, "mallinfo2"),
                    reason="needs glibc 2.33 or later")
def test_main_fixes_the_malloc_thresholds():
    # in a fresh interpreter, glibc maps a 1 MB block on its own until a
    # larger one is freed; after main it comes from the heap
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    mapped = {}
    for mode in ("plain", "main"):
        out = subprocess.run([sys.executable, "-c", MALLOC_PROBE, mode],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        mapped[mode] = int(out.split()[-1])
    assert mapped == {"plain": 1, "main": 0}


def test_reference_table(capsys):
    assert cli.main(["reference"]) == 0
    out = capsys.readouterr().out
    assert "-40.1955" in out  # delay spread, P=600, 1 m step
    assert "-27.5395" in out  # azimuth spread, P=600, 1 m step
    assert "-21.6128" in out  # zenith spread, P=600, 1 m step
    assert "-44.8855" in out  # MPC power, P=600, 1 m step
    # the one table renderer, on cells of model "reference" at lag 100
    cells = [{"statistic": stat, "model": "reference", "L": 100, "P": p,
              "delta2d": d, "cdf_mse_db": db}
             for stat, table in cli.FULL_SCALE_REFERENCE_DB.items()
             for (p, d), db in table.items()]
    assert out == cli.format_table(cells)
    assert "delay_spread / reference (CDF MSE, dB)" in out


def test_summary_command(tmp_path, checkpoint_path, capsys):
    assert cli.main(["summary", "--checkpoint", checkpoint_path]) == 0
    out = capsys.readouterr().out
    assert "total parameters" in out
    assert "enc.proj.w" in out


def test_exit_codes(tmp_path):
    # unknown config key -> 1
    assert cli.main(["gen", "--out", str(tmp_path / "x.txt"),
                     "--set", "nonsense=1"]) == 1
    # keys that nothing read were deleted: naming one is an unknown key
    for key in ("eval_stride", "cdf_floor_db", "cdf_grid_size"):
        assert cli.main(["gen", "--out", str(tmp_path / "x.txt"),
                         "--set", "%s=1" % key]) == 1
    # invalid config value -> 1
    assert cli.main(["gen", "--out", str(tmp_path / "x.txt"),
                     "--set", "fc_ghz=-2"]) == 1
    # missing input file -> 3
    assert cli.main(["train", "--dataset", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "ck.bin")]) == 3
    # missing required flag -> 1 (argparse)
    assert cli.main(["gen"]) == 1


@pytest.mark.parametrize("command,sets,key", [
    ("train", ["heads=0"], "heads"),
    ("train", ["d_model=0"], "d_model"),
    ("train", ["ffn_dim=0"], "ffn_dim"),
    ("train", ["bilstm_hidden=0"], "bilstm_hidden"),
    ("train", ["d_model=7", "heads=7"], "d_model"),
    ("gen", ["seed=-1"], "seed"),
    ("train", ["seed=-1"], "seed"),
    ("gen", ["fc_ghz=nan"], "fc_ghz"),
    ("gen", ["delta2d=inf"], "delta2d"),
    ("gen", ["max_d2d=-5"], "max_d2d"),
    ("train", ["dropout=-0.5"], "dropout"),
    ("train", ["dropout=1.0"], "dropout"),
    ("train", ["lr=nan"], "lr"),
    ("train", ["beta=nan"], "beta"),
    ("train", ["checkpoint_every=-1"], "checkpoint_every"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
def test_settings_no_run_can_use_exit_1(tmp_path, capsys, command, sets,
                                        key):
    out = str(tmp_path / "out" / "x")
    if command == "gen":
        argv = gen_args(out)
    else:
        dataset = str(tmp_path / "ds.txt")
        assert cli.main(gen_args(dataset)) == 0
        argv = train_args(dataset, out)
    for pair in sets:
        argv += ["--set", pair]
    os.makedirs(os.path.dirname(out))
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err
    assert os.listdir(os.path.dirname(out)) == []


# keys whose one value is a constant of gscm or trainer
REMOVED_KEYS = ("tx_x", "tx_y", "tx_z", "bound_x_min", "bound_x_max",
                "bound_y_min", "bound_y_max", "bound_z_min", "bound_z_max",
                "start_x", "start_y", "h_rx", "heading_count", "lr_decay",
                "lr_decay_every", "weight_decay", "alpha_max")


def test_removed_config_keys_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    gen = ["gen", "--out", out, "--steps", "5", "--set", "n_scatterers=2"]
    cfg_file = str(tmp_path / "run.cfg")
    with open(cfg_file, "w") as f:
        f.write("heading_count=50\n")
    runs = [(key, gen + ["--set", "%s=1" % key]) for key in REMOVED_KEYS]
    runs.append(("heading_count", gen + ["--config", cfg_file]))
    for key, args in runs:
        capsys.readouterr()
        assert cli.main(args) == 1, args
        assert "unknown config key %r" % key in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("args", [
    ["train", "--trace", "{tmp}/t.txt"],
    ["train", "--lag", "6"],
    ["train", "--window", "4"],
    ["evaluate", "--lag", "6"],
    ["evaluate", "--window", "4"],
    ["evaluate", "--cdf-grid", "512"],
], ids=lambda args: "-".join(a.strip("-") for a in args[:2]))
def test_removed_flags_exit_1(tmp_path, dataset_path, checkpoint_path,
                              capsys, args):
    # each value is the one the checkpoint was trained with, or a fresh path
    command, flags = args[0], [a.format(tmp=tmp_path) for a in args[1:]]
    out = str(tmp_path / "out")
    if command == "train":
        argv = train_args(dataset_path, out) + flags
    else:
        argv = ["evaluate", "--checkpoint", checkpoint_path,
                "--dataset", dataset_path, "--out", out] + flags
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "unrecognized arguments: %s" % " ".join(flags) in \
        capsys.readouterr().err
    assert not os.path.exists(out)


def _readme_commands():
    """The ``ddgen`` command lines of README's "Command line" block, each
    split into arguments."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(l, comments=True) for l in lines
            if l.startswith("ddgen ")]


def test_readme_commands_parse(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {
        "gen", "train", "evaluate", "export-cdfs", "table", "summary",
        "reference"}
    parser = cli.build_parser()
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    for argv in commands:
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail("README command does not parse: %s" % " ".join(argv))
        for pair in getattr(args, "set", None) or []:
            assert pair.split("=", 1)[0] in keys, (argv, pair)
    # then run them in order in an empty directory, training 2 epochs
    # instead of 30: each file a command reads is one an earlier one wrote
    monkeypatch.chdir(tmp_path)
    epochs = 0
    for argv in commands:
        epochs += argv.count("epochs=30")
        argv = ["epochs=2" if a == "epochs=30" else a for a in argv]
        assert cli.main(argv[1:]) == 0, " ".join(argv)
    assert epochs == 1


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _corrupt(src, dst, how):
    """Copy a dataset file with one defect; returns what stderr must name
    for a header key, or None for a defect that only the digest sees."""
    lines = open(src).read().splitlines()
    first_row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    row = first_row + 3  # 0-based index; the file's line number is row + 1
    vals = lines[row].split()
    want = None
    if how in ("nan", "inf", "word"):
        vals[5] = how  # the first path's gain
        lines[row] = " ".join(vals)
    elif how == "short":
        lines[row] = " ".join(vals[:-1])
    elif how == "not_int":
        lines[1] = lines[1].replace(" seed=3", " seed=3.5")
        want = "bad.txt: header key 'seed'"
    elif how == "no_paths":
        lines[1] = lines[1].replace(" n_paths=2", " n_paths=0")
        want = "bad.txt: header key 'n_paths'"
    elif how == "traj_sum":  # the header claims one row too few
        lines[2] = lines[2].replace("traj_steps=50,50", "traj_steps=50,49")
    else:  # a deleted header key
        lines[1] = lines[1].replace(" delta2d=", " delta2d_=")
        want = "'delta2d'"
    with open(dst, "w") as f:
        f.write("\n".join(lines) + "\n")
    return want


@pytest.mark.parametrize("how", ["nan", "inf", "word", "short", "no_key",
                                 "not_int", "no_paths", "traj_sum"])
def test_malformed_dataset_exits_2(tmp_path, dataset_path, checkpoint_path,
                                   capsys, how):
    bad = str(tmp_path / "bad.txt")
    header_key = _corrupt(dataset_path, bad, how)
    # the second time, the original's twin and gen manifest sit beside the
    # corrupted text: a stale pair, which must not be used
    for stale_pair in (False, True):
        if stale_pair:
            for suffix in (".npy", ".manifest.json"):
                shutil.copy(dataset_path + suffix, bad + suffix)
            want = "bad.txt: the text's sha256 does not match its gen manifest"
        else:
            want = "bad.txt: its gen manifest %s.manifest.json is missing" % bad
        want = header_key or want
        capsys.readouterr()
        assert cli.main(train_args(bad, str(tmp_path / "bad.bin"))) == 2
        assert want in capsys.readouterr().err
        assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                         "--dataset", bad, "--out", str(tmp_path / "ev")]) == 2
        assert want in capsys.readouterr().err


@pytest.mark.parametrize("key,change", [
    ("mode", ["--mode", "gen"]),
    ("d_model", ["--set", "d_model=12"]),
    ("n_paths", None),
    ("train_frac", ["--set", "train_frac=0.7"]),
    ("stride", ["--set", "stride=3"]),
])
def test_resume_mismatch_exits_1(tmp_path, dataset_path, capsys, key, change):
    ckpt = str(tmp_path / "pred.bin")
    assert cli.main(train_args(dataset_path, ckpt, mode="pred",
                               epochs=1)) == 0
    args = train_args(dataset_path, str(tmp_path / "res.bin"), mode="pred")
    if change is None:  # a dataset with one more path than the checkpoint's
        other = str(tmp_path / "ds3.txt")
        assert cli.main(gen_args(other)[:-1] + ["n_scatterers=3"]) == 0
        args = train_args(other, str(tmp_path / "res.bin"), mode="pred")
    else:
        args += change
    capsys.readouterr()
    assert cli.main(args + ["--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "checkpoint has %s=" % key in err


def test_config_file_and_overrides(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as f:
        f.write("# comment line\n")
        f.write("n_scatterers=4\n")
        f.write("fc_ghz=3.5  # trailing comment\n")
        f.write("lag=10\n")
    cfg = load_config(path)
    assert cfg.n_scatterers == 4
    assert cfg.fc_ghz == 3.5
    assert cfg.lag == 10
    apply_overrides(cfg, ["lag=12"])
    assert cfg.lag == 12
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["lag"])
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "missing.cfg"))


def test_checkpoint_settings_are_the_run_config(tmp_path, dataset_path):
    out = str(tmp_path / "ck.bin")
    assert cli.main(train_args(dataset_path, out)) == 0
    _, _, _, meta = trainer.load_train_checkpoint(out)
    prefix = "# config: "
    line = next(l for l in open(out + ".trace.txt") if l.startswith(prefix))
    assert meta["settings"] == json.loads(line[len(prefix):])
    assert meta["settings"] == json.load(open(out + ".manifest.json"))["config"]
    assert meta["settings"] == RunConfig(**meta["settings"]).to_dict()


def _per_head_names(arrays):
    arrays["enc.0.attn.wq"] = arrays.pop("enc.0.attn.wqkv")[:, :8]


def test_checkpoint_of_another_kind_exits_1(tmp_path, dataset_path, capsys):
    fresh = str(tmp_path / "fresh.bin")
    assert cli.main(train_args(dataset_path, fresh, epochs=1)) == 0
    # the per-head and per-direction layout, with its own tensor names; and
    # the current names and shapes, trained with a masked decoder
    for kind, rename in (("ddgen-train", _per_head_names),
                         ("ddgen-train/2", lambda arrays: None)):
        old = str(tmp_path / "old.bin")
        arrays, meta = ad.load_checkpoint(fresh)
        rename(arrays)
        meta["kind"] = kind
        ad.save_checkpoint(old, arrays, meta)
        for args in (["evaluate", "--checkpoint", old, "--dataset",
                      dataset_path, "--out", str(tmp_path / "ev")],
                     ["summary", "--checkpoint", old],
                     train_args(dataset_path, str(tmp_path / "res.bin"))
                     + ["--resume", old]):
            capsys.readouterr()
            assert cli.main(args) == 1
            err = capsys.readouterr().err
            assert "config error" in err
            assert "%r" % kind in err and "'ddgen-train/3'" in err


def _rename(arrays, old, new):
    arrays[new] = arrays.pop(old)


@pytest.mark.parametrize("edit,named,commands", [
    (lambda a: _rename(a, "head.w", "head.weight"), "head.w", "all"),
    (lambda a: a.update({"enc.1.attn.wo": a["enc.0.attn.wo"]}),
     "enc.1.attn.wo", "all"),
    (lambda a: a.pop("opt.v.lstm.0.wh"), "opt.v.lstm.0.wh", "resume"),
], ids=["renamed", "extra", "no-moment"])
def test_checkpoint_tensor_names_must_match_model(tmp_path, dataset_path,
                                                  checkpoint_path, capsys,
                                                  edit, named, commands):
    bad = str(tmp_path / "bad.bin")
    arrays, meta = ad.load_checkpoint(checkpoint_path)
    edit(arrays)
    ad.save_checkpoint(bad, arrays, meta)
    _check_checkpoint_refused(tmp_path, dataset_path, bad, capsys,
                              "tensor %r" % named, commands)


def _check_checkpoint_refused(tmp_path, dataset_path, bad, capsys, named,
                              commands):
    """``evaluate``, ``summary`` and ``train --resume`` on a bad checkpoint:
    those ``commands`` names ("all", or one of them) exit 1 naming the
    defect; the others, which do not read it, exit 0."""
    runs = {"evaluate": ["evaluate", "--checkpoint", bad, "--dataset",
                         dataset_path, "--out", str(tmp_path / "ev")],
            "summary": ["summary", "--checkpoint", bad],
            "resume": train_args(dataset_path, str(tmp_path / "res.bin"))
            + ["--resume", bad]}
    for command, args in runs.items():
        capsys.readouterr()
        rc = cli.main(args)
        if commands == "all" or command == commands:
            assert rc == 1, command
            err = capsys.readouterr().err
            assert "config error" in err and named in err, (command, err)
        else:  # evaluate and summary do not read the optimizer moments
            assert rc == 0, command


@pytest.mark.parametrize("section,key,named,commands", [
    ("model", "rank", "model key 'rank'", "all"),
    (None, "n_paths", "'n_paths'", "all"),
    ("settings", "train_frac", "setting 'train_frac'", "all"),
    (None, "adam_t", "'adam_t'", "resume"),
], ids=["model-rank", "n_paths", "settings-train_frac", "adam_t"])
def test_checkpoint_header_must_hold_what_commands_read(
        tmp_path, dataset_path, checkpoint_path, capsys, section, key, named,
        commands):
    bad = str(tmp_path / "bad.bin")
    arrays, meta = ad.load_checkpoint(checkpoint_path)
    del (meta[section] if section else meta)[key]
    ad.save_checkpoint(bad, arrays, meta)
    _check_checkpoint_refused(tmp_path, dataset_path, bad, capsys,
                              "header lacks %s" % named, commands)


def test_checkpoint_with_removed_settings_still_loads(tmp_path, dataset_path,
                                                       checkpoint_path):
    # a checkpoint written before the single-valued keys became constants
    # records them among its settings; nothing reads them
    arrays, meta = ad.load_checkpoint(checkpoint_path)
    meta["settings"].update({key: 1 for key in REMOVED_KEYS})
    old = str(tmp_path / "old.bin")
    ad.save_checkpoint(old, arrays, meta)
    assert cli.main(["evaluate", "--checkpoint", old, "--dataset",
                     dataset_path, "--out", str(tmp_path / "ev")]) == 0
    assert cli.main(["summary", "--checkpoint", old]) == 0
    assert cli.main(train_args(dataset_path, str(tmp_path / "res.bin"),
                               epochs=3) + ["--resume", old]) == 0


# sha256 of the loss traces of the README's desk model after 3 epochs, in
# each mode, with 1 or 2 BLAS threads alike. Re-pinned when 17 single-valued
# keys left the config: only the trace's "# config:" line changed; every
# loss and learning rate kept its bits
DESK_TRACE_DIGESTS = {
    "gen": "aeb7032c0abbe9b411ca4128f220dad1e84eccf75d80c7feead3001beb673b78",
    "pred": "f7e8e61e8e6886826aa53ca365890e44b8efe91efe325b70390411822a279fd4",
}


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("desk") / "train.txt")
    assert cli.main(["gen", "--out", path, "--seed", "7", "--steps", "200",
                     "--trajectories", "10", "--delta2d", "5",
                     "--set", "n_scatterers=5", "--set", "hold_min=10",
                     "--set", "hold_max=50"]) == 0
    return path


@pytest.mark.parametrize("mode", ["gen", "pred"])
def test_desk_trace_bits_pinned(tmp_path, desk_dataset, mode):
    out = str(tmp_path / "desk.ckpt")
    assert cli.main([
        "train", "--dataset", desk_dataset, "--out", out, "--mode", mode,
        "--seed", "1", "--set", "n_scatterers=5", "--set", "d_model=32",
        "--set", "heads=2", "--set", "rank=8", "--set", "ffn_dim=32",
        "--set", "bilstm_hidden=16", "--set", "bilstm_layers=1",
        "--set", "enc_layers=1", "--set", "dec_layers=1", "--set", "lag=20",
        "--set", "window=10", "--set", "epochs=3", "--set", "batch_size=64",
        "--set", "stride=2", "--set", "lr=1.5e-3"]) == 0
    assert _sha256(out + ".trace.txt") == DESK_TRACE_DIGESTS[mode]


def _config_reads(paths):
    """Attributes read from a ``RunConfig`` and from a ``ModelConfig`` in
    the given sources, outside the bodies of ``validate`` methods.

    Receivers are told apart by name, which is how the sources name them:
    ``self`` inside either class; ``cfg`` is a ``ModelConfig`` throughout
    ``htransformer`` and in any function that binds it from
    ``ModelConfig...``, and a ``RunConfig`` everywhere else. Reads on
    other names (``args.stride``, ``model_cfg.lag``, ``ds.delta2d``) do
    not count."""
    reads = {"RunConfig": set(), "ModelConfig": set()}

    def binds_model_cfg(fn):
        return any(isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "cfg"
                           for t in node.targets)
                   and ast.unparse(node.value).startswith("ModelConfig")
                   for node in ast.walk(fn))

    class Reads(ast.NodeVisitor):
        def __init__(self, cfg_kind):
            self.kinds = {"cfg": cfg_kind, "self": None}

        def visit_ClassDef(self, node):
            outer = self.kinds
            self.kinds = dict(outer, self=node.name if node.name in reads
                              else None)
            self.generic_visit(node)
            self.kinds = outer

        def visit_FunctionDef(self, node):
            if node.name == "validate":
                return
            outer = self.kinds
            if binds_model_cfg(node):
                self.kinds = dict(outer, cfg="ModelConfig")
            self.generic_visit(node)
            self.kinds = outer

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Load) and isinstance(node.value,
                                                             ast.Name):
                kind = self.kinds.get(node.value.id)
                if kind is not None:
                    reads[kind].add(node.attr)
            self.generic_visit(node)

    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        model_module = os.path.basename(path) == "htransformer.py"
        Reads("ModelConfig" if model_module else "RunConfig").visit(tree)
    return reads


def test_every_config_key_is_read():
    sources = glob.glob(os.path.join(os.path.dirname(ddgen.__file__), "*.py"))
    reads = _config_reads(sources)
    # RunConfig.model_config hands every ModelConfig field but feature_dim
    # over by name; such a key is read when the model reads it
    handed = {f.name for f in dataclasses.fields(ModelConfig)} - {"feature_dim"}
    cfg = RunConfig()
    model_cfg = cfg.model_config()
    assert all(getattr(model_cfg, k) == getattr(cfg, k) for k in handed)
    read = reads["RunConfig"] | (handed & reads["ModelConfig"])
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in read]
    assert unread == []
