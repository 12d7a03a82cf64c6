import ast
import dataclasses
import glob
import hashlib
import json
import os
import shutil

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
    assert cfg.tx() == (0.0, 0.0, 25.0)
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
    os.remove(dataset_path + ".npy")  # the text path gives the same digest
    assert gscm.read_dataset(dataset_path).sha256 == ds.sha256


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


def test_evaluate_writes_report(tmp_path, dataset_path, checkpoint_path):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2", "--with-untrained"]) == 0
    report = json.load(open(os.path.join(out_dir, "report.json")))
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
    assert os.path.exists(os.path.join(out_dir, "cells.csv"))
    table = open(os.path.join(out_dir, "table.txt")).read()
    assert "delay_spread" in table
    manifest = json.load(open(os.path.join(out_dir, "report.json")
                              + ".manifest.json"))
    assert manifest["inputs"]["dataset_sha256"] == _sha256(dataset_path)


def test_evaluate_output_bytes(tmp_path, dataset_path, checkpoint_path):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "1", "--cdf-grid", "40",
                     "--with-untrained"]) == 0
    with open(os.path.join(out_dir, "report.json")) as f:
        text = f.read()
    payload = json.loads(text)
    # the pure-Python encoder writes the same bytes as the C one
    pure = "".join(json.JSONEncoder(sort_keys=True).iterencode(payload))
    assert text == pure + "\n"
    written = 0
    for model, stats in payload["cdfs"].items():
        for name, cdf in stats.items():
            grid = np.asarray(cdf["grid"])
            for which in ("true", "gen"):
                path = os.path.join(out_dir,
                                    "%s_%s_%s.csv" % (name, model, which))
                want = "".join("%.17g %.17g\n" % (g, v) for g, v in
                               zip(grid, np.asarray(cdf[which])))
                with open(path) as f:
                    assert f.read() == want, path
                written += 1
    assert written == 2 * 2 * len(trainer.EVAL_STATS)


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


@pytest.mark.parametrize("flags,want", [
    (["--cdf-grid", "1"], "--cdf-grid"),
    (["--stride", "0"], "--stride"),
    (["--stride", "-1"], "--stride"),
])
def test_evaluate_rejects_bad_flags_before_loading(tmp_path, capsys, flags,
                                                   want):
    # neither input exists: loading either would exit 3, not 1
    rc = cli.main(["evaluate", "--checkpoint", str(tmp_path / "no.bin"),
                   "--dataset", str(tmp_path / "no.txt"),
                   "--out", str(tmp_path / "ev")] + flags)
    assert rc == 1
    assert "config error: %s" % want in capsys.readouterr().err


def test_evaluate_rejects_mismatched_window(tmp_path, dataset_path,
                                            checkpoint_path):
    rc = cli.main(["evaluate", "--checkpoint", checkpoint_path,
                   "--dataset", dataset_path, "--out", str(tmp_path / "x"),
                   "--window", "99"])
    assert rc == 1


def test_export_cdfs(tmp_path, dataset_path, checkpoint_path):
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2", "--cdf-grid", "64"]) == 0
    report = os.path.join(out_dir, "report.json")
    cdf_dir = str(tmp_path / "cdfs")
    assert cli.main(["export-cdfs", "--report", report, "--out", cdf_dir]) == 0
    path = os.path.join(cdf_dir, "delay_spread_gen_true.csv")
    rows = np.loadtxt(path)
    assert rows.shape == (64, 2)
    assert np.all(np.diff(rows[:, 1]) >= 0)  # CDF column nondecreasing
    first = open(path, "rb").read()
    assert cli.main(["export-cdfs", "--report", report, "--out", cdf_dir]) == 0
    assert open(path, "rb").read() == first  # byte-identical re-export


def test_export_cdfs_svg(tmp_path, dataset_path, checkpoint_path):
    pytest.importorskip("matplotlib")
    out_dir = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--checkpoint", checkpoint_path,
                     "--dataset", dataset_path, "--out", out_dir,
                     "--stride", "2", "--cdf-grid", "32"]) == 0
    cdf_dir = str(tmp_path / "cdfs")
    assert cli.main(["export-cdfs", "--report",
                     os.path.join(out_dir, "report.json"),
                     "--out", cdf_dir, "--svg"]) == 0
    assert os.path.exists(os.path.join(cdf_dir, "delay_spread.svg"))


def test_table_merges_and_averages(tmp_path):
    c1 = str(tmp_path / "c1.csv")
    c2 = str(tmp_path / "c2.csv")
    cli._write_cells_csv(c1, [{"statistic": "delay_spread", "model": "gen",
                               "L": 20, "P": 40, "delta2d": 1.0,
                               "cdf_mse_db": -30.0}])
    cli._write_cells_csv(c2, [{"statistic": "delay_spread", "model": "gen",
                               "L": 20, "P": 40, "delta2d": 1.0,
                               "cdf_mse_db": -20.0}])
    out = str(tmp_path / "table.txt")
    assert cli.main(["table", c1, c2, "--out", out]) == 0
    text = open(out).read()
    assert "-25.0000" in text  # three-run style averaging of duplicate cells


@pytest.mark.parametrize("how", ["truncated", "header", "blank"])
def test_table_rejects_malformed_cells(tmp_path, capsys, how):
    path = str(tmp_path / "cells.csv")
    cli._write_cells_csv(path, [
        {"statistic": "delay_spread", "model": "gen", "L": 6, "P": P,
         "delta2d": 1.0, "cdf_mse_db": -30.0} for P in (4, 8)])
    lines = open(path).read().splitlines()
    if how == "truncated":
        lines[-1] = "delay_spread,gen,6,4"
        want = "cells.csv:3: expected 6 fields"
    elif how == "header":
        lines[0] = "statistic,model"
        want = "cells.csv:1: expected header"
    else:  # blank lines carry no cell and stay allowed
        lines.insert(2, "")
        want = None
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    rc = cli.main(["table", path])
    captured = capsys.readouterr()
    if want is None:
        assert rc == 0 and captured.out.count("-30.0000") == 2
    else:
        assert rc == 2 and want in captured.err and captured.out == ""


def test_reference_table(capsys):
    assert cli.main(["reference"]) == 0
    out = capsys.readouterr().out
    assert "-40.1955" in out  # delay spread, P=600, 1 m step
    assert "-27.5395" in out  # azimuth spread, P=600, 1 m step
    assert "-21.6128" in out  # zenith spread, P=600, 1 m step
    assert "-44.8855" in out  # MPC power, P=600, 1 m step


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


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _corrupt(src, dst, how):
    """Copy a dataset file with one defect; returns what stderr must name."""
    lines = open(src).read().splitlines()
    first_row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    row = first_row + 3  # 0-based index; the file's line number is row + 1
    vals = lines[row].split()
    if how in ("nan", "inf", "word"):
        vals[5] = how  # the first path's gain
        lines[row] = " ".join(vals)
        want = "line %d" % (row + 1)
    elif how == "short":
        lines[row] = " ".join(vals[:-1])
        want = "line %d" % (row + 1)
    elif how == "not_int":
        lines[1] = lines[1].replace(" seed=3", " seed=3.5")
        want = "bad.txt: header key 'seed'"
    elif how == "no_paths":
        lines[1] = lines[1].replace(" n_paths=2", " n_paths=0")
        want = "bad.txt: header key 'n_paths'"
    elif how == "traj_sum":  # the header claims one row too few
        lines[2] = lines[2].replace("traj_steps=50,50", "traj_steps=50,49")
        want = "bad.txt: header key 'traj_steps'"
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
    want = _corrupt(dataset_path, bad, how)
    # the second time, the original's twin and gen manifest sit beside the
    # corrupted text: a stale pair, which must not be used
    for stale_pair in (False, True):
        if stale_pair:
            for suffix in (".npy", ".manifest.json"):
                shutil.copy(dataset_path + suffix, bad + suffix)
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


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path))
    assert cli.main(["gen", "--out", "rooted.txt", "--steps", "5",
                     "--seed", "1", "--set", "n_scatterers=2"]) == 0
    assert os.path.exists(str(tmp_path / "rooted.txt"))


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


# The layout of ``meta["settings"]`` in checkpoints written while training
# kept its own 15-key settings type beside the run configuration: 14 run
# keys plus a gradient-clipping cap that was always 0.
OLD_SETTINGS_KEYS = ("mode", "epochs", "batch_size", "lr", "lr_decay",
                     "lr_decay_every", "weight_decay", "beta", "stride",
                     "train_frac", "seed", "checkpoint_every", "alpha_max",
                     "dropout")


def test_old_settings_layout_evaluates_and_resumes(tmp_path, dataset_path):
    old = str(tmp_path / "old.bin")
    assert cli.main(train_args(dataset_path, old, epochs=1)) == 0
    arrays, meta = ad.load_checkpoint(old)
    meta["settings"] = {k: meta["settings"][k] for k in OLD_SETTINGS_KEYS}
    meta["settings"]["grad_clip"] = 0.0
    ad.save_checkpoint(old, arrays, meta)

    assert cli.main(["evaluate", "--checkpoint", old, "--dataset",
                     dataset_path, "--out", str(tmp_path / "ev")]) == 0
    full, resumed = str(tmp_path / "full.bin"), str(tmp_path / "res.bin")
    assert cli.main(train_args(dataset_path, full, epochs=2)) == 0
    assert cli.main(train_args(dataset_path, resumed, epochs=2)
                    + ["--resume", old]) == 0
    last_rows = [open(p + ".trace.txt").read().splitlines()[-1]
                 for p in (full, resumed)]
    assert last_rows[0].startswith("2 ") and last_rows[0] == last_rows[1]


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
