"""Command-line orchestration: dataset generation, training, evaluation,
CDF export and distance tables.

Every command is a pure function of (config, seed, input files); numeric
output files are byte-identical across reruns. Exit codes: 0 success,
1 config error, 2 runtime/divergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from . import gscm, trainer
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .htransformer import ModelConfig, init_params, model_summary

# Reference CDF distances (dB) from full-scale statistics-aided training
# runs (lag 100, 125K samples, 250 episodes, 3-run averages). Desk-scale
# runs are not expected to reach these; they are recorded for comparison.
FULL_SCALE_REFERENCE_DB = {
    "delay_spread": {
        (100, 0.5): -52.8885, (100, 1.0): -55.2699, (100, 1.5): -54.5774,
        (200, 0.5): -49.5570, (200, 1.0): -53.9503, (200, 1.5): -52.1240,
        (300, 0.5): -47.0285, (300, 1.0): -48.6410, (300, 1.5): -49.2194,
        (400, 0.5): -41.5335, (400, 1.0): -44.3583, (400, 1.5): -44.3706,
        (500, 0.5): -42.3484, (500, 1.0): -33.5980, (500, 1.5): -41.4754,
        (600, 0.5): -38.7279, (600, 1.0): -40.1955, (600, 1.5): -39.7902,
    },
    "azimuth_spread": {
        (100, 0.5): -42.0474, (100, 1.0): -38.7102, (100, 1.5): -38.5716,
        (200, 0.5): -42.7066, (200, 1.0): -39.2833, (200, 1.5): -37.2502,
        (300, 0.5): -40.1472, (300, 1.0): -36.3108, (300, 1.5): -31.2296,
        (400, 0.5): -37.8697, (400, 1.0): -30.0874, (400, 1.5): -28.2045,
        (500, 0.5): -33.4387, (500, 1.0): -27.7246, (500, 1.5): -26.1974,
        (600, 0.5): -30.4956, (600, 1.0): -27.5395, (600, 1.5): -24.9633,
    },
    "zenith_spread": {
        (100, 0.5): -35.6576, (100, 1.0): -34.4315, (100, 1.5): -32.2137,
        (200, 0.5): -33.8098, (200, 1.0): -34.5514, (200, 1.5): -34.0743,
        (300, 0.5): -33.1182, (300, 1.0): -30.6249, (300, 1.5): -28.1075,
        (400, 0.5): -32.1355, (400, 1.0): -28.8586, (400, 1.5): -25.9413,
        (500, 0.5): -33.0336, (500, 1.0): -18.5252, (500, 1.5): -23.8947,
        (600, 0.5): -27.7930, (600, 1.0): -21.6128, (600, 1.5): -19.9344,
    },
    "mpc_power": {
        (100, 0.5): -56.3837, (100, 1.0): -57.5637, (100, 1.5): -58.1858,
        (200, 0.5): -53.9518, (200, 1.0): -53.3001, (200, 1.5): -54.2991,
        (300, 0.5): -53.2143, (300, 1.0): -53.1760, (300, 1.5): -51.0421,
        (400, 0.5): -51.4039, (400, 1.0): -48.2488, (400, 1.5): -47.1207,
        (500, 0.5): -48.9298, (500, 1.0): -40.6194, (500, 1.5): -42.5530,
        (600, 0.5): -46.3882, (600, 1.0): -44.8855, (600, 1.5): -41.4754,
    },
}


def _resolve_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = []
    for flag in ("seed", "steps", "delta2d", "trajectories", "mode"):
        val = getattr(args, flag, None)
        if val is not None:
            overrides.append("%s=%s" % (flag, val))
    overrides.extend(getattr(args, "set", None) or [])
    apply_overrides(cfg, overrides)
    return cfg.validate()


def _write_manifest(out_path, command, config, inputs, outputs):
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    path = out_path + gscm.MANIFEST_SUFFIX
    with open(path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args):
    cfg = _resolve_config(args)
    ds = gscm.synthesize_dataset(
        n_paths=cfg.n_scatterers, steps=cfg.steps, seed=cfg.seed,
        fc_ghz=cfg.fc_ghz, delta2d=cfg.delta2d,
        trajectories=cfg.trajectories, max_d2d=cfg.max_d2d,
        hold_range=(cfg.hold_min, cfg.hold_max))
    digests = gscm.write_dataset(ds, args.out)
    manifest = _write_manifest(args.out, "gen", cfg.to_dict(), {},
                               {"dataset": args.out, **digests})
    g = ds.rows[:, 3]
    print("wrote %s: %d rows x %d features (%d trajectories)"
          % (args.out, *ds.rows.shape, len(ds.traj_steps)))
    print("total gain dBm: min %.2f  mean %.2f  max %.2f"
          % (g.min(), g.mean(), g.max()))
    print("manifest: %s" % manifest)
    return 0


def cmd_train(args):
    cfg = _resolve_config(args)
    ds = gscm.read_dataset(args.dataset)
    result = trainer.train(ds, cfg, args.out, resume_from=args.resume)
    if _LIBC is not None:
        # the steps' temporaries stayed in the heap; a command run next in
        # this process should not start above them
        _LIBC.malloc_trim(0)
    trace_path = args.out + ".trace.txt"
    trainer.write_trace(trace_path, result.trace, cfg.to_dict())
    manifest = _write_manifest(args.out, "train", cfg.to_dict(),
                               {"dataset": args.dataset,
                                "sha256": ds.sha256},
                               {"checkpoint": args.out, "trace": trace_path})
    for epoch, loss, lr in result.trace:
        print("epoch %3d  loss %.6g  lr %.3g" % (epoch, loss, lr))
    print("checkpoint: %s" % args.out)
    print("manifest: %s" % manifest)
    return 0


# the keys of one table cell: a CDF distance (dB) and where it was measured
CELL_KEYS = ("statistic", "model", "L", "P", "delta2d", "cdf_mse_db")
# the keys whose values are names; every other cell value is a number
_CELL_NAMES = ("statistic", "model")


def _cell(*values):
    return dict(zip(CELL_KEYS, values))


def cmd_evaluate(args):
    if args.stride is not None and args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    params, scaler, _, meta = trainer.load_train_checkpoint(args.checkpoint,
                                                            optimizer=False)
    model_cfg = ModelConfig.from_dict(meta["model"])
    ds = gscm.read_dataset(args.dataset)
    if ds.n_paths != scaler.n_paths:
        raise ConfigError("checkpoint was trained on %d paths, the dataset "
                          "has %d" % (scaler.n_paths, ds.n_paths))
    settings = meta["settings"]
    train_ranges, eval_ranges = trainer.split_ranges(ds,
                                                     settings["train_frac"])
    stride = settings["stride"] if args.stride is None else args.stride
    models = {"gen" if settings["mode"] == "gen" else "pred": params}
    if args.with_untrained:
        models["untrained"] = init_params(
            model_cfg, seed=trainer.seed_split(settings["seed"])[0])
    true_pools, gen_pools = trainer.evaluate_model(
        ds, model_cfg, models, scaler, eval_ranges, stride=stride)
    cells, cdfs = [], {}
    for label, pools in gen_pools.items():
        report = trainer.cdf_distance_report(true_pools, pools)
        cells += [_cell(name, label, model_cfg.lag, model_cfg.window,
                        ds.delta2d, report[name]["cdf_mse_db"])
                  for name in trainer.EVAL_STATS]
        cdfs[label] = {
            name: {"grid": report[name]["grid"].tolist(),
                   "true": report[name]["true_values"].tolist(),
                   "gen": report[name]["gen_values"].tolist()}
            for name in trainer.EVAL_STATS}

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    payload = {
        "cells": cells,
        "row_ranges": {"train": train_ranges, "eval": eval_ranges},
        "cdfs": cdfs,
    }
    with open(report_path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True) + "\n")
    _write_manifest(report_path, "evaluate", meta["settings"],
                    {"checkpoint": args.checkpoint, "dataset": args.dataset,
                     "dataset_sha256": ds.sha256},
                    {"report": report_path})
    print(format_table(cells), end="")
    return 0


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_report(path):
    """The payload of an evaluate ``report.json``. A file that is not JSON,
    lacks ``cells`` or ``cdfs``, whose ``cells`` is not a list of objects
    holding every one of ``CELL_KEYS`` (names as strings, the rest as
    numbers), or that holds a CDF without ``grid``, ``true`` and ``gen``
    lists of numbers of one length raises ValueError naming the file."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:
            raise ValueError("%s: not a JSON report: %s" % (path, exc)) \
                from None
    for key in ("cells", "cdfs"):
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError("%s: the report lacks %r" % (path, key))
    if not isinstance(payload["cells"], list):
        raise ValueError("%s: 'cells' is not a list" % path)
    for i, cell in enumerate(payload["cells"]):
        missing = [k for k in CELL_KEYS
                   if not isinstance(cell, dict) or k not in cell]
        if missing:
            raise ValueError("%s: cell %d lacks %r" % (path, i, missing[0]))
        bad = [k for k in CELL_KEYS if not (
            isinstance(cell[k], str) if k in _CELL_NAMES
            else _is_number(cell[k]))]
        if bad:
            raise ValueError("%s: cell %d: %r is not a %s" % (
                path, i, bad[0],
                "string" if bad[0] in _CELL_NAMES else "number"))
    cdfs = payload["cdfs"]
    if not (isinstance(cdfs, dict)
            and all(isinstance(stats, dict) for stats in cdfs.values())):
        raise ValueError("%s: 'cdfs' does not map models to statistics"
                         % path)
    for model, stats in sorted(cdfs.items()):
        for name, cdf in sorted(stats.items()):
            parts = ([cdf.get(k) for k in ("grid", "true", "gen")]
                     if isinstance(cdf, dict) else [None])
            if not all(isinstance(p, list) and len(p) == len(parts[0])
                       for p in parts):
                raise ValueError("%s: the %s CDF of model %s lacks grid, "
                                 "true and gen lists of one length"
                                 % (path, name, model))
            if not all(_is_number(v) for part in parts for v in part):
                raise ValueError("%s: the %s CDF of model %s holds a value "
                                 "that is not a number" % (path, name, model))
    return payload


def format_table(cells):
    """Aligned text: one block per (statistic, model), P rows x delta2d cols.

    Duplicate (statistic, model, P, delta2d) cells are averaged, which is
    how multiple independent training runs get combined. A block whose
    cells differ in their lag L raises ValueError naming both lags.
    """
    groups, lags = {}, {}
    for c in cells:
        key = (c["statistic"], c["model"])
        lag = lags.setdefault(key, c["L"])
        if c["L"] != lag:
            raise ValueError("%s / %s mixes cells of lag L %s and L %s"
                             % (*key, lag, c["L"]))
        groups.setdefault(key, {}).setdefault(
            (c["P"], c["delta2d"]), []).append(c["cdf_mse_db"])
    lines = []
    for (stat, model), vals in sorted(groups.items()):
        ps = sorted({p for p, _ in vals})
        deltas = sorted({d for _, d in vals})
        lines.append("%s / %s (CDF MSE, dB)" % (stat, model))
        lines.append("  %-8s" % "P" + "".join("%14s" % ("d2d=%g m" % d)
                                              for d in deltas))
        for p in ps:
            row = "  %-8d" % p
            for d in deltas:
                entry = vals.get((p, d))
                row += "%14s" % ("%.4f" % float(np.mean(entry))
                                 if entry else "-")
            lines.append(row)
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def cmd_table(args):
    cells = []
    for path in args.reports:
        cells.extend(_read_report(path)["cells"])
    text = format_table(cells)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text, end="")
    return 0


def _write_cdf_files(cdfs, out_dir):
    """Two-column (grid, value) text files per statistic per model label."""
    written = []
    for model, stats in sorted(cdfs.items()):
        for name, cdf in sorted(stats.items()):
            for which in ("true", "gen"):
                path = os.path.join(out_dir,
                                    "%s_%s_%s.csv" % (name, model, which))
                with open(path, "w") as f:
                    f.write("".join("%.17g %.17g\n" % gv
                                    for gv in zip(cdf["grid"], cdf[which])))
                written.append(path)
    return written


def cmd_export_cdfs(args):
    payload = _read_report(args.report)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    written = _write_cdf_files(payload["cdfs"], out_dir)
    if args.svg:
        written += _render_svgs(payload, out_dir)
    for path in written:
        print("wrote %s" % path)
    return 0


def _render_svgs(payload, out_dir):
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping SVG plots", file=sys.stderr)
        return []
    matplotlib.rcParams["svg.hashsalt"] = "ddgen"
    written = []
    stat_names = sorted({n for stats in payload["cdfs"].values()
                         for n in stats})
    for name in stat_names:
        fig, ax = plt.subplots(figsize=(5, 4))
        drew_truth = False
        for model, stats in sorted(payload["cdfs"].items()):
            if name not in stats:
                continue
            cdf = stats[name]
            if not drew_truth:
                ax.plot(cdf["grid"], cdf["true"], label="ground truth",
                        color="black")
                drew_truth = True
            ax.plot(cdf["grid"], cdf["gen"], label=model)
        ax.set_xlabel(name)
        ax.set_ylabel("CDF")
        ax.legend()
        path = os.path.join(out_dir, name + ".svg")
        fig.savefig(path, metadata={"Date": None})
        plt.close(fig)
        written.append(path)
    return written


def cmd_reference(args):
    print(format_table([_cell(stat, "reference", 100, p, d, db)
                        for stat, table in FULL_SCALE_REFERENCE_DB.items()
                        for (p, d), db in table.items()]), end="")
    return 0


def cmd_summary(args):
    params, _, _, meta = trainer.load_train_checkpoint(args.checkpoint,
                                                       optimizer=False)
    cfg = ModelConfig.from_dict(meta["model"])
    print(model_summary(cfg, params))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddgen",
        description="Double-directional channel dataset synthesis, "
                    "statistics-aided sequence model training and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("gen", help="synthesize a channel dataset")
    common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--delta2d", type=float)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the sequence generator")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=("gen", "pred"))
    p.add_argument("--resume")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="CDF-distance evaluation on the "
                                        "held-out split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--stride", type=int)
    p.add_argument("--with-untrained", action="store_true",
                   help="also score a freshly initialized model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-cdfs", help="write per-statistic CDF files "
                                           "from an evaluation report")
    p.add_argument("--report", required=True)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_cdfs)

    p = sub.add_parser("table", help="merge the cells of evaluation reports "
                                     "into aligned distance tables")
    p.add_argument("reports", nargs="+", metavar="report.json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("reference", help="print full-scale reference "
                                         "distances")
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("summary", help="print a checkpoint's layer summary")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_summary)
    return parser


# glibc's malloc raises its mmap threshold to the largest block freed so far
# (up to 32 MB) and trims the heap top once twice that is free. Where earlier
# long-lived blocks happened to land then decides whether a training step's
# temporaries stay in the heap or go back to the kernel and fault in again on
# every step: by the same seed and code, a desk-sized training run faulted
# 0.15 M, 0.22 M or 1.2 M pages. Fixed at the values the dynamic threshold
# climbs to, every such run faults the same 5 thousand; ``train`` trims the
# heap once, when its steps are done, instead.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


def _glibc():
    """The C library, if it has glibc's malloc tuning calls; else None."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    return libc


_LIBC = _glibc()


def main(argv=None):
    if _LIBC is not None:
        _LIBC.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        _LIBC.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except trainer.TrainingDiverged as exc:
        print("training diverged: %s (last checkpoint: %s)"
              % (exc, exc.last_checkpoint), file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
