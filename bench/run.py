"""ddgen benchmark: one workload's ``ddgen gen`` -> ``train`` -> ``evaluate``
pipeline, driven through the command line, checked, and timed.

Usage (from the repository root):

    python3 bench/run.py --workload {corpus,desk,wide} --seed N \
        --seconds S --trace {0,1}

Each round runs the whole pipeline in one fresh worker process and checks
every output it wrote. Rounds repeat until the next one would end after
``--seconds``; each metric is the median over the run's rounds. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and traced,
and it holds the per-layer metrics and the tracing overhead instead. See
README.md next to this file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# Fixed before numpy loads here or in a worker; recorded in the output.
# One thread: the models' small matmuls gain nothing from a second one,
# whose spin-waiting only adds contention and run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402  (imports numpy: only after the thread setting)

# desk_preset() of ddgen.config, written out so the workload stays fixed
DESK_MODEL = {"d_model": 32, "heads": 2, "rank": 8, "ffn_dim": 32,
              "bilstm_hidden": 16, "bilstm_layers": 1, "enc_layers": 1,
              "dec_layers": 1, "lag": 20, "window": 10, "dropout": 0.0}
# the paper's full-width model
WIDE_MODEL = {"d_model": 512, "heads": 8, "rank": 64, "ffn_dim": 512,
              "bilstm_hidden": 128, "bilstm_layers": 2, "enc_layers": 2,
              "dec_layers": 2, "lag": 100, "window": 200, "dropout": 0.1}

WORKLOADS = {
    # 26 paths x 8k rows: synthesis, text I/O and per-row statistics
    # pooling dominate; predictive loss, so no calibration or stats loss
    "corpus": {
        "world": {"n_scatterers": 26, "steps": 1000, "trajectories": 8,
                  "delta2d": 1.0, "hold_min": 100, "hold_max": 500},
        "model": DESK_MODEL,
        "train": {"mode": "pred", "epochs": 1, "batch_size": 64,
                  "stride": 2, "lr": 1.5e-3},
        "gens": 1, "eval_stride": 2, "evals": 1, "max_loss_ratio": None},
    # desk_preset() with the statistics-aided loss, as acceptance
    # criterion 7 trains it: tiny tape nodes and the statistics loss
    "desk": {
        "world": {"n_scatterers": 5, "steps": 200, "trajectories": 10,
                  "delta2d": 5.0, "hold_min": 10, "hold_max": 50},
        "model": DESK_MODEL,
        "train": {"mode": "gen", "epochs": 30, "batch_size": 64,
                  "stride": 2, "lr": 1.5e-3},
        "gens": 4, "eval_stride": 1, "evals": 3, "max_loss_ratio": 0.5},
    # full-width model, statistics-aided, 3 steps at batch 4
    "wide": {
        "world": {"n_scatterers": 26, "steps": 320, "trajectories": 5,
                  "delta2d": 1.0, "hold_min": 100, "hold_max": 500},
        "model": WIDE_MODEL,
        "train": {"mode": "gen", "epochs": 1, "batch_size": 4,
                  "stride": 10, "lr": 5e-5},
        "gens": 2, "eval_stride": 5, "evals": 3, "max_loss_ratio": None},
}
SETUP_PROBES = 4
RUN_DEADLINE_S = 150  # a run must end within 180 s, checks included
GRAD_EPS, GRAD_RTOL = 1e-5, 1e-6
COUNTS = ("gscm.rows", "chanstats.row_stats_calls", "trainer.steps",
          "adtensor.nodes_per_step")

END_TO_END = (("setup_s", "s"), ("gen_rows_per_s", "rows/s"),
              ("train_windows_per_s", "windows/s"),
              ("eval_windows_per_s", "windows/s"), ("peak_rss_mb", "MB"))


def _sets(values):
    return [a for kv in values.items() for a in ("--set", "%s=%s" % kv)]


def round_spec(w, seed, d, traced=False, probe=False):
    world = w["world"]
    ds, ckpt = os.path.join(d, "data.txt"), os.path.join(d, "model.ckpt")
    train_keys = {k: v for k, v in w["train"].items() if k != "mode"}
    return {
        "src": SRC, "trace": traced, "probe": probe,
        "spans": os.path.join(os.path.dirname(d), "spans.jsonl"),
        "gen": [["gen", "--out", os.path.join(d, "data%s.txt" % (i or "")),
                 "--seed", str(seed), "--steps", str(world["steps"]),
                 "--trajectories", str(world["trajectories"]),
                 "--delta2d", str(world["delta2d"])]
                + _sets({k: world[k] for k in ("n_scatterers", "hold_min",
                                               "hold_max")})
                for i in range(w["gens"])],
        "train": ["train", "--dataset", ds, "--seed", str(seed),
                  "--out", os.path.join(d, "probe.ckpt") if probe else ckpt,
                  "--mode", w["train"]["mode"]]
                 + _sets({"n_scatterers": world["n_scatterers"],
                          **w["model"], **train_keys}),
        "evaluate": [["evaluate", "--checkpoint", ckpt, "--dataset", ds,
                      "--stride", str(w["eval_stride"]),
                      "--out", os.path.join(d, "eval%d" % i)]
                     for i in range(w["evals"])],
    }


def spawn(spec, d, deadline):
    """Run one worker to its end, or kill it at the monotonic ``deadline``;
    returns (result or None, wall seconds)."""
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "probe.json" if spec["probe"] else "result.json")
    if os.path.exists(path):
        os.remove(path)
    t = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec), path, repr(t)],
        stdout=subprocess.DEVNULL, cwd=ROOT)
    try:
        proc.wait(timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    wall = time.monotonic() - t
    if proc.returncode != 0 or not os.path.exists(path):
        return None, wall
    with open(path) as f:
        return json.load(f), wall


def check_round(w, d, res, gscm):
    """All output checks of one round; returns (failures, eval report)."""
    world, model = w["world"], w["model"]
    ds = os.path.join(d, "data.txt")
    rows = gscm.read_dataset(ds).rows
    fails = checks.check_dataset_file(ds, ds + ".manifest.json",
                                      world["delta2d"], rows)
    with open(ds, "rb") as f:
        first = f.read()
    for i in range(1, len(res["gen"])):
        with open(os.path.join(d, "data%d.txt" % i), "rb") as f:
            if f.read() != first:
                fails.append("gen rerun %d wrote different bytes" % i)
    if res["train"]["rc"] == 0:
        fails += checks.check_loss_trace(
            os.path.join(d, "model.ckpt.trace.txt"), w["train"]["epochs"],
            w["max_loss_ratio"])
    report = None
    for i, op in enumerate(res["evaluate"]):
        if op["rc"] != 0:
            continue
        with open(os.path.join(d, "eval%d" % i, "report.json")) as f:
            report = json.load(f)
        fails += checks.check_report(report, rows, world["n_scatterers"],
                                     model["lag"], model["window"],
                                     w["eval_stride"], w["train"]["mode"])
    if report is not None:
        ranges = sorted(map(tuple, report["row_ranges"]["train"]
                            + report["row_ranges"]["eval"]))
        ends = [0] + [hi for _, hi in ranges]
        if (any(lo != end for (lo, _), end in zip(ranges, ends))
                or ends[-1] != len(rows)
                or any(end % world["steps"] for end in ends)):
            fails.append("train/eval split does not follow trajectories")
    return fails, report


def gradient_check(w, d, seed, report):
    """Directional finite difference of the trained loss on the first
    training batch, at the workload's real shape."""
    import numpy as np
    from ddgen import gscm, trainer
    from ddgen.htransformer import ModelConfig, hybrid_forward

    params, scaler, _, meta = trainer.load_train_checkpoint(
        os.path.join(d, "model.ckpt"))
    cfg = ModelConfig.from_dict(meta["model"])
    settings = meta["settings"]
    rows = scaler.scale(gscm.read_dataset(os.path.join(d, "data.txt")).rows)
    starts = checks.window_starts(report["row_ranges"]["train"], cfg.lag,
                                  cfg.window, w["train"]["stride"])
    starts = starts[:w["train"]["batch_size"]]
    hist = np.stack([rows[s:s + cfg.lag] for s in starts])
    targ = np.stack([rows[s + cfg.lag:s + cfg.lag + cfg.window]
                     for s in starts])
    weights = (trainer.LossWeights.from_dict(meta["weights"])
               if meta["weights"] else None)

    def loss():
        out = hybrid_forward(hist, cfg, params, training=False)
        if settings["mode"] == "gen":
            return trainer.stats_loss(targ, out, scaler, weights,
                                      settings["beta"])
        return trainer.predictive_loss(targ, out, settings["beta"])

    grads, direction, numeric = checks.directional_derivative(
        loss, params, seed, GRAD_EPS)
    return checks.check_directional(grads, direction, numeric, GRAD_RTOL)


def end_to_end(w, rounds, probes, report):
    """Medians over the run: each gen and evaluate call, each round's
    training and peak memory, and set-up time of rounds and probes, all
    from rounds whose operations all succeeded."""
    world, model, train = w["world"], w["model"], w["train"]
    lag, window = model["lag"], model["window"]
    rows = world["steps"] * world["trajectories"]
    trained = train["epochs"] * len(checks.window_starts(
        report["row_ranges"]["train"], lag, window, train["stride"]))
    held_out = len(checks.window_starts(report["row_ranges"]["eval"], lag,
                                        window, w["eval_stride"]))
    samples = {name: [] for name, _ in END_TO_END}
    samples["setup_s"] += probes
    for r in rounds:
        if any(op["rc"] != 0 for op in r["gen"] + [r["train"]]
               + r["evaluate"]):
            continue
        samples["setup_s"].append(r["setup_s"])
        samples["gen_rows_per_s"] += [rows / op["seconds"] for op in r["gen"]]
        samples["train_windows_per_s"].append(
            trained / r["train"]["from_first_step_s"])
        samples["eval_windows_per_s"] += [held_out / op["seconds"]
                                          for op in r["evaluate"]]
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in END_TO_END if samples[name]}


def per_layer(rounds, base, walls):
    traced = [r["layers"] for r in rounds if r.get("layers")]
    out = {name: (statistics.median(r[name] for r in traced),
                  "count" if name in COUNTS else
                  "MB" if name.endswith("_mb") else "s")
           for name in (traced[0] if traced else {})}
    if walls[True] and walls[False]:
        out["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]), "s")
    with open(os.path.join(base, "layers.json"), "w") as f:
        json.dump({"blas_threads": BLAS_THREADS, "rounds": traced,
                   "round_walls_s": {"traced": walls[True],
                                     "untraced": walls[False]},
                   "absent": sorted({a for r in rounds
                                     for a in r.get("absent", ())})},
                  f, indent=1, sort_keys=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddgen", "cli.py")):
        print("no ddgen sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ddgen import gscm

    w = WORKLOADS[args.workload]
    base = os.path.join(OUT, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    n_ops = w["gens"] + 1 + w["evals"]
    attempted = failed = 0
    fails, rounds, report = [], [], None
    walls = {True: [], False: []}
    seed = args.seed % 2**32  # ddgen seeds are unsigned
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    while True:
        k = len(walls[True]) + len(walls[False])
        traced = bool(args.trace) and k % 2 == 1
        d = os.path.join(base, "r%d" % k)
        if k:
            shutil.rmtree(os.path.join(base, "r%d" % (k - 1)))
        res, wall = spawn(round_spec(w, seed, d, traced), d, deadline)
        walls[traced].append(wall)
        attempted += n_ops
        if res is None:
            failed += n_ops
            fails.append("round %d: worker process failed" % k)
            break
        failed += sum(op["rc"] != 0
                      for op in res["gen"] + [res["train"]] + res["evaluate"])
        try:
            round_fails, round_report = check_round(w, d, res, gscm)
        except Exception as exc:  # a missing or malformed output file
            round_fails, round_report = ["checks stopped: %r" % exc], None
        fails += ["round %d: %s" % (k, f) for f in round_fails]
        report = round_report or report
        rounds.append(res)
        # start another round only if at least half of it fits
        elapsed = time.monotonic() - start
        if (k + 1 >= (2 if args.trace else 1)
                and elapsed * (1 + 0.5 / (k + 1)) > args.seconds):
            break

    probes = []
    if not args.trace and res is not None:
        for _ in range(SETUP_PROBES):
            probe, _ = spawn(round_spec(w, seed, d, probe=True), d, deadline)
            if probe is None or "setup_s" not in probe:
                fails.append("set-up probe failed")
            else:
                probes.append(probe["setup_s"])
    if res is not None and res["train"]["rc"] == 0 and report is not None:
        try:
            fails += gradient_check(w, d, seed, report)
        except Exception as exc:
            fails.append("gradient check stopped: %r" % exc)
    shutil.rmtree(d, ignore_errors=True)

    with open(os.path.join(base, "rounds.json"), "w") as f:
        json.dump({"blas_threads": BLAS_THREADS, "rounds": rounds,
                   "setup_probes_s": probes, "failures": fails}, f, indent=1)
    if report is None:
        metrics = {}
    elif args.trace:
        metrics = per_layer(rounds, base, walls)
    else:
        metrics = end_to_end(w, rounds, probes, report)
    for f in fails:
        print("check failed: %s" % f, file=sys.stderr)
    print("workload %s seed %d: %d rounds, BLAS threads %d"
          % (args.workload, args.seed, k + 1, BLAS_THREADS))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
