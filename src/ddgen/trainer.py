"""Feature scaling, window extraction, the statistics-aided loss, and the
optimization loop.

The loss compares per-step channel statistics (delay spread, four angular
spreads, per-path gains) between the true and generated window. Statistics
are computed on original scales: the scaled feature rows are mapped back
through the fitted scaler inside the autodiff graph, delays converted to
seconds and angles to radians, so gradients reach the model through the
statistic definitions themselves. The predictive counterpart is a plain
elementwise smooth-L1 on the scaled features.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import adtensor as ad
from . import chanstats, gscm
from .config import ConfigError
from .htransformer import hybrid_forward, init_params

# Smoothing floors inside the loss-side spread computations: sqrt(S^2 + eps)
# bounds the 1/S gradient blow-up when a generated window degenerates toward
# zero spread. 50 ns / 1e-3 floors are far below on-distribution spreads and
# apply identically to the true and generated side of every comparison.
DELAY_SPREAD_EPS = (5e-8) ** 2
ANGULAR_SPREAD_EPS = 1e-6


class TrainingDiverged(RuntimeError):
    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint


# ---------------------------------------------------------------------------
# customized min-max scaler

@dataclass
class ScalerSpec:
    """Per-feature min/max scaling, except fixed features divided by N.

    Fixed features (RX height and the path-id columns) are constant by
    construction; dividing them by the path count keeps them nonzero so the
    model can tell the per-path feature blocks apart.
    """

    mins: np.ndarray
    maxs: np.ndarray
    fixed_mask: np.ndarray
    n_paths: int

    @property
    def span(self):
        out = np.where(self.fixed_mask, float(self.n_paths),
                       self.maxs - self.mins)
        return out

    @property
    def offset(self):
        return np.where(self.fixed_mask, 0.0, self.mins)

    def scale(self, rows):
        return (np.asarray(rows, dtype=np.float64) - self.offset) / self.span

    def unscale(self, rows):
        return np.asarray(rows, dtype=np.float64) * self.span + self.offset


def fit_scaler(train_rows, n_paths):
    """Record per-feature extrema over the training rows.

    Non-fixed features that are constant cannot be min-max scaled and are
    rejected with their column index.
    """
    rows = np.asarray(train_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("training set must be a nonempty row matrix")
    fixed_mask = np.zeros(rows.shape[1], dtype=bool)
    fixed_mask[np.asarray(gscm.fixed_feature_cols(n_paths), dtype=int)] = True
    mins = rows.min(axis=0)
    maxs = rows.max(axis=0)
    bad = np.where(~fixed_mask & (maxs <= mins))[0]
    if bad.size:
        raise ValueError("constant non-fixed feature at column %d" % bad[0])
    return ScalerSpec(mins=mins, maxs=maxs, fixed_mask=fixed_mask,
                      n_paths=n_paths)


# ---------------------------------------------------------------------------
# windowing

def make_windows(segments, lag, window, stride=1):
    """Sliding (history, target) windows inside each row segment, as an int
    array of window starts (the absolute row of each first history row).

    Windows never straddle segment boundaries; segments shorter than
    lag + window contribute nothing.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return np.array([s for lo, hi in segments
                     for s in range(lo, hi - (lag + window) + 1, stride)],
                    dtype=np.intp)


def split_ranges(dataset, train_frac):
    """Train/eval split along trajectory boundaries when possible.

    Multiple trajectories are assigned whole; a single trajectory is split
    at the fractional row index (windows still never straddle the cut).
    """
    ranges = dataset.traj_ranges()
    total = dataset.rows.shape[0]
    if len(ranges) > 1:
        cut_rows = train_frac * total
        acc, k = 0, 0
        for i, (lo, hi) in enumerate(ranges):
            if acc + (hi - lo) / 2.0 <= cut_rows:
                acc += hi - lo
                k = i + 1
        k = max(1, min(k, len(ranges) - 1))
        return ranges[:k], ranges[k:]
    lo, hi = ranges[0]
    cut = lo + int(round((hi - lo) * train_frac))
    cut = max(lo, min(cut, hi))
    return [(lo, cut)], [(cut, hi)]


def window_batches(windows, batch_size):
    for i in range(0, len(windows), batch_size):
        yield windows[i:i + batch_size]


def _window_rows(starts, first, length):
    """(windows, length) row indices: ``length`` rows from ``first`` rows
    past each window's start."""
    return starts[:, None] + np.arange(first, first + length)


def gather_window_arrays(rows_scaled, batch, lag, window):
    """The (b, lag, F) histories and (b, window, F) targets of a batch of
    window starts."""
    return (rows_scaled[_window_rows(batch, 0, lag)],
            rows_scaled[_window_rows(batch, lag, window)])


# ---------------------------------------------------------------------------
# losses

@dataclass(frozen=True)
class LossWeights:
    alpha_tau: float
    alpha_az: float
    alpha_zn: float
    alpha_g: float

    def to_dict(self):
        return {"alpha_tau": self.alpha_tau, "alpha_az": self.alpha_az,
                "alpha_zn": self.alpha_zn, "alpha_g": self.alpha_g}

    @classmethod
    def from_dict(cls, d):
        return cls(alpha_tau=d["alpha_tau"], alpha_az=d["alpha_az"],
                   alpha_zn=d["alpha_zn"], alpha_g=d["alpha_g"])


def _reciprocal_mean(values, alpha_max):
    m = float(np.mean(np.abs(values)))
    if m <= 0.0:
        return alpha_max
    return min(1.0 / m, alpha_max)


def calibrate_weights(stats, alpha_max=1e12):
    """Reciprocal-of-mean weights so alpha * (typical statistic) is near 1.

    ``stats`` is a ``chanstats.row_stats`` dict over the training rows.
    """
    if stats["delay_spread"].size == 0:
        raise ValueError("need statistics of at least one row")
    az = np.concatenate([stats["az_dod_spread"], stats["az_doa_spread"]])
    zn = np.concatenate([stats["zn_dod_spread"], stats["zn_doa_spread"]])
    return LossWeights(
        alpha_tau=_reciprocal_mean(stats["delay_spread"], alpha_max),
        alpha_az=_reciprocal_mean(az, alpha_max),
        alpha_zn=_reciprocal_mean(zn, alpha_max),
        alpha_g=_reciprocal_mean(stats["gains_db"].ravel(), alpha_max))


class NonFiniteStat(RuntimeError):
    def __init__(self, stat_name):
        super().__init__("non-finite intermediate in statistic %r" % stat_name)
        self.stat_name = stat_name


def window_stat_tensors(x_scaled, scaler):
    """Differentiable per-step statistics of a scaled (b,P,F) window.

    Returns tensors: the five spreads shaped (b,P) and per-path gains in dB
    shaped (b,P,N). The window is unscaled inside the graph, the moments are
    ``chanstats.squared_spreads``'s, and each spread is sqrt(S^2 + eps).
    """
    span = ad.const(scaler.span[None, None, :])
    off = ad.const(scaler.offset[None, None, :])
    raw = ad.add(ad.mul(x_scaled, span), off)
    out = chanstats.squared_spreads(raw, scaler.n_paths)
    for name in chanstats.STAT_NAMES:
        eps = DELAY_SPREAD_EPS if name == "delay_spread" else ANGULAR_SPREAD_EPS
        out[name] = ad.sqrt(ad.shift(out[name], eps))
    return out


def combine_stat_losses(gen_stats, true_stats, weights, beta):
    """Weighted smooth-L1 between statistic tensors and their true values.

    ``gen_stats`` holds tensors, ``true_stats`` plain arrays of matching
    shape; each term is averaged over its entries (steps, batch, paths).
    The weights normalize the statistic values entering the smooth-L1, so a
    typical statistic maps to about 1 and the beta threshold separates the
    quadratic and linear branches at a comparable scale for every group.
    """
    def term(name, alpha):
        t = gen_stats[name]
        if not np.isfinite(t.data).all():
            raise NonFiniteStat(name)
        return ad.mean_all(ad.smooth_l1(
            ad.scale(t, alpha), ad.const(alpha * true_stats[name]), beta))

    loss = term("delay_spread", weights.alpha_tau)
    loss = ad.add(loss, ad.add(term("az_dod_spread", weights.alpha_az),
                               term("az_doa_spread", weights.alpha_az)))
    loss = ad.add(loss, ad.add(term("zn_dod_spread", weights.alpha_zn),
                               term("zn_doa_spread", weights.alpha_zn)))
    loss = ad.add(loss, term("gains_db", weights.alpha_g))
    return loss


def true_stat_arrays(true_scaled, scaler):
    """``window_stat_tensors`` of a scaled window as plain arrays. The
    window is a constant, so no graph is recorded."""
    return {k: t.data for k, t in
            window_stat_tensors(ad.const(true_scaled), scaler).items()}


def stats_loss(true, gen_window, scaler, weights, beta):
    """Statistics-aided loss between a true window and a generated tensor.

    ``true`` is the scaled true window, or its ``true_stat_arrays``. Both
    sides run through the same ``window_stat_tensors``, so identical windows
    give exactly zero loss.
    """
    if not isinstance(true, dict):
        true = true_stat_arrays(true, scaler)
    return combine_stat_losses(window_stat_tensors(gen_window, scaler), true,
                               weights, beta)


def predictive_loss(true_scaled, gen_window, beta):
    """Mean elementwise smooth-L1 over every scaled feature entry."""
    target = ad.const(np.asarray(true_scaled, dtype=np.float64))
    if target.data.shape != gen_window.data.shape:
        raise ValueError("window shapes differ: %s vs %s"
                         % (target.data.shape, gen_window.data.shape))
    return ad.mean_all(ad.smooth_l1(gen_window, target, beta))


# ---------------------------------------------------------------------------
# optimizer

class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # In place, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p = p*(1 - lr*wd) - lr * (m/bc1) / (sqrt(v/bc2) + eps)
        # so the result is bit-identical to that formula.
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            tmp, update = np.empty_like(m), np.empty_like(m)
            m *= self.beta1
            m += np.multiply(1 - self.beta1, g, out=tmp)
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=tmp)
            tmp *= g
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, bc1, out=update)
            update /= tmp
            update *= lr
            # decay applied as a multiplicative factor so a zero-gradient step
            # shrinks parameters by exactly (1 - lr * weight_decay)
            p.data *= 1.0 - lr * self.weight_decay
            p.data -= update

    def state_arrays(self):
        out = {}
        for k in self.params:
            out["opt.m." + k] = self.m[k]
            out["opt.v." + k] = self.v[k]
        return out

    def load_state(self, arrays, t):
        for k in self.params:
            self.m[k] = arrays["opt.m." + k].copy()
            self.v[k] = arrays["opt.v." + k].copy()
        self.t = t


def learning_rate(lr0, epoch, decay=0.9, every=10):
    """Schedule: the rate shrinks by the decay factor every ``every`` epochs."""
    return lr0 * decay ** (epoch // every)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    params: dict
    scaler: ScalerSpec
    weights: LossWeights
    trace: list  # (epoch, mean_loss, lr)


def _checkpoint_tensors(params, scaler, opt):
    tensors = dict(params)
    tensors["scaler.mins"] = scaler.mins
    tensors["scaler.maxs"] = scaler.maxs
    tensors["scaler.fixed"] = scaler.fixed_mask.astype(np.float64)
    tensors.update(opt.state_arrays())
    return tensors


def save_train_checkpoint(path, params, scaler, opt, model_cfg, cfg,
                          weights, epoch, rng):
    meta = {
        "kind": "ddgen-train",
        "model": model_cfg.to_dict(),
        "settings": cfg.to_dict(),
        "weights": weights.to_dict() if weights is not None else None,
        "epoch": epoch,
        "adam_t": opt.t,
        "rng_state": rng.bit_generator.state,
        "n_paths": scaler.n_paths,
    }
    ad.save_checkpoint(path, _checkpoint_tensors(params, scaler, opt), meta)


def load_train_checkpoint(path, optimizer=True):
    """Returns (params dict of Tensors, ScalerSpec, opt arrays, meta).

    With ``optimizer=False`` the AdamW moments are skipped, not read, and
    the opt arrays dict is empty: a run that only evaluates the model needs
    the parameters and the scaler alone.
    """
    arrays, meta = ad.load_checkpoint(path,
                                      skip=() if optimizer else ("opt.",))
    params = {}
    opt_arrays = {}
    scaler_fields = {}
    for name, arr in arrays.items():
        if name.startswith("opt."):
            opt_arrays[name] = arr
        elif name.startswith("scaler."):
            scaler_fields[name.split(".", 1)[1]] = arr
        else:
            # the reader's arrays are fresh: wrapped without another copy
            params[name] = ad.Tensor(arr, requires_grad=True)
    scaler = ScalerSpec(mins=scaler_fields["mins"], maxs=scaler_fields["maxs"],
                        fixed_mask=scaler_fields["fixed"].astype(bool),
                        n_paths=int(meta["n_paths"]))
    return params, scaler, opt_arrays, meta


def _check_resume(meta, model_cfg, cfg, n_paths):
    """A checkpoint resumes only the run that wrote it: the path count,
    every model key, and the loss mode and the training rows (``train_frac``
    and ``stride``) must match the request. A run key is compared when the
    checkpoint's settings record it."""
    settings = meta["settings"]
    have = {"n_paths": meta["n_paths"], **meta["model"]}
    want = {"n_paths": n_paths, **model_cfg.to_dict()}
    for key in ("mode", "train_frac", "stride"):
        if key in settings:
            have[key], want[key] = settings[key], getattr(cfg, key)
    for key, val in want.items():
        if have.get(key) != val:
            raise ConfigError("cannot resume: checkpoint has %s=%r, this run "
                              "asks for %s=%r" % (key, have.get(key), key, val))


def _row_stat_arrays(rows_scaled, scaler, chunk=4096):
    """``true_stat_arrays`` of every scaled row: spreads (R,), gains (R, N).
    Computed over blocks of rows, which bounds the temporaries."""
    parts = [true_stat_arrays(rows_scaled[None, lo:lo + chunk], scaler)
             for lo in range(0, rows_scaled.shape[0], chunk)]
    return {k: np.concatenate([p[k][0] for p in parts]) for k in parts[0]}


def seed_split(seed):
    """The (init, loop) seeds a run's seed derives: ``init_params`` takes the
    first, the batch-order and dropout generator the second."""
    init_seed, loop_seed = np.random.SeedSequence(seed).generate_state(
        2, dtype=np.uint64)
    return int(init_seed), int(loop_seed)


def train(dataset, cfg, checkpoint_path, resume_from=None):
    """Run the optimization loop on a ``RunConfig`` and write the final
    checkpoint, whose ``meta["settings"]`` is ``cfg.to_dict()``.

    The model's ``feature_dim`` follows the dataset's path count; every
    other model key comes from ``cfg``. Deterministic for a fixed
    (dataset, cfg) pair: initialization, batch shuffling and dropout all
    derive from cfg.seed. A non-finite batch loss aborts with the last
    periodic checkpoint, if any.
    """
    cfg.validate()
    model_cfg = cfg.model_config(dataset.n_paths)
    train_ranges, _ = split_ranges(dataset, cfg.train_frac)
    train_rows = np.vstack([dataset.rows[lo:hi] for lo, hi in train_ranges])
    if resume_from is not None:
        params, scaler, opt_arrays, meta = load_train_checkpoint(resume_from)
        _check_resume(meta, model_cfg, cfg, dataset.n_paths)
        weights = (LossWeights.from_dict(meta["weights"])
                   if meta["weights"] else None)
        opt = AdamW(params, weight_decay=cfg.weight_decay)
        opt.load_state(opt_arrays, meta["adam_t"])
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        start_epoch = meta["epoch"]
    else:
        init_seed, loop_seed = seed_split(cfg.seed)
        params = init_params(model_cfg, seed=init_seed)
        scaler = fit_scaler(train_rows, dataset.n_paths)
        weights = None
        if cfg.mode == "gen":
            weights = calibrate_weights(
                chanstats.row_stats(train_rows, dataset.n_paths),
                cfg.alpha_max)
        opt = AdamW(params, weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(loop_seed)
        start_epoch = 0

    rows_scaled = scaler.scale(dataset.rows)
    starts = make_windows(train_ranges, model_cfg.lag, model_cfg.window,
                          cfg.stride)
    if not starts.size:
        raise ValueError("training split too short for lag=%d window=%d"
                         % (model_cfg.lag, model_cfg.window))
    if cfg.mode == "gen":
        # each true-side statistic belongs to one row: computed once here,
        # gathered per batch
        row_stats = _row_stat_arrays(rows_scaled, scaler)
    trace = []
    last_good = None
    for epoch in range(start_epoch, cfg.epochs):
        lr = learning_rate(cfg.lr, epoch, cfg.lr_decay, cfg.lr_decay_every)
        order = rng.permutation(len(starts))
        total_loss = 0.0
        for batch_idx in window_batches(order, cfg.batch_size):
            batch = starts[batch_idx]
            hist, targ = gather_window_arrays(rows_scaled, batch,
                                              model_cfg.lag, model_cfg.window)
            out = hybrid_forward(hist, model_cfg, params, training=True,
                                 dropout_rng=rng)
            try:
                if cfg.mode == "gen":
                    idx = _window_rows(batch, model_cfg.lag, model_cfg.window)
                    loss = stats_loss({k: v[idx] for k, v in row_stats.items()},
                                      out, scaler, weights, cfg.beta)
                else:
                    loss = predictive_loss(targ, out, cfg.beta)
            except NonFiniteStat as exc:
                raise TrainingDiverged(
                    "%s at epoch %d" % (exc, epoch + 1), last_good) from exc
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(
                    "non-finite loss at epoch %d" % (epoch + 1), last_good)
            opt.zero_grad()
            loss.backward()
            opt.step(lr)
            total_loss += loss_val * len(batch)
            # the step's graph holds every intermediate and its gradient:
            # free it before the next forward (or the final save) builds more
            del out, loss
        mean_loss = total_loss / len(starts)
        trace.append((epoch + 1, mean_loss, lr))
        if (cfg.checkpoint_every and
                (epoch + 1) % cfg.checkpoint_every == 0):
            save_train_checkpoint(checkpoint_path, params, scaler, opt,
                                  model_cfg, cfg, weights, epoch + 1, rng)
            last_good = checkpoint_path
    save_train_checkpoint(checkpoint_path, params, scaler, opt, model_cfg,
                          cfg, weights, cfg.epochs, rng)
    return TrainResult(params=params, scaler=scaler, weights=weights,
                       trace=trace)


def write_trace(path, trace, config_snapshot=None):
    """Loss trace as numeric text rows; identical runs give identical bytes."""
    import json
    lines = ["# ddgen loss trace v1"]
    if config_snapshot is not None:
        lines.append("# config: %s" % json.dumps(config_snapshot,
                                                 sort_keys=True))
    lines.append("# columns: epoch mean_loss lr")
    for epoch, loss, lr in trace:
        lines.append("%d %.17g %.17g" % (epoch, loss, lr))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# evaluation support

EVAL_STATS = chanstats.STAT_NAMES + ("mpc_power",)


def collect_window_stats(rows, n_paths):
    """Pool per-row spread statistics and per-path gains from raw rows."""
    stats = chanstats.row_stats(rows, n_paths)
    pools = {name: stats[name] for name in chanstats.STAT_NAMES}
    pools["mpc_power"] = stats["gains_db"].ravel()
    return pools


def evaluate_model(dataset, model_cfg, models, scaler, ranges, stride=1,
                   batch_size=64):
    """Generate windows over the eval ranges with every model and pool
    statistics.

    ``models`` maps a label to a parameter dict. Returns (true_pool,
    gen_pools): per-statistic sample arrays pooled over every evaluated
    window and step, the true side once and ``gen_pools`` by label. Ranges
    too short for one window are skipped with a warning. The forward runs on
    constants, so it records no graph. Overlapping windows share target
    rows: the true-side statistics are computed once per distinct row and
    gathered back, which gives the same pools, since ``chanstats.row_stats``
    reduces each row on its own.
    """
    usable = []
    for rng_pair in ranges:
        lo, hi = rng_pair
        if hi - lo < model_cfg.lag + model_cfg.window:
            warnings.warn("range [%d,%d) shorter than lag+window; skipped"
                          % (lo, hi))
            continue
        usable.append(rng_pair)
    lag, window = model_cfg.lag, model_cfg.window
    starts = make_windows(usable, lag, window, stride)
    if not starts.size:
        raise ValueError("no evaluable windows in the given ranges")
    rows_scaled = scaler.scale(dataset.rows)
    n_feat = dataset.rows.shape[1]
    consts = {label: {name: ad.const(t.data) for name, t in params.items()}
              for label, params in models.items()}
    gen_rows = {label: np.empty((len(starts) * window, n_feat))
                for label in models}
    for lo in range(0, len(starts), batch_size):
        batch = starts[lo:lo + batch_size]
        hist, _ = gather_window_arrays(rows_scaled, batch, lag, window)
        for label, params in consts.items():
            out = hybrid_forward(hist, model_cfg, params, training=False)
            gen_rows[label][lo * window:(lo + len(batch)) * window] = \
                scaler.unscale(out.data).reshape(-1, n_feat)
    distinct, inverse = np.unique(_window_rows(starts, lag, window).ravel(),
                                  return_inverse=True)
    per_row = collect_window_stats(dataset.rows[distinct], dataset.n_paths)
    true_pool = {name: per_row[name][inverse]
                 for name in chanstats.STAT_NAMES}
    true_pool["mpc_power"] = per_row["mpc_power"].reshape(
        len(distinct), dataset.n_paths)[inverse].ravel()
    return true_pool, {label: collect_window_stats(rows, dataset.n_paths)
                       for label, rows in gen_rows.items()}


def cdf_distance_report(true_pools, gen_pools,
                        grid_size=chanstats.CDF_GRID_SIZE):
    """Per-statistic CDF MSE (dB) plus the shared-grid CDFs themselves."""
    report = {}
    for name in EVAL_STATS:
        true_cdf, gen_cdf = chanstats.cdf_pair(true_pools[name],
                                               gen_pools[name], grid_size)
        report[name] = {
            "cdf_mse_db": chanstats.cdf_mse_db(true_cdf, gen_cdf),
            "grid": true_cdf.grid,
            "true_values": true_cdf.values,
            "gen_values": gen_cdf.values,
        }
    return report
