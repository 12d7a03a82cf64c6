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

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import adtensor as ad
from . import chanstats, gscm
from .config import ConfigError
from .htransformer import (ModelConfig, hybrid_forward, init_params,
                           param_names)

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

    # computed on first use and kept: ``scale`` runs once per micro-batch
    @cached_property
    def span(self):
        return np.where(self.fixed_mask, float(self.n_paths),
                        self.maxs - self.mins)

    @cached_property
    def offset(self):
        return np.where(self.fixed_mask, 0.0, self.mins)

    # each computes into one output array, in the operation order of
    # (rows - offset) / span and rows * span + offset
    def scale(self, rows):
        out = np.subtract(rows, self.offset, dtype=np.float64)
        out /= self.span
        return out

    def unscale(self, rows):
        out = np.multiply(rows, self.span, dtype=np.float64)
        out += self.offset
        return out


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
    The training ranges are always the leading rows: they start at row 0
    and are contiguous, and the evaluation ranges hold the rest.
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


def _window_rows(starts, first, length):
    """(windows, length) row indices: ``length`` rows from ``first`` rows
    past each window's start."""
    return starts[:, None] + np.arange(first, first + length)


def gather_window_arrays(rows, batch, lag, window):
    """The (b, lag, F) histories and (b, window, F) targets of a batch of
    window starts, taken from ``rows``."""
    return (rows[_window_rows(batch, 0, lag)],
            rows[_window_rows(batch, lag, window)])


# ---------------------------------------------------------------------------
# losses

@dataclass(frozen=True)
class LossWeights:
    alpha_tau: float
    alpha_az: float
    alpha_zn: float
    alpha_g: float

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


# Each LossWeights field and the statistics it scales, in the order the loss
# adds them: the terms of a group are summed, then the groups in turn.
WEIGHT_GROUPS = (("alpha_tau", ("delay_spread",)),
                 ("alpha_az", ("az_dod_spread", "az_doa_spread")),
                 ("alpha_zn", ("zn_dod_spread", "zn_doa_spread")),
                 ("alpha_g", ("gains_db",)))

# the clamp on each loss weight, which a zero statistic would make infinite
ALPHA_MAX = 1e12


def calibrate_weights(stats):
    """Reciprocal-of-mean weights so alpha * (typical statistic) is near 1,
    each clamped at ``ALPHA_MAX``; a weight's mean is of the absolute values
    of the statistics that ``WEIGHT_GROUPS`` gives it.

    ``stats`` is a ``chanstats.row_stats`` dict over the training rows.
    """
    if stats["delay_spread"].size == 0:
        raise ValueError("need statistics of at least one row")
    alphas = {}
    for field, names in WEIGHT_GROUPS:
        # one C-ordered copy of the group, made absolute in place
        values = np.concatenate([stats[name] for name in names], axis=None)
        m = float(np.mean(np.abs(values, out=values)))
        alphas[field] = ALPHA_MAX if m <= 0.0 else min(1.0 / m, ALPHA_MAX)
    return LossWeights(**alphas)


class NonFiniteStat(RuntimeError):
    def __init__(self, stat_name):
        super().__init__("non-finite intermediate in statistic %r" % stat_name)
        self.stat_name = stat_name


def window_stat_tensors(x_scaled, scaler):
    """Differentiable per-row statistics of scaled rows of any leading
    shape, such as a (b,P,F) window or an (R,F) row block.

    Returns tensors: the five spreads shaped (b,P) and per-path gains in dB
    shaped (b,P,N). The rows are unscaled inside the graph, the moments are
    ``chanstats.squared_spreads``'s, and each spread is sqrt(S^2 + eps).
    """
    span = ad.const(np.broadcast_to(scaler.span, x_scaled.data.shape))
    off = ad.const(np.broadcast_to(scaler.offset, x_scaled.data.shape))
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

    groups = (functools.reduce(ad.add, [term(name, getattr(weights, field))
                                        for name in names])
              for field, names in WEIGHT_GROUPS)
    return functools.reduce(ad.add, groups)


def true_stat_arrays(true_scaled, scaler):
    """``window_stat_tensors`` of scaled rows as plain arrays. The rows
    are a constant, so no graph is recorded."""
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
        """Adopt the moments in ``arrays``, which the caller hands over."""
        self.m = {k: arrays["opt.m." + k] for k in self.params}
        self.v = {k: arrays["opt.v." + k] for k in self.params}
        self.t = t


def learning_rate(lr0, epoch):
    """Schedule: the rate shrinks by 10% every 10 epochs."""
    return lr0 * 0.9 ** (epoch // 10)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    params: dict
    scaler: ScalerSpec
    weights: LossWeights
    trace: list  # (epoch, mean_loss, lr)


# The checkpoint kind names the parameter layout and the model that computes
# with it: each attention site is one Q|K|V matrix and stacked E/F, and each
# BiLSTM layer one input projection and stacked recurrent weights. "/3" has
# an unmasked decoder self-attention; "/2" stored the same tensors for a
# decoder that masked it. Any other kind is refused.
CHECKPOINT_KIND = "ddgen-train/3"


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
        "kind": CHECKPOINT_KIND,
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
    the parameters and the scaler alone. A checkpoint of another kind,
    such as one in the per-head and per-direction layout or one trained
    with a masked decoder, raises ``ConfigError``, and so does one that
    lacks a tensor its model has or holds one its model does not, and one
    whose header lacks a key that a command reads.
    """
    arrays, meta = ad.load_checkpoint(path,
                                      skip=() if optimizer else ("opt.",))
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ConfigError("%s is a %r checkpoint; this version reads only "
                          "%r checkpoints" % (path, meta.get("kind"),
                                              CHECKPOINT_KIND))
    _check_header(path, meta, optimizer)
    names = param_names(ModelConfig.from_dict(meta["model"]))
    want = names + ["scaler.mins", "scaler.maxs", "scaler.fixed"]
    if optimizer:
        want += ["opt.%s.%s" % (moment, k) for k in names for moment in "mv"]
    missing = [k for k in want if k not in arrays]
    if missing:
        raise ConfigError("%s lacks tensor %r of its model" % (path,
                                                                missing[0]))
    known = set(want)
    unexpected = [k for k in arrays if k not in known]
    if unexpected:
        raise ConfigError("%s holds tensor %r, which its model does not "
                          "have" % (path, unexpected[0]))
    # the reader's arrays are fresh: wrapped without another copy
    params = {k: ad.Tensor(arrays[k], requires_grad=True) for k in names}
    opt_arrays = {k: v for k, v in arrays.items() if k.startswith("opt.")}
    scaler = ScalerSpec(mins=arrays["scaler.mins"], maxs=arrays["scaler.maxs"],
                        fixed_mask=arrays["scaler.fixed"].astype(bool),
                        n_paths=int(meta["n_paths"]))
    return params, scaler, opt_arrays, meta


def _check_header(path, meta, optimizer):
    """Raise ConfigError naming the first header key that some command reads
    and the checkpoint lacks: every model key, the path count, the settings
    that evaluate and --resume read, and the run state that --resume
    restores."""
    top = ("model", "n_paths", "settings")
    if optimizer:
        top += ("weights", "epoch", "adam_t", "rng_state")
    missing = ["%r" % k for k in top if k not in meta]
    missing += ["model key %r" % k for k in ModelConfig.__dataclass_fields__
                if k not in meta.get("model", {})]
    missing += ["setting %r" % k for k in ("mode", "seed", "stride",
                                           "train_frac")
                if k not in meta.get("settings", {})]
    if missing:
        raise ConfigError("%s: the checkpoint header lacks %s"
                          % (path, missing[0]))


def _check_resume(meta, model_cfg, cfg, n_paths):
    """A checkpoint resumes only the run that wrote it: the path count,
    every model key, and the loss mode and the training rows (``train_frac``
    and ``stride``) must match the request."""
    have = {"n_paths": meta["n_paths"], **meta["model"]}
    want = {"n_paths": n_paths, **model_cfg.to_dict()}
    for key in ("mode", "train_frac", "stride"):
        have[key], want[key] = meta["settings"][key], getattr(cfg, key)
    for key, val in want.items():
        if have.get(key) != val:
            raise ConfigError("cannot resume: checkpoint has %s=%r, this run "
                              "asks for %s=%r" % (key, have.get(key), key, val))


# rows per statistics call where every row is reduced on its own: a bound on
# the temporaries, which changes no value
ROW_BLOCK = 4096


def _row_blocks(rows):
    """Views of ``ROW_BLOCK`` consecutive rows (or indices) each."""
    return (rows[lo:lo + ROW_BLOCK] for lo in range(0, len(rows), ROW_BLOCK))


def _per_row(stat, blocks, *args, row_ids=None):
    """``stat(block, *args)`` of each row block, joined in row order: as
    ``stat`` reduces each row on its own, the values of all rows at once,
    with only one block's temporaries alive. Given ``row_ids``, the row
    numbers of the blocks' rows in order, each call also gets its block's
    slice of them, by which ``stat`` names a row it refuses."""
    parts, lo = [], 0
    for b in blocks:
        ids = {} if row_ids is None else {"row_ids": row_ids[lo:lo + len(b)]}
        parts.append(stat(b, *args, **ids))
        lo += len(b)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def seed_split(seed):
    """The (init, loop) seeds a run's seed derives: ``init_params`` takes the
    first, the batch-order and dropout generator the second."""
    init_seed, loop_seed = np.random.SeedSequence(seed).generate_state(
        2, dtype=np.uint64)
    return int(init_seed), int(loop_seed)


# windows per forward in ``train`` and ``evaluate_model``. A larger batch
# trains as several micro-batches whose gradients add up before the batch's
# one optimizer step, so only one micro-batch's graph is alive.
MICRO_BATCH = 64


def train(dataset, cfg, checkpoint_path, resume_from=None):
    """Run the optimization loop on a ``RunConfig`` and write the final
    checkpoint, whose ``meta["settings"]`` is ``cfg.to_dict()``.

    The model's ``feature_dim`` follows the dataset's path count; every
    other model key comes from ``cfg``. Deterministic for a fixed
    (dataset, cfg) pair: initialization, batch shuffling and dropout all
    derive from cfg.seed. A batch above ``MICRO_BATCH`` windows runs as
    micro-batches of at most that many, each drawing its own dropout masks;
    their gradients sum to the batch's up to rounding. A non-finite loss
    aborts with the last periodic checkpoint, if any.

    The rows are held once: micro-batches are gathered raw and scaled, and
    per-row statistics run over the leading training rows in row blocks.
    """
    cfg.validate()
    model_cfg = cfg.model_config(dataset.n_paths)
    train_ranges, _ = split_ranges(dataset, cfg.train_frac)
    train_rows = dataset.rows[:train_ranges[-1][1]]
    if resume_from is not None:
        params, scaler, opt_arrays, meta = load_train_checkpoint(resume_from)
        _check_resume(meta, model_cfg, cfg, dataset.n_paths)
        weights = (LossWeights.from_dict(meta["weights"])
                   if meta["weights"] else None)
        opt = AdamW(params)
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
            weights = calibrate_weights(_per_row(
                chanstats.row_stats, _row_blocks(train_rows), dataset.n_paths,
                row_ids=range(len(train_rows))))
        opt = AdamW(params)
        rng = np.random.default_rng(loop_seed)
        start_epoch = 0

    starts = make_windows(train_ranges, model_cfg.lag, model_cfg.window,
                          cfg.stride)
    if not starts.size:
        raise ValueError("training split too short for lag=%d window=%d"
                         % (model_cfg.lag, model_cfg.window))
    if cfg.mode == "gen":
        # each true-side statistic belongs to one training row: computed
        # once here, gathered per batch
        row_stats = _per_row(true_stat_arrays,
                             map(scaler.scale, _row_blocks(train_rows)), scaler)
    trace = []
    last_good = None
    for epoch in range(start_epoch, cfg.epochs):
        lr = learning_rate(cfg.lr, epoch)
        order = rng.permutation(len(starts))
        total_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = starts[order[lo:lo + cfg.batch_size]]
            # the last step's parameter gradients are spent: free them
            # before this forward allocates
            ad.zero_grad(params.values())
            for micro_lo in range(0, len(batch), MICRO_BATCH):
                micro = batch[micro_lo:micro_lo + MICRO_BATCH]
                hist, targ = gather_window_arrays(
                    dataset.rows, micro, model_cfg.lag, model_cfg.window)
                out = hybrid_forward(scaler.scale(hist), model_cfg, params,
                                     training=True, dropout_rng=rng)
                try:
                    if cfg.mode == "gen":
                        idx = _window_rows(micro, model_cfg.lag,
                                           model_cfg.window)
                        loss = stats_loss(
                            {k: v[idx] for k, v in row_stats.items()},
                            out, scaler, weights, cfg.beta)
                    else:
                        loss = predictive_loss(scaler.scale(targ), out,
                                               cfg.beta)
                except NonFiniteStat as exc:
                    raise TrainingDiverged(
                        "%s at epoch %d" % (exc, epoch + 1), last_good) \
                        from exc
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    raise TrainingDiverged(
                        "non-finite loss at epoch %d" % (epoch + 1), last_good)
                # each loss is a mean over its windows: seeded with its share
                # of the batch (1.0 for a whole batch), the micro-batch
                # gradients add up to the batch mean's
                loss.backward(np.asarray(len(micro) / len(batch)))
                total_loss += loss_val * len(micro)
                # backward released the graph as it walked it; only the
                # output and loss values are left, dropped here so that
                # nothing of it lives through the next forward or the save
                del out, loss
            opt.step(lr)
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


def write_trace(path, trace, config_snapshot):
    """Loss trace as numeric text rows; identical runs give identical bytes."""
    lines = ["# ddgen loss trace v1",
             "# config: %s" % json.dumps(config_snapshot, sort_keys=True),
             "# columns: epoch mean_loss lr"]
    for epoch, loss, lr in trace:
        lines.append("%d %.17g %.17g" % (epoch, loss, lr))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# evaluation support

EVAL_STATS = chanstats.STAT_NAMES + ("mpc_power",)


def collect_window_stats(rows, n_paths, row_ids=None):
    """``chanstats.row_stats`` of raw rows, the per-path gains (rows, N)
    named ``mpc_power``."""
    pools = chanstats.row_stats(rows, n_paths, row_ids)
    pools["mpc_power"] = pools.pop("gains_db")
    return pools


def evaluate_model(dataset, model_cfg, models, scaler, ranges, stride=1):
    """Generate windows over the eval ranges with every model and pool
    statistics.

    ``models`` maps a label to a parameter dict. Returns (true_pool,
    gen_pools): per-statistic arrays pooled over every evaluated window and
    step (``mpc_power`` one row of N per step), the true side once and
    ``gen_pools`` by label. Ranges too short for one window are skipped
    with a warning. The forward runs on constants, ``MICRO_BATCH`` windows
    at a time, so it records no graph. ``chanstats.row_stats`` reduces each
    row on its own, so pooling a block of rows at a time gives the same
    pools as pooling them all at once: each model's generated rows are
    pooled, one model after another, whenever ``ROW_BLOCK`` of them have
    accumulated, and only their pools are kept. Overlapping windows share
    target rows, so the true side is pooled once per distinct row, which
    a dead row is named by, and gathered back.
    """
    lag, window = model_cfg.lag, model_cfg.window
    for lo, hi in ranges:
        if hi - lo < lag + window:
            warnings.warn("range [%d,%d) shorter than lag+window; skipped"
                          % (lo, hi))
    starts = make_windows(ranges, lag, window, stride)
    if not starts.size:
        raise ValueError("no evaluable windows in the given ranges")
    n_feat, n_paths = dataset.rows.shape[1], dataset.n_paths

    def generated(params):
        # the model's generated rows in file units, in blocks of whole
        # batches that reach ROW_BLOCK rows; histories are scaled per batch
        params = {name: ad.const(t.data) for name, t in params.items()}
        rows = []
        for lo in range(0, len(starts), MICRO_BATCH):
            hist = scaler.scale(dataset.rows[_window_rows(
                starts[lo:lo + MICRO_BATCH], 0, lag)])
            out = hybrid_forward(hist, model_cfg, params, training=False)
            rows.append(scaler.unscale(out.data).reshape(-1, n_feat))
            if (lo + MICRO_BATCH >= len(starts)
                    or sum(len(r) for r in rows) >= ROW_BLOCK):
                yield np.concatenate(rows)
                rows.clear()

    gen_pools = {label: _per_row(collect_window_stats, generated(params),
                                 n_paths)
                 for label, params in models.items()}
    distinct, inverse = np.unique(_window_rows(starts, lag, window).ravel(),
                                  return_inverse=True)
    per_row = _per_row(collect_window_stats,
                       (dataset.rows[i] for i in _row_blocks(distinct)),
                       n_paths, row_ids=distinct)
    return {name: v[inverse] for name, v in per_row.items()}, gen_pools


def cdf_distance_report(true_pools, gen_pools):
    """Per statistic, its CDF MSE (dB) ``cdf_mse_db`` and the ``grid``,
    ``true`` and ``gen`` arrays of ``chanstats.cdf_pair``, the two CDFs on
    one grid of ``chanstats.CDF_GRID_SIZE`` points."""
    report = {}
    for name in EVAL_STATS:
        grid, f, g = chanstats.cdf_pair(true_pools[name], gen_pools[name])
        report[name] = {"cdf_mse_db": chanstats.cdf_mse_db(f, g),
                        "grid": grid, "true": f, "gen": g}
    return report
