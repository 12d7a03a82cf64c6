"""Double-directional channel statistics and the CDF-distance metric.

The two spread measures are power-weighted: the RMS delay spread is the
weighted standard deviation of the path delays, and the angular spread is
the unit-circle spread sqrt(sum_n w_n |e^{j a_n} - mu|^2) with mu the
weighted mean phasor, which is dimensionless and bounded by [0, 1] and
immune to the 2*pi wrap-around of a naive angular standard deviation.
``squared_spreads`` is the one definition of both: tape ops on file-unit
rows that return the weighted moments under the square root. Its callers
differ only in the finishing step: ``row_stats`` (evaluation and
calibration) takes sqrt(S^2) and clamps the angular spread to [0, 1]; the
training loss (``trainer.window_stat_tensors``, both sides) takes
sqrt(S^2 + eps) to bound the 1/S gradient at zero spread. Each row is
reduced on its own, so evaluation computes its true side once per distinct
row of the evaluated windows (``trainer.evaluate_model``) and training once
per run (``trainer.train``).

All evaluation compares pooled sample sets through their empirical CDFs on
a shared grid; the reported distance is the mean squared pointwise CDF
difference in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adtensor as ad
from . import gscm

CDF_FLOOR_DB = -120.0
CDF_GRID_SIZE = 512

# dataset file units (ns, degrees) to the SI units of every statistic
NS_TO_S = 1e-9
DEG_TO_RAD = math.pi / 180.0


def squared_spreads(raw, n_paths):
    """The squared spreads of a tensor of file-unit rows (ns, degrees, dBm)
    of any leading shape, keyed by STAT_NAMES: S^2 of the delays in s^2 and
    sum_n w_n |e^{j a_n} - mu|^2 of each angle group, reduced over the last
    axis; plus the per-path ``gains_db``. The square root is the caller's.
    """
    gains = ad.gather_last(raw, gscm.gain_cols(n_paths))
    powers = ad.db_to_linear(gains)
    w = ad.div(powers, ad.sum_axis(powers, -1, keepdims=True))
    tau = ad.scale(ad.gather_last(raw, gscm.delay_cols(n_paths)), NS_TO_S)
    dev = ad.sub(tau, ad.sum_axis(ad.mul(w, tau), -1, keepdims=True))
    out = {"delay_spread": ad.sum_axis(ad.mul(w, ad.square(dev)), -1,
                                       keepdims=False)}
    for name, cols in (("az_dod_spread", gscm.az_dod_cols),
                       ("zn_dod_spread", gscm.zn_dod_cols),
                       ("az_doa_spread", gscm.az_doa_cols),
                       ("zn_doa_spread", gscm.zn_doa_cols)):
        ang = ad.scale(ad.gather_last(raw, cols(n_paths)), DEG_TO_RAD)
        c, s = ad.cos(ang), ad.sin(ang)
        mu_c = ad.sum_axis(ad.mul(w, c), -1, keepdims=True)
        mu_s = ad.sum_axis(ad.mul(w, s), -1, keepdims=True)
        dev2 = ad.add(ad.square(ad.sub(c, mu_c)), ad.square(ad.sub(s, mu_s)))
        out[name] = ad.sum_axis(ad.mul(w, dev2), -1, keepdims=False)
    out["gains_db"] = gains
    return out


def row_stats(rows, n_paths):
    """The five spreads and per-path gains of every dataset row at once.

    ``rows`` is a (rows, 4+7N) matrix in file units (ns, degrees, dBm).
    Returns a dict keyed by STAT_NAMES, each spread shaped (rows,) in
    seconds or dimensionless [0, 1], plus ``gains_db`` shaped (rows, N).
    A row without a strictly positive path power raises ValueError.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != gscm.feature_dim(n_paths):
        raise ValueError("expected a (rows, %d) matrix, got shape %s"
                         % (gscm.feature_dim(n_paths), rows.shape))
    # a row has a positive power iff its largest gain does (fmax skips NaN)
    peak = np.fmax.reduce(rows[:, gscm.gain_cols(n_paths)], axis=1)
    dead = ~(ad.db_to_linear(ad.const(peak)).data > 0)
    if np.any(dead):
        raise ValueError("row %d: need at least one strictly positive power"
                         % np.argmax(dead))
    sq = squared_spreads(ad.const(rows), n_paths)
    out = {"delay_spread": np.sqrt(sq["delay_spread"].data)}
    for name in STAT_NAMES[1:]:
        out[name] = np.sqrt(np.clip(sq[name].data, 0.0, 1.0))
    out["gains_db"] = sq["gains_db"].data
    return out


@dataclass(frozen=True)
class EmpiricalCdf:
    grid: np.ndarray    # ascending evaluation points
    values: np.ndarray  # fraction of samples <= grid point


def pooled_grid(sample_sets, grid_size=CDF_GRID_SIZE):
    """Equally spaced grid spanning the min/max of all given sample sets."""
    if grid_size < 2:
        raise ValueError("grid needs at least 2 points")
    lo = min(float(np.min(s)) for s in sample_sets if len(s))
    hi = max(float(np.max(s)) for s in sample_sets if len(s))
    return np.linspace(lo, hi, grid_size)


def empirical_cdf(samples, grid):
    """Empirical CDF of the samples evaluated on the given grid."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    if s.size == 0:
        raise ValueError("empty sample set")
    values = np.searchsorted(s, grid, side="right") / s.size
    return EmpiricalCdf(grid=np.asarray(grid, dtype=np.float64), values=values)


def cdf_pair(a_samples, b_samples, grid_size=CDF_GRID_SIZE):
    """Two CDFs on the shared grid spanning the pooled range of both sets."""
    grid = pooled_grid([np.asarray(a_samples), np.asarray(b_samples)], grid_size)
    return empirical_cdf(a_samples, grid), empirical_cdf(b_samples, grid)


def cdf_mse_db(a, b, floor_db=CDF_FLOOR_DB):
    """Mean squared pointwise CDF difference in dB, clamped at floor_db."""
    if a.grid.shape != b.grid.shape or not np.array_equal(a.grid, b.grid):
        raise ValueError("CDFs must share the same grid")
    mse = float(np.mean((a.values - b.values) ** 2))
    floor_lin = 10.0 ** (floor_db / 10.0)
    if mse <= floor_lin:
        return floor_db
    return 10.0 * math.log10(mse)


STAT_NAMES = ("delay_spread", "az_dod_spread", "zn_dod_spread",
              "az_doa_spread", "zn_doa_spread")
