"""Double-directional channel statistics and the CDF-distance metric.

The two spread measures are power-weighted: the RMS delay spread is the
weighted standard deviation of the path delays, and the angular spread is
the unit-circle spread sqrt(sum_n w_n |e^{j a_n} - mu|^2) with mu the
weighted mean phasor, which is dimensionless and bounded by [0, 1] and
immune to the 2*pi wrap-around of a naive angular standard deviation.
``row_stats`` applies these formulas to a whole matrix of dataset rows and
serves evaluation and calibration. It reduces each row on its own, so the
true side of an evaluation is computed once per distinct row of the
evaluated windows and gathered back (``trainer.evaluate_model``), however
much the windows overlap and however many models are scored against it.
The training loss computes both its sides with
``trainer.window_stat_tensors``, the true side on a constant that records
no graph (``trainer.train`` does so once per run, for every row). It uses
the same unit constants, with one deliberate difference: it takes
sqrt(S^2 + eps) to bound the 1/S gradient at zero spread, where evaluation
takes sqrt(S^2) and clamps the angular spread to [0, 1].

All evaluation compares pooled sample sets through their empirical CDFs on
a shared grid; the reported distance is the mean squared pointwise CDF
difference in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gscm

CDF_FLOOR_DB = -120.0
CDF_GRID_SIZE = 512

# dataset file units (ns, degrees) to the SI units of every statistic
NS_TO_S = 1e-9
DEG_TO_RAD = math.pi / 180.0


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
    gains = rows[:, gscm.gain_cols(n_paths)]
    powers = 10.0 ** (gains / 10.0)
    dead = ~np.any(powers > 0, axis=1)
    if np.any(dead):
        raise ValueError("row %d: need at least one strictly positive power"
                         % np.argmax(dead))
    w = powers / powers.sum(axis=1, keepdims=True)
    tau = rows[:, gscm.delay_cols(n_paths)] * NS_TO_S
    mean = np.sum(w * tau, axis=1, keepdims=True)
    out = {"delay_spread": np.sqrt(np.sum(w * (tau - mean) ** 2, axis=1))}
    for name, cols in (("az_dod_spread", gscm.az_dod_cols),
                       ("zn_dod_spread", gscm.zn_dod_cols),
                       ("az_doa_spread", gscm.az_doa_cols),
                       ("zn_doa_spread", gscm.zn_doa_cols)):
        phasor = np.exp(1j * (rows[:, cols(n_paths)] * DEG_TO_RAD))
        mu = np.sum(w * phasor, axis=1, keepdims=True)
        val = np.sum(w * np.abs(phasor - mu) ** 2, axis=1)
        out[name] = np.sqrt(np.clip(val, 0.0, 1.0))
    out["gains_db"] = gains
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


def empirical_cdf(samples, grid_size=CDF_GRID_SIZE, grid=None):
    """Empirical CDF evaluated on a grid (own-range grid unless one is given)."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    if s.size == 0:
        raise ValueError("empty sample set")
    if grid is None:
        grid = pooled_grid([s], grid_size)
    values = np.searchsorted(s, grid, side="right") / s.size
    return EmpiricalCdf(grid=np.asarray(grid, dtype=np.float64), values=values)


def cdf_pair(a_samples, b_samples, grid_size=CDF_GRID_SIZE):
    """Two CDFs on the shared grid spanning the pooled range of both sets."""
    grid = pooled_grid([np.asarray(a_samples), np.asarray(b_samples)], grid_size)
    return empirical_cdf(a_samples, grid=grid), empirical_cdf(b_samples, grid=grid)


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
