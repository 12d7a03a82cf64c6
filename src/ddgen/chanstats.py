"""Double-directional channel statistics and the CDF-distance metric.

The two spread measures are power-weighted: the RMS delay spread is the
weighted standard deviation of the path delays, and the angular spread is
the unit-circle spread sqrt(sum_n w_n |e^{j a_n} - mu|^2) with mu the
weighted mean phasor, which is dimensionless and bounded by [0, 1] and
immune to the 2*pi wrap-around of a naive angular standard deviation.
``squared_spreads`` is the one definition of both: tape ops on file-unit
rows, whose columns it takes through ``gscm.path_cols``, that return the
weighted moments under the square root. Its callers differ only in the
finishing step: ``row_stats`` (evaluation and calibration) takes sqrt(S^2)
and clamps the angular spread to [0, 1]; the training loss
(``trainer.window_stat_tensors``, both sides) takes sqrt(S^2 + eps) to
bound the 1/S gradient at zero spread. Each row is reduced on its own, so
evaluation computes its true side once per distinct row of the evaluated
windows (``trainer.evaluate_model``) and training once per training row,
in row blocks (``trainer.train``).

Evaluation compares two sample sets in one CDF format from the pools to
the report: ``cdf_pair`` pools each set whole and returns (grid, F, G),
both empirical CDFs on one grid; ``cdf_mse_db`` is the mean squared
difference of the value arrays F and G in dB.
"""

from __future__ import annotations

import math

import numpy as np

from . import adtensor as ad
from . import gscm

CDF_FLOOR_DB = -120.0
CDF_GRID_SIZE = 512

STAT_NAMES = ("delay_spread", "az_dod_spread", "zn_dod_spread",
              "az_doa_spread", "zn_doa_spread")

# dataset file units (ns, degrees) to the SI units of every statistic
NS_TO_S = 1e-9
DEG_TO_RAD = math.pi / 180.0


def squared_spreads(raw, n_paths):
    """The squared spreads of a tensor of file-unit rows (ns, degrees, dBm)
    of any leading shape, keyed by STAT_NAMES: S^2 of the delays in s^2 and
    sum_n w_n |e^{j a_n} - mu|^2 of each angle group, reduced over the last
    axis; plus the per-path ``gains_db``. The square root is the caller's.
    """
    gains = ad.gather_last(raw, gscm.path_cols(n_paths, "g_n"))
    powers = ad.db_to_linear(gains)
    w = ad.div(powers, ad.sum_axis(powers, -1, keepdims=True))
    tau = ad.scale(ad.gather_last(raw, gscm.path_cols(n_paths, "tau_ns")),
                   NS_TO_S)
    dev = ad.sub(tau, ad.sum_axis(ad.mul(w, tau), -1, keepdims=True))
    out = {"delay_spread": ad.sum_axis(ad.mul(w, ad.square(dev)), -1,
                                       keepdims=False)}
    for name in STAT_NAMES[1:]:
        # each angular spread is of the angle column its name gives
        cols = gscm.path_cols(n_paths, name.replace("_spread", "_deg"))
        ang = ad.scale(ad.gather_last(raw, cols), DEG_TO_RAD)
        c, s = ad.cos(ang), ad.sin(ang)
        mu_c = ad.sum_axis(ad.mul(w, c), -1, keepdims=True)
        mu_s = ad.sum_axis(ad.mul(w, s), -1, keepdims=True)
        dev2 = ad.add(ad.square(ad.sub(c, mu_c)), ad.square(ad.sub(s, mu_s)))
        out[name] = ad.sum_axis(ad.mul(w, dev2), -1, keepdims=False)
    out["gains_db"] = gains
    return out


def row_stats(rows, n_paths, row_ids=None):
    """The five spreads and per-path gains of every dataset row at once.

    ``rows`` is a (rows, 4+7N) matrix in file units (ns, degrees, dBm).
    Returns a dict keyed by STAT_NAMES, each spread shaped (rows,) in
    seconds or dimensionless [0, 1], plus ``gains_db`` shaped (rows, N).
    A row without a strictly positive path power raises ValueError naming
    the row by its entry in ``row_ids`` (by default, its index in ``rows``).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != gscm.feature_dim(n_paths):
        raise ValueError("expected a (rows, %d) matrix, got shape %s"
                         % (gscm.feature_dim(n_paths), rows.shape))
    # a row has a positive power iff its largest gain does (fmax skips NaN)
    peak = np.fmax.reduce(rows[:, gscm.path_cols(n_paths, "g_n")], axis=1)
    dead = ~(ad.db_to_linear(ad.const(peak)).data > 0)
    if np.any(dead):
        i = int(np.argmax(dead))
        raise ValueError("row %d: need at least one strictly positive power"
                         % (i if row_ids is None else row_ids[i]))
    sq = squared_spreads(ad.const(rows), n_paths)
    out = {"delay_spread": np.sqrt(sq["delay_spread"].data)}
    for name in STAT_NAMES[1:]:
        out[name] = np.sqrt(np.clip(sq[name].data, 0.0, 1.0))
    out["gains_db"] = sq["gains_db"].data
    return out


def cdf_pair(a_samples, b_samples):
    """The empirical CDFs of two sample sets, each pooled whole whatever its
    shape, on ``CDF_GRID_SIZE`` points evenly spanning both sets' range, as
    (grid, F_a, F_b); F(x) is the fraction of a set's samples <= x."""
    a, b = (np.asarray(s, dtype=np.float64) for s in (a_samples, b_samples))
    if not (a.size and b.size):
        raise ValueError("empty sample set")
    grid = np.linspace(min(float(a.min()), float(b.min())),
                       max(float(a.max()), float(b.max())), CDF_GRID_SIZE)
    return (grid, *(np.searchsorted(np.sort(s, axis=None), grid,
                                    side="right") / s.size for s in (a, b)))


def cdf_mse_db(f, g):
    """Mean squared difference of two CDF value arrays on one grid, in dB,
    clamped at ``CDF_FLOOR_DB``."""
    mse = float(np.mean((f - g) ** 2))
    if mse <= 10.0 ** (CDF_FLOOR_DB / 10.0):
        return CDF_FLOOR_DB
    return 10.0 * math.log10(mse)
