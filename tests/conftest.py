import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ddgen import adtensor as ad
from ddgen import chanstats, gscm, trainer
from ddgen import htransformer as ht
from ddgen.config import RunConfig


def tiny_run_config(**overrides):
    """A RunConfig with a two-path world and the tiny model shape."""
    base = dict(n_scatterers=2, lag=6, window=4, d_model=8, heads=2,
                enc_layers=1, dec_layers=1, ffn_dim=8, rank=3,
                bilstm_hidden=4, bilstm_layers=1, dropout=0.0)
    base.update(overrides)
    return RunConfig(**base)


def tiny_model_config(**overrides):
    return tiny_run_config(**overrides).model_config().validate()


def random_feature_rows(n_rows, n_paths, seed=0):
    """Synthetic raw rows with the dataset column layout and plausible units."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n_rows, gscm.feature_dim(n_paths)))
    rows[:, 0] = rng.uniform(-400, 400, n_rows)
    rows[:, 1] = rng.uniform(-400, 400, n_rows)
    rows[:, 2] = 1.5
    rows[:, 3] = rng.uniform(-130, -90, n_rows)
    rows[:, gscm.path_id_cols(n_paths)] = np.arange(1, n_paths + 1)
    rows[:, gscm.gain_cols(n_paths)] = rng.uniform(-140, -90, (n_rows, n_paths))
    rows[:, gscm.delay_cols(n_paths)] = rng.uniform(300, 4000, (n_rows, n_paths))
    for cols in (gscm.az_dod_cols, gscm.zn_dod_cols, gscm.az_doa_cols,
                 gscm.zn_doa_cols):
        rows[:, cols(n_paths)] = rng.uniform(-180, 180, (n_rows, n_paths))
    return rows


def random_dataset(n_rows, n_paths, seed=0):
    """A one-trajectory ``gscm.Dataset`` of ``random_feature_rows``."""
    return gscm.Dataset(rows=random_feature_rows(n_rows, n_paths, seed),
                        n_paths=n_paths, fc_ghz=2.4, delta2d=1.0, h_rx=1.5,
                        seed=seed, traj_steps=(n_rows,))


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the most bytes that the allocations it
    made held at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# Direct-summation oracles of the two spread measures, in SI units, written
# independently of the package internals.

def oracle_delay_spread(powers, delays):
    total = sum(powers)
    mean = sum(p * t for p, t in zip(powers, delays)) / total
    return math.sqrt(sum(p * (t - mean) ** 2 for p, t in zip(powers, delays))
                     / total)


def oracle_angular_spread(powers, angles):
    total = sum(powers)
    mu = sum(p * cmath.exp(1j * a) for p, a in zip(powers, angles)) / total
    acc = sum(p * abs(cmath.exp(1j * a) - mu) ** 2
              for p, a in zip(powers, angles))
    return math.sqrt(acc / total)


# The scalar per-path reference of the channel model, in seconds / radians
# / dB. ``gscm.channel_rows`` computes whole trajectories as arrays and must
# match it bit for bit.

def pathloss_db(d3d, fc_ghz, h_rx):
    """Urban-macro NLOS pathloss (3GPP TR 38.901 Table 7.4.1-1): distance in
    meters, carrier in GHz, RX (UT) height in meters."""
    if d3d <= 0:
        raise ValueError("distance must be positive")
    if fc_ghz <= 0:
        raise ValueError("carrier frequency must be positive")
    return (13.54 + 39.08 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
            - 0.6 * (h_rx - 1.5))


def mpc_geometry(tx, rx, sc):
    """Delay and the four angles of the single-bounce path TX -> sc -> RX.

    Angles follow the arctan expressions of the source model, evaluated with
    the two-argument arctangent so every result lies in (-pi, pi].
    """
    tx = np.asarray(tx, dtype=np.float64)
    rx = np.asarray(rx, dtype=np.float64)
    sc = np.asarray(sc, dtype=np.float64)
    d_tx_sc = float(np.linalg.norm(sc - tx))
    d_sc_rx = float(np.linalg.norm(rx - sc))
    if d_tx_sc == 0.0 or d_sc_rx == 0.0:
        raise ValueError("scatterer coincides with an endpoint")
    delay = (d_tx_sc + d_sc_rx) / gscm.SPEED_OF_LIGHT
    d2d_sc_rx = math.hypot(sc[0] - rx[0], sc[1] - rx[1])
    az_dod = math.atan2(sc[1] - rx[1], sc[0] - rx[0])
    az_doa = math.atan2(rx[1] - sc[1], rx[0] - sc[0])
    zn_dod = math.atan2(d2d_sc_rx, rx[2] - sc[2])
    zn_doa = math.atan2(d2d_sc_rx, sc[2] - rx[2])
    return delay, az_dod, zn_dod, az_doa, zn_doa


# Closing a graph to a scalar and checking its gradients against finite
# differences.

def sum_all(a):
    """The sum of every entry of a tensor, as a 0-d tensor."""
    return ad._node(np.asarray(a.data.sum()), (a,), lambda g: ad._accum(
        a, np.broadcast_to(g, a.data.shape).copy()))


def grad_check(fn, params, eps=1e-5):
    """Compare analytic gradients of a scalar-valued closure against central
    differences, coordinate by coordinate.

    ``fn`` rebuilds its graph from the current ``.data`` of each tensor in
    ``params`` on every call and returns a scalar Tensor. Returns the max of
    |analytic - numeric| / max(1, |numeric|) over all parameter entries.
    """
    ad.zero_grad(params)
    out = fn()
    if out.data.ndim != 0:
        raise ValueError("grad_check: fn must return a scalar")
    out.backward(np.asarray(1.0))
    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn().data)
            flat[i] = orig - eps
            f_minus = float(fn().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError("grad_check: non-finite probe value at entry %d" % i)
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


def paths_row(powers, delays=None, angles=None):
    """One dataset row in file units from per-path linear powers, delays (s)
    and angles (rad); every angle group gets the same angles. Unset columns
    stay 0."""
    n = len(powers)
    row = np.zeros((1, gscm.feature_dim(n)))
    with np.errstate(divide="ignore"):  # a zero power is -inf dB
        row[0, gscm.gain_cols(n)] = 10.0 * np.log10(powers)
    if delays is not None:
        row[0, gscm.delay_cols(n)] = np.asarray(delays) / chanstats.NS_TO_S
    if angles is not None:
        for cols in (gscm.az_dod_cols, gscm.zn_dod_cols, gscm.az_doa_cols,
                     gscm.zn_doa_cols):
            row[0, cols(n)] = np.asarray(angles) / chanstats.DEG_TO_RAD
    return row


@pytest.fixture
def attention_weights(monkeypatch):
    """The (b, heads, Lq, B) attention weights of every projected attention
    site that ``htransformer`` runs while the test does, in call order."""
    seen = []
    real = ht.projected_attention

    def record(*args, **kwargs):
        out, attn = real(*args, **kwargs)
        seen.append(attn)
        return out, attn
    monkeypatch.setattr(ht, "projected_attention", record)
    return seen


@pytest.fixture(scope="session")
def small_dataset():
    return gscm.synthesize_dataset(n_paths=3, steps=120, seed=42, fc_ghz=2.4,
                                   delta2d=1.0, trajectories=2)


@pytest.fixture(scope="session")
def small_scaler(small_dataset):
    return trainer.fit_scaler(small_dataset.rows, small_dataset.n_paths)
