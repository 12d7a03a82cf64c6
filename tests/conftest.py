import cmath
import math

import numpy as np
import pytest

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
