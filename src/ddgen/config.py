"""The one run configuration: a flat key=value namespace covering world
synthesis, model shape and training schedule, with the full-scale defaults
baked in. Any key can be overridden from a plain-text config file or
command-line ``--set key=value`` pairs. ``cli`` resolves it, ``trainer.train``
takes it as is, and the checkpoint, the loss trace and the train manifest
all record its ``to_dict()``. ``ModelConfig`` is derived from it and has no
defaults of its own.

Only what a run varies is a key. The world's fixed geometry (the TX, the
scatterer box, the RX start and the heading menu) is held by ``gscm``, and
the fixed learning-rate decay, weight decay and weight clamp by ``trainer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import gscm
from .htransformer import ModelConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # world
    n_scatterers: int = 26
    fc_ghz: float = 2.4
    delta2d: float = 1.0
    hold_min: int = 100
    hold_max: int = 500
    max_d2d: float = 600.0
    steps: int = 125000
    trajectories: int = 1
    # model
    d_model: int = 512
    heads: int = 8
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 512
    rank: int = 64
    bilstm_hidden: int = 128
    bilstm_layers: int = 2
    dropout: float = 0.1
    lag: int = 100
    window: int = 200
    # training
    mode: str = "gen"
    epochs: int = 250
    batch_size: int = 256
    lr: float = 5e-5
    beta: float = 1.0
    stride: int = 1
    train_frac: float = 0.8
    checkpoint_every: int = 0
    seed: int = 0

    def model_config(self, n_paths=None):
        """The model shape. Its ``feature_dim`` follows ``n_paths`` (a
        dataset's path count) when given, else ``n_scatterers``."""
        keys = {f.name for f in fields(ModelConfig)} - {"feature_dim"}
        n = self.n_scatterers if n_paths is None else n_paths
        return ModelConfig(feature_dim=gscm.feature_dim(n),
                           **{k: getattr(self, k) for k in keys})

    def to_dict(self):
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def validate(self):
        if self.n_scatterers < 1:
            raise ConfigError("n_scatterers must be >= 1")
        for key in ("fc_ghz", "delta2d", "lr", "beta"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError("%s must be positive and finite" % key)
        if not self.max_d2d > 0:
            raise ConfigError("max_d2d must be positive")
        if not (1 <= self.hold_min <= self.hold_max):
            raise ConfigError("hold range must satisfy 1 <= min <= max")
        if self.steps < 1 or self.trajectories < 1:
            raise ConfigError("steps and trajectories must be >= 1")
        if self.mode not in ("gen", "pred"):
            raise ConfigError("mode must be gen or pred")
        if not (0.0 < self.train_frac < 1.0):
            raise ConfigError("train_frac must lie in (0, 1)")
        if self.stride < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("stride, epochs and batch_size must be >= 1")
        if self.checkpoint_every < 0 or self.seed < 0:
            raise ConfigError("checkpoint_every and seed must be >= 0")
        try:
            self.model_config().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


def _convert(key, raw, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError("key %r: cannot parse %r as %s"
                          % (key, raw, kind.__name__)) from exc


def apply_overrides(cfg, pairs):
    """Apply ``key=value`` strings onto a RunConfig in place."""
    fields = cfg.__dataclass_fields__
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError("override %r is not key=value" % pair)
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ConfigError("unknown config key %r" % key)
        setattr(cfg, key, _convert(key, raw.strip(), type(getattr(cfg, key))))
    return cfg


def load_config(path, base=None):
    """Read a key=value config file ('#' starts a comment)."""
    cfg = base if base is not None else RunConfig()
    pairs = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value" % (path, lineno))
            pairs.append(line)
    return apply_overrides(cfg, pairs)


def desk_preset():
    """Small-world preset for CPU-scale smoke training.

    2000 samples as 10 independent trajectories so the held-out trajectories
    are distributionally representative; step and heading-hold scales are
    shrunk together, keeping the 50-250 m heading segments of the full-scale
    walk while each generation window spans several random turns.
    """
    return RunConfig(n_scatterers=5, steps=200, trajectories=10, delta2d=5.0,
                     hold_min=10, hold_max=50, d_model=32, heads=2,
                     enc_layers=1, dec_layers=1, ffn_dim=32, rank=8,
                     bilstm_hidden=16, bilstm_layers=1, dropout=0.0, lag=20,
                     window=10, epochs=30, batch_size=64, lr=1.5e-3, stride=2)
