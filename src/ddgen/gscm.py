"""Geometry-based stochastic channel world.

A fixed set of point scatterers defines one simulation world. A receiver
walks a piecewise-straight trajectory; at every trajectory point each
single-bounce path TX -> scatterer -> RX contributes a gain (urban-macro
pathloss on the unfolded propagation distance), a delay, and four
departure/arrival angles. One trajectory point therefore yields a feature
vector of length 4 + 7N: RX position, total gain, then per path
(path id, gain, delay, azimuth/zenith departure, azimuth/zenith arrival).

Dataset rows are stored in nanoseconds / degrees / dBm; all in-memory
single-sample types use seconds / radians / dB.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8

DEFAULT_BOUNDS = ((-550.0, 500.0), (-550.0, 500.0), (0.0, 30.0))
DEFAULT_TX = (0.0, 0.0, 25.0)
DEFAULT_RX_START = (100.0, 100.0, 1.5)


# ---------------------------------------------------------------------------
# feature vector layout helpers

def feature_dim(n_paths):
    return 4 + 7 * n_paths


def path_id_cols(n_paths):
    return np.arange(4, 4 + 7 * n_paths, 7)


def gain_cols(n_paths):
    return np.arange(5, 5 + 7 * n_paths, 7)


def delay_cols(n_paths):
    return np.arange(6, 6 + 7 * n_paths, 7)


def az_dod_cols(n_paths):
    return np.arange(7, 7 + 7 * n_paths, 7)


def zn_dod_cols(n_paths):
    return np.arange(8, 8 + 7 * n_paths, 7)


def az_doa_cols(n_paths):
    return np.arange(9, 9 + 7 * n_paths, 7)


def zn_doa_cols(n_paths):
    return np.arange(10, 10 + 7 * n_paths, 7)


def fixed_feature_cols(n_paths):
    """Columns held constant by construction: RX height and the path ids."""
    return np.sort(np.concatenate(([2], path_id_cols(n_paths))))


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class ScattererField:
    """Immutable set of scatterer positions, fixed for one simulation run."""

    positions: np.ndarray  # (n, 3) meters
    seed: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class TrajectoryPoint:
    position: np.ndarray  # (3,) meters, z fixed at the RX height
    heading: float        # radians
    step_index: int

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class MpcFeatures:
    """One multipath component: gain, delay, and the four path angles."""

    path_id: int
    gain_db: float   # dB, 0 dBm transmit power assumed
    delay: float     # seconds
    az_dod: float    # radians
    zn_dod: float
    az_doa: float
    zn_doa: float


@dataclass(frozen=True)
class ChannelSample:
    """All multipath features observed at one trajectory point."""

    rx_position: np.ndarray
    total_gain_db: float
    paths: tuple  # MpcFeatures ordered by path_id

    def __post_init__(self):
        pos = np.asarray(self.rx_position, dtype=np.float64).reshape(3)
        pos.setflags(write=False)
        object.__setattr__(self, "rx_position", pos)

    def to_row(self):
        """Flatten to a dataset row: ns / degrees / dBm units."""
        row = np.empty(feature_dim(len(self.paths)))
        row[0:3] = self.rx_position
        row[3] = self.total_gain_db
        for k, p in enumerate(self.paths):
            o = 4 + 7 * k
            row[o] = p.path_id
            row[o + 1] = p.gain_db
            row[o + 2] = p.delay * 1e9
            row[o + 3] = math.degrees(p.az_dod)
            row[o + 4] = math.degrees(p.zn_dod)
            row[o + 5] = math.degrees(p.az_doa)
            row[o + 6] = math.degrees(p.zn_doa)
        return row


# ---------------------------------------------------------------------------
# world construction

def place_scatterers(n, bounds=DEFAULT_BOUNDS, seed=0):
    """Draw n scatterer positions i.i.d. uniform inside the axis-aligned bounds."""
    if n < 0:
        raise ValueError("scatterer count must be >= 0")
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError("invalid bound range [%g, %g]" % (lo, hi))
    rng = np.random.default_rng(seed)
    pos = np.column_stack([rng.uniform(lo, hi, size=n) for lo, hi in bounds])
    return ScattererField(positions=pos.reshape(n, 3), seed=seed)


def heading_angle_set(a_count):
    """The fixed menu of heading angles the receiver may move along.

    theta_i = 2*pi * sin(0.1*pi + ((i-1)/(A-1)) * (2*pi - 0.1*pi)), i = 1..A.
    """
    if a_count < 2:
        raise ValueError("need at least 2 heading angles")
    i = np.arange(1, a_count + 1, dtype=np.float64)
    arg = 0.1 * np.pi + (i - 1.0) / (a_count - 1.0) * (2.0 * np.pi - 0.1 * np.pi)
    return 2.0 * np.pi * np.sin(arg)


def step_rx(point, theta, delta2d):
    """Advance the receiver one fixed-length step in the horizontal plane."""
    if delta2d <= 0:
        raise ValueError("step length must be positive")
    x, y, z = point.position
    pos = (x + delta2d * math.cos(theta), y + delta2d * math.sin(theta), z)
    return TrajectoryPoint(position=np.array(pos), heading=theta,
                           step_index=point.step_index + 1)


def _d2d(pos, tx):
    return math.hypot(pos[0] - tx[0], pos[1] - tx[1])


def gen_trajectory(start, steps, delta2d, headings, seed,
                   tx=DEFAULT_TX, max_d2d=600.0, hold_range=(100, 500),
                   max_redraws=100):
    """Generate a receiver walk of ``steps`` points (including the start).

    A heading is drawn uniformly from the heading set and held for H
    consecutive steps, H uniform on {hold_range[0], ..., hold_range[1]}.
    A fresh heading is drawn when the hold expires or when the horizontal
    TX-RX distance exceeds ``max_d2d``; in the latter case headings are
    redrawn until the next step strictly shrinks that distance (after
    ``max_redraws`` tries the walk steps straight toward the TX).
    """
    if steps < 1:
        raise ValueError("trajectory needs at least one point")
    headings = np.asarray(headings, dtype=np.float64)
    rng = np.random.default_rng(seed)
    start = np.asarray(start, dtype=np.float64)
    points = [TrajectoryPoint(position=start, heading=0.0, step_index=0)]
    heading = 0.0
    hold = 0
    for _ in range(steps - 1):
        pos = points[-1].position
        if hold <= 0 or _d2d(pos, tx) > max_d2d:
            if _d2d(pos, tx) > max_d2d:
                heading = _escape_heading(pos, tx, headings, delta2d, rng, max_redraws)
            else:
                heading = headings[rng.integers(0, len(headings))]
            hold = int(rng.integers(hold_range[0], hold_range[1] + 1))
        points.append(step_rx(points[-1], heading, delta2d))
        hold -= 1
    return points


def _escape_heading(pos, tx, headings, delta2d, rng, max_redraws):
    d_here = _d2d(pos, tx)
    for _ in range(max_redraws):
        theta = headings[rng.integers(0, len(headings))]
        nxt = (pos[0] + delta2d * math.cos(theta), pos[1] + delta2d * math.sin(theta))
        if _d2d(nxt, tx) < d_here:
            return theta
    return math.atan2(tx[1] - pos[1], tx[0] - pos[0])


# ---------------------------------------------------------------------------
# channel synthesis

def pathloss_db(d3d, fc_ghz, h_rx):
    """Urban-macro pathloss: distance in meters, carrier in GHz, RX height in m."""
    if d3d <= 0:
        raise ValueError("distance must be positive")
    if fc_ghz <= 0:
        raise ValueError("carrier frequency must be positive")
    return (13.54 + 39.08 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
            - 0.6 * (h_rx - 1.5) ** 2)


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
    delay = (d_tx_sc + d_sc_rx) / SPEED_OF_LIGHT
    d2d_sc_rx = math.hypot(sc[0] - rx[0], sc[1] - rx[1])
    az_dod = math.atan2(sc[1] - rx[1], sc[0] - rx[0])
    az_doa = math.atan2(rx[1] - sc[1], rx[0] - sc[0])
    zn_dod = math.atan2(d2d_sc_rx, rx[2] - sc[2])
    zn_doa = math.atan2(d2d_sc_rx, sc[2] - rx[2])
    return delay, az_dod, zn_dod, az_doa, zn_doa


def synthesize_sample(tx, rx_point, field, fc_ghz, rng=None):
    """Compute the full multipath feature set at one trajectory point.

    Per-path gain applies the pathloss law to the unfolded propagation
    distance d(tx, sc) + d(sc, rx); each path also carries a random phase
    which is drawn (when an rng is supplied) but not part of the features.
    """
    if len(field) == 0:
        raise ValueError("scatterer field is empty")
    tx = np.asarray(tx, dtype=np.float64)
    rx = rx_point.position
    h_rx = float(rx[2])
    paths = []
    gains_lin = np.empty(len(field))
    for k, sc in enumerate(field.positions):
        delay, az_dod, zn_dod, az_doa, zn_doa = mpc_geometry(tx, rx, sc)
        gain_db = -pathloss_db(delay * SPEED_OF_LIGHT, fc_ghz, h_rx)
        if rng is not None:
            rng.uniform(-2.0 * np.pi, 2.0 * np.pi)  # path phase, unused downstream
        paths.append(MpcFeatures(path_id=k + 1, gain_db=gain_db, delay=delay,
                                 az_dod=az_dod, zn_dod=zn_dod,
                                 az_doa=az_doa, zn_doa=zn_doa))
        gains_lin[k] = 10.0 ** (gain_db / 10.0)
    total = 10.0 * math.log10(gains_lin.sum())
    return ChannelSample(rx_position=rx, total_gain_db=total, paths=tuple(paths))


# ---------------------------------------------------------------------------
# dataset container and file format

@dataclass
class Dataset:
    """Row matrix (steps x feature_dim) in ns/degree/dBm units plus metadata."""

    rows: np.ndarray
    n_paths: int
    fc_ghz: float
    delta2d: float
    h_rx: float
    seed: int
    traj_steps: tuple  # rows per trajectory, in file order

    def traj_ranges(self):
        """Half-open row ranges, one per trajectory."""
        out, start = [], 0
        for n in self.traj_steps:
            out.append((start, start + n))
            start += n
        return out

    def sha256(self):
        return hashlib.sha256(self.rows.tobytes()).hexdigest()


def synthesize_dataset(n_paths, steps, seed, fc_ghz=2.4, delta2d=1.0,
                       bounds=DEFAULT_BOUNDS, tx=DEFAULT_TX,
                       rx_start=DEFAULT_RX_START, heading_count=50,
                       trajectories=1, max_d2d=600.0, hold_range=(100, 500)):
    """Build a full dataset: one scatterer field, one or more trajectories.

    Per-trajectory seeds are derived from the master seed, so trajectories
    can later be generated independently without changing the output.
    """
    ss = np.random.SeedSequence(seed)
    subseeds = [int(s) for s in ss.generate_state(2 * trajectories + 1, dtype=np.uint64)]
    field = place_scatterers(n_paths, bounds, seed=subseeds[0])
    headings = heading_angle_set(heading_count)
    h_rx = float(rx_start[2])
    blocks = []
    for t in range(trajectories):
        traj = gen_trajectory(rx_start, steps, delta2d, headings,
                              seed=subseeds[1 + 2 * t], tx=tx, max_d2d=max_d2d,
                              hold_range=hold_range)
        phase_rng = np.random.default_rng(subseeds[2 + 2 * t])
        block = np.empty((steps, feature_dim(n_paths)))
        for i, pt in enumerate(traj):
            block[i] = synthesize_sample(tx, pt, field, fc_ghz, rng=phase_rng).to_row()
        blocks.append(block)
    return Dataset(rows=np.vstack(blocks), n_paths=n_paths, fc_ghz=fc_ghz,
                   delta2d=delta2d, h_rx=h_rx, seed=seed,
                   traj_steps=tuple(len(b) for b in blocks))


_DATASET_MAGIC = "# ddgen dataset v1"


def write_dataset(ds, path):
    """Plain-text dataset: commented header, then one %.17g row per step."""
    lines = [_DATASET_MAGIC,
             "# n_paths=%d fc_ghz=%.17g delta2d=%.17g h_rx=%.17g seed=%d" %
             (ds.n_paths, ds.fc_ghz, ds.delta2d, ds.h_rx, ds.seed),
             "# traj_steps=%s" % ",".join(str(n) for n in ds.traj_steps),
             "# columns: x y z g then per path: n g_n tau_ns az_dod_deg "
             "zn_dod_deg az_doa_deg zn_doa_deg"]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
        for row in ds.rows:
            f.write(" ".join("%.17g" % v for v in row) + "\n")


_HEADER_KEYS = ("n_paths", "fc_ghz", "delta2d", "h_rx", "seed", "traj_steps")


def read_dataset(path):
    """Parse a dataset file; malformed input raises ValueError naming the
    file and the offending line or header key."""
    meta = {}
    rows, line_nos = [], []
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != _DATASET_MAGIC:
            raise ValueError("not a ddgen dataset: %s" % path)
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        meta[key] = val
                continue
            try:
                rows.append(np.array(line.split(), dtype=np.float64))
            except ValueError:
                raise ValueError("%s: line %d: not a row of numbers"
                                 % (path, line_no)) from None
            line_nos.append(line_no)
    missing = [key for key in _HEADER_KEYS if key not in meta]
    if missing:
        raise ValueError("%s: dataset header lacks %r" % (path, missing[0]))
    n_paths = int(meta["n_paths"])
    width = feature_dim(n_paths)
    short = [n for row, n in zip(rows, line_nos) if row.size != width]
    if short:
        raise ValueError("%s: line %d: row width does not match n_paths=%d"
                         % (path, short[0], n_paths))
    mat = np.vstack(rows) if rows else np.empty((0, width))
    bad = ~np.isfinite(mat).all(axis=1)
    if bad.any():
        raise ValueError("%s: line %d: non-finite value"
                         % (path, line_nos[int(np.argmax(bad))]))
    traj_steps = tuple(int(v) for v in meta["traj_steps"].split(","))
    if sum(traj_steps) != mat.shape[0]:
        raise ValueError("trajectory sizes do not cover the row count")
    return Dataset(rows=mat, n_paths=n_paths, fc_ghz=float(meta["fc_ghz"]),
                   delta2d=float(meta["delta2d"]), h_rx=float(meta["h_rx"]),
                   seed=int(meta["seed"]), traj_steps=traj_steps)
