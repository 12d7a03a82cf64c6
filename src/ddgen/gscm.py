"""Geometry-based stochastic channel world.

A fixed set of point scatterers defines one simulation world. A receiver
walks a piecewise-straight trajectory; at every trajectory point each
single-bounce path TX -> scatterer -> RX contributes a gain (urban-macro
pathloss on the unfolded propagation distance), a delay, and four
departure/arrival angles. One trajectory point therefore yields a feature
vector of length 4 + 7N: RX position, total gain, then per path
(path id, gain, delay, azimuth/zenith departure, azimuth/zenith arrival).

Synthesis is array-first: ``gen_trajectory`` walks the receiver and
``channel_rows`` turns a whole (steps, 3) block of RX positions into rows
in one pass, bit-identical to the scalar per-path reference that the tests
hold (``tests/conftest.py``). Dataset rows are stored in nanoseconds /
degrees / dBm.

A dataset file ``<path>`` is plain text (header, then one %.17g row per
trajectory point) and is the canonical format. ``write_dataset`` also
writes the row matrix as ``<path>.npy``, the binary twin, and returns the
sha256 of both files, which ``ddgen gen`` records in
``<path>.manifest.json``. ``read_dataset`` returns the twin's rows only
when that manifest binds the twin to the exact text bytes being read;
otherwise it parses the text. Deleting the twin is always safe.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8

DEFAULT_BOUNDS = ((-550.0, 500.0), (-550.0, 500.0), (0.0, 30.0))
DEFAULT_TX = (0.0, 0.0, 25.0)
DEFAULT_RX_START = (100.0, 100.0, 1.5)
HEADING_COUNT = 50


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
# world construction

def place_scatterers(n, seed=0):
    """Draw n scatterer positions i.i.d. uniform inside ``DEFAULT_BOUNDS``;
    returns a read-only (n, 3) array in meters."""
    if n < 0:
        raise ValueError("scatterer count must be >= 0")
    rng = np.random.default_rng(seed)
    pos = np.column_stack([rng.uniform(lo, hi, size=n)
                           for lo, hi in DEFAULT_BOUNDS])
    pos = pos.reshape(n, 3)
    pos.setflags(write=False)
    return pos


def heading_angle_set(a_count):
    """The fixed menu of heading angles the receiver may move along.

    theta_i = 2*pi * sin(0.1*pi + ((i-1)/(A-1)) * (2*pi - 0.1*pi)), i = 1..A.
    """
    if a_count < 2:
        raise ValueError("need at least 2 heading angles")
    i = np.arange(1, a_count + 1, dtype=np.float64)
    arg = 0.1 * np.pi + (i - 1.0) / (a_count - 1.0) * (2.0 * np.pi - 0.1 * np.pi)
    return 2.0 * np.pi * np.sin(arg)


# headings drawn before an escaping walk steps straight toward the TX
_MAX_REDRAWS = 100


def _d2d(x, y):
    return math.hypot(x - DEFAULT_TX[0], y - DEFAULT_TX[1])


def gen_trajectory(start, steps, delta2d, headings, seed, max_d2d=600.0,
                   hold_range=(100, 500)):
    """Generate a receiver walk of ``steps`` points (including the start),
    returned as a (steps, 3) array in meters; z stays at the start height.

    A heading is drawn uniformly from the heading set and held for H
    consecutive steps, H uniform on {hold_range[0], ..., hold_range[1]}.
    A fresh heading is drawn when the hold expires or when the horizontal
    distance to ``DEFAULT_TX`` exceeds ``max_d2d``; in the latter case
    headings are redrawn until the next step strictly shrinks that distance
    (after ``_MAX_REDRAWS`` tries the walk steps straight toward the TX).
    Each step moves ``delta2d`` meters along the current heading.
    """
    if steps < 1:
        raise ValueError("trajectory needs at least one point")
    if delta2d <= 0:
        raise ValueError("step length must be positive")
    headings = np.asarray(headings, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x, y, z = map(float, start)
    xs, ys = [x], [y]
    heading = 0.0
    hold = 0
    for _ in range(steps - 1):
        far = _d2d(x, y) > max_d2d
        if hold <= 0 or far:
            if far:
                heading = _escape_heading(x, y, headings, delta2d, rng)
            else:
                heading = headings[rng.integers(0, len(headings))]
            hold = int(rng.integers(hold_range[0], hold_range[1] + 1))
        x += delta2d * math.cos(heading)
        y += delta2d * math.sin(heading)
        xs.append(x)
        ys.append(y)
        hold -= 1
    return np.column_stack((xs, ys, np.full(steps, z)))


def _escape_heading(x, y, headings, delta2d, rng):
    d_here = _d2d(x, y)
    for _ in range(_MAX_REDRAWS):
        theta = headings[rng.integers(0, len(headings))]
        if _d2d(x + delta2d * math.cos(theta),
                y + delta2d * math.sin(theta)) < d_here:
            return theta
    return math.atan2(DEFAULT_TX[1] - y, DEFAULT_TX[0] - x)


# ---------------------------------------------------------------------------
# channel synthesis

# Elementwise ``math`` functions. The numpy ufuncs may differ from them in
# the last ulp (SIMD implementations), and the dataset bytes must equal the
# scalar per-path reference (``mpc_geometry`` and ``pathloss_db`` in
# ``tests/conftest.py``).
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)
_log10 = np.frompyfunc(math.log10, 1, 1)
_pow = np.frompyfunc(math.pow, 2, 1)


def _norm3(d):
    """Euclidean norm over the last axis of a (..., 3) array, bit-identical
    to ``np.linalg.norm`` of each vector (both reduce with one dot)."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def channel_rows(tx, rx, scatterers, fc_ghz):
    """Dataset rows (ns / degrees / dBm) for RX positions ``rx`` (steps, 3)
    seeing the single-bounce paths through ``scatterers`` (N, 3).

    Per-path gain applies the urban-macro NLOS pathloss law (3GPP TR 38.901
    Table 7.4.1-1) to the unfolded propagation distance d(tx, sc) +
    d(sc, rx). Angles are two-argument arctangents, so each lies in
    (-pi, pi]. Every value is bit-identical to the scalar reference applied
    point by point and path by path.
    """
    sc = np.asarray(scatterers, dtype=np.float64).reshape(-1, 3)
    rx = np.asarray(rx, dtype=np.float64).reshape(-1, 3)
    if len(sc) == 0:
        raise ValueError("scatterer field is empty")
    steps, n = len(rx), len(sc)
    # RX -> scatterer and back, (steps, N, 3); both are computed rather than
    # negated, so exact zeros keep the sign the scalar reference gives them
    out = sc[None, :, :] - rx[:, None, :]
    back = rx[:, None, :] - sc[None, :, :]
    d_tx_sc = _norm3(sc - np.asarray(tx, dtype=np.float64))
    d_sc_rx = _norm3(back)
    if not (d_tx_sc.all() and d_sc_rx.all()):
        raise ValueError("scatterer coincides with an endpoint")
    delay = (d_tx_sc + d_sc_rx) / SPEED_OF_LIGHT
    d2d = _hypot(out[..., 0], out[..., 1])
    angles = (_atan2(out[..., 1], out[..., 0]), _atan2(d2d, back[..., 2]),
              _atan2(back[..., 1], back[..., 0]), _atan2(d2d, out[..., 2]))
    # 13.54 + 39.08 log10(d) + 20 log10(fc) - 0.6 (h_rx - 1.5), in the
    # reference's operation order; the RX height is per point
    log_fc = 20.0 * math.log10(fc_ghz)
    height = 0.6 * (rx[:, 2:3] - 1.5)
    gain_db = -((13.54 + 39.08 * _log10(delay * SPEED_OF_LIGHT).astype(float)
                 + log_fc) - height)
    lin = _pow(10.0, gain_db / 10.0).astype(float)
    rows = np.empty((steps, feature_dim(n)))
    rows[:, 0:3] = rx
    rows[:, 3] = 10.0 * _log10(lin.sum(axis=1)).astype(float)
    paths = rows[:, 4:].reshape(steps, n, 7)
    paths[..., 0] = np.arange(1, n + 1)
    paths[..., 1] = gain_db
    paths[..., 2] = delay * 1e9
    for j, ang in enumerate(angles):
        paths[..., 3 + j] = np.degrees(ang.astype(float))
    return rows


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
    sha256: str | None = None  # digest of the file it was read from

    def traj_ranges(self):
        """Half-open row ranges, one per trajectory."""
        out, start = [], 0
        for n in self.traj_steps:
            out.append((start, start + n))
            start += n
        return out


# trajectory points per channel_rows call in synthesize_dataset
_CHUNK_POINTS = 1024


def synthesize_dataset(n_paths, steps, seed, fc_ghz=2.4, delta2d=1.0,
                       trajectories=1, max_d2d=600.0, hold_range=(100, 500)):
    """Build a full dataset: one scatterer field, one or more trajectories.

    Per-trajectory seeds are derived from the master seed, so trajectories
    can later be generated independently without changing the output. The
    world's geometry is the fixed one: ``DEFAULT_BOUNDS``, ``DEFAULT_TX``,
    ``DEFAULT_RX_START`` and ``HEADING_COUNT``.
    """
    ss = np.random.SeedSequence(seed)
    # sub-seed 0 places the field and 1 + 2t walks trajectory t; 2 + 2t is
    # unused but kept, so that no other sub-seed (and no dataset) shifts
    subseeds = [int(s) for s in ss.generate_state(2 * trajectories + 1, dtype=np.uint64)]
    field = place_scatterers(n_paths, seed=subseeds[0])
    headings = heading_angle_set(HEADING_COUNT)
    rows = np.empty((trajectories * steps, feature_dim(n_paths)))
    for t in range(trajectories):
        traj = gen_trajectory(DEFAULT_RX_START, steps, delta2d, headings,
                              seed=subseeds[1 + 2 * t], max_d2d=max_d2d,
                              hold_range=hold_range)
        # a chunk at a time, so the per-path temporaries stay small
        for lo in range(0, steps, _CHUNK_POINTS):
            hi = min(lo + _CHUNK_POINTS, steps)
            rows[t * steps + lo:t * steps + hi] = channel_rows(
                DEFAULT_TX, traj[lo:hi], field, fc_ghz)
    return Dataset(rows=rows, n_paths=n_paths, fc_ghz=fc_ghz,
                   delta2d=delta2d, h_rx=DEFAULT_RX_START[2], seed=seed,
                   traj_steps=(steps,) * trajectories)


_DATASET_MAGIC = "# ddgen dataset v1"

# ``gen`` writes the row matrix of dataset ``<path>`` again as ``<path>.npy``
# (the twin) and its manifest as ``<path>.manifest.json``.
TWIN_SUFFIX = ".npy"
MANIFEST_SUFFIX = ".manifest.json"
# rows formatted, hashed and written per call in write_dataset
_WRITE_ROWS = 256


def write_dataset(ds, path):
    """Write the plain-text dataset (commented header, then one %.17g row
    per step) and its binary twin ``path + TWIN_SUFFIX``.

    Returns the entries of the gen manifest's ``outputs`` that bind the twin
    to the text, both digests taken from the bytes written: the text's
    ``sha256``, the twin's path ``rows`` and its ``rows_sha256``.
    """
    lines = [_DATASET_MAGIC,
             "# n_paths=%d fc_ghz=%.17g delta2d=%.17g h_rx=%.17g seed=%d" %
             (ds.n_paths, ds.fc_ghz, ds.delta2d, ds.h_rx, ds.seed),
             "# traj_steps=%s" % ",".join(str(n) for n in ds.traj_steps),
             "# columns: x y z g then per path: n g_n tau_ns az_dod_deg "
             "zn_dod_deg az_doa_deg zn_doa_deg"]
    fmt = " ".join(["%.17g"] * ds.rows.shape[1]) + "\n"

    def texts():
        yield "\n".join(lines) + "\n"
        for lo in range(0, len(ds.rows), _WRITE_ROWS):
            block = ds.rows[lo:lo + _WRITE_ROWS].tolist()
            yield "".join([fmt % tuple(row) for row in block])

    text_sha = hashlib.sha256()
    with open(path, "wb") as f:
        for text in texts():
            data = text.encode("ascii")
            text_sha.update(data)
            f.write(data)
    # saved straight into the file and hashed from it, so no copy of the
    # matrix is made
    twin = path + TWIN_SUFFIX
    with open(twin, "wb") as f:
        np.save(f, np.ascontiguousarray(ds.rows, dtype=np.float64))
    with open(twin, "rb") as f:
        twin_sha = hashlib.file_digest(f, "sha256")
    return {"sha256": text_sha.hexdigest(), "rows": twin,
            "rows_sha256": twin_sha.hexdigest()}


def _count(text):
    n = int(text)
    if n < 1:
        raise ValueError("%d is not a positive count" % n)
    return n


def _counts(text):
    return tuple(_count(v) for v in text.split(","))


_HEADER_KEYS = (("n_paths", _count), ("fc_ghz", float), ("delta2d", float),
                ("h_rx", float), ("seed", int), ("traj_steps", _counts))


def read_dataset(path):
    """Read a dataset file; malformed input raises ValueError naming the
    file and the offending line or header key.

    The text is canonical. Its rows are parsed unless the gen manifest
    beside it binds the twin to these exact text bytes (see
    ``_bound_rows``), in which case the twin's rows are returned.
    ``write_dataset`` writes both from one matrix, so either way the rows
    are the same values bit for bit. Header keys are read from the comment
    lines before the first row; later comment lines are skipped.
    """
    text_sha = hashlib.sha256()
    meta = {}
    with open(path, "rb") as f:
        first = f.readline()
        if first.rstrip(b"\n") != _DATASET_MAGIC.encode():
            raise ValueError("not a ddgen dataset: %s" % path)
        text_sha.update(first)
        # the header: comment and blank lines up to the first row
        for line_no in itertools.count(2):
            rows_start = f.tell()
            line = f.readline()
            text = line.strip()
            if not line or (text and not text.startswith(b"#")):
                break
            text_sha.update(line)
            for tok in text[1:].decode("utf-8", "replace").split():
                if "=" in tok:
                    key, val = tok.split("=", 1)
                    meta[key] = val
        f.seek(rows_start)
        for chunk in iter(lambda: f.read(1 << 20), b""):
            text_sha.update(chunk)
        values = {}
        for key, kind in _HEADER_KEYS:
            if key not in meta:
                raise ValueError("%s: dataset header lacks %r" % (path, key))
            try:
                values[key] = kind(meta[key])
            except ValueError:
                raise ValueError("%s: header key %r: invalid value %r"
                                 % (path, key, meta[key])) from None
        width = feature_dim(values["n_paths"])
        n_rows = sum(values["traj_steps"])
        digest = text_sha.hexdigest()
        rows = _bound_rows(path, digest, (n_rows, width))
        if rows is None:
            f.seek(rows_start)
            rows = _parse_rows(f, path, line_no, values["n_paths"])
    if rows.shape[0] != n_rows:
        raise ValueError("%s: header key 'traj_steps': trajectory sizes sum "
                         "to %d, not the %d rows" % (path, n_rows,
                                                     rows.shape[0]))
    return Dataset(rows=rows, sha256=digest, **values)


def _parse_rows(f, path, first_line_no, n_paths):
    """The rows of a dataset text from ``f``, positioned at the line with
    number ``first_line_no``; later comment and blank lines are skipped."""
    rows, line_nos = [], []
    for line_no, line in enumerate(f, start=first_line_no):
        line = line.strip()
        if not line or line.startswith(b"#"):
            continue
        try:
            rows.append(np.array(line.split(), dtype=np.float64))
        except ValueError:
            raise ValueError("%s: line %d: not a row of numbers"
                             % (path, line_no)) from None
        line_nos.append(line_no)
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
    return mat


def _bound_rows(path, text_sha256, shape):
    """The twin's rows, or None unless all of these hold: the gen manifest
    beside ``path`` records ``text_sha256`` as the text's digest; the twin's
    bytes hash to the manifest's ``rows_sha256``; and those bytes are a
    version 1.0 .npy file (the one ``np.save`` writes) of a finite float64
    matrix of ``shape``. Any other pair is stale or edited, so a missing,
    unreadable or mismatched file just means None. The twin is read once
    into one writable buffer, which the returned rows view."""
    try:
        with open(path + MANIFEST_SUFFIX, "rb") as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        return None
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if (not isinstance(outputs, dict) or "rows_sha256" not in outputs
            or outputs.get("sha256") != text_sha256):
        return None
    try:
        with open(path + TWIN_SUFFIX, "rb") as f:
            blob = bytearray(os.fstat(f.fileno()).st_size)
            if f.readinto(blob) != len(blob):
                return None
    except OSError:
        return None
    if hashlib.sha256(blob).hexdigest() != outputs["rows_sha256"]:
        return None
    # the header is parsed from a copy of the buffer's first bytes, which
    # hold all of it: a version 1.0 header is at most 10 + 65535 bytes long
    head = io.BytesIO(blob[:10 + 0xFFFF])
    try:
        if np.lib.format.read_magic(head) != (1, 0):
            return None
        got_shape, fortran, dtype = np.lib.format.read_array_header_1_0(head)
    except ValueError:
        return None
    if (got_shape != shape or fortran or dtype != np.float64
            or len(blob) - head.tell() != math.prod(shape) * dtype.itemsize):
        return None
    rows = np.frombuffer(blob, dtype=dtype, offset=head.tell()).reshape(shape)
    return rows if np.isfinite(rows).all() else None
