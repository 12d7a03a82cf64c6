"""Output checks for the benchmark.

Each check recomputes a property of a ddgen output from first principles
(the pathloss law, triangle inequality, spread definitions, the empirical
CDF) instead of comparing against a stored copy. Every check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SPEED_OF_LIGHT = 3.0e8
TX = (0.0, 0.0, 25.0)
CDF_FLOOR_DB = -120.0
EVAL_STATS = ("delay_spread", "az_dod_spread", "zn_dod_spread",
              "az_doa_spread", "zn_doa_spread", "mpc_power")


def _first(mask):
    return int(np.flatnonzero(mask)[0])


# ---------------------------------------------------------------------------
# ddgen gen: the dataset file

def parse_dataset(path):
    """Independent reader: (header dict, row matrix, data lines as bytes)."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    meta, data = {}, []
    for line in lines:
        if line.startswith(b"#"):
            for tok in line[1:].decode().split():
                key, sep, val = tok.partition("=")
                if sep:
                    meta[key] = val
        elif line.strip():
            data.append(line)
    width = len(data[0].split()) if data else 0
    values = np.array(list(map(float, b" ".join(data).split())))
    return meta, values.reshape(len(data), width), data


def path_columns(n_paths, offset):
    """Column of field ``offset`` (0 id, 1 gain, 2 delay, ...) of each path."""
    return 4 + offset + 7 * np.arange(n_paths)


def check_dataset_rows(rows, n_paths, fc_ghz, delta2d, traj_steps, tx=TX):
    """Physical properties every synthesized row must satisfy at h_rx=1.5."""
    fails = []
    if rows.shape != (sum(traj_steps), 4 + 7 * n_paths):
        return ["dataset shape %s, expected %d rows x %d"
                % (rows.shape, sum(traj_steps), 4 + 7 * n_paths)]
    gains = rows[:, path_columns(n_paths, 1)]
    dist = SPEED_OF_LIGHT * rows[:, path_columns(n_paths, 2)] * 1e-9
    total = 10.0 * np.log10(np.sum(10.0 ** (gains / 10.0), axis=1))
    bad = np.abs(rows[:, 3] - total) > 1e-9
    if bad.any():
        i = _first(bad)
        fails.append("row %d: total gain %.12g, paths sum to %.12g"
                     % (i, rows[i, 3], total[i]))
    law = -(13.54 + 39.08 * np.log10(dist) + 20.0 * math.log10(fc_ghz))
    bad = np.abs(gains - law) > 1e-9
    if bad.any():
        i, k = np.argwhere(bad)[0]
        fails.append("row %d path %d: gain %.12g, pathloss law gives %.12g"
                     % (i, k + 1, gains[i, k], law[i, k]))
    los = np.linalg.norm(rows[:, 0:3] - np.asarray(tx), axis=1)
    bad = dist < los[:, None] * (1.0 - 1e-12)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        fails.append("row %d path %d: c*tau %.12g m shorter than |TX-RX| "
                     "%.12g m" % (i, k + 1, dist[i, k], los[i]))
    bad = rows[:, 2] != 1.5
    if bad.any():
        fails.append("row %d: RX height %.17g, expected 1.5"
                     % (_first(bad), rows[_first(bad), 2]))
    start = 0
    for n in traj_steps:
        xy = rows[start:start + n, 0:2]
        step = np.hypot(*np.diff(xy, axis=0).T)
        bad = np.abs(step - delta2d) > 1e-6 * max(1.0, delta2d)
        if bad.any():
            i = start + _first(bad)
            fails.append("rows %d-%d: RX moved %.12g m, expected %g"
                         % (i, i + 1, step[i - start], delta2d))
        start += n
    return fails


def check_dataset_file(path, manifest_path, delta2d, program_rows=None):
    """Gen output: physics of every row, the manifest digest, and that the
    file's text is the exact %.17g rendering of the values it parses to."""
    meta, rows, data = parse_dataset(path)
    n_paths = int(meta["n_paths"])
    traj_steps = [int(v) for v in meta["traj_steps"].split(",")]
    fails = check_dataset_rows(rows, n_paths, float(meta["fc_ghz"]),
                               delta2d, traj_steps)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(manifest_path) as f:
        recorded = json.load(f)["outputs"]["sha256"]
    if digest != recorded:
        fails.append("manifest sha256 %s != file sha256 %s"
                     % (recorded, digest))
    for i, (line, row) in enumerate(zip(data, rows.tolist())):
        if line != b" ".join([b"%.17g" % v for v in row]):
            fails.append("row %d does not read back to the same text" % i)
            break
    if program_rows is not None and not (
            program_rows.shape == rows.shape
            and np.array_equal(program_rows.view(np.uint64),
                               rows.view(np.uint64))):
        fails.append("ddgen's reader and an independent parse disagree")
    return fails


# ---------------------------------------------------------------------------
# ddgen train: the loss trace

def check_loss_trace(path, epochs, max_last_over_first=None):
    losses = []
    with open(path) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                losses.append(float(line.split()[1]))
    if len(losses) != epochs:
        return ["loss trace has %d epochs, expected %d"
                % (len(losses), epochs)]
    if not all(math.isfinite(v) for v in losses):
        return ["non-finite epoch loss in %s" % path]
    if (max_last_over_first is not None
            and losses[-1] > max_last_over_first * losses[0]):
        return ["last epoch loss %.6g is above %.2f x the first %.6g"
                % (losses[-1], max_last_over_first, losses[0])]
    return []


def directional_derivative(loss_fn, params, seed, eps=1e-4):
    """Gradients by backward and the central difference of the loss along a
    random unit direction with equal-magnitude entries.

    ``loss_fn`` rebuilds the scalar loss from the current ``.data`` of the
    tensors in ``params``. Returns (grads, direction, numeric derivative).
    """
    for t in params.values():
        t.grad = None
    loss_fn().backward()
    grads = {k: (np.zeros_like(t.data) if t.grad is None else t.grad)
             for k, t in params.items()}
    for t in params.values():
        t.grad = None
    rng = np.random.default_rng(seed)
    n = sum(t.data.size for t in params.values())
    direction = {k: rng.choice((-1.0, 1.0), size=t.data.shape) / math.sqrt(n)
                 for k, t in params.items()}
    orig = {k: t.data for k, t in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, t in params.items():
            t.data = orig[k] + sign * eps * direction[k]
        values.append(loss_fn().item())
    for k, t in params.items():
        t.data = orig[k]
    return grads, direction, (values[0] - values[1]) / (2.0 * eps)


def check_directional(grads, direction, numeric, rtol=1e-6):
    """<grad, v> must match the central difference to rtol * |grad| * |v|.

    |v| is 1 and every |v_i| is 1/sqrt(n), so an error of size e in any one
    gradient entry moves <grad, v> by e/sqrt(n) and is caught once it
    exceeds rtol * sqrt(n) * |grad|.
    """
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in grads)
    gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return ["non-finite directional derivative"]
    if abs(analytic - numeric) > rtol * gnorm:
        return ["directional derivative %.12g by backward, %.12g by central "
                "difference (|grad| %.6g)" % (analytic, numeric, gnorm)]
    return []


# ---------------------------------------------------------------------------
# ddgen evaluate: the report

def window_starts(ranges, lag, window, stride):
    """First row of every (history, target) window inside the row ranges."""
    return [s for lo, hi in ranges
            for s in range(lo, hi - (lag + window) + 1, stride)]


def held_out_targets(rows, ranges, lag, window, stride):
    """Target rows of every held-out window, in window order."""
    out = [rows[s + lag:s + lag + window]
           for s in window_starts(ranges, lag, window, stride)]
    return np.vstack(out) if out else np.empty((0, rows.shape[1]))


def _angular_spread(w, angles_deg):
    phasor = np.exp(1j * np.radians(angles_deg))
    mu = np.sum(w * phasor, axis=1, keepdims=True)
    val = np.sum(w * np.abs(phasor - mu) ** 2, axis=1)
    return np.sqrt(np.clip(val, 0.0, 1.0))


def row_statistics(rows, n_paths):
    """Per-row spreads (s, dimensionless) and pooled per-path gains (dB)."""
    gains = rows[:, path_columns(n_paths, 1)]
    p = 10.0 ** (gains / 10.0)
    w = p / p.sum(axis=1, keepdims=True)
    tau = rows[:, path_columns(n_paths, 2)] * 1e-9
    mean = np.sum(w * tau, axis=1, keepdims=True)
    out = {"delay_spread": np.sqrt(np.sum(w * (tau - mean) ** 2, axis=1))}
    for offset, name in enumerate(("az_dod_spread", "zn_dod_spread",
                                   "az_doa_spread", "zn_doa_spread"), 3):
        out[name] = _angular_spread(w, rows[:, path_columns(n_paths, offset)])
    out["mpc_power"] = gains.reshape(-1)
    return out


def check_report(report, rows, n_paths, lag, window, stride, label,
                 floor_db=CDF_FLOOR_DB):
    """True-side CDFs against statistics recomputed from the held-out rows,
    and each cell's distance against the reported CDF arrays."""
    fails = []
    targets = held_out_targets(rows, report["row_ranges"]["eval"], lag,
                               window, stride)
    if not len(targets):
        return ["no held-out windows"]
    pools = row_statistics(targets, n_paths)
    cells = {c["statistic"]: c["cdf_mse_db"] for c in report["cells"]
             if c["model"] == label}
    for name in EVAL_STATS:
        cdf = report["cdfs"].get(label, {}).get(name)
        if cdf is None or name not in cells:
            fails.append("%s: missing from the report" % name)
            continue
        grid, f, g = (np.asarray(cdf[k], dtype=np.float64)
                      for k in ("grid", "true", "gen"))
        samples = np.sort(pools[name])
        # a recomputed sample may differ from ddgen's by a few ulps, so a
        # sample lying on a grid point may count on either side of it
        tol = 1e-9 * float(np.max(np.abs(grid)))
        lo = np.searchsorted(samples, grid - tol, side="right") / samples.size
        hi = np.searchsorted(samples, grid + tol, side="right") / samples.size
        if f.shape != grid.shape or np.any(f < lo) or np.any(f > hi):
            i = _first((f < lo) | (f > hi)) if f.shape == grid.shape else 0
            fails.append("%s: true CDF %.12g at %.12g, recomputed %.12g"
                         % (name, f[i], grid[i], lo[i]))
        if (g.shape != grid.shape or np.any(np.diff(g) < 0)
                or g[0] < 0 or g[-1] != 1.0):
            fails.append("%s: generated CDF is not a CDF on the grid" % name)
            continue
        mse = float(np.mean((f - g) ** 2))
        want = (floor_db if mse <= 10.0 ** (floor_db / 10.0)
                else 10.0 * math.log10(mse))
        got = cells[name]
        if abs(got - want) > 1e-9 or not floor_db <= got <= 0.0:
            fails.append("%s: cdf_mse_db %.12g, arrays give %.12g"
                         % (name, got, want))
    return fails
