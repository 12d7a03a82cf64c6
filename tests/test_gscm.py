import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from conftest import (mpc_geometry, pathloss_db, random_dataset,
                      tiny_run_config, traced_peak)

from ddgen import cli, gscm, trainer


def test_place_scatterers_within_bounds():
    field = gscm.place_scatterers(26, seed=5)
    assert field.shape == (26, 3)
    for (lo, hi), axis in zip(gscm.DEFAULT_BOUNDS, field.T):
        assert axis.min() >= lo and axis.max() <= hi


def test_place_scatterers_empty_and_errors():
    assert len(gscm.place_scatterers(0, seed=1)) == 0
    with pytest.raises(ValueError):
        gscm.place_scatterers(-1, seed=1)


def test_place_scatterers_deterministic():
    a = gscm.place_scatterers(26, seed=99)
    b = gscm.place_scatterers(26, seed=99)
    assert np.array_equal(a, b)


def test_scatterer_field_immutable():
    field = gscm.place_scatterers(4, seed=0)
    with pytest.raises(ValueError):
        field[0, 0] = 1.0


def test_heading_angle_set_values():
    angles = gscm.HEADING_ANGLES
    assert len(angles) == 50
    assert abs(angles[0] - 2 * np.pi * math.sin(0.1 * np.pi)) < 1e-12
    assert abs(angles[0] - 1.9416110387254669) < 1e-10
    assert abs(angles[-1]) < 1e-12  # argument hits 2*pi, sin vanishes


def _one_step(theta, delta2d=1.0):
    # a one-heading menu: the walk's second point is one step along theta
    return gscm.gen_trajectory((0.0, 0.0, 1.5), 2, delta2d, [theta], seed=0)


def test_trajectory_cardinal_directions():
    east = _one_step(0.0)
    assert east.shape == (2, 3)
    assert np.allclose(east[1], [1.0, 0.0, 1.5], atol=1e-15)
    north = _one_step(np.pi / 2)
    assert abs(north[1, 1] - 1.0) < 1e-12
    assert abs(north[1, 0]) < 1e-12
    diag = _one_step(np.pi / 4)
    assert abs(diag[1, 0] - 0.7071067811865476) < 1e-12
    assert abs(diag[1, 1] - 0.7071067811865476) < 1e-12
    with pytest.raises(ValueError):
        _one_step(0.0, delta2d=0.0)


def test_trajectory_single_step_is_start():
    traj = gscm.gen_trajectory((100, 100, 1.5), 1, 1.0,
                               gscm.HEADING_ANGLES, seed=3)
    assert traj.shape == (1, 3)
    assert np.allclose(traj[0], [100, 100, 1.5])


def test_trajectory_step_length_invariant():
    headings = gscm.HEADING_ANGLES
    for delta in (0.5, 1.0, 1.5):
        pos = gscm.gen_trajectory((100, 100, 1.5), 500, delta, headings, seed=8)
        d = np.hypot(np.diff(pos[:, 0]), np.diff(pos[:, 1]))
        assert np.abs(d - delta).max() < 1e-9
        assert np.all(pos[:, 2] == 1.5)


def test_trajectory_boundary_bound():
    # the re-heading rule keeps the walk within one step of the boundary
    headings = gscm.HEADING_ANGLES
    pos = gscm.gen_trajectory((100, 100, 1.5), 100000, 1.0, headings, seed=12)
    d2d = np.hypot(pos[:, 0], pos[:, 1])
    assert d2d.max() <= 600 + 1.0 * 501
    assert d2d.max() <= 601.0 + 1e-9


def test_trajectory_deterministic():
    headings = gscm.HEADING_ANGLES
    a = gscm.gen_trajectory((100, 100, 1.5), 3000, 1.0, headings, seed=21)
    b = gscm.gen_trajectory((100, 100, 1.5), 3000, 1.0, headings, seed=21)
    assert np.array_equal(a, b)


def test_pathloss_reference_values():
    assert abs(pathloss_db(100, 2.4, 1.5) - 99.3042) < 1e-4
    assert abs(pathloss_db(1000, 2.4, 1.5) - 138.3842) < 1e-4


def test_pathloss_height_correction_vanishes_at_reference_height():
    base = 13.54 + 39.08 * math.log10(250.0) + 20 * math.log10(3.5)
    assert pathloss_db(250.0, 3.5, 1.5) == pytest.approx(base, abs=1e-12)
    assert pathloss_db(250.0, 3.5, 2.5) == pytest.approx(base - 0.6, abs=1e-12)


def test_pathloss_height_term_is_linear():
    # TR 38.901 UMa NLOS: -0.6 (h_UT - 1.5), not its square
    assert abs(pathloss_db(100, 2.4, 3.5) - 98.1042) < 1e-4
    assert abs(pathloss_db(100, 2.4, 1.0) - 99.6042) < 1e-4


def test_pathloss_monotone_in_distance():
    d = np.linspace(1.0, 5000.0, 400)
    pl = np.array([pathloss_db(x, 2.4, 1.5) for x in d])
    assert np.all(np.diff(pl) > 0)


def test_pathloss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pathloss_db(0.0, 2.4, 1.5)
    with pytest.raises(ValueError):
        pathloss_db(100.0, -1.0, 1.5)


def test_mpc_geometry_delay_example():
    tx, rx, sc = (0, 0, 25), (100, 0, 1.5), (50, 0, 10)
    delay, az_dod, zn_dod, az_doa, zn_doa = mpc_geometry(tx, rx, sc)
    want = (math.sqrt(2725.0) + math.sqrt(2572.25)) / 3e8
    assert delay == pytest.approx(want, rel=1e-12)
    assert delay == pytest.approx(343.06e-9, rel=1e-4)


def test_mpc_geometry_azimuth_quadrants():
    # scatterer due +x of the RX: departure-from-RX convention gives 0,
    # arrival vector points the other way
    _, az_dod, _, az_doa, _ = mpc_geometry((0, 0, 25), (10, 5, 1.5),
                                           (40, 5, 12))
    assert az_dod == pytest.approx(0.0, abs=1e-12)
    assert az_doa == pytest.approx(math.pi, abs=1e-12)


def test_mpc_geometry_zenith_above_rx():
    _, _, _, _, zn_doa = mpc_geometry((0, 0, 25), (10, 5, 1.5),
                                      (10, 5, 20.0))
    assert zn_doa == pytest.approx(0.0, abs=1e-12)


def test_mpc_geometry_angle_ranges():
    rng = np.random.default_rng(4)
    for _ in range(200):
        rx = rng.uniform(-100, 100, 3)
        sc = rng.uniform(-100, 100, 3)
        if np.allclose(rx, sc):
            continue
        out = mpc_geometry((0, 0, 25), rx, sc)
        for ang in out[1:]:
            assert -math.pi < ang <= math.pi


def test_mpc_geometry_rejects_degenerate():
    with pytest.raises(ValueError):
        mpc_geometry((0, 0, 25), (1, 2, 1.5), (1, 2, 1.5))
    with pytest.raises(ValueError):
        mpc_geometry((0, 0, 25), (1, 2, 1.5), (0, 0, 25))


TX = (0.0, 0.0, 25.0)


def test_channel_rows_single_path_total_gain():
    row = gscm.channel_rows(TX, [(100, 0, 1.5)], [[50.0, 0.0, 10.0]], 2.4)[0]
    assert row[3] == pytest.approx(row[5], rel=1e-15)


def test_total_gain_two_equal_paths():
    # two -100 dB paths combine to 10*log10(2e-10)
    sc = np.array([[50.0, 0.0, 10.0], [50.0, 0.0, 10.0]])
    row = gscm.channel_rows(TX, [(100, 0, 1.5)], sc, 2.4)[0]
    g = row[5]
    assert row[12] == g
    assert row[3] == pytest.approx(g + 10 * math.log10(2.0), abs=1e-10)
    assert abs((10 * math.log10(2e-10)) - (-96.9897)) < 1e-4


def test_total_gain_dominates_per_path(small_dataset):
    n = small_dataset.n_paths
    total = small_dataset.rows[:, 3]
    per_path = small_dataset.rows[:, gscm.path_cols(n, "g_n")]
    assert np.all(total >= per_path.max(axis=1))


def test_sample_vector_length_n26():
    field = gscm.place_scatterers(26, seed=7)
    rows = gscm.channel_rows(TX, [(100, 100, 1.5)], field, 2.4)
    assert rows.shape == (1, 186)
    assert gscm.feature_dim(26) == 186
    # the per-path fields cover every column after the row fields once
    cols = np.concatenate([gscm.path_cols(26, f) for f in gscm.PATH_FIELDS])
    assert np.array_equal(np.sort(cols), np.arange(len(gscm.ROW_FIELDS), 186))
    assert np.array_equal(gscm.path_cols(26, "n"), np.arange(4, 186, 7))
    assert np.array_equal(rows[0, gscm.path_cols(26, "n")], np.arange(1, 27))
    assert np.array_equal(gscm.fixed_feature_cols(26), np.concatenate(
        ([gscm.ROW_FIELDS.index("z")], gscm.path_cols(26, "n"))))


def test_channel_rows_reject_empty_field():
    field = gscm.place_scatterers(0, seed=1)
    with pytest.raises(ValueError, match="empty"):
        gscm.channel_rows(TX, [(100, 100, 1.5)], field, 2.4)


def test_channel_rows_reject_scatterer_on_an_endpoint():
    rx = [(100, 100, 1.5), (101, 100, 1.5)]
    for sc in ([TX], [(20, 30, 5), (101, 100, 1.5)]):
        with pytest.raises(ValueError, match="coincides"):
            gscm.channel_rows(TX, rx, sc, 2.4)


def test_gain_uses_unfolded_path_distance():
    sc, rx = (50.0, 0.0, 10.0), (100, 0, 1.5)
    row = gscm.channel_rows(TX, [rx], [sc], 2.4)[0]
    delay = mpc_geometry(TX, rx, sc)[0]
    assert row[6] == delay * 1e9
    d_total = delay * gscm.SPEED_OF_LIGHT
    assert row[5] == pytest.approx(-pathloss_db(d_total, 2.4, 1.5),
                                   rel=1e-15)


def _oracle_rows(tx, rx_points, scatterers, fc_ghz):
    """Rows built point by point and path by path from the scalar
    reference, in the dataset's units and operation order."""
    out = []
    for rx in rx_points:
        paths, lin = [], []
        for k, sc in enumerate(scatterers):
            delay, *angles = mpc_geometry(tx, rx, sc)
            gain = -pathloss_db(delay * gscm.SPEED_OF_LIGHT, fc_ghz,
                                float(rx[2]))
            lin.append(10.0 ** (gain / 10.0))
            paths += [k + 1, gain, delay * 1e9] + [math.degrees(a)
                                                   for a in angles]
        total = 10.0 * math.log10(np.array(lin).sum())
        out.append(list(rx) + [total] + paths)
    return np.array(out, dtype=np.float64)


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    diff = got.view(np.uint64) != want.view(np.uint64)
    assert not diff.any(), "%d of %d values differ, first at %s" % (
        diff.sum(), diff.size, np.argwhere(diff)[0])


def test_channel_rows_match_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(2718)
    for n in (1, 3, 9, 26):
        tx = tuple(rng.uniform(-50, 50, 2)) + (rng.uniform(10, 40),)
        sc = gscm.place_scatterers(n, seed=int(rng.integers(1 << 30)))
        rx = np.column_stack((rng.uniform(-600, 600, (500, 2)),
                              rng.uniform(0.5, 30, 500)))
        fc = float(rng.uniform(0.5, 60))
        _assert_bitwise_equal(gscm.channel_rows(tx, rx, sc, fc),
                              _oracle_rows(tx, rx, sc, fc))


def test_channel_rows_match_scalar_oracle_on_edge_geometry():
    rx = np.array([[10.0, 5.0, 1.5], [40.0, 5.0, 1.5], [-7.0, 5.0, 12.0]])
    sc = np.array([[10.0, 5.0, 20.0],    # straight above the first point
                   [40.0, 5.0, 12.0],    # straight above the second
                   [-7.0, 5.0, 0.0],     # straight below the third
                   [25.0, 5.0, 1.5]])    # level with, and in line with, all
    _assert_bitwise_equal(gscm.channel_rows(TX, rx, sc, 2.4),
                          _oracle_rows(TX, rx, sc, 2.4))
    one = sc[:1]
    _assert_bitwise_equal(gscm.channel_rows(TX, rx, one, 2.4),
                          _oracle_rows(TX, rx, one, 2.4))
    row = gscm.channel_rows(TX, rx[:1], one, 2.4)[0]
    assert row[9] == 0.0 and row[10] == 0.0  # arrival from straight above
    assert row[3] == row[5]                  # a single path is the total


def test_synthesized_rows_match_scalar_oracle():
    # the rows of a whole dataset, trajectory by trajectory; each trajectory
    # is longer than one synthesis chunk
    steps = gscm._CHUNK_POINTS + 300
    ds = gscm.synthesize_dataset(n_paths=3, steps=steps, seed=42,
                                 trajectories=2, hold_range=(5, 50))
    ss = np.random.SeedSequence(42)
    field = gscm.place_scatterers(3, seed=int(ss.generate_state(
        5, dtype=np.uint64)[0]))
    assert ds.traj_ranges() == [(0, steps), (steps, 2 * steps)]
    for start, stop in ds.traj_ranges():
        rx = ds.rows[start:stop, 0:3]
        _assert_bitwise_equal(ds.rows[start:stop],
                              _oracle_rows(gscm.DEFAULT_TX, rx, field, 2.4))


# sha256 of write_dataset output, pinned when synthesis was scalar: any
# change to these bytes is a change of the dataset format or of the world
GOLDEN_DATASETS = (
    (dict(n_paths=3, steps=120, seed=42, fc_ghz=2.4, delta2d=1.0,
          trajectories=2),
     "32336cd0cd819f5b0e45fed2259c0f6317622a76b1e106c7de68597263098b5a"),
    (dict(n_paths=26, steps=60, seed=2024, fc_ghz=3.5, delta2d=1.5,
          trajectories=3, hold_range=(5, 20), max_d2d=150.0),
     "d24417fecfde3f451ae13c2c11e095b70d5febf6e5b08d3146410a159bb6b746"),
)


@pytest.mark.parametrize("kwargs,digest", GOLDEN_DATASETS)
def test_dataset_golden_bytes(tmp_path, kwargs, digest):
    path = tmp_path / "ds.txt"
    gscm.write_dataset(gscm.synthesize_dataset(**kwargs), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_dataset_determinism_and_roundtrip(tmp_path, small_dataset):
    again = gscm.synthesize_dataset(n_paths=3, steps=120, seed=42, fc_ghz=2.4,
                                    delta2d=1.0, trajectories=2)
    assert np.array_equal(small_dataset.rows, again.rows)

    path = str(tmp_path / "ds.txt")
    _write_with_manifest(small_dataset, path)
    back = gscm.read_dataset(path)
    assert np.array_equal(back.rows, small_dataset.rows)
    assert back.n_paths == small_dataset.n_paths
    assert back.traj_steps == small_dataset.traj_steps
    assert back.fc_ghz == small_dataset.fc_ghz


def test_dataset_row_units(small_dataset):
    # delays are stored in ns, angles in degrees
    n = small_dataset.n_paths
    delays = small_dataset.rows[:, gscm.path_cols(n, "tau_ns")]
    assert delays.min() > 1.0  # hundreds of ns, not seconds
    angles = small_dataset.rows[:, gscm.path_cols(n, "az_dod_deg")]
    assert -180.0 <= angles.min() and angles.max() <= 180.0
    assert np.array_equal(small_dataset.rows[:, gscm.path_cols(n, "n")][0],
                          np.arange(1, n + 1))


def test_traj_ranges(small_dataset):
    assert small_dataset.traj_ranges() == [(0, 120), (120, 240)]


# ---------------------------------------------------------------------------
# the binary twin written by ``ddgen gen``

def _gen(tmp_path, n_paths, steps, seed, fc_ghz, delta2d, trajectories,
         hold_range=None, max_d2d=None):
    """``ddgen gen`` of a synthesize_dataset configuration; returns the
    dataset's path."""
    path = str(tmp_path / "ds.txt")
    argv = ["gen", "--out", path, "--seed", str(seed), "--steps", str(steps),
            "--delta2d", str(delta2d), "--trajectories", str(trajectories),
            "--set", "n_scatterers=%d" % n_paths,
            "--set", "fc_ghz=%r" % fc_ghz]
    if hold_range is not None:
        argv += ["--set", "hold_min=%d" % hold_range[0],
                 "--set", "hold_max=%d" % hold_range[1]]
    if max_d2d is not None:
        argv += ["--set", "max_d2d=%r" % max_d2d]
    assert cli.main(argv) == 0
    return path


def _write_with_manifest(ds, path):
    """write_dataset, and the gen manifest's outputs that bind its files."""
    with open(path + gscm.MANIFEST_SUFFIX, "w") as f:
        json.dump({"outputs": gscm.write_dataset(ds, path)}, f)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, small_dataset):
    """A tiny model's checkpoint, so that evaluate gets to its dataset."""
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    trainer.train(small_dataset, tiny_run_config(
        n_scatterers=3, epochs=1, batch_size=16, stride=8), path)
    return path


def _assert_refused(path, checkpoint, tmp_path, capsys, reason):
    """train and evaluate on the dataset at ``path`` exit 2 and write
    nothing; stderr names the dataset, ``reason`` and the fix."""
    out = str(tmp_path / "refused")
    for argv in (["train", "--dataset", path, "--out", out],
                 ["evaluate", "--checkpoint", checkpoint, "--dataset", path,
                  "--out", out]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % path), argv[0]
        assert reason in err, (argv[0], err)
        assert "run the ddgen gen command that wrote it again" in err
        assert not os.path.exists(out)


def _rebind_twin(path, blob):
    """Replace the twin by the bytes ``blob`` and bind it in the gen
    manifest."""
    with open(path + ".npy", "wb") as f:
        f.write(blob)
    with open(path + ".manifest.json") as f:
        manifest = json.load(f)
    manifest["outputs"]["rows_sha256"] = hashlib.sha256(blob).hexdigest()
    with open(path + ".manifest.json", "w") as f:
        json.dump(manifest, f)


def _npy_bytes(rows, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, rows, version=version)
    return buf.getvalue()


@pytest.mark.parametrize("kwargs,digest", GOLDEN_DATASETS)
def test_dataset_twin_rows_match_text_parse(tmp_path, kwargs, digest):
    path = _gen(tmp_path, **kwargs)
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    ds = gscm.read_dataset(path)
    # an independent parse of the %.17g text: every value reads back exactly
    _assert_bitwise_equal(ds.rows, np.loadtxt(path, ndmin=2))
    assert ds.sha256 == digest


def test_dataset_twin_edited_text_is_refused(tmp_path, checkpoint, capsys):
    path = _gen(tmp_path, **GOLDEN_DATASETS[0][0])
    lines = open(path).read().split("\n")
    row = 4 + 17  # 0-based line index of the file's 18th row
    tokens = lines[row].split(" ")
    digit = next(i for i, c in enumerate(tokens[0]) if c.isdigit())
    old = tokens[0][digit]
    tokens[0] = tokens[0][:digit] + str((int(old) + 1) % 10) \
        + tokens[0][digit + 1:]
    lines[row] = " ".join(tokens)
    with open(path, "r+") as f:  # the same length, rewritten in place
        f.write("\n".join(lines))
    _assert_refused(path, checkpoint, tmp_path, capsys,
                    "the text's sha256 does not match its gen manifest %s"
                    % (path + ".manifest.json"))


@pytest.mark.parametrize("how", ["missing", "truncated", "flipped"])
def test_dataset_twin_damaged_is_ignored(tmp_path, checkpoint, capsys, how):
    # a damaged twin's rows are never returned: the read is refused
    path = _gen(tmp_path, **GOLDEN_DATASETS[0][0])
    blob = bytearray(open(path + ".npy", "rb").read())
    nbytes = gscm.read_dataset(path).rows.nbytes
    if how == "missing":
        os.remove(path + ".npy")
        reason = "its twin %s.npy is missing" % path
    else:
        if how == "truncated":
            del blob[-8:]
        else:  # the lowest bit of the first value: still finite
            blob[len(blob) - nbytes] ^= 1
        with open(path + ".npy", "wb") as f:
            f.write(blob)
        reason = "its twin %s.npy does not match the 'rows_sha256'" % path
    _assert_refused(path, checkpoint, tmp_path, capsys, reason)


def test_dataset_twin_unused_without_rows_digest(tmp_path, checkpoint,
                                                 capsys):
    path = _gen(tmp_path, **GOLDEN_DATASETS[0][0])
    with open(path + ".manifest.json") as f:
        manifest = json.load(f)
    # the manifest as gen wrote it before the twin existed
    manifest["outputs"] = {"dataset": path,
                           "sha256": manifest["outputs"]["sha256"]}
    with open(path + ".manifest.json", "w") as f:
        json.dump(manifest, f)
    _assert_refused(path, checkpoint, tmp_path, capsys,
                    "lacks 'rows_sha256'")


@pytest.mark.parametrize("how", ["missing", "not-json", "no-outputs"])
def test_dataset_without_its_gen_manifest_is_refused(tmp_path, checkpoint,
                                                     capsys, how):
    path = _gen(tmp_path, **GOLDEN_DATASETS[0][0])
    manifest = path + ".manifest.json"
    reason = "its gen manifest %s is missing or not JSON" % manifest
    if how == "missing":
        os.remove(manifest)
    elif how == "not-json":
        with open(manifest, "r+") as f:
            f.truncate(len(f.read()) // 2)
    else:
        with open(manifest, "w") as f:
            json.dump({"command": "gen"}, f)
        reason = "the text's sha256 does not match its gen manifest"
    _assert_refused(path, checkpoint, tmp_path, capsys, reason)


@pytest.mark.parametrize("how", ["width", "rows", "nan", "float32",
                                 "big-endian", "fortran", "version",
                                 "length"])
def test_dataset_twin_bound_but_invalid_is_never_returned(
        tmp_path, checkpoint, capsys, how):
    path = _gen(tmp_path, **GOLDEN_DATASETS[0][0])
    want = gscm.read_dataset(path).rows
    bad = {"width": want[:, :-1], "rows": want[:-1],
           "float32": want.astype(np.float32),
           "big-endian": want.astype(">f8"),
           "fortran": np.asfortranarray(want)}.get(how, want.copy())
    if how == "nan":
        bad[5, 9] = np.nan
    blob = _npy_bytes(bad, version=(2, 0) if how == "version" else None)
    if how == "length":
        blob += bytes(8)
    _rebind_twin(path, blob)
    reason = {"nan": "holds a non-finite value",
              "version": "is not a version 1.0 .npy file"}.get(
        how, "is not the C-ordered float64 240x25 matrix that the header's "
        "n_paths and traj_steps give")
    _assert_refused(path, checkpoint, tmp_path, capsys,
                    "its twin %s.npy %s" % (path, reason))


# The memory of the twin's write and read: one 26-path row matrix of 3000
# rows, 4.5 MB, which neither may copy whole.

def test_write_dataset_peaks_below_one_and_a_half_row_matrices(tmp_path):
    ds = random_dataset(3000, 26, seed=3)
    _, peak = traced_peak(gscm.write_dataset, ds, str(tmp_path / "d.txt"))
    assert peak < 1.5 * ds.rows.nbytes


def test_read_dataset_from_the_twin_peaks_below_one_and_a_half_row_matrices(
        tmp_path):
    ds = random_dataset(3000, 26, seed=3)
    path = str(tmp_path / "d.txt")
    _write_with_manifest(ds, path)
    back, peak = traced_peak(gscm.read_dataset, path)
    _assert_bitwise_equal(back.rows, ds.rows)
    assert peak < 1.5 * ds.rows.nbytes
