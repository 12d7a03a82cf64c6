import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (mpc_geometry, oracle_angular_spread, oracle_delay_spread,
                      pathloss_db, paths_row, random_feature_rows)

from ddgen import chanstats, gscm


# The spreads of one path set, through ``row_stats`` on a one-row matrix in
# file units; powers are linear, delays in seconds, angles in radians.

def _row_spreads(powers, delays=None, angles=None):
    return chanstats.row_stats(paths_row(powers, delays, angles), len(powers))


def _delay_spread(powers, delays):
    return float(_row_spreads(powers, delays)["delay_spread"][0])


def _angular_spread(powers, angles):
    return float(_row_spreads(powers, angles=angles)["az_doa_spread"][0])


def test_delay_spread_single_path_is_zero():
    assert _delay_spread([1.0], [5e-7]) == 0.0


def test_delay_spread_two_equal_paths():
    s = _delay_spread([1.0, 1.0], [0.0, 100e-9])
    assert s == pytest.approx(50e-9, rel=1e-12)


def test_delay_spread_matches_oracle_eight_paths():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.1, 1.0, 8)
    t = rng.uniform(0, 2e-6, 8)
    assert _delay_spread(p, t) == pytest.approx(oracle_delay_spread(p, t),
                                                rel=1e-12)


def test_delay_spread_shift_invariance():
    rng = np.random.default_rng(4)
    p = rng.uniform(0.1, 1.0, 12)
    t = rng.uniform(0, 2e-6, 12)
    assert abs(_delay_spread(p, t) - _delay_spread(p, t + 3.3e-6)) < 1e-12


def test_delay_spread_scales_linearly():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 1.0, 9)
    t = rng.uniform(0, 2e-6, 9)
    assert _delay_spread(p, 3.0 * t) == pytest.approx(
        3.0 * _delay_spread(p, t), rel=1e-12)


def test_spreads_reject_zero_powers():
    # a zero power is -inf dB in the file
    for powers in ([0.0, 0.0], [0.0]):
        with pytest.raises(ValueError, match="row 0"):
            _row_spreads(powers, [1e-9] * len(powers), [0.1] * len(powers))


def test_angular_spread_single_path_is_zero():
    assert _angular_spread([2.0], [1.2]) == 0.0


def test_angular_spread_antipodal_paths():
    assert _angular_spread([1.0, 1.0], [0.0, math.pi]) == \
        pytest.approx(1.0, rel=1e-12)


def test_angular_spread_rotation_invariance():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.1, 1.0, 10)
    a = rng.uniform(-math.pi, math.pi, 10)
    base = _angular_spread(p, a)
    for shift in (0.5, 2.0, -4.0):
        assert abs(_angular_spread(p, a + shift) - base) < 1e-12


def test_angular_spread_power_scale_invariance():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.1, 1.0, 10)
    a = rng.uniform(-math.pi, math.pi, 10)
    assert _angular_spread(1e6 * p, a) == pytest.approx(_angular_spread(p, a),
                                                        rel=1e-12)


def test_spreads_match_oracles_randomized():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 27))
        p = rng.uniform(0.0, 1.0, n)
        p[int(rng.integers(0, n))] += 0.1  # at least one strictly positive
        t = rng.uniform(0.0, 3e-6, n)
        a = rng.uniform(-math.pi, math.pi, n)
        stats = _row_spreads(p, t, a)
        o_tau = oracle_delay_spread(p, t)
        o_ang = oracle_angular_spread(p, a)
        assert abs(stats["delay_spread"][0] - o_tau) <= max(1e-10 * o_tau,
                                                            1e-14)
        for name, _ in ANGLE_GROUPS:
            s_ang = stats[name][0]
            assert abs(s_ang - o_ang) <= max(1e-10 * o_ang, 1e-13)
            assert 0.0 <= s_ang <= 1.0


def test_empirical_cdf_counting():
    grid, f, g = chanstats.cdf_pair([1.0, 2.0, 3.0, 4.0], [1.0, 4.0])
    assert grid[0] == 1.0 and grid[-1] == 4.0
    # the grid point nearest 2.5 from below and above
    mid = np.searchsorted(grid, 2.5)
    assert f[mid - 1] == 0.5 and f[mid] == 0.5
    assert g[mid] == 0.5 and g[0] == 0.5 and g[-1] == 1.0


def test_empirical_cdf_single_point():
    grid, f, g = chanstats.cdf_pair([5.0], [5.0])
    assert np.array_equal(grid, np.full(chanstats.CDF_GRID_SIZE, 5.0))
    assert np.array_equal(f, np.ones(chanstats.CDF_GRID_SIZE))
    assert np.array_equal(g, f)


def test_empirical_cdf_properties():
    rng = np.random.default_rng(9)
    samples = rng.uniform(0, 1, 10000)
    grid, f, _ = chanstats.cdf_pair(samples, samples)
    assert np.all(np.diff(f) >= 0)
    assert f.min() >= 0 and f.max() <= 1
    assert f[-1] == 1.0
    # uniform samples track the identity CDF (DKW-style bound)
    assert np.abs(f - grid).max() < 0.05


def test_empirical_cdf_rejects_empty():
    for a, b in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(ValueError, match="empty sample set"):
            chanstats.cdf_pair(a, b)


def test_cdf_mse_db_floor_and_offset():
    vals = np.linspace(0, 0.9, 512)
    assert chanstats.cdf_mse_db(vals, vals.copy()) == -120.0
    assert chanstats.cdf_mse_db(vals, vals + 0.1) == pytest.approx(-20.0,
                                                                  abs=1e-9)


def test_cdf_mse_db_symmetric_and_nonpositive():
    rng = np.random.default_rng(10)
    f, g = (np.sort(rng.uniform(0, 1, 256)) for _ in range(2))
    assert chanstats.cdf_mse_db(f, g) == chanstats.cdf_mse_db(g, f)
    assert chanstats.cdf_mse_db(f, g) <= 0.0


def test_cdf_pair_shares_pooled_grid():
    grid, f, g = chanstats.cdf_pair([1.0, 2.0, 3.0], [2.0, 5.0])
    assert grid.shape == f.shape == g.shape == (chanstats.CDF_GRID_SIZE,)
    assert grid[0] == 1.0 and grid[-1] == 5.0
    assert f[-1] == 1.0 and g[-1] == 1.0


def test_cdf_pair_pools_each_set_whole():
    """A (rows, N) set, such as ``mpc_power``, counts every entry: its CDF
    is that of the raveled set, in whatever memory order it is held."""
    rng = np.random.default_rng(11)
    a = np.asfortranarray(rng.normal(size=(40, 3)))
    b = rng.normal(size=70)
    got = chanstats.cdf_pair(a, b)
    want = chanstats.cdf_pair(a.ravel(), b)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# row_stats on dataset rows, against the oracles

ANGLE_GROUPS = (("az_dod_spread", "az_dod_deg"),
                ("zn_dod_spread", "zn_dod_deg"),
                ("az_doa_spread", "az_doa_deg"),
                ("zn_doa_spread", "zn_doa_deg"))


def _oracle_row_stats(row, n_paths):
    """The oracles applied to one dataset row, as a dict."""
    powers = list(10.0 ** (row[gscm.path_cols(n_paths, "g_n")] / 10.0))
    out = {"delay_spread": oracle_delay_spread(
        powers, row[gscm.path_cols(n_paths, "tau_ns")] * chanstats.NS_TO_S)}
    for name, field in ANGLE_GROUPS:
        out[name] = oracle_angular_spread(
            powers, row[gscm.path_cols(n_paths, field)] * chanstats.DEG_TO_RAD)
    return out


def test_window_stats_composition():
    tx = (0.0, 0.0, 25.0)
    field = gscm.place_scatterers(4, seed=3)
    row = gscm.channel_rows(tx, [(80, 60, 1.5)], field, 2.4)[0]
    stats = chanstats.row_stats(np.stack([row] * 3), 4)
    assert set(stats) == set(chanstats.STAT_NAMES) | {"gains_db"}
    for name in chanstats.STAT_NAMES:
        assert stats[name].shape == (3,)
        assert stats[name][1] == stats[name][0] == stats[name][2]
    assert stats["gains_db"].shape == (3, 4)
    assert np.array_equal(stats["gains_db"][2],
                          row[gscm.path_cols(4, "g_n")])
    want = _oracle_row_stats(row, 4)
    for name in chanstats.STAT_NAMES:
        assert stats[name][0] == pytest.approx(want[name], rel=1e-15)
    with pytest.raises(ValueError):
        chanstats.row_stats(row, 4)  # one row is a (1, F) matrix, not (F,)
    with pytest.raises(ValueError):
        chanstats.row_stats(np.stack([row] * 3), 3)


def _si_paths(tx, rx, field, fc_ghz):
    """Per-path SI values from the scalar geometry and pathloss reference:
    gains (dB) and the columns delay (s), az/zn DoD, az/zn DoA (rad)."""
    geo = np.array([mpc_geometry(tx, rx, sc) for sc in field])
    gains = np.array([-pathloss_db(d * gscm.SPEED_OF_LIGHT, fc_ghz,
                                   rx[2]) for d in geo[:, 0]])
    return gains, geo


def test_window_stats_match_oracle_on_gscm_window():
    tx = (0, 0, 25)
    field = gscm.place_scatterers(6, seed=13)
    headings = gscm.HEADING_ANGLES
    traj = gscm.gen_trajectory((100, 100, 1.5), 100, 1.0, headings, seed=13)
    stats = chanstats.row_stats(gscm.channel_rows(tx, traj, field, 2.4), 6)
    for i, rx in enumerate(traj):
        gains, geo = _si_paths(tx, rx, field, 2.4)
        p = list(10.0 ** (gains / 10.0))
        assert abs(stats["delay_spread"][i] -
                   oracle_delay_spread(p, geo[:, 0])) < 1e-10
        assert abs(stats["zn_doa_spread"][i] -
                   oracle_angular_spread(p, geo[:, 4])) < 1e-10


def test_row_stats_consistent_with_sample_units():
    # file units (ns, degrees) in the row, SI units into the oracles
    tx, rx = (0, 0, 25), (90, -40, 1.5)
    field = gscm.place_scatterers(5, seed=17)
    stats = chanstats.row_stats(gscm.channel_rows(tx, [rx], field, 2.4), 5)
    gains, geo = _si_paths(tx, rx, field, 2.4)
    powers = list(10.0 ** (gains / 10.0))
    assert stats["delay_spread"][0] == pytest.approx(
        oracle_delay_spread(powers, geo[:, 0]), rel=1e-12)
    for k, name in enumerate(("az_dod", "zn_dod", "az_doa", "zn_doa")):
        want = oracle_angular_spread(powers, geo[:, 1 + k])
        assert stats[name + "_spread"][0] == pytest.approx(want, rel=1e-9)
    assert np.allclose(stats["gains_db"][0], gains)


def test_row_stats_matches_scalar_reference_on_gscm_dataset():
    ds = gscm.synthesize_dataset(n_paths=26, steps=150, seed=29, fc_ghz=2.4,
                                 delta2d=1.0, trajectories=2)
    stats = chanstats.row_stats(ds.rows, 26)
    for i, row in enumerate(ds.rows):
        want = _oracle_row_stats(row, 26)
        for name in chanstats.STAT_NAMES:
            assert stats[name][i] == pytest.approx(want[name], rel=1e-12)
    assert np.array_equal(stats["gains_db"],
                          ds.rows[:, gscm.path_cols(26, "g_n")])


def test_row_stats_rejects_row_without_power():
    rows = random_feature_rows(4, 3, seed=31)
    rows[2, gscm.path_cols(3, "g_n")] = -np.inf
    with pytest.raises(ValueError, match="row 2"):
        chanstats.row_stats(rows, 3)
    # one path with power left is enough
    rows[2, gscm.path_cols(3, "g_n")[1]] = -100.0
    assert np.isfinite(chanstats.row_stats(rows, 3)["delay_spread"]).all()


# property tests: invariances of every spread under transformations of rows

@st.composite
def random_rows(draw):
    n_paths = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 6))
    rows = random_feature_rows(n_rows, n_paths,
                               seed=draw(st.integers(0, 2**32 - 1)))
    # gains over 120 dB, so one path can dominate; some rows get equal
    # delays or angles, so near-zero spreads are covered too
    rows[:, gscm.path_cols(n_paths, "g_n")] = draw(arrays(
        np.float64, (n_rows, n_paths), elements=st.floats(-160.0, -40.0)))
    for cols in (gscm.path_cols(n_paths, "tau_ns"),
                 gscm.path_cols(n_paths, "az_doa_deg")):
        if draw(st.booleans()):
            rows[:, cols] = rows[:, cols[:1]]
    return rows, n_paths


def _assert_spreads_close(a, b):
    assert np.allclose(a["delay_spread"], b["delay_spread"],
                       rtol=1e-9, atol=1e-15)  # seconds: 1 fs
    for name, _ in ANGLE_GROUPS:
        assert np.allclose(a[name], b[name], rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(random_rows(), st.floats(-60.0, 60.0))
def test_row_stats_invariant_to_common_gain_offset(rows_n, offset_db):
    rows, n = rows_n
    shifted = rows.copy()
    shifted[:, gscm.path_cols(n, "g_n")] += offset_db
    _assert_spreads_close(chanstats.row_stats(rows, n),
                          chanstats.row_stats(shifted, n))


@settings(max_examples=60, deadline=None)
@given(random_rows(), st.floats(-300.0, 3000.0))
def test_row_stats_delay_spread_invariant_to_delay_shift(rows_n, shift_ns):
    rows, n = rows_n
    shifted = rows.copy()
    shifted[:, gscm.path_cols(n, "tau_ns")] += shift_ns
    a = chanstats.row_stats(rows, n)["delay_spread"]
    b = chanstats.row_stats(shifted, n)["delay_spread"]
    assert np.allclose(a, b, rtol=1e-9, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(random_rows(), st.sampled_from(ANGLE_GROUPS), st.floats(-720.0, 720.0))
def test_row_stats_angular_spreads_invariant_to_rotation(rows_n, group,
                                                         angle_deg):
    rows, n = rows_n
    rotated = rows.copy()
    rotated[:, gscm.path_cols(n, group[1])] += angle_deg
    _assert_spreads_close(chanstats.row_stats(rows, n),
                          chanstats.row_stats(rotated, n))


def _equal_powers_even_angles():
    """Three equal-power paths 120 degrees apart in every angle group: the
    unclamped moment rounds to 1 + 4e-16, and its square root above 1."""
    rows = random_feature_rows(1, 3, seed=0)
    rows[:, gscm.path_cols(3, "g_n")] = -90.0
    for _, field in ANGLE_GROUPS:
        rows[:, gscm.path_cols(3, field)] = [8.0, 128.0, 248.0]
    return rows, 3


@settings(max_examples=60, deadline=None)
@given(random_rows())
@example(_equal_powers_even_angles())
def test_row_stats_angular_spreads_in_unit_interval(rows_n):
    rows, n = rows_n
    stats = chanstats.row_stats(rows, n)
    for name, _ in ANGLE_GROUPS:
        assert np.all((stats[name] >= 0.0) & (stats[name] <= 1.0))
