import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnmvts.data import (
    LoadError,
    SeriesTable,
    SplitSpec,
    SynthSpec,
    WindowError,
    chrono_split,
    gen_synthetic,
    load_csv,
    make_windows,
    pearson_corr,
)
from hnmvts.numcore import Tensor


def write_csv(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def table_from(array, names=None):
    array = np.asarray(array, dtype=float)
    names = names or [f"c{i}" for i in range(array.shape[1])]
    return SeriesTable(Tensor(array), names)


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        t = load_csv(p)
        assert t.t == 3 and t.n_channels == 2
        assert t.channel_names == ["a", "b"]
        np.testing.assert_array_equal(t.values.data, [[1, 2], [3, 4], [5, 6]])

    def test_timestamp_column_dropped_and_validated(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2016-07-01 00:00:00,1\n2016-07-01 00:15:00,2\n")
        t = load_csv(p, timestamp_column="date")
        assert t.channel_names == ["a"]
        assert t.n_channels == 1

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n5,1\n3,2\n")
        with pytest.raises(LoadError, match="row 3"):
            load_csv(p, timestamp_column="date")

    def test_blank_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n,4\n5,6\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p)
        assert "row 3" in str(exc.value) and "'a'" in str(exc.value)

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p)
        assert "row 3" in str(exc.value) and "'b'" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="no such file"):
            load_csv(tmp_path / "absent.csv")


class TestChronoSplit:
    def test_exact_721_arithmetic(self):
        t = table_from(np.arange(200.0).reshape(100, 2))
        train, val, test = chrono_split(t, SplitSpec((7, 2, 1)))
        assert (train.t, val.t, test.t) == (70, 20, 10)

    def test_ettm2_geometry(self):
        # 6:2:2 over the first 57600 rows -> 34560 / 11520 / 11520
        t = table_from(np.zeros((60000, 1)))
        train, val, test = chrono_split(t, SplitSpec((6, 2, 2), truncate_to=57600))
        assert (train.t, val.t, test.t) == (34560, 11520, 11520)

    def test_all_train(self):
        t = table_from(np.arange(20.0).reshape(10, 2))
        train, val, test = chrono_split(t, SplitSpec((1, 0, 0)))
        assert train.t == 10 and val.t == 0 and test.t == 0

    def test_segments_cover_table_exactly(self):
        t = table_from(np.arange(34.0).reshape(17, 2))
        train, val, test = chrono_split(t, SplitSpec((7, 2, 1)))
        stacked = np.vstack([train.values.data, val.values.data, test.values.data])
        np.testing.assert_array_equal(stacked, t.values.data)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.integers(3, 400),
        ratios=st.tuples(
            st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)
        ).filter(lambda r: sum(r) > 0),
    )
    def test_cover_property(self, t, ratios):
        table = table_from(np.arange(float(t * 2)).reshape(t, 2))
        train, val, test = chrono_split(table, SplitSpec(ratios))
        stacked = np.vstack([train.values.data, val.values.data, test.values.data])
        np.testing.assert_array_equal(stacked, table.values.data)


class TestMakeWindows:
    def test_single_window(self):
        t = table_from(np.arange(10.0).reshape(5, 2))
        windows = make_windows(t, 3, 2)
        assert len(windows) == 1 and windows.origins[0] == 0

    def test_hand_enumeration(self):
        t = table_from(np.arange(20.0).reshape(10, 2))
        windows = make_windows(t, 3, 2)
        assert len(windows) == 6
        x, y = windows.batch([0, 5])
        np.testing.assert_array_equal(x[0], t.values.data[0:3].T)
        np.testing.assert_array_equal(y[0], t.values.data[3:5].T)
        np.testing.assert_array_equal(x[1], t.values.data[5:8].T)

    def test_paper_scale_count(self):
        t = table_from(np.zeros((446, 1)))
        assert len(make_windows(t, 336, 96)) == 15

    def test_too_short_raises(self):
        t = table_from(np.zeros((4, 1)))
        with pytest.raises(WindowError, match="5"):
            make_windows(t, 3, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 30))
    def test_count_property(self, lookback, horizon, extra):
        t_len = lookback + horizon + extra
        table = table_from(np.zeros((t_len, 2)))
        assert len(make_windows(table, lookback, horizon)) == extra + 1

    def test_window_shapes_channel_major(self):
        t = table_from(np.arange(24.0).reshape(8, 3))
        x, y = make_windows(t, 4, 2).batch([1])
        assert x.shape == (1, 3, 4) and y.shape == (1, 3, 2)

    def test_scalar_index_rejected(self):
        windows = make_windows(table_from(np.zeros((8, 2))), 3, 2)
        with pytest.raises(TypeError, match="slice"):
            windows[0]


class TestWindowSetBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 10), st.integers(1, 10), st.integers(0, 40), st.integers(1, 4),
        st.integers(1, 7), st.integers(0, 2**32 - 1),
    )
    def test_matches_per_window_slicing(self, lookback, horizon, extra, n, step, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((lookback + horizon + extra, n))
        windows = make_windows(table_from(values), lookback, horizon)
        every = np.arange(len(windows))
        perm = rng.permutation(len(windows))
        picked = perm[: 1 + len(perm) // 2]
        stepped = windows[::step]
        assert len(stepped) == len(every[::step])
        shuffled = rng.permutation(len(stepped))
        # (subset, index into the subset, origin of each gathered window)
        cases = [
            (windows, perm, perm),
            (stepped, shuffled, every[::step][shuffled]),
            (windows[picked], slice(None), picked),
            (windows[::-step], slice(None), every[::-step]),
        ]
        for subset, idx, origins in cases:
            x, y = subset.batch(idx)
            assert x.shape == (len(origins), n, lookback)
            assert y.shape == (len(origins), n, horizon)
            assert x.flags["C_CONTIGUOUS"] and y.flags["C_CONTIGUOUS"]
            for b, i in enumerate(origins):
                np.testing.assert_array_equal(x[b], values[i : i + lookback].T)
                np.testing.assert_array_equal(
                    y[b], values[i + lookback : i + lookback + horizon].T
                )


def corr_oracle(x):
    """Textbook two-pass per-pair formula."""
    t, n = x.shape
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            a, b = x[:, i], x[:, j]
            am, bm = a - a.mean(), b - b.mean()
            out[i, j] = (am * bm).sum() / np.sqrt((am * am).sum() * (bm * bm).sum())
    return out


class TestPearsonCorr:
    def test_duplicate_channel(self, rng):
        col = rng.standard_normal(50)
        t = table_from(np.column_stack([col, col, rng.standard_normal(50)]))
        c = pearson_corr(t).data
        assert c[0, 1] == pytest.approx(1.0)

    def test_negated_channel(self, rng):
        col = rng.standard_normal(50)
        t = table_from(np.column_stack([col, -col]))
        assert pearson_corr(t).data[0, 1] == pytest.approx(-1.0)

    def test_matches_direct_formula(self, rng):
        x = rng.standard_normal((40, 3))
        c = pearson_corr(table_from(x)).data
        np.testing.assert_allclose(c, corr_oracle(x), atol=1e-12)

    def test_symmetric_unit_diagonal_bounded(self, rng):
        x = rng.standard_normal((30, 4))
        c = pearson_corr(table_from(x)).data
        np.testing.assert_allclose(c, c.T, atol=0)
        np.testing.assert_array_equal(np.diag(c), np.ones(4))
        assert (np.abs(c) <= 1.0).all()

    def test_zero_variance_channel_warns(self, rng):
        x = np.column_stack([np.full(20, 3.0), rng.standard_normal(20)])
        with pytest.warns(UserWarning, match="zero-variance"):
            c = pearson_corr(table_from(x)).data
        assert c[0, 1] == 0.0 and c[0, 0] == 1.0

    def test_affine_rescale_invariance(self, rng):
        x = rng.standard_normal((60, 3))
        scaled = x * np.array([3.0, 0.5, 10.0]) + np.array([-5.0, 2.0, 100.0])
        np.testing.assert_allclose(
            pearson_corr(table_from(x)).data,
            pearson_corr(table_from(scaled)).data,
            atol=1e-9,
        )


class TestGenSynthetic:
    def test_rho_one_sigma_zero_identical_within_group(self):
        spec = SynthSpec(n_channels=4, timesteps=256, groups=[0, 0, 1, 1], rho=1.0, sigma=0.0)
        t = gen_synthetic(spec, seed=3)
        v = t.values.data
        np.testing.assert_array_equal(v[:, 0], v[:, 1])
        np.testing.assert_array_equal(v[:, 2], v[:, 3])
        assert not np.array_equal(v[:, 0], v[:, 2])

    def test_rho_zero_uncorrelated(self):
        spec = SynthSpec(n_channels=4, timesteps=4096, groups=[0, 0, 0, 0], rho=0.0)
        c = pearson_corr(gen_synthetic(spec, seed=5)).data
        off = c[~np.eye(4, dtype=bool)]
        assert (np.abs(off) < 0.1).all()

    def test_two_group_block_structure(self):
        spec = SynthSpec(
            n_channels=6, timesteps=4096, groups=[0, 0, 0, 1, 1, 1], rho=0.95, sigma=0.0
        )
        c = pearson_corr(gen_synthetic(spec, seed=11)).data
        within, between = [], []
        for i in range(6):
            for j in range(i + 1, 6):
                (within if spec.groups[i] == spec.groups[j] else between).append(c[i, j])
        assert np.mean(within) > np.mean(between) + 0.5

    def test_bit_reproducible(self):
        spec = SynthSpec(n_channels=3, timesteps=128, groups=[0, 1, 1], rho=0.8, sigma=0.1)
        a = gen_synthetic(spec, seed=9).values.data
        b = gen_synthetic(spec, seed=9).values.data
        assert (a == b).all()

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            SynthSpec(n_channels=2, timesteps=16, rho=1.5)


def test_series_table_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        table_from(np.zeros((4, 2)), names=["x", "x"])
