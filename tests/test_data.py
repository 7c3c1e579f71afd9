"""Data ingestion, splitting, scaling, and window iteration tests."""

import errno
import os

import numpy as np
import pytest

from xlinear import data as dio
from xlinear.errors import ConfigError, DataError, IOFault, UsageError

ETT_DIR = os.environ.get("XLINEAR_DATA_DIR", "/root/data")
ETTH1 = os.path.join(ETT_DIR, "ETTh1.csv")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    return path


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = [[f"2020-01-01 {i % 24:02d}:00"] + list(rng.normal(size=3).round(4))
            for i in range(40)]
    return write_csv(tmp_path / "toy.csv", "date,a,b,c", rows)


class TestLoadCsv:
    def test_multivariate_counts(self, toy_csv):
        ds = dio.load_csv(toy_csv, "multivariate")
        assert ds.n_endo == ds.n_exo == 3
        assert ds.variable_names == ("a", "b", "c")
        assert ds.values.shape == (40, 3)
        assert len(ds.timestamps) == 40

    def test_last_column_mode(self, toy_csv):
        ds = dio.load_csv(toy_csv, "last-column-endogenous")
        assert ds.n_endo == 1
        assert ds.n_exo == 2
        assert ds.endo_names == ("c",)
        assert ds.endo_indices == (2,)
        assert ds.exo_indices == (0, 1)

    def test_headers_without_date_column(self, tmp_path):
        p = write_csv(tmp_path / "nodate.csv", "u,v", [[i, i * 2 + 0.5] for i in range(9)])
        ds = dio.load_csv(p, "multivariate")
        assert ds.timestamps is None
        assert ds.values.shape == (9, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            dio.load_csv(tmp_path / "absent.csv")

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            dio.load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError, match=r"line 3, column 'b'"):
            dio.load_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("a,b\n1,2\n3,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            dio.load_csv(p)

    def test_constant_column_named(self, tmp_path):
        p = write_csv(tmp_path / "const.csv", "a,b",
                      [[i, 7.0] for i in range(10)])
        with pytest.raises(DataError, match="'b'"):
            dio.load_csv(p)

    def test_bad_target_mode(self, toy_csv):
        with pytest.raises(ConfigError):
            dio.load_csv(toy_csv, "univariate")

    def test_limit_rows(self, toy_csv):
        ds = dio.load_csv(toy_csv, limit_rows=25)
        assert ds.n_rows == 25

    @pytest.mark.skipif(not os.path.exists(ETTH1), reason="ETT data not present")
    def test_etth1_shape(self):
        ds = dio.load_csv(ETTH1, "last-column-endogenous")
        assert ds.n_rows == 17420
        assert ds.n_variables == 7
        assert ds.n_endo == 1
        assert ds.n_exo == 6
        assert ds.endo_names == ("OT",)


class TestSplitAndScale:
    def make(self, n=100, v=2, seed=0):
        rng = np.random.default_rng(seed)
        return dio.TimeSeriesDataset(
            tuple(f"v{j}" for j in range(v)),
            rng.normal(loc=5.0, scale=2.0, size=(n, v)), "multivariate")

    def test_ratio_bounds(self):
        ds = dio.split_and_scale(self.make(100), (0.7, 0.1, 0.2))
        assert ds.split_bounds == ((0, 70), (70, 80), (80, 100))

    def test_ett_style_bounds(self):
        ds = dio.split_and_scale(self.make(14400), (0.6, 0.2, 0.2))
        assert ds.split_bounds == ((0, 8640), (8640, 11520), (11520, 14400))

    def test_train_split_standardized(self):
        ds = dio.split_and_scale(self.make(200), (0.7, 0.1, 0.2))
        train = ds.values[:140]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-9)

    def test_no_leakage_scaler_from_train_only(self):
        base = self.make(200, seed=3)
        ds = dio.split_and_scale(base, (0.7, 0.1, 0.2))
        np.testing.assert_allclose(ds.scaler_mean, base.values[:140].mean(axis=0))
        np.testing.assert_allclose(ds.scaler_std, base.values[:140].std(axis=0))

    def test_inverse_round_trip(self):
        base = self.make(150, seed=4)
        ds = dio.split_and_scale(base, (0.7, 0.1, 0.2))
        # [rows x vars] -> [1 x vars x rows] forecast layout
        z = ds.values.T[None, :, :]
        back = dio.inverse_scale_forecast(ds, z)
        np.testing.assert_allclose(back[0].T, base.values, atol=1e-9)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            dio.split_and_scale(self.make(), (0.5, 0.5))
        with pytest.raises(ConfigError):
            dio.split_and_scale(self.make(), (0.8, 0.1, 0.2))

    def test_too_short_reports_minimum(self):
        with pytest.raises(DataError, match="L\\+S = 30"):
            dio.split_and_scale(self.make(40), (0.6, 0.2, 0.2), lookback=24, horizon=6)

    def test_constant_train_column_rejected(self):
        vals = np.random.default_rng(0).normal(size=(100, 2))
        vals[:70, 1] = 3.3  # varies only after the train split
        ds = dio.TimeSeriesDataset(("a", "b"), vals, "multivariate")
        with pytest.raises(DataError, match="'b'"):
            dio.split_and_scale(ds, (0.7, 0.1, 0.2))

    def test_unscaled_dataset_rejects_inverse(self):
        with pytest.raises(UsageError):
            dio.inverse_scale_forecast(self.make(), np.zeros((1, 2, 3)))


class TestIterBatches:
    def make(self, n=10, bounds=None):
        vals = np.arange(n, dtype=np.float64)[:, None] * np.array([[1.0, 10.0]])
        vals = vals + np.array([[0.0, 0.5]])
        ds = dio.TimeSeriesDataset(("p", "q"), vals, "multivariate")
        if bounds is None:
            bounds = ((0, n), (0, 0), (0, 0))
        object.__setattr__(ds, "split_bounds", bounds)
        object.__setattr__(ds, "scaler_mean", np.zeros(2))
        object.__setattr__(ds, "scaler_std", np.ones(2))
        return ds

    def test_window_count(self):
        ds = self.make(10)
        batches = list(dio.iter_batches(ds, "train", 4, 2, batch_size=64))
        assert sum(len(b) for b in batches) == 5  # 10 - 4 - 2 + 1
        assert dio.n_windows(ds, "train", 4, 2) == 5

    def test_window_contents(self):
        ds = self.make(10)
        (b,) = dio.iter_batches(ds, "train", 4, 2, batch_size=64)
        # origin 0: history rows 0..3, targets rows 4..5, variables major
        np.testing.assert_allclose(b.endo_history[0, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(b.endo_future[0, 0], [4, 5])
        np.testing.assert_allclose(b.endo_future[0, 1], [40.5, 50.5])
        assert b.endo_history.shape == (5, 2, 4)
        assert b.exo_history.shape == (5, 2, 4)
        assert b.endo_future.shape == (5, 2, 2)

    def test_unshuffled_origins_increase(self):
        ds = self.make(12)
        (b,) = dio.iter_batches(ds, "train", 4, 2, batch_size=64)
        assert np.all(np.diff(b.origins) > 0)

    def test_shuffle_deterministic_per_seed(self):
        ds = self.make(20)

        def origins(seed):
            rng = np.random.default_rng(seed)
            out = []
            for b in dio.iter_batches(ds, "train", 4, 2, 4, shuffle=True, rng=rng):
                out.extend(b.origins.tolist())
            return out

        assert origins(1) == origins(1)
        assert sorted(origins(1)) == list(range(15))
        assert origins(1) != origins(2)  # overwhelmingly likely for 15 origins

    def test_shuffle_requires_rng(self):
        with pytest.raises(UsageError):
            next(iter(dio.iter_batches(self.make(10), "train", 4, 2, 4, shuffle=True)))

    def test_partial_final_batch(self):
        ds = self.make(10)
        sizes = [len(b) for b in dio.iter_batches(ds, "train", 4, 2, batch_size=2)]
        assert sizes == [2, 2, 1]

    def test_val_windows_reach_back_for_history(self):
        # rows [0,12) train, [12,18) val: val targets stay inside the split
        ds = self.make(20, bounds=((0, 12), (12, 18), (18, 20)))
        batches = list(dio.iter_batches(ds, "val", 4, 2, batch_size=64))
        origins = np.concatenate([b.origins for b in batches])
        assert origins[0] == 8  # 12 - L
        for b in batches:
            for i in range(len(b)):
                t = b.origins[i]
                assert t + 4 >= 12 and t + 6 <= 18  # targets inside [12, 18)

    def test_split_with_no_windows(self):
        ds = self.make(10, bounds=((0, 9), (9, 10), (0, 0)))
        with pytest.raises(DataError, match="no windows"):
            list(dio.iter_batches(ds, "val", 8, 4, 4))

    def test_bad_split_name(self):
        with pytest.raises(UsageError):
            list(dio.iter_batches(self.make(10), "holdout", 4, 2, 4))


class TestOutputFile:
    def test_writes_through_temp_and_makes_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        with dio.output_file(path) as fh:
            fh.write("x\n1\n")
            assert fh.name == f"{path}.tmp" and not path.exists()
        assert path.read_bytes() == b"x\n1\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier")
        with pytest.raises(IOFault, match=f"cannot write {path}: No space left"):
            with dio.output_file(path, binary=True) as fh:
                fh.write(b"half a")
                raise OSError(errno.ENOSPC, "No space left on device")
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_other_errors_pass_through_and_clean_up(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            with dio.output_file(path) as fh:
                fh.write("partial")
                raise ValueError("not an I/O problem")
        assert list(tmp_path.iterdir()) == []
