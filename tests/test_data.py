"""Data ingestion, splitting, scaling, and window iteration tests."""

import errno
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.fixture
def quoted_csv(toy_csv, tmp_path):
    """``toy_csv`` with every cell quoted, which only the ``csv`` scan reads."""
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("".join(",".join(f'"{c}"' for c in line.split(",")) + "\n"
                              for line in toy_csv.read_text().splitlines()))
    return quoted


class TestLoadCsv:
    def test_multivariate_counts(self, toy_csv):
        ds = dio.load_csv(toy_csv, "multivariate")
        assert ds.n_endo == ds.n_exo == 3
        assert ds.variable_names == ("a", "b", "c")
        assert ds.values.shape == (40, 3)

    def test_last_column_mode(self, toy_csv):
        ds = dio.load_csv(toy_csv, "last-column-endogenous")
        assert ds.n_endo == 1
        assert ds.n_exo == 2
        assert ds.endo_names == ("c",)
        np.testing.assert_array_equal(ds.values[:, ds.endo], ds.values[:, [2]])
        np.testing.assert_array_equal(ds.values[:, ds.exo], ds.values[:, [0, 1]])

    def test_headers_without_date_column(self, tmp_path):
        p = write_csv(tmp_path / "nodate.csv", "u,v", [[i, i * 2 + 0.5] for i in range(9)])
        ds = dio.load_csv(p, "multivariate")
        assert ds.values.shape == (9, 2)

    @pytest.mark.parametrize("header,column", [("date,a,,b", 2), ("date,a,b,", 3),
                                               ("date,a, ,b", 2), (",a,b", 1)])
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_an_empty_column_name_is_one_data_error(self, tmp_path, header, column, quoted):
        """A header name that is blank once stripped is refused on both parse paths before
        it can name a forecast column or a gate row."""
        stamp = "2020-01-01," if header.startswith("date,") else ""
        cells = len(header.split(",")) - bool(stamp)
        rows = [stamp + ",".join(str(i + j * 0.5) for j in range(cells)) for i in range(9)]
        lines = [header] + rows
        if quoted:  # only the csv scan reads quoted cells
            lines = [",".join(f'"{c}"' for c in line.split(",")) for line in lines]
        p = tmp_path / "blank.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"value column {column} has an empty name"):
            dio.read_csv_values(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            dio.load_csv(tmp_path / "absent.csv")

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            dio.load_csv(p)

    @pytest.mark.parametrize("limit_rows", [None, 4])
    @pytest.mark.parametrize("pair, got", [("4,5,6,7\n8,9", 4), ("8,9\n4,5,6,7", 2)])
    def test_long_and_short_row_with_the_header_comma_total_take_the_scan(
            self, tmp_path, limit_rows, pair, got):
        """Rows of 3, 4, 2 and 3 cells hold the header's comma count four times over, so
        the total alone does not flag them; numpy refuses the short row and the scan names
        the first ragged one."""
        p = tmp_path / "ragged.csv"
        p.write_text(f"a,b,c\n1,2,3\n{pair}\n10,11,12\n")
        assert dio._parse_plain(p.read_text(), limit_rows, "date") is None
        with pytest.raises(DataError) as e:
            dio.read_csv_values(p, limit_rows)
        assert str(e.value) == f"{p}, line 3: ragged row, expected 3 cells, got {got}"

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
        """A column constant over the whole file loads, and the scaler fit refuses it."""
        p = write_csv(tmp_path / "const.csv", "a,b",
                      [[i, 7.0] for i in range(10)])
        ds = dio.load_csv(p)
        with pytest.raises(DataError, match="constant train-split column.*'b'"):
            dio.split_and_scale(ds, (0.6, 0.2, 0.2), 2, 1)

    def test_bad_target_mode(self, toy_csv):
        with pytest.raises(ConfigError):
            dio.load_csv(toy_csv, "univariate")

    def test_limit_rows(self, toy_csv):
        ds = dio.load_csv(toy_csv, limit_rows=25)
        assert ds.n_rows == 25

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_rows_below_one_rejected(self, toy_csv, limit):
        with pytest.raises(ConfigError, match="limit_rows must be >= 1"):
            dio.read_csv_values(toy_csv, limit_rows=limit)

    @pytest.mark.parametrize("which", ["plain", "quoted"])
    def test_limit_rows_past_ssize_t_keeps_every_row(self, toy_csv, quoted_csv, which):
        """A limit too large for a C ssize_t reads the whole file on either parse path."""
        path = toy_csv if which == "plain" else quoted_csv
        names, values = dio.read_csv_values(path)
        got_names, got_values = dio.read_csv_values(path, 2 ** 63)
        assert got_names == names and got_values.tobytes() == values.tobytes()

    def test_bom_is_not_part_of_the_first_name(self, toy_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + toy_csv.read_bytes())
        names, values = dio.read_csv_values(toy_csv)
        b_names, b_values = dio.read_csv_values(bom)
        assert b_names == names == ("a", "b", "c")
        assert b_values.tobytes() == values.tobytes()

    def test_non_utf8_byte_names_path_and_line(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}, line 3: not UTF-8 text"):
            dio.read_csv_values(p)

    def test_plain_file_skips_the_scan_quoted_file_takes_it(self, toy_csv, quoted_csv,
                                                            monkeypatch):
        expected = dio.read_csv_values(toy_csv, limit_rows=25)
        assert dio._parse_plain(quoted_csv.read_text(), 25, "date") is None
        got = dio.read_csv_values(quoted_csv, limit_rows=25)
        assert got[0] == expected[0]
        assert got[1].tobytes() == expected[1].tobytes()

        def no_scan(*args):
            raise AssertionError("a plain numeric file went through the csv scan")

        monkeypatch.setattr(dio, "_scan_values", no_scan)
        assert dio.read_csv_values(toy_csv, limit_rows=25)[1].shape == (25, 3)

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
        ds = dio.split_and_scale(self.make(100), (0.7, 0.1, 0.2), 2, 1)
        assert ds.split_bounds == ((0, 70), (70, 80), (80, 100))

    def test_ett_style_bounds(self):
        ds = dio.split_and_scale(self.make(14400), (0.6, 0.2, 0.2), 2, 1)
        assert ds.split_bounds == ((0, 8640), (8640, 11520), (11520, 14400))

    def test_train_split_standardized(self):
        ds = dio.split_and_scale(self.make(200), (0.7, 0.1, 0.2), 2, 1)
        train = ds.values[:140]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-9)

    def test_no_leakage_scaler_from_train_only(self):
        base = self.make(200, seed=3)
        ds = dio.split_and_scale(base, (0.7, 0.1, 0.2), 2, 1)
        np.testing.assert_allclose(ds.scaler_mean, base.values[:140].mean(axis=0))
        np.testing.assert_allclose(ds.scaler_std, base.values[:140].std(axis=0))

    def test_inverse_round_trip(self):
        base = self.make(150, seed=4)
        ds = dio.split_and_scale(base, (0.7, 0.1, 0.2), 2, 1)
        # [rows x vars] -> [1 x vars x rows] forecast layout
        z = ds.values.T[None, :, :]
        back = dio.inverse_scale_forecast(ds, z)
        np.testing.assert_allclose(back[0].T, base.values, atol=1e-9)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            dio.split_and_scale(self.make(), (0.5, 0.5), 2, 1)
        with pytest.raises(ConfigError):
            dio.split_and_scale(self.make(), (0.8, 0.1, 0.2), 2, 1)

    def test_too_short_reports_minimum(self):
        with pytest.raises(DataError, match="L\\+S = 30"):
            dio.split_and_scale(self.make(40), (0.6, 0.2, 0.2), lookback=24, horizon=6)

    def test_constant_train_column_rejected(self):
        vals = np.random.default_rng(0).normal(size=(100, 2))
        vals[:70, 1] = 3.3  # varies only after the train split
        ds = dio.TimeSeriesDataset(("a", "b"), vals, "multivariate")
        with pytest.raises(DataError, match="'b'"):
            dio.split_and_scale(ds, (0.7, 0.1, 0.2), 2, 1)

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

    @staticmethod
    def starts(batches):
        """Each window's start row: column ``p`` of :meth:`make` holds its row number."""
        return np.concatenate([b.endo_history[:, 0, 0] for b in batches])

    def test_unshuffled_origins_increase(self):
        ds = self.make(12)
        starts = self.starts(dio.iter_batches(ds, "train", 4, 2, batch_size=64))
        np.testing.assert_array_equal(starts, dio.window_origins(ds, "train", 4, 2))
        assert np.all(np.diff(starts) > 0)

    def test_shuffle_deterministic_per_seed(self):
        """Given a Generator, the windows come in the order of its permutation of the
        origins."""
        ds = self.make(20)

        def starts(seed):
            batches = dio.iter_batches(ds, "train", 4, 2, 4, np.random.default_rng(seed))
            return self.starts(batches).tolist()

        want = np.random.default_rng(1).permutation(dio.window_origins(ds, "train", 4, 2))
        assert starts(1) == starts(1) == want.tolist()
        assert sorted(starts(1)) == list(range(15))
        assert starts(1) != starts(2)  # overwhelmingly likely for 15 origins

    def test_partial_final_batch(self):
        ds = self.make(10)
        sizes = [len(b) for b in dio.iter_batches(ds, "train", 4, 2, batch_size=2)]
        assert sizes == [2, 2, 1]

    def test_val_windows_reach_back_for_history(self):
        # rows [0,12) train, [12,18) val: val targets stay inside the split
        ds = self.make(20, bounds=((0, 12), (12, 18), (18, 20)))
        batches = list(dio.iter_batches(ds, "val", 4, 2, batch_size=64))
        starts = self.starts(batches)
        np.testing.assert_array_equal(starts, dio.window_origins(ds, "val", 4, 2))
        assert starts[0] == 8  # 12 - L
        targets = np.concatenate([b.endo_future[:, 0] for b in batches])
        assert targets.min() == 12 and targets.max() == 17  # targets inside [12, 18)

    def test_split_with_no_windows(self):
        ds = self.make(10, bounds=((0, 9), (9, 10), (0, 0)))
        with pytest.raises(DataError, match="no windows"):
            list(dio.iter_batches(ds, "val", 8, 4, 4))

    def test_bad_split_name(self):
        with pytest.raises(UsageError):
            list(dio.iter_batches(self.make(10), "holdout", 4, 2, 4))


def column_lists(ds):
    """The endogenous and exogenous column indices, as lists."""
    n = ds.n_variables
    if ds.target_mode == "multivariate":
        return list(range(n)), list(range(n))
    return [n - 1], list(range(n - 1))


def reference_batches(ds, split, L, S, batch_size, rng=None):
    """(endo history, exo history, endo future) per batch, gathered window by window through
    index lists of the endogenous and exogenous columns, at the origins of
    :func:`window_origins` or ``rng``'s permutation of them."""
    endo, exo = column_lists(ds)
    origins = dio.window_origins(ds, split, L, S)
    if rng is not None:
        origins = rng.permutation(origins)
    for i in range(0, origins.size, batch_size):
        idx = origins[i:i + batch_size]
        hist = np.stack([ds.values[t:t + L].T for t in idx])
        fut = np.stack([ds.values[t + L:t + L + S].T for t in idx])
        yield hist[:, endo], hist[:, exo], fut[:, endo]


class TestColumnSlices:
    @pytest.fixture(params=["multivariate", "last-column-endogenous"])
    def ds(self, request):
        vals = np.random.default_rng(3).normal(size=(61, 4))
        ds = dio.TimeSeriesDataset(("a", "b", "c", "d"), vals, request.param)
        return dio.split_and_scale(ds, (0.6, 0.2, 0.2), 6, 3)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_iter_batches_equals_an_index_list_gather(self, ds, shuffle, split):
        """Every batch, the short last one included, holds the windows of a gather by
        index lists, in C order."""
        rng = np.random.default_rng(4) if shuffle else None
        twin = np.random.default_rng(4) if shuffle else None
        got = list(dio.iter_batches(ds, split, 6, 3, 7, rng))
        want = list(reference_batches(ds, split, 6, 3, 7, twin))
        assert len(got) == len(want) and len(got[-1]) < 7
        for b, (endo, exo, fut) in zip(got, want):
            np.testing.assert_array_equal(b.endo_history, endo)
            np.testing.assert_array_equal(b.exo_history, exo)
            np.testing.assert_array_equal(b.endo_future, fut)
            assert all(a.flags.c_contiguous for a in (b.endo_history, b.exo_history,
                                                      b.endo_future))

    def test_multivariate_histories_are_one_array(self, ds):
        (b, *_) = dio.iter_batches(ds, "train", 6, 3, 7)
        assert np.shares_memory(b.endo_history, b.exo_history) == \
            (ds.target_mode == "multivariate")

    def test_multivariate_histories_are_one_object(self, ds):
        """Every batch and the forecast window pass one array as both histories in
        multivariate mode, so the forward normalizes it once."""
        one = ds.target_mode == "multivariate"
        for b in [*dio.iter_batches(ds, "train", 6, 3, 7), dio.last_window(ds, 6)]:
            assert (b.exo_history is b.endo_history) == one

    def test_last_window_equals_the_trailing_rows(self, ds):
        b = dio.last_window(ds, 6)
        trailing = ds.values[-6:].T[None]
        endo, exo = column_lists(ds)
        np.testing.assert_array_equal(b.endo_history, trailing[:, endo])
        np.testing.assert_array_equal(b.exo_history, trailing[:, exo])
        assert b.endo_history.flags.c_contiguous and b.exo_history.flags.c_contiguous

    def test_inverse_scale_uses_the_endogenous_statistics(self, ds):
        z = np.random.default_rng(5).normal(size=(2, ds.n_endo, 3))
        endo, _ = column_lists(ds)
        want = z * ds.scaler_std[endo][None, :, None] + ds.scaler_mean[endo][None, :, None]
        np.testing.assert_array_equal(dio.inverse_scale_forecast(ds, z), want)


class TestOutputFile:
    def test_writes_through_temp_and_makes_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        with dio.output_file(path) as fh:
            fh.write("x\n1\n")
            assert fh.name == f"{path}.tmp" and not path.exists()
        assert path.read_bytes() == b"x\n1\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

    def test_successful_write_removes_nothing(self, tmp_path, monkeypatch):
        """The rename leaves no temp file, so a write that succeeds calls no ``os.remove``."""
        removed = []
        monkeypatch.setattr(dio.os, "remove", removed.append)
        path = tmp_path / "out.bin"
        with dio.output_file(path, binary=True) as fh:
            fh.write(b"bytes")
        assert path.read_bytes() == b"bytes" and removed == []

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


# Cells of every form the two CSV paths must agree on: plain numbers in repr,
# %.6f and exponent form, and text only the csv scan accepts or that both reject.
NUMBER = st.floats(-1e12, 1e12, allow_nan=False)
PLAIN_CELL = st.one_of(NUMBER.map(repr), NUMBER.map("{:.6f}".format), NUMBER.map("{:e}".format),
                       st.integers(-10**6, 10**6).map(str))
NON_FINITE_CELL = st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "-1e400"])
ODD_CELL = st.sampled_from([
    "1_000", "١٢", "٣.5", "#", "1#", "", " ",
    "+", "+1.5", " 2.5", "2.5 ", "\t3", ".5", "5.", "1e", "0x10", "1\x00", "1\x1c", "\x1f2",
    "1\xa0", "\u30003", "\ufeff1", "1\x0b", "abc"])
FAULTS = ["odd_cell", "non_finite_cell", "quoted_cell", "quoted_comma_cell", "extra_cell",
          "missing_cell", "blank_line", "blank_first_line", "space_line", "bare_cr",
          "bare_cr_after_header", "crlf"]


@st.composite
def csv_text(draw):
    """(text, limit_rows) of a small series CSV: a plain numeric file with
    up to two faults, each of which only one of the two paths may accept."""
    n_cols = draw(st.integers(1, 3))
    has_date = draw(st.booleans())
    header = ["date"] * has_date + [f"v{j}" for j in range(n_cols)]
    header = draw(st.sampled_from([header, [f" {h} " for h in header], header + [""],
                                   ["date"] * has_date + [str(j) for j in range(n_cols)]]))
    lines = [header] + [[f"2020-01-01 {i:02d}:00"] * has_date
                        + [draw(PLAIN_CELL) for _ in range(len(header) - has_date)]
                        for i in range(draw(st.integers(0, 6)))]
    eols = ["\n"] * len(lines)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # a data row if any
        j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
        if not lines[i] and fault.endswith("cell"):
            continue
        if fault in ("odd_cell", "non_finite_cell"):
            lines[i][j] = draw(ODD_CELL if fault == "odd_cell" else NON_FINITE_CELL)
        elif fault == "quoted_cell":
            lines[i][j] = f'"{lines[i][j]}"'
        elif fault == "quoted_comma_cell":
            lines[i][j] = f'"{lines[i][j]},{draw(PLAIN_CELL)}"'
        elif fault == "extra_cell":
            lines[i].append(draw(PLAIN_CELL))
        elif fault == "missing_cell":
            del lines[i][j]
        elif fault in ("blank_line", "blank_first_line", "space_line"):
            i = 0 if fault == "blank_first_line" else i
            lines.insert(i, [" "] * (fault == "space_line"))
            eols.insert(i, "\n")
        else:  # a bare CR ends a line for the csv module only
            eols[0 if fault == "bare_cr_after_header" else i] = "\r\n" if fault == "crlf" else "\r"
    text = "".join(",".join(cells) + eol for cells, eol in zip(lines, eols))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, draw(st.none() | st.integers(1, 7))


def _outcome(read):
    """A reader's result with values as bytes, or the message of its DataError."""
    try:
        names, values = read()
    except DataError as e:
        return str(e)
    return names, values.dtype, values.shape, values.tobytes()


class TestTwoCsvPaths:
    @settings(derandomize=True, deadline=None, max_examples=1000, database=None)
    @given(case=csv_text(), bom=st.booleans())
    @example(case=("v0\r1.5\n2.5\n", None), bom=False)  # bare CR: header and a row on one line
    @example(case=('date,"v0,v1"\nd,1.5,2.5\n', None), bom=False)  # quoted comma in the header
    @example(case=("\n1.5\n2.5\n", None), bom=False)  # blank line in place of a header
    @example(case=("v0\n1.5\x1c\n", None), bom=False)  # whitespace to numpy, not to float
    @example(case=("v0\n1.5\n\n2.5\n3.5\n", 2), bom=False)  # a blank line within limit_rows
    def test_numpy_path_equals_csv_scan(self, tmp_path_factory, case, bom):
        text, limit = case
        path = tmp_path_factory.getbasetemp() / "paths.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        got = _outcome(lambda: dio.read_csv_values(path, limit))
        want = _outcome(lambda: dio._scan_values(path, text, limit, "date"))
        if not isinstance(want, str) and "" in want[0]:  # refused after either parse
            want = f"{path}: value column {want[0].index('') + 1} has an empty name in header"
        assert got == want, text


@st.composite
def tail_case(draw):
    """(file bytes, L, whether read_csv_tail must fall back) of a valid series CSV: a BOM,
    CRLF or LF line ends, blank lines anywhere after the header, quoted cells, L - 1 to
    L + 2 data rows, and last cells padded with leading zeros, long enough that a block
    boundary cuts a row."""
    L = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 3))
    has_date = draw(st.booleans())
    header = ["date"] * has_date + [f"v{j}" for j in range(n_cols)]
    pad = st.sampled_from([0, 1, dio.TAIL_BLOCK // 3, dio.TAIL_BLOCK - 30, dio.TAIL_BLOCK + 9])
    rows = [[f"2020-01-01 {i:02d}:00"] * has_date + [draw(PLAIN_CELL) for _ in range(n_cols)]
            for i in range(draw(st.integers(L - 1, L + 2)))]
    for cells in rows:  # the same number, after any sign; a cut in it drops the commas before
        sign = cells[-1][:1] if cells[-1][:1] in "+-" else ""
        cells[-1] = sign + "0" * draw(pad) + cells[-1][len(sign):]
    lines = [header, *rows]
    for i in draw(st.sets(st.integers(0, len(rows)), max_size=2)):  # 0 is the header
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = f'"{lines[i][j]}"'
    for _ in range(draw(st.integers(0, 3))):  # blank lines, before the first row or after
        lines.insert(draw(st.integers(1, len(lines))), [])
    eols = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(",".join(cells) + eol for cells, eol in zip(lines, eols))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    quoted = any('"' in c for cells in [header, *rows[-L:]] for c in cells)
    raw = b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8")
    return raw, L, len(rows) < L or quoted


class TestTailRead:
    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(case=tail_case())
    @example(case=(b"v0\n1.5\n\n2.5\n", 2, False))  # a blank line inside the tail
    @example(case=(b'v0\n"1.5"\n2.5\n', 1, False))  # a quote before the tail
    @example(case=(b"v0\r\n1.5\r\n2.5", 2, False))  # exactly L rows, CRLF, no final newline
    def test_equals_the_last_rows_of_the_whole_file_read(self, tmp_path_factory, case):
        raw, L, falls_back = case
        path = tmp_path_factory.getbasetemp() / "tail.csv"
        path.write_bytes(raw)
        got = dio.read_csv_tail(path, L)
        if falls_back:
            assert got is None
            return
        names, values = dio.read_csv_values(path)
        assert got is not None and got[0] == names
        assert got[1].dtype == np.float64 and got[1].shape == (L, len(names))
        assert got[1].tobytes() == values[-L:].tobytes()

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(case=tail_case(), whole=st.booleans())
    def test_the_block_search_finds_the_last_non_blank_lines(self, tmp_path_factory, case,
                                                             whole):
        """``_tail`` alone, which a file of one block reaches only when its whole parse is
        refused: handed the header alone, or the first block, it keeps the last L non-blank
        lines, or gives None for fewer."""
        raw, L, _ = case
        start = raw.find(b"\n") + 1
        if not start:
            return
        path = tmp_path_factory.getbasetemp() / "block.csv"
        path.write_bytes(raw)
        fd = os.open(path, os.O_RDONLY)
        try:
            got = dio._tail(fd, raw[:dio.TAIL_BLOCK] if whole else raw[:start], start,
                            len(raw), L)
        finally:
            os.close(fd)
        lines = [ln for ln in raw[start:].replace(b"\r\n", b"\n").split(b"\n") if ln]
        if len(lines) < L:
            assert got is None
        else:
            assert [ln for ln in got.replace(b"\r\n", b"\n").split(b"\n") if ln] == lines[-L:]

    @pytest.mark.parametrize("text", [
        "v0\n1.5\n2.5\r3.5\n",  # a bare CR in the tail
        "v0\n1.5\n2.5\n\x1c3.5\n",  # whitespace to numpy, not to float
        "v0\n1.5\n2.5\nnan\n",  # a cell read as non-finite
        "v0\n1.5\n2.5,1\n3.5\n",  # a ragged row
        "v0,v0\n1.5,1\n2.5,2\n3.5,3\n",  # a repeated name
        "v0\n",  # no data rows
    ])
    def test_a_refused_tail_falls_back(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert dio.read_csv_tail(path, 2) is None

    def test_not_utf8_in_the_tail_falls_back_and_before_it_is_not_read(self, tmp_path):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"v0\n\xff\n1.5\n2.5\n")
        assert dio.read_csv_tail(path, 2)[1].tolist() == [[1.5], [2.5]]
        assert dio.read_csv_tail(path, 3) is None

    @pytest.mark.parametrize("tail", [3, None])
    def test_a_tail_read_dataset_holds_the_last_rows(self, toy_csv, tail):
        scaler = {"variable_names": ["a", "b", "c"], "mean": [0.0] * 3, "std": [1.0] * 3}
        ds = dio.load_csv_with_scaler(toy_csv, scaler, "multivariate", (0.6, 0.2, 0.2),
                                      tail_rows=tail)
        assert ds.n_rows == (tail or 40)
        whole = dio.load_csv_with_scaler(toy_csv, scaler, "multivariate", (0.6, 0.2, 0.2))
        np.testing.assert_array_equal(ds.values, whole.values[-ds.n_rows:])
        np.testing.assert_array_equal(dio.last_window(ds, 3).endo_history,
                                      dio.last_window(whole, 3).endo_history)
