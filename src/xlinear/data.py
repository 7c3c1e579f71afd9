"""CSV ingestion, train/val/test splitting, scaling, window batching, output files.

Training fits the scaler (:func:`load_csv`, :func:`split_and_scale`);
eval, predict and export-weights reapply the one a checkpoint stored
(:func:`load_csv_with_scaler`, :func:`last_window`). Training and eval read
and check every row (:func:`read_csv_values`); predict and export-weights
read the header and the last L rows alone (:func:`read_csv_tail`), and fall
back to the whole-file read, with its error messages, when the tail is not
plain text.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import stat
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, DimensionError, IOFault, UsageError

TARGET_MODES = ("multivariate", "last-column-endogenous")


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Aligned multivariate series plus split bounds and scaler statistics.

    ``values`` is [timesteps x variables] float64. After
    :func:`split_and_scale` the values are z-scores of the raw data under
    the train-split statistics, and ``scaler_mean``/``scaler_std`` hold
    the per-variable fit. Instances are immutable; derived datasets are
    new objects.
    """

    variable_names: tuple
    values: np.ndarray
    target_mode: str
    scaler_mean: np.ndarray | None = None
    scaler_std: np.ndarray | None = None
    split_bounds: tuple | None = None  # ((a,b) train, (a,b) val, (a,b) test)
    first_row: int | None = 0  # data row of the CSV in values[0]; None: rows before uncounted

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    @property
    def endo(self) -> slice:
        """The endogenous columns: all of them, or the last."""
        return slice(None) if self.target_mode == "multivariate" else slice(-1, None)

    @property
    def exo(self) -> slice:
        """The exogenous columns: all of them, or all but the last."""
        return slice(None) if self.target_mode == "multivariate" else slice(None, -1)

    @property
    def n_endo(self) -> int:
        return len(self.endo_names)

    @property
    def n_exo(self) -> int:
        return len(self.variable_names[self.exo])

    @property
    def endo_names(self) -> tuple:
        return self.variable_names[self.endo]

    def bounds_of(self, split: str) -> tuple:
        if self.split_bounds is None:
            raise UsageError("dataset has no splits; call split_and_scale first")
        try:
            return self.split_bounds[("train", "val", "test").index(split)]
        except ValueError:
            raise UsageError(f"unknown split {split!r}; expected train, val, or test") from None


@dataclass(frozen=True)
class WindowBatch:
    """One batch of sliding windows, variables-major: [batch x vars x time]."""

    endo_history: np.ndarray  # [batch x M x L]
    exo_history: np.ndarray  # [batch x C x L]; in multivariate mode the same array object
    endo_future: np.ndarray | None = None  # [batch x M x S]; None when forecasting
    # window start rows, maps windows back to the CSV; None for a forecast window read from
    # the tail of a file, whose rows before it were never counted
    origins: np.ndarray | None = None

    def __len__(self):
        return self.endo_history.shape[0]


def read_csv_values(path, limit_rows: int | None = None, date_column: str = "date"):
    """Parse a UTF-8 series CSV (optional BOM) into (variable names, [rows x vars] float64):
    plain numeric text by :func:`_parse_plain`, the rest by :func:`_scan_values`, which
    names the line and column of a ragged row or bad cell. A leading ``date_column`` is
    skipped."""
    check_limit_rows(limit_rows)
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except OSError as e:
        raise DataError(f"cannot open dataset file {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        line_no = e.object.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}, line {line_no}: not UTF-8 text ({e.reason})") from None
    try:
        parsed = (_parse_plain(text, limit_rows, date_column)
                  or _scan_values(path, text, limit_rows, date_column))
    except csv.Error as e:  # e.g. a cell over the csv module's field size limit
        raise DataError(f"{path}: unreadable CSV ({e})") from None
    fault = _header_fault(parsed[0])
    if fault:
        raise DataError(f"{path}: {fault}")
    return parsed


def _header_fault(names) -> str | None:
    """What is wrong with a header's value column names, or None."""
    if "" in names:  # a name that is blank once stripped
        return f"value column {names.index('') + 1} has an empty name in header"
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        return f"repeated column name {repeated[0]!r} in header"
    unsafe = [n for n in names if any(c in n for c in ',"\r\n')]
    if unsafe:  # the output CSVs write names unquoted
        return (f"column name {unsafe[0]!r} in header holds a comma, quote or line break, "
                "which an output CSV header cannot carry")
    return None


TAIL_BLOCK = 1 << 14  # bytes of read_csv_tail's first read back from the end; each next doubles


def read_csv_tail(path, n_rows: int, date_column: str = "date"):
    """The last ``n_rows`` rows of :func:`read_csv_values`, from the header line and the last
    ``n_rows`` non-blank lines alone (UTF-8, the header with an optional BOM), parsed by
    :func:`_parse_plain` and checked as that reads them; rows before those are neither
    read nor checked, but a file of one :data:`TAIL_BLOCK` is parsed whole first, and
    searched for its last lines only when that parse refuses it. None, so that the caller
    reads the whole file and reports any fault, where ``path`` is not a regular file (a
    pipe cannot be read from its end) or has fewer than ``n_rows`` data lines, or where
    what was read holds a byte, cell, row or name that is refused or that only the ``csv``
    scan reads (a quote, a bare CR)."""
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            return None
        fd = os.open(path, os.O_RDONLY)
        try:
            first = os.read(fd, TAIL_BLOCK)  # a small file whole; else its header
            start = first.find(b"\n") + 1
            parsed = info.st_size == len(first) and _parse_tail(first, b"", n_rows, date_column)
            if not parsed:
                tail = start and _tail(fd, first, start, info.st_size, n_rows)
                parsed = tail and _parse_tail(first[:start], tail, n_rows, date_column)
        finally:
            os.close(fd)
    except OSError:
        return None
    return parsed or None


def _parse_tail(head: bytes, tail: bytes, n: int, date_column: str):
    """The last ``n`` rows :func:`_parse_plain` reads from a header line and data lines, or
    None where it reads fewer or refuses them, or they are not UTF-8."""
    try:
        text = head.decode("utf-8-sig") + tail.decode("utf-8")
    except UnicodeDecodeError:
        return None
    parsed = _parse_plain(text, None, date_column)
    if not parsed or len(parsed[1]) < n or _header_fault(parsed[0]):
        return None
    return parsed[0], parsed[1][-n:]


def _tail(fd: int, first: bytes, start: int, size: int, n: int):
    """The bytes of the ``size``-byte file open as ``fd``, whose first bytes are ``first`` and
    whose header line ends at ``start``, from the first of its last ``n`` non-blank lines to
    its end, read in blocks back from the end; None if it has fewer. An empty line and the
    CR of a blank CRLF line are blank; the blank lines among and after the ``n`` stay in,
    for :func:`_parse_plain` drops them."""
    pos, step, buf = size, TAIL_BLOCK, b""
    while pos > start:
        at = max(start - 1, pos - step)  # at start - 1 the block opens with the header's LF
        buf = (first[at:pos] if pos <= len(first) else os.pread(fd, pos - at, at)) + buf
        pos, step = at, 2 * step
        k = n + buf.endswith(b"\n")  # a final LF ends the file with an empty line
        while True:  # the lines after the last k LFs; the text before the first may be cut
            lines = buf.rsplit(b"\n", k)
            blank = lines.count(b"") + lines.count(b"\r") - (lines[0] in (b"", b"\r"))
            found = len(lines) - 1 - blank
            if found >= n:
                return buf[len(lines[0]) + 1:]
            if len(lines) <= k:
                break  # every LF of the block is used: read the block before
            k += n - found
    return None


def check_limit_rows(limit_rows: int | None):
    """Raise ConfigError unless ``limit_rows`` is None or at least 1."""
    if limit_rows is not None and limit_rows < 1:
        raise ConfigError(f"limit_rows must be >= 1 or null, got {limit_rows}")


def check_target_mode(target_mode: str):
    """Raise ConfigError unless ``target_mode`` is one of :data:`TARGET_MODES`."""
    if target_mode not in TARGET_MODES:
        raise ConfigError(f"target_mode must be one of {TARGET_MODES}, got {target_mode!r}")


def _columns(header, date_column: str):
    """(whether the first column is the skipped date column, value column names) of a
    header row."""
    header = [h.strip() for h in header]
    has_date = bool(header) and header[0] == date_column
    return has_date, header[1:] if has_date else header


def _parse_plain(text: str, limit_rows: int | None, date_column: str):
    """:func:`read_csv_values` by one ``np.loadtxt`` call, or None for text with quotes, a
    bare CR, U+001C..U+001F (whitespace to numpy, not to ``float``), a row whose comma
    count is not the header's, or a cell numpy rejects or reads as non-finite."""
    if "\r" in text:  # one-character search: far cheaper than looking for "\r\n"
        text = text.replace("\r\n", "\n")
    if any(c in text for c in '"\r\x1c\x1d\x1e\x1f'):
        return None
    head, _, body = text.partition("\n")
    cap = min(limit_rows or -1, len(body))  # split's count must fit a C ssize_t
    rows = [r for r in body.split("\n", cap)[:limit_rows] if r]  # lines needed only
    if limit_rows and len(rows) < limit_rows:  # a blank line among them, or a short file
        rows = [r for r in body.split("\n") if r][:limit_rows]
    has_date, names = _columns(head.split(","), date_column)
    commas = head.count(",")
    # loadtxt refuses a row too short for usecols, so equal totals mean equal rows
    total = (body if limit_rows is None else "\n".join(rows)).count(",")
    if not head or not names or not rows or total != commas * len(rows):
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                            usecols=range(has_date, commas + 1))
    except ValueError:
        return None
    return (tuple(names), values) if np.isfinite(values).all() else None


def _scan_values(path, text: str, limit_rows: int | None, date_column: str):
    """:func:`read_csv_values` by the ``csv`` module and ``float``, cell by cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    has_date, names = _columns(header, date_column)
    if not names:
        raise DataError(f"{path}: no value columns in header")

    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:  # tolerate blank trailing lines
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}, line {line_no}: ragged row, expected "
                f"{len(header)} cells, got {len(row)}")
        parsed = []
        for j, cell in enumerate(row[1:] if has_date else row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}, line {line_no}, column {names[j]!r}: "
                    f"non-numeric cell {cell.strip()!r}") from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}, line {line_no}, column {names[j]!r}: "
                    f"non-finite cell {cell.strip()!r}")
            parsed.append(v)
        rows.append(parsed)
        if limit_rows is not None and len(rows) >= limit_rows:
            break
    if not rows:
        raise DataError(f"{path}: no data rows")
    return tuple(names), np.asarray(rows, dtype=np.float64)


def load_csv(path, target_mode: str = "multivariate", limit_rows: int | None = None,
             date_column: str = "date") -> TimeSeriesDataset:
    """Read a UTF-8 comma-separated series file into a dataset.

    Parameters
    ----------
    path : str or Path
        File with a header row; an optional leading ``date`` column is
        skipped.
    target_mode : str
        ``multivariate``: every variable is both endogenous and
        exogenous. ``last-column-endogenous``: the final column is the
        sole endogenous variable, all others exogenous.
    limit_rows : int, optional
        Keep only the first ``limit_rows`` data rows.

    Raises
    ------
    DataError
        Missing file, ragged rows, non-numeric or non-finite cells, bad
        column names. :func:`split_and_scale` refuses constant columns.
    """
    check_target_mode(target_mode)
    names, values = read_csv_values(path, limit_rows, date_column)
    return TimeSeriesDataset(variable_names=names, values=values, target_mode=target_mode)


def check_split_ratios(ratios):
    """Raise ConfigError unless ``ratios`` are three positive numbers summing to 1."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # NaN fails r > 0
        raise ConfigError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios} (sum {sum(ratios)})")


def split_bounds(n: int, ratios) -> tuple:
    """Row bounds ((0, a), (a, b), (b, n)) of train/val/test.

    The cumulative ratios are rounded, so (0.6, 0.2, 0.2) on 14400 rows
    gives exactly 8640/11520/14400.
    """
    check_split_ratios(ratios)
    train_end = round(n * ratios[0])
    val_end = round(n * (ratios[0] + ratios[1]))
    return ((0, train_end), (train_end, val_end), (val_end, n))


def split_and_scale(ds: TimeSeriesDataset, ratios, lookback: int, horizon: int) -> TimeSeriesDataset:
    """Split rows by ratio (:func:`split_bounds`), fit a z-score scaler on
    train rows only, and transform every row.

    Each split must admit at least one window (val/test windows may reach
    back ``lookback`` rows for history).
    """
    bounds = split_bounds(ds.n_rows, ratios)
    need = lookback + horizon
    for name, (a, b) in zip(("train", "val", "test"), bounds):
        usable = b - max(0, a - lookback)
        if usable < need:
            raise DataError(
                f"{name} split has {usable} usable rows but a window needs "
                f"at least L+S = {need}")

    train = ds.values[:bounds[0][1]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean = train.mean(axis=0)
        std = train.std(axis=0)  # population divisor; consistent with inverse
    # min==max catches constant train columns whose std is roundoff, not 0
    flat = [ds.variable_names[j] for j in range(ds.n_variables)
            if std[j] == 0.0 or train[:, j].min() == train[:, j].max()]
    if flat:
        raise DataError("constant train-split column(s) "
                        f"{', '.join(repr(c) for c in flat)}; scaler std would be zero")
    finite = np.isfinite(mean) & np.isfinite(std)
    huge = [repr(c) for c, ok in zip(ds.variable_names, finite) if not ok]
    if huge:
        raise DataError(f"train-split column(s) {', '.join(huge)} overflow float64: "
                        "the scaler's mean or std is not finite")
    return replace(ds, values=_scaled(ds.values, mean, std, ds.variable_names),
                   scaler_mean=mean, scaler_std=std, split_bounds=bounds)


def _scaled(values: np.ndarray, mean: np.ndarray, std: np.ndarray, names) -> np.ndarray:
    """``(values - mean) / std``, or a DataError naming each column a row far outside the
    scaler's range overflows."""
    with np.errstate(over="ignore"):
        scaled = (values - mean) / std
    finite = np.isfinite(scaled).all(axis=0)
    if not finite.all():
        huge = [repr(c) for c, ok in zip(names, finite) if not ok]
        raise DataError(f"column(s) {', '.join(huge)} overflow float64 when scaled: a row "
                        "lies too far outside the train split's range")
    return scaled


def load_csv_with_scaler(path, scaler: dict, target_mode: str, ratios,
                         limit_rows: int | None = None, date_column: str = "date",
                         tail_rows: int | None = None) -> TimeSeriesDataset:
    """Read a series CSV into the scaled space of a stored scaler.

    ``scaler`` is a checkpoint's :func:`scaler_dict`. The file's columns
    must match its variables; the stored statistics are applied as they
    are, never refit, and constant columns are allowed, so any file is
    scored in the space the model was trained in. Split bounds follow
    ``ratios`` as in :func:`split_and_scale`. With ``tail_rows`` (and no
    ``limit_rows``) the dataset holds only the last ``tail_rows`` rows when
    :func:`read_csv_tail` can read them, with ``first_row`` None, and else
    every row, by :func:`read_csv_values`.
    """
    parsed = tail_rows and read_csv_tail(path, tail_rows, date_column)
    names, values = parsed or read_csv_values(path, limit_rows, date_column)
    try:
        stored = list(scaler["variable_names"])
        mean = np.asarray(scaler["mean"], dtype=np.float64)
        std = np.asarray(scaler["std"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise IOFault(f"malformed scaler in checkpoint: {e}") from None
    if list(names) != stored:
        raise DimensionError(
            f"columns {list(names)} of {path} do not match checkpoint variables {stored}")
    if mean.shape != (len(names),) or std.shape != mean.shape:
        raise IOFault(f"malformed scaler in checkpoint: {len(names)} variables, "
                      f"mean shape {mean.shape}, std shape {std.shape}")
    bad = ~(np.isfinite(mean) & np.isfinite(std) & (std > 0.0))
    if bad.any():
        j = int(np.argmax(bad))
        raise IOFault(f"malformed scaler in checkpoint: variable {names[j]!r} has mean "
                      f"{float(mean[j])!r}, std {float(std[j])!r}; need finite values, std > 0")
    return TimeSeriesDataset(
        variable_names=names, values=_scaled(values, mean, std, names), target_mode=target_mode,
        scaler_mean=mean, scaler_std=std, split_bounds=split_bounds(values.shape[0], ratios),
        first_row=None if parsed else 0)


def scaler_dict(ds: TimeSeriesDataset) -> dict:
    """The fitted scaler as a checkpoint stores it; read back by
    :func:`load_csv_with_scaler`."""
    return {
        "variable_names": list(ds.variable_names),
        "mean": [float(v) for v in ds.scaler_mean],
        "std": [float(v) for v in ds.scaler_std],
    }


def window_origins(ds: TimeSeriesDataset, split: str, L: int, S: int) -> np.ndarray:
    """Valid window start rows for a split.

    A window at origin t consumes history [t, t+L) and targets
    [t+L, t+L+S). Targets must lie inside the split; history may extend
    back into the preceding split, the usual benchmark convention.
    """
    a, b = ds.bounds_of(split)
    first = max(0, a - L)
    last = b - L - S  # inclusive
    if last < first:
        return np.empty(0, dtype=np.intp)
    return np.arange(first, last + 1, dtype=np.intp)


def iter_batches(ds: TimeSeriesDataset, split: str, L: int, S: int, batch_size: int,
                 shuffle: bool = False, rng: np.random.Generator | None = None):
    """Yield every valid window of a split exactly once, in batches.

    The final partial batch is yielded as-is. With ``shuffle`` the origin
    order is a permutation drawn from ``rng``; without it origins are
    strictly increasing.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle and rng is None:
        raise UsageError("shuffle=True requires an rng")
    origins = window_origins(ds, split, L, S)
    if origins.size == 0:
        raise DataError(f"split {split!r} admits no windows for L={L}, S={S}")
    if shuffle:
        origins = rng.permutation(origins)
    by_var = np.ascontiguousarray(ds.values.T)  # so one gather is [batch x vars x L] in C order
    hist = np.lib.stride_tricks.sliding_window_view(by_var, L, axis=1).transpose(1, 0, 2)
    fut = np.lib.stride_tricks.sliding_window_view(by_var, S, axis=1).transpose(1, 0, 2)
    for i in range(0, origins.size, batch_size):
        idx = origins[i:i + batch_size]
        win, ahead = hist[idx], fut[idx + L]
        batch = WindowBatch(*_histories(ds, win),  # all columns are the gather itself, no copy
                            endo_future=np.ascontiguousarray(ahead[:, ds.endo]), origins=idx)
        del win, ahead  # the suspended generator would keep both whole gathers alive
        yield batch


def last_window(ds: TimeSeriesDataset, L: int) -> WindowBatch:
    """The trailing ``L`` rows as one window to forecast from; its origin is None when
    ``ds.first_row`` is."""
    if ds.n_rows < L:
        raise DataError(f"input has {ds.n_rows} rows; prediction needs the "
                        f"trailing L = {L} rows of every variable")
    win = np.ascontiguousarray(ds.values[-L:].T)[None]  # [1 x V x L]
    return WindowBatch(
        *_histories(ds, win),
        origins=None if ds.first_row is None else np.array([ds.first_row + ds.n_rows - L]),
    )


def _histories(ds: TimeSeriesDataset, win: np.ndarray) -> tuple:
    """(endogenous, exogenous) histories of windows ``win`` [batch x vars x L]: one array
    object in multivariate mode, where both are every column."""
    endo = np.ascontiguousarray(win[:, ds.endo])
    return endo, endo if ds.exo == ds.endo else np.ascontiguousarray(win[:, ds.exo])


def n_windows(ds: TimeSeriesDataset, split: str, L: int, S: int) -> int:
    return int(window_origins(ds, split, L, S).size)


def inverse_scale_forecast(ds: TimeSeriesDataset, yhat: np.ndarray) -> np.ndarray:
    """Map endogenous forecasts from z-score space back to original units.

    ``yhat`` is [batch x M x S] (or any array whose second axis indexes
    the endogenous variables).
    """
    if ds.scaler_mean is None or ds.scaler_std is None:
        raise UsageError("scaler not fitted; call split_and_scale first")
    std = ds.scaler_std[ds.endo].reshape(1, -1, 1)
    mean = ds.scaler_mean[ds.endo].reshape(1, -1, 1)
    return yhat * std + mean


def _cannot_write(path, e: OSError) -> IOFault:
    return IOFault(f"cannot write {path}: {e.strerror}")


def make_parent_dir(path):
    """Make the directory output ``path`` goes in, or raise an IOFault naming ``path``."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    except OSError as e:
        raise _cannot_write(path, e) from e


@contextlib.contextmanager
def output_file(path, binary: bool = False):
    """The one way outputs reach disk: make the parent directory, yield a handle on
    ``<path>.tmp`` and rename it onto ``path``. On failure the temp file is removed,
    ``path`` keeps its earlier bytes and an OSError becomes an IOFault naming it."""
    make_parent_dir(path)
    tmp = f"{path}.tmp"  # same directory, so the rename cannot cross filesystems
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:  # the write failed: drop its temp file, keep ``path``
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise _cannot_write(path, e) from e
        raise
