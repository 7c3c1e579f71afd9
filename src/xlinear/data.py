"""CSV ingestion, train/val/test splitting, scaling, and window batching.

Training fits the scaler (:func:`load_csv`, :func:`split_and_scale`);
eval, predict and export-weights reapply the one a checkpoint stored
(:func:`load_csv_with_scaler`, :func:`last_window`).
"""

from __future__ import annotations

import csv
import math
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
    timestamps: tuple | None = None
    scaler_mean: np.ndarray | None = None
    scaler_std: np.ndarray | None = None
    split_bounds: tuple | None = None  # ((a,b) train, (a,b) val, (a,b) test)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    @property
    def endo_indices(self) -> tuple:
        if self.target_mode == "multivariate":
            return tuple(range(self.n_variables))
        return (self.n_variables - 1,)

    @property
    def exo_indices(self) -> tuple:
        if self.target_mode == "multivariate":
            return tuple(range(self.n_variables))
        return tuple(range(self.n_variables - 1))

    @property
    def n_endo(self) -> int:
        return len(self.endo_indices)

    @property
    def n_exo(self) -> int:
        return len(self.exo_indices)

    @property
    def endo_names(self) -> tuple:
        return tuple(self.variable_names[i] for i in self.endo_indices)

    @property
    def exo_names(self) -> tuple:
        return tuple(self.variable_names[i] for i in self.exo_indices)

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
    exo_history: np.ndarray  # [batch x C x L]
    endo_future: np.ndarray | None = None  # [batch x M x S]; None when forecasting
    origins: np.ndarray | None = None  # window start rows, maps windows back to the CSV

    def __len__(self):
        return self.endo_history.shape[0]


def read_csv_values(path, limit_rows: int | None = None, date_column: str = "date"):
    """Parse a series CSV into (variable names, [rows x vars] float64,
    timestamps or None). Rejects ragged rows and non-numeric or
    non-finite cells with 1-based file line numbers and column names.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as e:
        raise DataError(f"cannot open dataset file {path}: {e.strerror}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        has_date = bool(header) and header[0] == date_column
        names = header[1:] if has_date else header
        if not names:
            raise DataError(f"{path}: no value columns in header")

        rows, stamps = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:  # tolerate blank trailing lines
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}, line {line_no}: ragged row, expected "
                    f"{len(header)} cells, got {len(row)}")
            if has_date:
                stamps.append(row[0])
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
    values = np.asarray(rows, dtype=np.float64)
    return tuple(names), values, tuple(stamps) if has_date else None


def load_csv(path, target_mode: str = "multivariate", limit_rows: int | None = None,
             date_column: str = "date") -> TimeSeriesDataset:
    """Read a UTF-8 comma-separated series file into a dataset.

    Parameters
    ----------
    path : str or Path
        File with a header row; an optional leading ``date`` column is
        kept as timestamps and excluded from the value matrix.
    target_mode : str
        ``multivariate``: every variable is both endogenous and
        exogenous. ``last-column-endogenous``: the final column is the
        sole endogenous variable, all others exogenous.
    limit_rows : int, optional
        Keep only the first ``limit_rows`` data rows.

    Raises
    ------
    DataError
        Missing file, ragged rows, non-numeric or non-finite cells,
        constant columns.
    """
    if target_mode not in TARGET_MODES:
        raise ConfigError(f"target_mode must be one of {TARGET_MODES}, got {target_mode!r}")
    names, values, stamps = read_csv_values(path, limit_rows, date_column)

    constant = [names[j] for j in range(values.shape[1])
                if values[:, j].min() == values[:, j].max()]
    if constant:
        raise DataError(f"{path}: constant column(s) {', '.join(repr(c) for c in constant)}; "
                        "a constant series cannot be standardized")
    return TimeSeriesDataset(
        variable_names=names,
        values=values,
        target_mode=target_mode,
        timestamps=stamps,
    )


def split_bounds(n: int, ratios) -> tuple:
    """Row bounds ((0, a), (a, b), (b, n)) of train/val/test.

    The cumulative ratios are rounded, so (0.6, 0.2, 0.2) on 14400 rows
    gives exactly 8640/11520/14400.
    """
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # NaN fails r > 0
        raise ConfigError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios} (sum {sum(ratios)})")
    train_end = round(n * ratios[0])
    val_end = round(n * (ratios[0] + ratios[1]))
    return ((0, train_end), (train_end, val_end), (val_end, n))


def split_and_scale(ds: TimeSeriesDataset, ratios, lookback: int | None = None,
                    horizon: int | None = None) -> TimeSeriesDataset:
    """Split rows by ratio (:func:`split_bounds`), fit a z-score scaler on
    train rows only, and transform every row.

    When ``lookback`` and ``horizon`` are passed, each split must admit
    at least one window (val/test windows may reach back ``lookback``
    rows for history).
    """
    n = ds.n_rows
    bounds = split_bounds(n, ratios)
    train_end, val_end = bounds[1]
    if lookback is not None and horizon is not None:
        need = lookback + horizon
        for name, (a, b) in zip(("train", "val", "test"), bounds):
            usable = b - max(0, a - lookback)
            if usable < need:
                raise DataError(
                    f"{name} split has {usable} usable rows but a window needs "
                    f"at least L+S = {need}")
    elif min(train_end, val_end - train_end, n - val_end) < 1:
        raise DataError(f"dataset with {n} rows is too short for ratios {ratios}")

    train = ds.values[:train_end]
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # population divisor; consistent with inverse
    # min==max catches constant train columns whose std is roundoff, not 0
    flat = [ds.variable_names[j] for j in range(ds.n_variables)
            if std[j] == 0.0 or train[:, j].min() == train[:, j].max()]
    if flat:
        raise DataError("constant train-split column(s) "
                        f"{', '.join(repr(c) for c in flat)}; scaler std would be zero")
    return replace(ds, values=(ds.values - mean) / std,
                   scaler_mean=mean, scaler_std=std, split_bounds=bounds)


def load_csv_with_scaler(path, scaler: dict, target_mode: str, ratios,
                         limit_rows: int | None = None,
                         date_column: str = "date") -> TimeSeriesDataset:
    """Read a series CSV into the scaled space of a stored scaler.

    ``scaler`` is a checkpoint's :func:`scaler_dict`. The file's columns
    must match its variables; the stored statistics are applied as they
    are, never refit, and constant columns are allowed, so any file is
    scored in the space the model was trained in. Split bounds follow
    ``ratios`` as in :func:`split_and_scale`.
    """
    names, values, stamps = read_csv_values(path, limit_rows, date_column)
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
    return TimeSeriesDataset(
        variable_names=names, values=(values - mean) / std, target_mode=target_mode,
        timestamps=stamps, scaler_mean=mean, scaler_std=std,
        split_bounds=split_bounds(values.shape[0], ratios))


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
    hist = np.lib.stride_tricks.sliding_window_view(ds.values, L, axis=0)
    fut = np.lib.stride_tricks.sliding_window_view(ds.values, S, axis=0)
    endo = list(ds.endo_indices)
    exo = list(ds.exo_indices)
    for i in range(0, origins.size, batch_size):
        idx = origins[i:i + batch_size]
        yield WindowBatch(
            endo_history=np.ascontiguousarray(hist[idx][:, endo, :]),
            exo_history=np.ascontiguousarray(hist[idx][:, exo, :]),
            endo_future=np.ascontiguousarray(fut[idx + L][:, endo, :]),
            origins=idx,
        )


def last_window(ds: TimeSeriesDataset, L: int) -> WindowBatch:
    """The trailing ``L`` rows as one window to forecast from."""
    if ds.n_rows < L:
        raise DataError(f"input has {ds.n_rows} rows; prediction needs the "
                        f"trailing L = {L} rows of every variable")
    win = ds.values[-L:].T  # [V x L]
    return WindowBatch(
        endo_history=np.ascontiguousarray(win[list(ds.endo_indices)][None]),
        exo_history=np.ascontiguousarray(win[list(ds.exo_indices)][None]),
        origins=np.array([ds.n_rows - L]),
    )


def n_windows(ds: TimeSeriesDataset, split: str, L: int, S: int) -> int:
    return int(window_origins(ds, split, L, S).size)


def inverse_scale_forecast(ds: TimeSeriesDataset, yhat: np.ndarray) -> np.ndarray:
    """Map endogenous forecasts from z-score space back to original units.

    ``yhat`` is [batch x M x S] (or any array whose second axis indexes
    the endogenous variables).
    """
    if ds.scaler_mean is None or ds.scaler_std is None:
        raise UsageError("scaler not fitted; call split_and_scale first")
    idx = list(ds.endo_indices)
    std = ds.scaler_std[idx].reshape(1, -1, 1)
    mean = ds.scaler_mean[idx].reshape(1, -1, 1)
    return yhat * std + mean

