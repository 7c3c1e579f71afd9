"""Forecast-quality metrics: MSE, MAE, NSE, KGE, MAPE.

Series-level functions operate on 1-D float arrays. :func:`evaluate` pools
every (window, step) prediction point per endogenous variable over a dataset
split, computes the five metrics per variable, and averages them across
variables. It and :func:`pooled_mse` walk the split through :func:`split_forecasts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as dio
from .errors import MetricUndefinedError, UsageError

METRIC_NAMES = ("mse", "mae", "nse", "kge", "mape")

MAPE_EPS = 1e-8

# windows per scoring batch: a batch's [batch x M x 2*d_model] arrays stay inside a 2 MB
# L2 cache at the reproduction size (d_model 128, M = 7)
EVAL_BATCH = 64


def _series(y, yhat, min_len: int = 1):
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if y.size != yhat.size:
        raise UsageError(f"series lengths differ: {y.size} vs {yhat.size}")
    if y.size < min_len:
        raise UsageError(f"need at least {min_len} points, got {y.size}")
    return y, yhat


def mse_mae(y, yhat):
    """Mean squared and mean absolute pointwise error."""
    y, yhat = _series(y, yhat)
    err = y - yhat
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))


def nse(y, yhat) -> float:
    """Nash-Sutcliffe efficiency: 1 - sum((y-yhat)^2) / sum((y-mean(y))^2).

    1 is a perfect forecast, 0 ties the mean predictor. Undefined for a
    constant observed series.
    """
    y, yhat = _series(y, yhat, min_len=2)
    dev = y - y.mean()
    denom = float(dev @ dev)
    # min==max catches constants the variance misses when the mean of n
    # identical floats rounds an ulp away from their common value
    if denom == 0.0 or y.min() == y.max():
        raise MetricUndefinedError("NSE undefined: observed series is constant")
    err = y - yhat
    return 1.0 - float(err @ err) / denom


def kge(y, yhat) -> float:
    """Kling-Gupta efficiency: 1 - sqrt((r-1)^2 + (a-1)^2 + (b-1)^2).

    r is the Pearson correlation, a the ratio of standard deviations
    (population divisor on both sides), b the ratio of means.
    """
    y, yhat = _series(y, yhat, min_len=2)
    dy = y - y.mean()
    dh = yhat - yhat.mean()
    var_y = float((dy * dy).mean())
    var_h = float((dh * dh).mean())
    mean_y = float(y.mean())
    if (var_y == 0.0 or var_h == 0.0
            or y.min() == y.max() or yhat.min() == yhat.max()):
        raise MetricUndefinedError("KGE undefined: a series is constant")
    if mean_y == 0.0:
        raise MetricUndefinedError("KGE undefined: observed mean is zero")
    cov = float((dy * dh).mean())
    # r written as a single quotient so a perfect forecast divides
    # bitwise-identical floats and lands on exactly 1.0
    r = math.copysign(math.sqrt(cov * cov / (var_y * var_h)), cov)
    alpha = math.sqrt(var_h / var_y)
    beta = float(yhat.mean()) / mean_y
    return 1.0 - float(np.sqrt((r - 1.0) ** 2 + (alpha - 1.0) ** 2 + (beta - 1.0) ** 2))


def mape_with_count(y, yhat):
    """Mean absolute percentage error (in percent) and the number of
    points excluded for |y| < 1e-8."""
    y, yhat = _series(y, yhat)
    keep = np.abs(y) >= MAPE_EPS
    excluded = int(y.size - keep.sum())
    if not keep.any():
        raise MetricUndefinedError("MAPE undefined: every observed value is ~0")
    val = float(np.mean(np.abs((y[keep] - yhat[keep]) / y[keep]))) * 100.0
    return val, excluded


def mape(y, yhat) -> float:
    return mape_with_count(y, yhat)[0]


@dataclass
class MetricsReport:
    """Per-variable and aggregated metrics over one evaluation split."""

    variable_names: tuple
    per_variable: dict  # name -> {metric -> float | None}
    aggregate: dict  # metric -> float | None
    mape_excluded: dict  # name -> int
    metric_errors: dict  # name -> {metric -> message}
    n_windows: int
    horizon: int
    scaled_space: bool

    CSV_HEADER = "variable,mse,mae,nse,kge,mape,mape_excluded"

    @staticmethod
    def _cell(v):
        return "nan" if v is None else f"{v:.10g}"

    def as_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for name in self.variable_names:
            row = self.per_variable[name]
            lines.append(name + "," + ",".join(self._cell(row[m]) for m in METRIC_NAMES)
                         + f",{self.mape_excluded[name]}")
        lines.append("aggregate," + ",".join(self._cell(self.aggregate[m]) for m in METRIC_NAMES)
                     + f",{sum(self.mape_excluded.values())}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with dio.output_file(path) as fh:
            fh.write(self.as_csv_text())

    def as_table_text(self) -> str:
        space = "scaled" if self.scaled_space else "original units"
        width = max(9, max(len(n) for n in self.variable_names) + 1, len("aggregate") + 1)
        head = (f"{'variable':<{width}}" + "".join(f"{m:>12}" for m in METRIC_NAMES))
        sep = "-" * len(head)
        lines = [f"metrics over {self.n_windows} windows, horizon {self.horizon} ({space})",
                 head, sep]

        def fmt(v):
            return "     nan" if v is None else f"{v:12.6f}"

        for name in self.variable_names:
            row = self.per_variable[name]
            lines.append(f"{name:<{width}}" + "".join(fmt(row[m]) for m in METRIC_NAMES))
        lines.append(sep)
        lines.append(f"{'aggregate':<{width}}"
                     + "".join(fmt(self.aggregate[m]) for m in METRIC_NAMES))
        total_excl = sum(self.mape_excluded.values())
        if total_excl:
            lines.append(f"mape excluded {total_excl} near-zero observed points")
        return "\n".join(lines) + "\n"


def _metrics_for(y: np.ndarray, yhat: np.ndarray):
    """All five metrics for one pooled series; failures recorded, not raised."""
    vals = dict.fromkeys(METRIC_NAMES)
    errors = {}
    excluded = 0
    vals["mse"], vals["mae"] = mse_mae(y, yhat)
    for name, fn in (("nse", nse), ("kge", kge)):
        try:
            vals[name] = fn(y, yhat)
        except MetricUndefinedError as ex:
            errors[name] = str(ex)
    try:
        vals["mape"], excluded = mape_with_count(y, yhat)
    except MetricUndefinedError as ex:
        errors["mape"] = str(ex)
    return vals, errors, excluded


def split_forecasts(model, ds: dio.TimeSeriesDataset, split: str, L: int, S: int):
    """Yield (prediction, truth) [batch x M x S] arrays for every stride-1 window of a split, in
    origin order and batches of ``EVAL_BATCH`` windows. ``model`` is a callable
    (endo_history, exo_history) -> prediction array (see model.predictor)."""
    for batch in dio.iter_batches(ds, split, L, S, EVAL_BATCH):
        yhat = model(batch.endo_history, batch.exo_history)
        y = batch.endo_future
        if yhat.shape != y.shape:
            raise UsageError(f"model returned shape {yhat.shape}, expected {y.shape}")
        yield yhat, y


def pooled_mse(model, ds: dio.TimeSeriesDataset, split: str, L: int, S: int) -> float:
    """Scaled-space MSE over every point of a split, summed batch by batch: no whole-split array."""
    total, count = 0.0, 0
    for yhat, y in split_forecasts(model, ds, split, L, S):
        total += float(np.square(yhat - y).sum())
        count += y.size
    return total / count


def evaluate(model, ds: dio.TimeSeriesDataset, split: str, L: int, S: int,
             scaled: bool = True) -> MetricsReport:
    """Score ``model`` over every stride-1 window of a split.

    Predictions and truths from :func:`split_forecasts` (with ``scaled=False`` mapped back to
    original units batch by batch) are pooled once, by one copy each, into [M x windows x S]
    arrays, so each variable's points are one contiguous row that every metric reads in
    place, in (window, step) order.
    """
    pairs = split_forecasts(model, ds, split, L, S)
    if not scaled:
        pairs = ((dio.inverse_scale_forecast(ds, yhat), dio.inverse_scale_forecast(ds, y))
                 for yhat, y in pairs)
    yhat, y = (np.concatenate([p.transpose(1, 0, 2) for p in parts], axis=1)
               for parts in zip(*pairs))
    names = ds.endo_names
    per_variable, metric_errors, mape_excluded = {}, {}, {}
    for j, n in enumerate(names):
        vals, errs, excl = _metrics_for(y[j], yhat[j])
        per_variable[n] = vals
        mape_excluded[n] = excl
        if errs:
            metric_errors[n] = errs
    aggregate = {}
    for m in METRIC_NAMES:
        defined = [per_variable[n][m] for n in names if per_variable[n][m] is not None]
        aggregate[m] = float(np.mean(defined)) if defined else None
    return MetricsReport(
        variable_names=names,
        per_variable=per_variable,
        aggregate=aggregate,
        mape_excluded=mape_excluded,
        metric_errors=metric_errors,
        n_windows=dio.n_windows(ds, split, L, S),
        horizon=S,
        scaled_space=scaled,
    )
