"""XLinear: long-term time-series forecasting with gated MLPs and
learnable global tokens, on a self-contained float64 autodiff engine."""

from .data import TimeSeriesDataset, WindowBatch, inverse_scale_forecast, iter_batches, \
    load_csv, split_and_scale
from .errors import ConfigError, DataError, DimensionError, IOFault, \
    MetricUndefinedError, NumericFault, UsageError, XLinearError
from .metrics import MetricsReport, evaluate, kge, mape, mse_mae, nse
from .model import ForwardTrace, ModelConfig, XLinearParams, export_gating_weights, \
    forward, predictor
from .tensor import Tape, Tensor, backward, grad_check, record
from .training import AdamState, TrainConfig, TrainLog, adam_step, lr_schedule, \
    mse_loss, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ConfigError", "DataError", "DimensionError", "ForwardTrace",
    "IOFault", "MetricUndefinedError", "MetricsReport", "ModelConfig",
    "NumericFault", "Tape", "Tensor", "TimeSeriesDataset", "TrainConfig",
    "TrainLog", "UsageError", "WindowBatch", "XLinearError", "XLinearParams",
    "adam_step", "backward", "evaluate", "export_gating_weights", "forward",
    "grad_check", "inverse_scale_forecast", "iter_batches", "kge", "load_csv",
    "lr_schedule", "mape", "mse_loss", "mse_mae", "nse", "predictor", "record",
    "split_and_scale", "train",
]
