"""Loss, Adam, the piecewise learning-rate schedule, and the train loop."""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as dio
from . import model as mdl
from .errors import ConfigError, DimensionError, NumericFault
from .tensor import Tape, Tensor, backward, record, tmean


@dataclass
class TrainConfig:
    lr_init: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 3
    seed: int = 2025
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self):
        for name in ("lr_init", "eps"):
            v = getattr(self, name)
            if not v > 0:  # NaN fails too
                raise ConfigError(f"{name} must be > 0, got {v}")
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        return self


def mse_loss(yhat: Tensor, y: Tensor) -> Tensor:
    """Mean squared error over every entry of [batch x M x S].

    The per-channel means averaged over the M channels equal the grand
    mean, so one reduction covers both readings.
    """
    if yhat.shape != y.shape:
        raise DimensionError(f"loss shapes differ: {yhat.shape} vs {y.shape}")
    d = yhat - y
    return tmean(d * d)


def lr_schedule(lr_init: float, e: int) -> float:
    """Constant for the first three epochs, then decayed by 0.9 per epoch."""
    if e < 0:
        raise ConfigError(f"epoch index must be >= 0, got {e}")
    if e < 3:
        return lr_init
    return lr_init * 0.9 ** (e - 3)


class AdamState:
    """First/second moment buffers per parameter and the shared step count."""

    def __init__(self, params: mdl.XLinearParams):
        self.m = {name: np.zeros_like(t.data) for name, t in params.named()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named()}
        self.t = 0


def adam_step(params: mdl.XLinearParams, state: AdamState, lr: float, cfg: TrainConfig):
    """One bias-corrected Adam update from the accumulated grads; grads
    are zeroed afterwards."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.named():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p.zero_grad()


class EarlyStopper:
    """Tracks the best validation loss and a run of non-improving epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = -1
        self.bad_streak = 0

    def update(self, epoch: int, val_loss: float):
        """Returns (improved, should_stop)."""
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = epoch
            self.bad_streak = 0
            return True, False
        self.bad_streak += 1
        return False, self.bad_streak >= self.patience


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf
    stopped_early: bool = False

    CSV_HEADER = "epoch,lr,train_loss,val_loss,seconds"

    def as_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.lr!r},{r.train_loss!r},{r.val_loss!r},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.as_csv_text())


def _val_mse(params: mdl.XLinearParams, ds: dio.TimeSeriesDataset, L: int, S: int,
             batch_size: int) -> float:
    """Pooled eval-mode MSE over every validation window."""
    total = 0.0
    count = 0
    for batch in dio.iter_batches(ds, "val", L, S, batch_size):
        yhat, _ = mdl.forward(batch, params, training=False)
        err = yhat.data - batch.endo_future
        total += float((err * err).sum())
        count += err.size
    return total / count


def train(model_cfg: mdl.ModelConfig, train_cfg: TrainConfig, ds: dio.TimeSeriesDataset,
          echo: bool = True):
    """Run the full optimization and return (params at best epoch, TrainLog).

    All randomness (parameter init, batch shuffling, dropout masks)
    derives from ``train_cfg.seed``, so a rerun with the same config and
    data reproduces the trajectory bit for bit. Training stops when the
    validation loss has not improved for ``patience`` consecutive epochs,
    or at ``max_epochs``.
    """
    model_cfg.validate()
    train_cfg.validate()
    L, S = model_cfg.lookback, model_cfg.horizon
    init_rng, shuffle_rng, dropout_rng = np.random.default_rng(train_cfg.seed).spawn(3)
    params = mdl.XLinearParams(model_cfg, init_rng)
    state = AdamState(params)
    stopper = EarlyStopper(train_cfg.patience)
    log = TrainLog()
    best_arrays = params.state_arrays()

    for e in range(train_cfg.max_epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(train_cfg.lr_init, e)
        total = 0.0
        count = 0
        batches = dio.iter_batches(ds, "train", L, S, train_cfg.batch_size,
                                   shuffle=True, rng=shuffle_rng)
        for bi, batch in enumerate(batches):
            tape = Tape()
            try:
                with record(tape):
                    yhat, _ = mdl.forward(batch, params, training=True, rng=dropout_rng)
                    loss = mse_loss(yhat, Tensor(batch.endo_future))
            except NumericFault as ex:
                raise NumericFault(f"{ex} (epoch {e}, batch {bi})") from ex
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise NumericFault(f"non-finite training loss (epoch {e}, batch {bi})")
            backward(loss, tape)
            adam_step(params, state, lr, train_cfg)
            total += loss_val * len(batch)
            count += len(batch)
        train_loss = total / count
        val_loss = _val_mse(params, ds, L, S, train_cfg.batch_size)
        if not math.isfinite(val_loss):
            raise NumericFault(f"non-finite validation loss (epoch {e})")
        seconds = time.perf_counter() - t0
        log.records.append(EpochRecord(e, lr, train_loss, val_loss, seconds))
        if echo:
            print(f"epoch {e}: lr {lr:.6g} train_loss {train_loss:.6f} "
                  f"val_loss {val_loss:.6f} ({seconds:.1f}s)", file=sys.stderr)
        improved, stop = stopper.update(e, val_loss)
        if improved:
            best_arrays = params.state_arrays()
        if stop:
            log.stopped_early = True
            break

    log.best_epoch = stopper.best_epoch
    log.best_val_loss = stopper.best
    params.load_state_arrays(best_arrays)
    return params, log
