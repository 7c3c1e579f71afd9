"""Loss, Adam, the piecewise learning-rate schedule, and the train loop.

Each optimizer batch runs as sub-batches of at most ``STEP_BLOCK_FLOATS``
hidden floats whose gradients add up in the parameter leaves before one
Adam step, so a training step never holds a full-size hidden layer; each
sub-batch reads its rows of the dropout masks that :func:`train` draws for
the whole batch first, the one place a Generator becomes masks.
Each epoch's validation loss is :func:`xlinear.metrics.pooled_mse` over the
validation split, the same walk that ``evaluate`` scores.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as dio
from . import metrics as mx
from . import model as mdl
from .errors import ConfigError, DimensionError, NumericFault
from .tensor import Tape, Tensor, backward, draw_keep, record, tsum

STEP_BLOCK_FLOATS = 1 << 19  # hidden floats per training sub-batch: 4 MB
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 3
    seed: int = 2025

    def __post_init__(self):
        if not self.lr_init > 0:  # NaN fails too
            raise ConfigError(f"lr_init must be > 0, got {self.lr_init}")
        if not math.isfinite(self.lr_init):
            raise ConfigError(f"lr_init must be finite, got {self.lr_init}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def mse_loss(yhat: Tensor, y: Tensor, count: int | None = None) -> Tensor:
    """Mean squared error over every entry of [batch x M x S].

    The per-channel means averaged over the M channels equal the grand
    mean, so one reduction covers both readings. A sub-batch passes its
    whole batch's entry ``count``, so the sub-batch losses sum to the batch's.
    """
    if yhat.shape != y.shape:
        raise DimensionError(f"loss shapes differ: {yhat.shape} vs {y.shape}")
    d = yhat - y
    return tsum(d * d) / (d.size if count is None else count)


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


def adam_step(params: mdl.XLinearParams, state: AdamState, lr: float):
    """One bias-corrected Adam update from the accumulated grads; grads
    are zeroed afterwards. A parameter no pull reached (``grad`` None) has a zero
    gradient: its moments still decay.

    The update ``lr * (m / bc1) / (sqrt(v / bc2) + eps)`` is built in two buffers per
    parameter, one operation at a time in that order, so it has the bits of the expression.
    A gradient with a NaN or infinite entry raises :class:`NumericFault` naming its
    parameter, before any parameter or moment changes.
    """
    for name, p in params.named():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericFault(f"non-finite gradient of parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.named():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        den = np.empty_like(v)
        if g is not None:
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=den)
            np.multiply(g, 1.0 - ADAM_BETA2, out=den)
            den *= g
            v += den
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        upd = np.divide(m, bc1)
        upd *= lr
        upd /= den
        p.data -= upd
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
        with dio.output_file(path) as fh:
            fh.write(self.as_csv_text())


def sub_batch_windows(cfg: mdl.ModelConfig) -> int:
    """Windows per training sub-batch: the most whose largest hidden layer, the VGM's
    ``d_model x c_ff`` or the TGM's ``M x t_ff`` floats per window, fits in
    ``STEP_BLOCK_FLOATS``."""
    return max(1, STEP_BLOCK_FLOATS // max(cfg.d_model * cfg.c_ff, cfg.n_endo * cfg.t_ff))


def accumulate_gradients(params: mdl.XLinearParams, batch: dio.WindowBatch, masks: dict) -> float:
    """Add one batch's MSE gradient to the parameter leaves and return its loss.

    The batch runs as consecutive sub-batches of :func:`sub_batch_windows` windows, each
    taped, scored against the whole batch's entry count and pulled back on its own, so no
    step holds a full-size hidden layer. Each reads its rows of ``masks``, the whole batch's
    keep mask of each site of :func:`xlinear.model.dropout_sites`, by name.
    """
    n, step = len(batch), sub_batch_windows(params.cfg)
    total = 0.0
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        endo = batch.endo_history[rows]
        exo = endo if batch.exo_history is batch.endo_history else batch.exo_history[rows]
        sub = dio.WindowBatch(endo, exo, batch.endo_future[rows])
        tape = Tape()
        with record(tape):
            yhat, _ = mdl.forward(sub, params, training=True,
                                  masks={site: keep[rows] for site, keep in masks.items()})
            loss = mse_loss(yhat, Tensor(sub.endo_future), batch.endo_future.size)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise NumericFault("non-finite training loss")
        backward(loss, tape)
        total += loss_val
    return total


def train(model_cfg: mdl.ModelConfig, train_cfg: TrainConfig, ds: dio.TimeSeriesDataset,
          echo: bool = True):
    """Run the full optimization and return (params at best epoch, TrainLog).

    All randomness (parameter init, batch shuffling, dropout masks)
    derives from ``train_cfg.seed``, so a rerun with the same config and
    data reproduces the trajectory bit for bit. Training stops when the
    validation loss has not improved for ``patience`` consecutive epochs,
    or at ``max_epochs``.
    """
    L, S = model_cfg.lookback, model_cfg.horizon
    init_rng, shuffle_rng, dropout_rng = np.random.default_rng(train_cfg.seed).spawn(3)
    params = mdl.XLinearParams(model_cfg, init_rng)
    state = AdamState(params)
    stopper = EarlyStopper(train_cfg.patience)
    log = TrainLog()
    best_arrays = params.state_arrays()
    sites = mdl.dropout_sites(model_cfg, min(train_cfg.batch_size, dio.n_windows(ds, "train", L, S)))
    buffers = {site: np.empty(shape, bool) for site, (shape, _) in sites.items()}

    for e in range(train_cfg.max_epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(train_cfg.lr_init, e)
        total = 0.0
        count = 0
        batches = dio.iter_batches(ds, "train", L, S, train_cfg.batch_size,
                                   shuffle=True, rng=shuffle_rng)
        for bi, batch in enumerate(batches):
            masks = {site: draw_keep(buffers[site][:len(batch)], rate, dropout_rng)
                     for site, (_, rate) in sites.items()}
            try:
                loss_val = accumulate_gradients(params, batch, masks)
                adam_step(params, state, lr)
            except NumericFault as ex:
                raise NumericFault(f"{ex} (epoch {e}, batch {bi})") from ex
            total += loss_val * len(batch)
            count += len(batch)
        train_loss = total / count
        val_loss = mx.pooled_mse(mdl.predictor(params, model_cfg), ds, "val", L, S)
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
