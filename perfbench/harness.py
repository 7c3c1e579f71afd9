"""The three benchmark workloads, their output checks and their metrics.

Every workload runs the same operations in one process, through the
library's public entry points, on seeded synthetic ETT-shaped CSVs:

- set-up: ``data.load_csv``, ``data.split_and_scale``, parameter init
  and ``checkpoint.save_checkpoint``;
- training: one fixed ``training.train`` run;
- inference: one closed-loop client calling ``cli.main`` in-process
  against the trained checkpoint, one cycle being ``predict`` on the
  full-history CSV, ``predict`` on its trailing-L-row copy, and
  ``eval --split test``.

After an untimed warm-up of each, the measured loop runs a set-up before
every operation, until the seconds are up, and interleaves one training
run per ``cycles_per_train`` inference cycles of the workload, so every
metric samples the whole run on a host whose speed drifts by tens of
percent from second to second. ``train_m`` and ``train_ms`` (multivariate
and last-column-endogenous mode) train every 6 cycles; ``infer`` runs
``train_m``'s operations but trains every 8, so its inference figures get
more samples. Each workload reports every end-to-end metric.

With tracing on, training runs and inference cycles alternate between
untraced and traced; per-layer metrics come from the traced ones, and
the ratio of the two medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from xlinear import checkpoint as ckpt_io
from xlinear import cli
from xlinear import data as dio
from xlinear import metrics as mx
from xlinear import model as mdl
from xlinear import training as tr
from xlinear.config import RunConfig

import synth
from tracer import Tracer, layer_metrics

TRAIN_SEED = 2025  # the README's reproduction seed; inputs vary with --seed
SPLIT = (0.6, 0.2, 0.2)
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


@dataclass(frozen=True)
class Size:
    """Input and model size of a run."""

    rows: int  # rows of the full-history CSV
    train_rows: int  # ``limit_rows`` of the run config: rows split for train/val/test
    lookback: int
    horizon: int
    d_model: int
    t_ff: int
    c_ff: int
    batch_size: int


# The reproduction model of the README and configs/, on ETTh-length history.
REPRO = Size(rows=14400, train_rows=1800, lookback=96, horizon=96, d_model=128, t_ff=256,
             c_ff=128, batch_size=128)
# For the benchmark's own tests.
TINY = Size(rows=400, train_rows=300, lookback=16, horizon=8, d_model=8, t_ff=16, c_ff=8,
            batch_size=32)


@dataclass(frozen=True)
class Workload:
    target_mode: str
    cycles_per_train: int  # inference cycles between two training runs


WORKLOADS = {
    "train_m": Workload("multivariate", 6),
    "train_ms": Workload("last-column-endogenous", 6),
    "infer": Workload("multivariate", 8),
}
MIN_TIMED_TRAINS = 2  # untraced training runs
MIN_CYCLES = 20  # untraced and traced inference cycles
FORECAST_RTOL = 1e-9  # forecast against the harness's own forward of the checkpoint

CALLS = ("predict_hist", "predict_win", "eval")


def tail(samples):
    """(value, percentile, n) at the highest percentile that leaves
    ``TAIL_SAMPLES`` samples above it; the maximum when there are fewer."""
    xs = sorted(samples)
    k = len(xs) - TAIL_SAMPLES
    if k < 1:
        return xs[-1], 100.0, len(xs)
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def run_config(size: Size, target_mode: str, csv_path: str, out_dir: str) -> RunConfig:
    return RunConfig.from_dict({
        "data": {"csv_path": csv_path, "target_mode": target_mode,
                 "split_ratios": list(SPLIT), "limit_rows": size.train_rows},
        "model": {"horizon": size.horizon, "lookback": size.lookback,
                  "d_model": size.d_model, "t_ff": size.t_ff, "c_ff": size.c_ff,
                  "embed_dropout": 0.1, "t_dropout": 0.1, "c_dropout": 0.1,
                  "head_dropout": 0.1, "gate_activation": "sigmoid", "ablation": "full"},
        "train": {"lr_init": 5e-4, "batch_size": size.batch_size, "max_epochs": 1,
                  "patience": 3, "seed": TRAIN_SEED},
        "out_dir": out_dir,
    })


def _scaler(ds) -> dict:
    return {"variable_names": list(ds.variable_names),
            "mean": [float(v) for v in ds.scaler_mean],
            "std": [float(v) for v in ds.scaler_std]}


def _meta(cfg, params, log=None) -> dict:
    return {"n_endo": cfg.n_endo, "n_exo": cfg.n_exo, "n_parameters": params.n_parameters(),
            "best_epoch": log.best_epoch if log else -1,
            "best_val_loss": log.best_val_loss if log else None,
            "stopped_early": log.stopped_early if log else False,
            "epochs_run": len(log.records) if log else 0}


def _setup_once(run_cfg: RunConfig, ckpt_path: str):
    """The set-up a user pays before training or serving; returns
    (seconds, dataset, model config, initial params)."""
    t0 = time.perf_counter()
    d = run_cfg.data
    ds = dio.load_csv(d.csv_path, d.target_mode, d.limit_rows, d.date_column)
    ds = dio.split_and_scale(ds, d.split_ratios, run_cfg.model["lookback"],
                             run_cfg.model["horizon"])
    cfg = run_cfg.model_config(ds.n_endo, ds.n_exo)
    init_rng = np.random.default_rng(run_cfg.train.seed).spawn(3)[0]  # as training.train
    params = mdl.XLinearParams(cfg, init_rng)
    ckpt_io.save_checkpoint(ckpt_path, params, run_cfg.resolved_dict(), _scaler(ds),
                            _meta(cfg, params))
    return time.perf_counter() - t0, ds, cfg, params


def _read_forecast(path, names, horizon):
    """Forecast cells as an [S x M] array, or a reason it is malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        return None, f"cannot read forecast: {e}"
    if not lines or lines[0] != "step," + ",".join(names):
        return None, "forecast header does not name the endogenous columns"
    rows = lines[1:]
    if len(rows) != horizon:
        return None, f"forecast has {len(rows)} rows, expected {horizon}"
    try:
        cells = np.array([[float(c) for c in r.split(",")[1:]] for r in rows])
    except ValueError:
        return None, "forecast has a non-numeric cell"
    if cells.shape != (horizon, len(names)) or not np.isfinite(cells).all():
        return None, f"forecast is not {horizon} x {len(names)} finite cells"
    return cells, None


class Run:
    """One benchmark run of one workload; see the module docstring."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: str, size: Size = REPRO):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = work_dir
        self.tracer = Tracer()
        self.attempted = 0
        self.failures = []  # (operation, reason)
        self.ckpt_path = os.path.join(work_dir, "checkpoint.bin")
        self.setup_ckpt = os.path.join(work_dir, "setup_checkpoint.bin")
        self.expected_forecast = None
        self.final_val_mse = None
        self.setup_times = []
        self.train_times = {False: [], True: []}  # traced? -> seconds per training run
        self.cycle_times = {False: [], True: []}  # traced? -> seconds per inference cycle
        self.cycles = 0
        self.call_ms = {c: [] for c in CALLS}

    def _fail(self, op, reason):
        self.failures.append((op, reason))

    def _traced(self, on: bool):
        return self.tracer.active() if on else contextlib.nullcontext()

    # -- phases --------------------------------------------------------------

    def prepare(self):
        """Untimed: inputs, one set-up, the untrained baseline, a warm-up
        training run whose checkpoint the inference calls use, and one
        warm-up inference cycle."""
        full, tail_csv = synth.write_inputs(self.work, self.size.rows, self.size.lookback,
                                            self.seed)
        self.inputs = {"predict_hist": full, "predict_win": tail_csv}
        self.run_cfg = run_config(self.size, self.wl.target_mode, full,
                                  os.path.join(self.work, "runs"))
        _, self.ds, self.cfg, init = _setup_once(self.run_cfg, self.setup_ckpt)
        L, S = self.size.lookback, self.size.horizon
        self.untrained_val = mx.evaluate(mdl.predictor(init, self.cfg), self.ds, "val",
                                         L, S).aggregate["mse"]
        params, log, _ = self._train()
        ckpt_io.save_checkpoint(self.ckpt_path, params, self.run_cfg.resolved_dict(),
                                _scaler(self.ds), _meta(self.cfg, params, log))
        self.checkpoint_bytes = os.path.getsize(self.ckpt_path)
        restored = ckpt_io.params_from_checkpoint(ckpt_io.load_checkpoint(self.ckpt_path),
                                                  self.cfg)
        self.expected_metrics = mx.evaluate(mdl.predictor(restored, self.cfg), self.ds,
                                            "test", L, S).as_csv_text()
        self.expected_forecast = self._expected_forecast(restored)
        self.eval_windows = dio.n_windows(self.ds, "test", L, S)
        self.windows_per_run = dio.n_windows(self.ds, "train", L, S) * len(log.records)
        for name in CALLS:
            self._call(name)

    def _expected_forecast(self, params):
        """[S x M] forecast of the last L rows of the full history, from the
        CSV text, the checkpoint's scaler and ``model.forward``."""
        with open(self.inputs["predict_hist"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()[-self.size.lookback:]
        values = np.array([[float(c) for c in r.split(",")[1:]] for r in rows])
        mean, std = self.ds.scaler_mean, self.ds.scaler_std
        win = ((values - mean) / std).T  # [V x L]
        v = win.shape[0]
        if self.wl.target_mode == "multivariate":
            endo = exo = list(range(v))
        else:
            endo, exo = [v - 1], list(range(v - 1))
        yhat = mdl.predictor(params, self.cfg)(np.ascontiguousarray(win[endo][None]),
                                               np.ascontiguousarray(win[exo][None]))
        return (yhat[0] * std[endo][:, None] + mean[endo][:, None]).T

    def _next_op(self, time_up):
        """"train", "cycle", or None when the measured loop is done."""
        untraced = len(self.train_times[False])
        if time_up and untraced >= MIN_TIMED_TRAINS and self.cycles >= MIN_CYCLES:
            return None
        trains = untraced + len(self.train_times[True])
        return "train" if self.cycles >= trains * self.wl.cycles_per_train else "cycle"

    def measure(self):
        """The measured loop: a set-up before every operation, training runs
        and inference cycles as the workload mixes them, each alternately
        untraced and traced when tracing."""
        deadline = time.perf_counter() + self.seconds
        while (op := self._next_op(time.perf_counter() >= deadline)) is not None:
            if op == "train":
                traced = self.trace and len(self.train_times[False]) > len(self.train_times[True])
                with self._traced(traced):
                    self.setup_times.append(_setup_once(self.run_cfg, self.setup_ckpt)[0])
                    _, _, dt = self._train()
                self.train_times[traced].append(dt)
            else:
                traced = self.trace and self.cycles % 2 == 1
                with self._traced(traced):
                    self.setup_times.append(_setup_once(self.run_cfg, self.setup_ckpt)[0])
                    total = 0.0
                    for name in CALLS:
                        dt, ok = self._call(name)
                        total += dt
                        if ok:
                            self.call_ms[name].append(1e3 * dt)
                self.cycle_times[traced].append(total)
                self.cycles += 1

    def _train(self):
        """One fixed ``training.train`` run, checked; (params, log, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        params, log = tr.train(self.cfg, self.run_cfg.train, self.ds, echo=False)
        dt = time.perf_counter() - t0
        self._check_training(log.best_val_loss)
        return params, log, dt

    def _check_training(self, val):
        if not math.isfinite(val):
            self._fail("train", f"final_val_mse {val!r} is not finite")
        elif not val < self.untrained_val:
            self._fail("train", f"final_val_mse {val!r} is not below the untrained "
                                f"model's {self.untrained_val!r}")
        elif self.final_val_mse is None:
            self.final_val_mse = val
        elif val != self.final_val_mse:
            self._fail("train", f"same seed gave final_val_mse {val!r}, "
                                f"earlier {self.final_val_mse!r}")

    def _call(self, name):
        """One closed-loop ``cli.main`` call, checked; (seconds, passed)."""
        out_dir = os.path.join(self.work, name)
        os.makedirs(out_dir, exist_ok=True)
        out_file = os.path.join(out_dir, "metrics_test.csv" if name == "eval" else "forecast.csv")
        if os.path.exists(out_file):
            os.remove(out_file)
        if name == "eval":
            argv = ["eval", "--checkpoint", self.ckpt_path, "--split", "test"]
        else:
            argv = ["predict", "--checkpoint", self.ckpt_path, "--input", self.inputs[name]]
        argv += ["--out-dir", out_dir]
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejects its arguments this way
                code = e.code
            dt = time.perf_counter() - t0
        reason = self._check_call(name, code, stderr.getvalue(), out_file)
        if reason:
            self._fail(name, reason)
        return dt, reason is None

    def _check_call(self, name, code, err, out_file):
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        if "error[" in err:
            return f"error line on stderr: {err.strip()[:200]}"
        if name == "eval":
            with open(out_file, encoding="utf-8") as fh:
                if fh.read() != self.expected_metrics:
                    return "metrics_test.csv differs from metrics.evaluate of the checkpoint"
            return None
        cells, reason = _read_forecast(out_file, self.ds.endo_names, self.size.horizon)
        if reason:
            return reason
        # the trailing-L copy holds the same last L rows, so both match
        if not np.allclose(cells, self.expected_forecast, rtol=FORECAST_RTOL, atol=0.0):
            return "forecast differs from model.forward of the checkpoint on the last L rows"
        return None

    # -- results -------------------------------------------------------------

    def execute(self):
        self.prepare()
        self.measure()

    def end_to_end(self):
        m = {"setup_s": min(self.setup_times),
             "train_windows_per_s": _per(self.windows_per_run, _min(self.train_times[False])),
             "final_val_mse": self.final_val_mse,
             "predict_hist_ms_min": _min(self.call_ms["predict_hist"]),
             "predict_win_ms_min": _min(self.call_ms["predict_win"]),
             "eval_windows_per_s": _per(1e3 * self.eval_windows, _min(self.call_ms["eval"])),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        latency = {}
        for name in ("predict_hist", "predict_win"):
            ms = self.call_ms[name]
            if ms:
                value, pct, n = tail(ms)
                latency[name] = {"p50_ms": statistics.median(ms), "mean_ms": statistics.fmean(ms),
                                 "tail_ms": value, "tail_percentile": round(pct, 1),
                                 "samples": n}
        return m, latency

    def per_layer(self):
        return layer_metrics(self.tracer, self.checkpoint_bytes)

    def trace_overhead(self):
        """Traced over untraced median time, in percent, of a training run
        and of an inference cycle; a handful of samples, so only printed."""
        return {"train_pct": _overhead(self.train_times),
                "infer_pct": _overhead(self.cycle_times)}

    def summary(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "error_rate": len(self.failures) / max(self.attempted, 1),
                "failures": self.failures[:20],
                "timed_training_runs": sum(map(len, self.train_times.values())),
                "timed_inference_cycles": self.cycles,
                "setup_reps": len(self.setup_times),
                "samples": {"setup_s": self.setup_times, "train_s": self.train_times[False],
                            **{f"{c}_ms": v for c, v in self.call_ms.items()}},
                "untrained_val_mse": self.untrained_val}


def _min(xs):
    """Best of a run's samples; see README.md for why timings use it.
    None when every operation of the kind failed."""
    return min(xs) if xs else None


def _per(work, seconds):
    return None if seconds is None else work / seconds


def _overhead(times):
    if not times[True] or not times[False]:
        return None
    return 100.0 * (statistics.median(times[True]) / statistics.median(times[False]) - 1.0)
