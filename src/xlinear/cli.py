"""Command-line interface.

Subcommands: train, eval, predict, ablate, export-weights. Every failure
path exits nonzero with a single ``error[<code>]: ...`` line on stderr;
exit codes are 0 success, 2 config, 3 data, 4 numeric fault, 5 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import traceback

from . import checkpoint as ckpt_io
from . import data as dio
from . import metrics as mx
from . import model as mdl
from . import training as tr
from .config import RunConfig, load_run_config
from .errors import ConfigError, UsageError, XLinearError

CHECKPOINT_NAME = "checkpoint.bin"
TRAINLOG_NAME = "train_log.csv"
RESOLVED_NAME = "resolved_config.json"


def _load_dataset(run_cfg: RunConfig):
    d = run_cfg.data
    ds = dio.load_csv(d.csv_path, d.target_mode, d.limit_rows, d.date_column)
    L = run_cfg.model["lookback"]
    S = run_cfg.model["horizon"]
    return dio.split_and_scale(ds, d.split_ratios, L, S)


def _apply_overrides(run_cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        run_cfg = dataclasses.replace(
            run_cfg, train=dataclasses.replace(run_cfg.train, seed=args.seed))
    if getattr(args, "out_dir", None) is not None:
        run_cfg = dataclasses.replace(run_cfg, out_dir=args.out_dir)
    if getattr(args, "scaled_metrics", None) is not None:
        run_cfg = dataclasses.replace(run_cfg, scaled_metrics=args.scaled_metrics)
    return run_cfg


def _train_once(run_cfg: RunConfig, ds):
    cfg = run_cfg.model_config(ds.n_endo, ds.n_exo)
    params, log = tr.train(cfg, run_cfg.train, ds)
    return cfg, params, log


def _meta_dict(cfg, params, log) -> dict:
    return {
        "n_endo": cfg.n_endo,
        "n_exo": cfg.n_exo,
        "n_parameters": params.n_parameters(),
        "best_epoch": log.best_epoch,
        "best_val_loss": log.best_val_loss,
        "stopped_early": log.stopped_early,
        "epochs_run": len(log.records),
    }


@contextlib.contextmanager
def _out_dir_for(first_output: str):
    """Make the directory ``first_output`` goes in before the block trains, so an unwritable
    one fails first; if the block fails, remove the directory again when this call made it
    and it is still empty."""
    out_dir = os.path.dirname(os.path.abspath(first_output))
    made = not os.path.isdir(out_dir)
    dio.make_parent_dir(first_output)
    try:
        yield
    except BaseException:
        if made:
            with contextlib.suppress(OSError):  # not empty: keep what was written
                os.rmdir(out_dir)
        raise


def cmd_train(args) -> int:
    run_cfg = _apply_overrides(load_run_config(args.config), args)
    ds = _load_dataset(run_cfg)
    ckpt_path = os.path.join(run_cfg.out_dir, CHECKPOINT_NAME)
    with _out_dir_for(ckpt_path):
        cfg, params, log = _train_once(run_cfg, ds)
        ckpt_io.save_checkpoint(ckpt_path, params, run_cfg.resolved_dict(),
                                dio.scaler_dict(ds), _meta_dict(cfg, params, log))
    log.to_csv(os.path.join(run_cfg.out_dir, TRAINLOG_NAME))
    with dio.output_file(os.path.join(run_cfg.out_dir, RESOLVED_NAME)) as fh:
        fh.write(json.dumps(run_cfg.resolved_dict(), indent=2, sort_keys=True) + "\n")
    print(f"checkpoint: {ckpt_path}")
    print(f"best epoch {log.best_epoch}, val_loss {log.best_val_loss:.6f}, "
          f"{'stopped early' if log.stopped_early else 'ran to max_epochs'}")
    return 0


def _restore(args):
    """Load ``args.checkpoint`` and rebuild (ckpt, run_cfg, model_cfg, params); ``run_cfg``
    carries the overrides, and outputs go to ``--out-dir``, else the checkpoint's directory."""
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    run_cfg = dataclasses.replace(RunConfig.from_dict(ckpt.config),
                                  out_dir=os.path.dirname(os.path.abspath(args.checkpoint)))
    run_cfg = _apply_overrides(run_cfg, args)
    cfg = run_cfg.model_config(ckpt.meta["n_endo"], ckpt.meta["n_exo"])
    params = ckpt_io.params_from_checkpoint(ckpt, cfg)
    return ckpt, run_cfg, cfg, params


def cmd_eval(args) -> int:
    ckpt, run_cfg, cfg, params = _restore(args)
    d = run_cfg.data
    ds = dio.load_csv_with_scaler(args.data or d.csv_path, ckpt.scaler, d.target_mode,
                                  d.split_ratios, d.limit_rows, d.date_column)
    report = mx.evaluate(mdl.predictor(params, cfg), ds, args.split,
                         cfg.lookback, cfg.horizon, scaled=run_cfg.scaled_metrics)
    csv_path = os.path.join(run_cfg.out_dir, f"metrics_{args.split}.csv")
    report.to_csv(csv_path)
    sys.stdout.write(report.as_table_text())
    print(f"written: {csv_path}")
    return 0


def _forward_input(args):
    """Restore ``args.checkpoint``, check any ``--horizon`` against it, and run one eval forward
    over the last L rows of ``args.input``, read alone where they can be; returns (run_cfg,
    horizon, ds, yhat array, trace)."""
    ckpt, run_cfg, cfg, params = _restore(args)
    horizon = cfg.horizon if getattr(args, "horizon", None) is None else args.horizon
    if not 1 <= horizon <= cfg.horizon:
        raise UsageError(f"--horizon must be in [1, {cfg.horizon}] for this "
                         f"checkpoint, got {horizon}")
    d = run_cfg.data
    ds = dio.load_csv_with_scaler(args.input, ckpt.scaler, d.target_mode, d.split_ratios,
                                  date_column=d.date_column, tail_rows=cfg.lookback)
    yhat, trace = mdl.forward(dio.last_window(ds, cfg.lookback), params)
    return run_cfg, horizon, ds, yhat.data, trace


def cmd_predict(args) -> int:
    run_cfg, horizon, ds, yhat, _ = _forward_input(args)
    fc = dio.inverse_scale_forecast(ds, yhat)[0, :, :horizon]
    out_path = os.path.join(run_cfg.out_dir, "forecast.csv")
    with dio.output_file(out_path) as fh:
        fh.write("step," + ",".join(ds.endo_names) + "\n")
        for s, row in enumerate(fc.T.tolist(), 1):  # Python floats: repr needs no cast
            fh.write(f"{s}," + ",".join(map(repr, row)) + "\n")
    print(f"written: {out_path} ({horizon} steps x {ds.n_endo} variables)")
    return 0


def _parse_variants(tokens, base_activation: str):
    variants = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            abl, act = tok.split(":", 1)
        elif tok in mdl.ABLATIONS:
            abl, act = tok, base_activation
        elif tok in mdl.GATE_ACTIVATIONS:
            abl, act = "full", tok
        else:
            raise ConfigError(
                f"unknown variant {tok!r}; expected an ablation "
                f"{mdl.ABLATIONS}, an activation {mdl.GATE_ACTIVATIONS}, or "
                "'ablation:activation'")
        if abl not in mdl.ABLATIONS:
            raise ConfigError(f"unknown ablation {abl!r} in variant {tok!r}")
        if act not in mdl.GATE_ACTIVATIONS:
            raise ConfigError(f"unknown activation {act!r} in variant {tok!r}")
        variants.append((abl, act))
    if not variants:
        raise ConfigError("no variants given")
    return variants


def cmd_ablate(args) -> int:
    run_cfg = _apply_overrides(load_run_config(args.config), args)
    variants = _parse_variants(args.variants.split(","), run_cfg.model["gate_activation"])
    ds = _load_dataset(run_cfg)
    out_path = os.path.join(run_cfg.out_dir, "ablation.csv")
    rows = []
    with _out_dir_for(out_path):
        for abl, act in variants:
            variant_cfg = dataclasses.replace(
                run_cfg, model={**run_cfg.model, "ablation": abl, "gate_activation": act})
            label = f"{abl}:{act}"
            print(f"training variant {label} (seed {run_cfg.train.seed})", file=sys.stderr)
            cfg, params, log = _train_once(variant_cfg, ds)
            report = mx.evaluate(mdl.predictor(params, cfg), ds, "test",
                                 cfg.lookback, cfg.horizon, scaled=run_cfg.scaled_metrics)
            agg = report.aggregate
            rows.append((label, abl, act, agg))
            print(f"{label}: test mse {agg['mse']:.6f} mae {agg['mae']:.6f}")
        cell = mx.MetricsReport._cell
        with dio.output_file(out_path) as fh:
            fh.write("variant,ablation,gate_activation,mse,mae,nse,kge,mape\n")
            for label, abl, act, agg in rows:
                fh.write(f"{label},{abl},{act},"
                         + ",".join(cell(agg[m]) for m in mx.METRIC_NAMES) + "\n")
    print(f"written: {out_path}")
    return 0


def cmd_export_weights(args) -> int:
    run_cfg, _, ds, _, trace = _forward_input(args)
    t_path, v_path = mdl.export_gating_weights(trace, run_cfg.out_dir, ds.endo_names)
    print(f"written: {t_path}")
    print(f"written: {v_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, so it keeps the one-line contract."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=None, help="output directory override")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help=f"random seed override (config default {tr.TrainConfig.seed})")
    scaled = argparse.ArgumentParser(add_help=False)
    scaled.add_argument("--scaled-metrics", action=argparse.BooleanOptionalAction,
                        default=None, help="report metrics in scaled space "
                        f"(default {str(RunConfig.scaled_metrics).lower()})")

    p = _Parser(prog="xlinear", description="XLinear time-series forecasting")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("train", parents=[out_dir, seed, scaled],
                       help="train a model from a JSON config")
    q.add_argument("--config", required=True)
    q.set_defaults(fn=cmd_train)

    q = sub.add_parser("eval", parents=[out_dir, scaled], help="score a checkpoint on a split")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--split", choices=("train", "val", "test"), default="test")
    q.add_argument("--data", default=None, help="dataset CSV override")
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("predict", parents=[out_dir], help="forecast from trailing history")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--input", required=True, help="CSV with at least L trailing rows")
    q.add_argument("--horizon", type=int, default=None)
    q.set_defaults(fn=cmd_predict)

    q = sub.add_parser("ablate", parents=[out_dir, seed, scaled],
                       help="train and compare model variants under one seed")
    q.add_argument("--config", required=True)
    q.add_argument("--variants", required=True,
                   help="comma list: ablation, activation, or ablation:activation")
    q.set_defaults(fn=cmd_ablate)

    q = sub.add_parser("export-weights", parents=[out_dir],
                       help="export gating weights for one forward pass")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--input", required=True)
    q.set_defaults(fn=cmd_export_weights)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except XLinearError as e:
        # escape control characters: a line break in a key or a path must not split the line
        msg = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(e))
        print(f"error[{e.code}]: {msg}", file=sys.stderr)
        return e.exit_code
    except Exception:  # pragma: no cover - unexpected faults
        traceback.print_exc()
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
