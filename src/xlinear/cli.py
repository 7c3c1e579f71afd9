"""Command-line interface.

Subcommands: train, eval, predict, ablate, export-weights. Every failure
path exits nonzero with a single ``error[<code>]: ...`` line on stderr;
exit codes are 0 success, 2 config, 3 data, 4 numeric fault, 5 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def cmd_train(args) -> int:
    run_cfg = _apply_overrides(load_run_config(args.config), args)
    ds = _load_dataset(run_cfg)
    cfg, params, log = _train_once(run_cfg, ds)
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(run_cfg.out_dir, CHECKPOINT_NAME)
    ckpt_io.save_checkpoint(ckpt_path, params, run_cfg.resolved_dict(),
                            dio.scaler_dict(ds), _meta_dict(cfg, params, log))
    log.to_csv(os.path.join(run_cfg.out_dir, TRAINLOG_NAME))
    _write_json(os.path.join(run_cfg.out_dir, RESOLVED_NAME), run_cfg.resolved_dict())
    print(f"checkpoint: {ckpt_path}")
    print(f"best epoch {log.best_epoch}, val_loss {log.best_val_loss:.6f}, "
          f"{'stopped early' if log.stopped_early else 'ran to max_epochs'}")
    return 0


def _restore(checkpoint_path):
    """Load a checkpoint and rebuild (run_cfg, model_cfg, params)."""
    ckpt = ckpt_io.load_checkpoint(checkpoint_path)
    run_cfg = RunConfig.from_dict(ckpt.config)
    cfg = run_cfg.model_config(ckpt.meta["n_endo"], ckpt.meta["n_exo"])
    params = ckpt_io.params_from_checkpoint(ckpt, cfg)
    return ckpt, run_cfg, cfg, params


def cmd_eval(args) -> int:
    ckpt, run_cfg, cfg, params = _restore(args.checkpoint)
    run_cfg = _apply_overrides(run_cfg, args)
    d = run_cfg.data
    ds = dio.load_csv_with_scaler(args.data or d.csv_path, ckpt.scaler, d.target_mode,
                                  d.split_ratios, d.limit_rows, d.date_column)
    report = mx.evaluate(mdl.predictor(params, cfg), ds, args.split,
                         cfg.lookback, cfg.horizon, scaled=run_cfg.scaled_metrics)
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"metrics_{args.split}.csv")
    report.to_csv(csv_path)
    sys.stdout.write(report.as_table_text())
    print(f"written: {csv_path}")
    return 0


def cmd_predict(args) -> int:
    ckpt, run_cfg, cfg, params = _restore(args.checkpoint)
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    if not 1 <= horizon <= cfg.horizon:
        raise UsageError(f"--horizon must be in [1, {cfg.horizon}] for this "
                         f"checkpoint, got {horizon}")
    d = run_cfg.data
    ds = dio.load_csv_with_scaler(args.input, ckpt.scaler, d.target_mode, d.split_ratios,
                                  date_column=d.date_column)
    yhat, _ = mdl.forward(dio.last_window(ds, cfg.lookback), params, training=False)
    fc = dio.inverse_scale_forecast(ds, yhat.data)[0, :, :horizon]
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "forecast.csv")
    lines = ["step," + ",".join(ds.endo_names)]
    for s in range(horizon):
        lines.append(f"{s + 1}," + ",".join(repr(float(v)) for v in fc[:, s]))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
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
    os.makedirs(run_cfg.out_dir, exist_ok=True)
    rows = []
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
    out_path = os.path.join(run_cfg.out_dir, "ablation.csv")
    cell = mx.MetricsReport._cell
    lines = ["variant,ablation,gate_activation,mse,mae,nse,kge,mape"]
    for label, abl, act, agg in rows:
        lines.append(f"{label},{abl},{act},"
                     + ",".join(cell(agg[m]) for m in mx.METRIC_NAMES))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"written: {out_path}")
    return 0


def cmd_export_weights(args) -> int:
    ckpt, run_cfg, cfg, params = _restore(args.checkpoint)
    d = run_cfg.data
    ds = dio.load_csv_with_scaler(args.input, ckpt.scaler, d.target_mode, d.split_ratios,
                                  date_column=d.date_column)
    _, trace = mdl.forward(dio.last_window(ds, cfg.lookback), params, training=False)
    out_dir = args.out_dir or os.path.dirname(os.path.abspath(args.checkpoint))
    t_path, v_path = mdl.export_gating_weights(trace, out_dir, ds.endo_names, ds.exo_names)
    print(f"written: {t_path}")
    print(f"written: {v_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None, help="output directory override")
    common.add_argument("--seed", type=int, default=None,
                        help=f"random seed override (config default {tr.TrainConfig.seed})")
    common.add_argument("--scaled-metrics", action=argparse.BooleanOptionalAction,
                        default=None, help="report metrics in scaled space "
                        f"(default {str(RunConfig.scaled_metrics).lower()})")

    p = argparse.ArgumentParser(prog="xlinear",
                                description="XLinear time-series forecasting")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("train", parents=[common], help="train a model from a JSON config")
    q.add_argument("--config", required=True)
    q.set_defaults(fn=cmd_train)

    q = sub.add_parser("eval", parents=[common], help="score a checkpoint on a split")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--split", choices=("train", "val", "test"), default="test")
    q.add_argument("--data", default=None, help="dataset CSV override")
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("predict", parents=[common], help="forecast from trailing history")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--input", required=True, help="CSV with at least L trailing rows")
    q.add_argument("--horizon", type=int, default=None)
    q.set_defaults(fn=cmd_predict)

    q = sub.add_parser("ablate", parents=[common],
                       help="train and compare model variants under one seed")
    q.add_argument("--config", required=True)
    q.add_argument("--variants", required=True,
                   help="comma list: ablation, activation, or ablation:activation")
    q.set_defaults(fn=cmd_ablate)

    q = sub.add_parser("export-weights", parents=[common],
                       help="export gating weights for one forward pass")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--input", required=True)
    q.set_defaults(fn=cmd_export_weights)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
