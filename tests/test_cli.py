"""End-to-end CLI tests: train/eval/predict/ablate/export-weights, the
JSON config layer, exit codes, and the error-line contract."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlinear import checkpoint as ck
from xlinear import cli
from xlinear import data as dio
from xlinear import metrics as mx
from xlinear import model as mdl
from xlinear.config import DataConfig, RunConfig, load_run_config
from xlinear.errors import ConfigError
from xlinear.training import TrainConfig

from synthetic_series import lagged_sine_series, write_csv, write_synthetic_csv

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_config(tmp_dir, csv_path, **over):
    cfg = {
        "data": {
            "csv_path": str(csv_path),
            "target_mode": "last-column-endogenous",
            "split_ratios": [0.6, 0.2, 0.2],
        },
        "model": {
            "horizon": 4, "lookback": 24, "d_model": 16, "t_ff": 16, "c_ff": 16,
            "embed_dropout": 0.0, "t_dropout": 0.0, "c_dropout": 0.0,
            "head_dropout": 0.0,
        },
        "train": {
            "lr_init": 1e-3, "batch_size": 32, "max_epochs": 3, "patience": 3,
            "seed": 77,
        },
        "out_dir": str(tmp_dir / "run"),
    }
    for section, patch in over.items():
        if isinstance(patch, dict):
            cfg.setdefault(section, {}).update(patch)
        else:
            cfg[section] = patch
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One real training run shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "series.csv"
    write_synthetic_csv(csv_path, n_rows=400)
    cfg_path = make_config(root, csv_path)
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 0
    out_dir = root / "run"
    return {"root": root, "csv": csv_path, "config": cfg_path, "out": out_dir,
            "checkpoint": out_dir / cli.CHECKPOINT_NAME}


def csv_argv(command, trained, tmp_path, csv_path):
    """``train`` on ``csv_path`` with a one-epoch config, or ``predict`` on it
    with the shared checkpoint; both write under ``tmp_path``."""
    if command == "train":
        return ["train", "--config", str(make_config(tmp_path, csv_path, train={"max_epochs": 1}))]
    return ["predict", "--checkpoint", str(trained["checkpoint"]), "--input", str(csv_path),
            "--out-dir", str(tmp_path / "out")]


def edit_line(i, fn):
    return lambda raw: b"\n".join(fn(ln) if k == i else ln for k, ln in enumerate(raw.split(b"\n")))


# fault -> (edit of the training CSV's bytes, exit code of train, exit code of predict)
MALFORMED_CSV = {
    "ragged_row": (edit_line(9, lambda ln: ln + b",1.5"), 3, 3),
    "non_numeric_cell": (edit_line(9, lambda ln: b"1.5,abc"), 3, 3),
    "nan_cell": (edit_line(9, lambda ln: b"nan,1.5"), 3, 3),
    "inf_cell": (edit_line(9, lambda ln: b"1.5,-inf"), 3, 3),
    "empty_file": (lambda raw: b"", 3, 3),
    "header_only": (lambda raw: raw.split(b"\n")[0] + b"\n", 3, 3),
    "duplicate_header": (edit_line(0, lambda ln: b"x,x"), 3, 3),
    "bom": (lambda raw: b"\xef\xbb\xbf" + raw, 0, 0),
    "non_utf8_byte": (edit_line(9, lambda ln: ln + b"\xff"), 3, 3),
    "nul_byte": (edit_line(9, lambda ln: ln[:3] + b"\x00" + ln[3:]), 3, 3),
    "quoted_cells": (lambda raw: re.sub(rb"[^,\n]+", rb'"\g<0>"', raw), 0, 0),
    "crlf_line_ends": (lambda raw: raw.replace(b"\n", b"\r\n"), 0, 0),
    "bare_cr_line_ends": (lambda raw: raw.replace(b"\n", b"\r"), 0, 0),
}
# error code -> exit code, as the README documents them
EXIT_CODES = {"config": 2, "usage": 2, "data": 3, "dimension": 3, "numeric": 4, "io": 5}


class TestTrain:
    def test_writes_all_artifacts(self, trained, capsys):
        out = trained["out"]
        assert (out / cli.CHECKPOINT_NAME).is_file()
        assert (out / cli.TRAINLOG_NAME).is_file()
        assert (out / cli.RESOLVED_NAME).is_file()
        log = (out / cli.TRAINLOG_NAME).read_text().strip().split("\n")
        assert log[0] == "epoch,lr,train_loss,val_loss,seconds"
        assert len(log) == 1 + 3  # max_epochs rows

    def test_rerun_is_bit_identical(self, trained):
        # identical config, identical out_dir: overwrite and compare stashes
        stash_ckpt = trained["checkpoint"].read_bytes()
        stash_log = (trained["out"] / cli.TRAINLOG_NAME).read_text()
        assert cli.main(["train", "--config", str(trained["config"])]) == 0
        assert trained["checkpoint"].read_bytes() == stash_ckpt
        strip = lambda text: [",".join(ln.split(",")[:4])
                              for ln in text.strip().split("\n")]
        # logs identical except the wall-clock column
        assert strip((trained["out"] / cli.TRAINLOG_NAME).read_text()) == strip(stash_log)

    def test_resolved_config_reproduces_run(self, trained, tmp_path):
        # the resolved echo, re-fed verbatim, must rebuild the same bytes
        stash = trained["checkpoint"].read_bytes()
        echo = tmp_path / "resolved.json"
        echo.write_text((trained["out"] / cli.RESOLVED_NAME).read_text())
        assert cli.main(["train", "--config", str(echo)]) == 0
        assert trained["checkpoint"].read_bytes() == stash

    def test_seed_override_changes_run(self, trained, tmp_path):
        cfg_path = make_config(tmp_path, trained["csv"], out_dir=str(tmp_path / "s2"))
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "78"]) == 0
        assert (tmp_path / "s2" / cli.CHECKPOINT_NAME).read_bytes() != \
               trained["checkpoint"].read_bytes()
        echoed = json.loads((tmp_path / "s2" / cli.RESOLVED_NAME).read_text())
        assert echoed["train"]["seed"] == 78

    def test_limit_rows_past_ssize_t_is_every_row(self, trained, tmp_path):
        """A ``limit_rows`` too large for a C ssize_t trains and scores on every row."""
        cfg_path = make_config(tmp_path, trained["csv"], data={"limit_rows": 2 ** 63})
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        path = tmp_path / "run" / cli.CHECKPOINT_NAME
        got = ck.load_checkpoint(path).tensors
        want = ck.load_checkpoint(trained["checkpoint"]).tensors
        assert all(np.array_equal(got[name], a) for name, a in want.items())
        assert cli.main(["eval", "--checkpoint", str(path)]) == 0

    def test_checkpoint_meta(self, trained):
        ckpt = ck.load_checkpoint(trained["checkpoint"])
        assert ckpt.meta["n_endo"] == 1 and ckpt.meta["n_exo"] == 1
        assert ckpt.meta["epochs_run"] == 3
        assert ckpt.scaler["variable_names"] == ["x", "y"]


class TestEval:
    def test_writes_table_and_csv(self, trained, capsys):
        rc = cli.main(["eval", "--checkpoint", str(trained["checkpoint"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        csv_path = trained["out"] / "metrics_test.csv"
        assert csv_path.is_file()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("variable,mse,mae")
        assert lines[1].split(",")[0] == "y"

    def test_splits_differ(self, trained, tmp_path, capsys):
        for split in ("val", "test"):
            rc = cli.main(["eval", "--checkpoint", str(trained["checkpoint"]),
                           "--split", split, "--out-dir", str(tmp_path)])
            assert rc == 0
        capsys.readouterr()
        val = (tmp_path / "metrics_val.csv").read_text()
        test = (tmp_path / "metrics_test.csv").read_text()
        assert val != test

    def test_round_trip_matches_in_process_metrics(self, trained, tmp_path, capsys):
        """Checkpoint reload must evaluate identically to the live model."""
        rc = cli.main(["eval", "--checkpoint", str(trained["checkpoint"]),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        first = (tmp_path / "metrics_test.csv").read_text()
        rc = cli.main(["eval", "--checkpoint", str(trained["checkpoint"]),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "metrics_test.csv").read_text() == first

    def test_mismatched_override_columns(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n4,5,6\n")
        rc = cli.main(["eval", "--checkpoint", str(trained["checkpoint"]),
                       "--data", str(bad)])
        assert rc == 3
        assert "error[dimension]:" in capsys.readouterr().err


class TestPredict:
    def test_forecast_layout_and_determinism(self, trained, tmp_path, capsys):
        args = ["predict", "--checkpoint", str(trained["checkpoint"]),
                "--input", str(trained["csv"]), "--out-dir", str(tmp_path)]
        assert cli.main(args) == 0
        first = (tmp_path / "forecast.csv").read_bytes()
        lines = first.decode().strip().split("\n")
        assert lines[0] == "step,y"
        assert len(lines) == 1 + 4  # horizon rows
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3, 4]
        float(lines[1].split(",")[1])  # parses
        assert cli.main(args) == 0
        assert (tmp_path / "forecast.csv").read_bytes() == first

    def test_zeroed_head_forecasts_window_mean(self, trained, tmp_path, capsys):
        """With the head zeroed the model emits each variable's RevIN window
        mean, so the forecast must equal the mean of the last L input rows
        mapped back to original units."""
        ckpt = ck.load_checkpoint(trained["checkpoint"])
        ckpt.tensors["head_w"][...] = 0.0
        ckpt.tensors["head_b"][...] = 0.0
        ckpt.tensors["revin_gamma"][...] = 1.0
        ckpt.tensors["revin_beta"][...] = 0.0
        run_cfg = RunConfig.from_dict(ckpt.config)
        cfg = run_cfg.model_config(ckpt.meta["n_endo"], ckpt.meta["n_exo"])
        params = ck.params_from_checkpoint(ckpt, cfg)
        zeroed = tmp_path / "zeroed.bin"
        ck.save_checkpoint(zeroed, params, ckpt.config, ckpt.scaler, ckpt.meta)

        assert cli.main(["predict", "--checkpoint", str(zeroed),
                         "--input", str(trained["csv"]),
                         "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "forecast.csv").read_text().strip().split("\n")
        got = [float(ln.split(",")[1]) for ln in lines[1:]]
        rows = [float(ln.split(",")[1])  # y column of the input
                for ln in trained["csv"].read_text().strip().split("\n")[1:]]
        expected = np.mean(rows[-24:])
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_horizon_clamp(self, trained, tmp_path, capsys):
        ok = ["predict", "--checkpoint", str(trained["checkpoint"]),
              "--input", str(trained["csv"]), "--out-dir", str(tmp_path),
              "--horizon", "2"]
        assert cli.main(ok) == 0
        lines = (tmp_path / "forecast.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2
        rc = cli.main(ok[:-1] + ["9"])
        assert rc == 2
        assert "error[usage]:" in capsys.readouterr().err

    def test_back_to_back_calls_share_no_state(self, trained, tmp_path, capsys):
        """The parser is built once per process; a call's flags must not reach the next."""
        ckpt = tmp_path / "ckpt" / cli.CHECKPOINT_NAME
        ckpt.parent.mkdir()
        ckpt.write_bytes(trained["checkpoint"].read_bytes())
        base = ["predict", "--checkpoint", str(ckpt), "--input", str(trained["csv"])]
        assert cli.main(base + ["--horizon", "2", "--out-dir", str(tmp_path / "A")]) == 0
        assert len((tmp_path / "A" / "forecast.csv").read_text().splitlines()) == 1 + 2
        assert cli.main(base) == 0
        assert len((ckpt.parent / "forecast.csv").read_text().splitlines()) == 1 + 4
        capsys.readouterr()
        assert cli.main(base + ["--seed", "3"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error[usage]: xlinear") and "--seed" in err[0]

    def test_too_few_rows(self, trained, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("x,y\n" + "\n".join(f"{i}.0,{i}.5" for i in range(10)) + "\n")
        rc = cli.main(["predict", "--checkpoint", str(trained["checkpoint"]),
                       "--input", str(short)])
        assert rc == 3
        assert "error[data]:" in capsys.readouterr().err


class TestAblate:
    def test_single_variant_single_row(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_synthetic_csv(csv_path, n_rows=300)
        cfg_path = make_config(tmp_path, csv_path,
                               train={"max_epochs": 1}, out_dir=str(tmp_path / "abl"))
        rc = cli.main(["ablate", "--config", str(cfg_path), "--variants", "endo_only"])
        assert rc == 0
        lines = (tmp_path / "abl" / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,ablation,gate_activation,mse,mae,nse,kge,mape"
        assert len(lines) == 2
        assert lines[1].startswith("endo_only:sigmoid,endo_only,sigmoid,")

    def test_mixed_variant_grammar(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_synthetic_csv(csv_path, n_rows=300)
        cfg_path = make_config(tmp_path, csv_path,
                               train={"max_epochs": 1}, out_dir=str(tmp_path / "abl"))
        rc = cli.main(["ablate", "--config", str(cfg_path),
                       "--variants", "full,tanh,global_only:swish"])
        assert rc == 0
        lines = (tmp_path / "abl" / "ablation.csv").read_text().strip().split("\n")
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["full:sigmoid", "full:tanh", "global_only:swish"]

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_synthetic_csv(csv_path, n_rows=300)
        cfg_path = make_config(tmp_path, csv_path)
        rc = cli.main(["ablate", "--config", str(cfg_path), "--variants", "bogus"])
        assert rc == 2
        assert "error[config]:" in capsys.readouterr().err


class TestExportWeights:
    def test_writes_both_gate_files(self, trained, tmp_path, capsys):
        rc = cli.main(["export-weights", "--checkpoint", str(trained["checkpoint"]),
                       "--input", str(trained["csv"]), "--out-dir", str(tmp_path)])
        assert rc == 0
        t_lines = (tmp_path / "time_gate.csv").read_text().strip().split("\n")
        v_lines = (tmp_path / "variate_gate.csv").read_text().strip().split("\n")
        assert t_lines[0] == "label," + ",".join(f"pos_{i}" for i in range(32))
        assert len(t_lines) == 1 + 1  # one endogenous channel
        assert len(v_lines) == 1 + 1  # one global-token row per endogenous channel
        assert v_lines[-1].startswith("glob_y,")
        vals = [float(v) for v in t_lines[1].split(",")[1:]]
        assert all(0.0 < v < 1.0 for v in vals)  # sigmoid gates


class TestMultivariate:
    """Every variable is both endogenous and exogenous: the CLI must
    read, scale and label the CSV as the in-process dataset does."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_m")
        x, y = lagged_sine_series(400)
        z = 0.5 * x + np.cos(np.arange(400) / 7.0)
        csv_path = root / "series.csv"
        csv_path.write_text("a,b,c\n" + "".join(
            f"{float(p)!r},{float(q)!r},{float(r)!r}\n" for p, q, r in zip(x, y, z)))
        tail = root / "tail.csv"
        lines = csv_path.read_text().splitlines()
        tail.write_text("\n".join(lines[:1] + lines[-24:]) + "\n")
        cfg_path = make_config(root, csv_path, data={"target_mode": "multivariate"},
                               train={"max_epochs": 1})
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        run_cfg = load_run_config(cfg_path)
        d = run_cfg.data
        ds = dio.split_and_scale(dio.load_csv(csv_path, d.target_mode), d.split_ratios, 24, 4)
        checkpoint = root / "run" / cli.CHECKPOINT_NAME
        ckpt = ck.load_checkpoint(checkpoint)
        cfg = run_cfg.model_config(ds.n_endo, ds.n_exo)
        params = ck.params_from_checkpoint(ckpt, cfg)
        return {"csv": csv_path, "tail": tail, "checkpoint": checkpoint, "ds": ds,
                "cfg": cfg, "params": params}

    def test_predict_matches_last_window_forward(self, run, tmp_path, capsys):
        ds = run["ds"]
        win = np.ascontiguousarray(ds.values[-24:].T[None])  # [1 x V x L]
        batch = dio.WindowBatch(endo_history=win, exo_history=win,
                                endo_future=np.zeros((1, 3, 4)), origins=np.array([0]))
        yhat, _ = mdl.forward(batch, run["params"], training=False)
        expected = dio.inverse_scale_forecast(ds, yhat.data)[0].T  # [S x M]
        for source in ("csv", "tail"):
            assert cli.main(["predict", "--checkpoint", str(run["checkpoint"]),
                             "--input", str(run[source]), "--out-dir", str(tmp_path)]) == 0
            lines = (tmp_path / "forecast.csv").read_text().strip().split("\n")
            assert lines[0] == "step,a,b,c"
            got = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
            np.testing.assert_array_equal(got, expected)

    def test_eval_data_override_matches_in_process(self, run, tmp_path, capsys):
        assert cli.main(["eval", "--checkpoint", str(run["checkpoint"]),
                         "--data", str(run["csv"]), "--out-dir", str(tmp_path)]) == 0
        report = mx.evaluate(mdl.predictor(run["params"], run["cfg"]), run["ds"], "test",
                             24, 4, scaled=True)
        assert (tmp_path / "metrics_test.csv").read_text() == report.as_csv_text()

    def test_variate_gate_labels_every_global_token(self, run, tmp_path, capsys):
        assert cli.main(["export-weights", "--checkpoint", str(run["checkpoint"]),
                         "--input", str(run["csv"]), "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "variate_gate.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["glob_a", "glob_b", "glob_c"]


@pytest.mark.filterwarnings("error")
def test_one_column_csv_has_no_exogenous_channel(tmp_path, capsys):
    """C = 0: the lone column is the endogenous target and nothing else feeds the VGM."""
    x, _ = lagged_sine_series(400)
    csv_path = write_csv(tmp_path / "series.csv", ("y",), ([v] for v in x))
    dropout = dict.fromkeys(("embed_dropout", "t_dropout", "c_dropout", "head_dropout"), 0.1)
    cfg_path = make_config(tmp_path, csv_path, model=dropout, train={"max_epochs": 1})
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    checkpoint = tmp_path / "run" / cli.CHECKPOINT_NAME
    assert ck.load_checkpoint(checkpoint).meta["n_exo"] == 0
    assert cli.main(["predict", "--checkpoint", str(checkpoint), "--input", str(csv_path)]) == 0
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--split", "test"]) == 0
    lines = (tmp_path / "run" / "forecast.csv").read_text().splitlines()
    assert lines[0] == "step,y" and len(lines) == 5
    assert np.isfinite([float(ln.split(",")[1]) for ln in lines[1:]]).all()


class TestErrors:
    def test_config_problems_all_named(self, tmp_path, capsys):
        cfg = {
            "data": {"target_mode": "multivariate", "typo_key": 1},
            "model": {"horizon": "ninety-six"},
            "train": {"seed": True},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")
        for needle in ("csv_path", "typo_key", "horizon", "seed"):
            assert needle in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "error[config]:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_deeply_nested_json_one_error_line(self, tmp_path, capsys, command):
        """JSON nested past the parser's recursion limit, as a config or as a checkpoint
        header, is one error line, not a traceback."""
        deep = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "deep"
        if command == "train":
            path.write_bytes(deep)
            argv, code = ["train", "--config", str(path)], "config"
        else:
            path.write_bytes(struct.pack("<Q", len(deep)) + deep)
            argv, code = ["eval", "--checkpoint", str(path)], "io"
        assert cli.main(argv) == EXIT_CODES[code]
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error[{code}]: ")

    def test_missing_dataset_file(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, tmp_path / "absent.csv")
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "error[data]:" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.bin")])
        assert rc == 5
        assert "error[io]:" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda h: {k: v for k, v in h.items() if k != "tensors"},
        lambda h: {**h, "tensors": 5},
        "huge_header_length",
        lambda h: {**h, "meta": {}},
        lambda h: [1, 2],
        lambda h: {**h, "scaler": {}},
        lambda h: {**h, "scaler": {**h["scaler"], "mean": [0.0]}},
        lambda h: {**h, "format_version": 3},
        lambda h: {**h, "format_version": True},
    ], ids=["no_tensors", "tensors_not_list", "header_len_2_62", "empty_meta",
            "header_not_object", "empty_scaler", "scaler_mean_too_short", "version_3",
            "version_true"])
    def test_malformed_checkpoint_one_io_line(self, trained, tmp_path, capsys, corrupt):
        raw = trained["checkpoint"].read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        if corrupt == "huge_header_length":
            blob = struct.pack("<Q", 2 ** 62) + raw[8:]
        else:
            header = json.dumps(corrupt(json.loads(raw[8:8 + hlen]))).encode()
            blob = struct.pack("<Q", len(header)) + header + raw[8 + hlen:]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        rc = cli.main(["predict", "--checkpoint", str(bad), "--input", str(trained["csv"]),
                       "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err.strip().split("\n")
        assert rc == 5
        assert len(err) == 1 and err[0].startswith("error[io]:")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("std", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_corrupt_stored_scaler_one_io_line(self, trained, tmp_path, capsys, command, std):
        """A stored scaler whose std is not finite and positive is rejected before any
        scaling: no numpy warning, no misplaced numeric error, no output file."""
        raw = trained["checkpoint"].read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8:8 + hlen])
        header["scaler"]["std"][-1] = std
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen:])
        out = tmp_path / "out"
        argv = [command, "--checkpoint", str(bad), "--out-dir", str(out)]
        if command == "predict":
            argv += ["--input", str(trained["csv"])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        err = capsys.readouterr().err.strip().split("\n")
        assert rc == 5 and not caught
        assert len(err) == 1 and err[0].startswith("error[io]: malformed scaler"), err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("where, patch, key", [
        ("config", {"train": {"seed": -5}}, "seed"),
        ("flag", ["--seed", "-3"], "seed"),
        ("config", {"train": {"lr_init": float("nan")}}, "lr_init"),
        ("config", {"train": {"lr_init": float("inf")}}, "lr_init"),
        ("config", {"train": {"lr_init": 10 ** 400}}, "lr_init"),
        ("config", {"train": {"beta1": 1.0}}, "beta1"),
        ("config", {"train": {"beta2": 1.5}}, "beta2"),
        ("config", {"train": {"eps": -1.0}}, "eps"),
        ("config", {"data": {"limit_rows": 0}}, "limit_rows"),
        ("config", {"data": {"split_ratios": [float("nan"), 0.5, 0.5]}}, "split ratios"),
        ("checkpoint", {"target_mode": "bogus"}, "target_mode"),
        ("config", {"data": {"bad\nkey": 1}}, "data.bad\\nkey"),
    ], ids=["seed_negative", "seed_flag_negative", "lr_nan", "lr_infinity", "lr_int_too_big",
            "beta1_one", "beta2_above_one", "eps_negative", "limit_rows_zero",
            "split_ratio_nan", "checkpoint_target_mode", "key_with_line_break"])
    def test_config_fault_one_config_line(self, trained, tmp_path, capsys, where, patch, key):
        if where == "checkpoint":  # the checkpoint's stored config is checked on load too
            raw = trained["checkpoint"].read_bytes()
            (hlen,) = struct.unpack("<Q", raw[:8])
            header = json.loads(raw[8:8 + hlen])
            header["config"]["data"].update(patch)
            blob = json.dumps(header).encode()
            bad = tmp_path / "bad.bin"
            bad.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen:])
            argv = ["predict", "--checkpoint", str(bad), "--input", str(trained["csv"]),
                    "--out-dir", str(tmp_path)]
        elif where == "flag":
            argv = ["train", "--config", str(make_config(tmp_path, trained["csv"])), *patch]
        else:
            argv = ["train", "--config", str(make_config(tmp_path, trained["csv"], **patch))]
        rc = cli.main(argv)
        err = capsys.readouterr().err.strip().split("\n")
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error[config]:") and key in err[0], err

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "ablate",
                                         "export-weights"])
    def test_unwritable_out_dir_one_io_line(self, trained, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        out_dir = blocker / "sub"
        cfg = str(make_config(tmp_path, trained["csv"], train={"max_epochs": 1}))
        ckpt, csv = str(trained["checkpoint"]), str(trained["csv"])
        args = {"train": ["--config", cfg],
                "ablate": ["--config", cfg, "--variants", "full"],
                "eval": ["--checkpoint", ckpt],
                "predict": ["--checkpoint", ckpt, "--input", csv],
                "export-weights": ["--checkpoint", ckpt, "--input", csv]}[command]
        rc = cli.main([command, *args, "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error[")]
        assert rc == 5
        assert len(errors) == 1 and errors[0] == err.splitlines()[-1], err  # after epoch lines
        assert errors[0].startswith(f"error[io]: cannot write {out_dir}{os.sep}")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_unwritable_out_dir_fails_before_training(self, trained, tmp_path, capsys, command):
        out_dir = tmp_path / "blocker" / "sub"
        out_dir.parent.write_text("a regular file, not a directory\n")
        cfg = str(make_config(tmp_path, trained["csv"], train={"max_epochs": 1}))
        extra = ["--variants", "full,softmax"] if command == "ablate" else []
        assert cli.main([command, "--config", cfg, *extra, "--out-dir", str(out_dir)]) == 5
        captured = capsys.readouterr()
        first = {"train": cli.CHECKPOINT_NAME, "ablate": "ablation.csv"}[command]
        err = captured.err.splitlines()  # no epoch or "training variant" line before it
        assert len(err) == 1 and err[0].startswith(f"error[io]: cannot write {out_dir / first}:")
        assert captured.out == ""

    def test_failed_forecast_write_keeps_earlier_file(self, trained, tmp_path, capsys,
                                                      monkeypatch):
        args = ["predict", "--checkpoint", str(trained["checkpoint"]),
                "--input", str(trained["csv"]), "--out-dir", str(tmp_path)]
        assert cli.main(args + ["--horizon", "2"]) == 0
        before = (tmp_path / "forecast.csv").read_bytes()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        capsys.readouterr()
        assert cli.main(args) == 5
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error[io]:") and "No space left" in err[0]
        assert (tmp_path / "forecast.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forecast.csv"]

    @pytest.mark.parametrize("argv, needle", [
        ([], "command"),
        (["predict"], "--checkpoint, --input"),
        (["train", "--config", "c.json", "--bogus"], "--bogus"),
        (["predict", "--checkpoint", "c.bin", "--input", "x.csv", "--seed", "3"], "--seed"),
        (["export-weights", "--checkpoint", "c.bin", "--input", "x.csv",
          "--scaled-metrics"], "--scaled-metrics"),
        (["eval", "--checkpoint", "c.bin", "--seed", "3"], "--seed"),
        (["eval", "--checkpoint", "c.bin", "--split", "dev"], "dev"),
        (["train", "--config", "c.json", "--seed", "three"], "three"),
    ], ids=["no_command", "predict_no_args", "unknown_flag", "predict_seed",
            "export_scaled_metrics", "eval_seed", "bad_choice", "seed_not_int"])
    def test_usage_error_one_usage_line(self, capsys, argv, needle):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error[usage]: xlinear") and needle in err[0]
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--help"])
        assert exc.value.code == 0
        assert "--checkpoint" in capsys.readouterr().out

    @pytest.mark.parametrize("patch, flags, key", [
        ({"model": {"horizon": 0}}, [], "horizon"),
        ({"model": {"gate_activation": "relu"}}, [], "gate_activation"),
        ({"data": {"split_ratios": [0.6, 0.2, 0.1]}}, [], "sum to 1"),
        ({}, ["--seed", "-3"], "seed"),
    ], ids=["horizon_zero", "unknown_activation", "ratios_sum", "seed_flag_negative"])
    def test_config_fault_named_before_csv_is_read(self, tmp_path, capsys, patch, flags, key):
        cfg_path = make_config(tmp_path, tmp_path / "absent.csv", **patch)
        assert cli.main(["train", "--config", str(cfg_path), *flags]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error[config]:") and key in err[0], err

    def test_lookback_one_rejected_before_the_out_dir_is_made(self, tmp_path, capsys):
        # RevIN's per-window std needs two points; a readable CSV shows the check comes first
        csv_path = write_synthetic_csv(tmp_path / "series.csv", n_rows=400)
        cfg_path = make_config(tmp_path, csv_path, model={"lookback": 1})
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error[config]: lookback must be >= 2, got 1"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_utf8_csv_one_data_line(self, trained, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(edit_line(4, lambda ln: ln + b"\xff")(trained["csv"].read_bytes()))
        assert cli.main(csv_argv(command, trained, tmp_path, bad)) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error[data]: {bad}, line 5: not UTF-8 text (invalid start byte)"]

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("fault", sorted(MALFORMED_CSV))
    def test_malformed_csv_one_line_or_success(self, trained, tmp_path, capsys, command, fault):
        edit, train_rc, predict_rc = MALFORMED_CSV[fault]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(edit(trained["csv"].read_bytes()))
        rc = cli.main(csv_argv(command, trained, tmp_path, bad))
        err = capsys.readouterr().err
        assert rc == {"train": train_rc, "predict": predict_rc}[command], err
        assert "Traceback" not in err
        if rc:
            lines = err.splitlines()
            assert len(lines) == 1 and re.fullmatch(r"error\[(data|dimension)\]: .+", lines[0])
        elif command == "predict":  # the same forecast as from the file before the edit
            plain = tmp_path / "plain"
            assert cli.main(csv_argv("predict", trained, plain, trained["csv"])) == 0
            assert (tmp_path / "out" / "forecast.csv").read_bytes() == \
                   (plain / "out" / "forecast.csv").read_bytes()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("header", ["x,x", "date,x,x", "x,y,x"])
    def test_repeated_column_is_one_data_error_naming_it(self, trained, tmp_path, capsys,
                                                         command, header):
        stamp = "2020-01-01," if header.startswith("date,") else ""
        n_values = len(header.split(",")) - bool(stamp)
        values = np.random.default_rng(0).normal(size=(200, n_values))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + [stamp + ",".join(repr(float(v)) for v in row)
                                             for row in values]) + "\n")
        assert cli.main(csv_argv(command, trained, tmp_path, bad)) == 3
        assert capsys.readouterr().err == \
            f"error[data]: {bad}: repeated column name 'x' in header\n"

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_cell_over_the_csv_field_limit_is_one_data_error(self, trained, tmp_path, capsys,
                                                             command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(edit_line(9, lambda ln: b"1.5," + b"x" * 200_000)(
            trained["csv"].read_bytes()))
        rc = cli.main(csv_argv(command, trained, tmp_path, bad))
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith(f"error[data]: {bad}: "), lines

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(edits=st.lists(st.tuples(
        st.floats(0, 1), st.integers(0, 3),
        st.sampled_from([b"", b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xef\xbb\xbf",
                         b"nan", b"-inf", b"#", b" ", b"x", b"_", b"\xd9\xa1", b"e9"])),
        min_size=1, max_size=3))
    def test_mutated_csv_keeps_the_error_contract(self, trained, tmp_path_factory, edits):
        raw = trained["csv"].read_bytes()
        for where, cut, token in edits:  # replace `cut` bytes at `where` by `token`
            at = int(where * len(raw))
            raw = raw[:at] + token + raw[at + cut:]
        root = tmp_path_factory.getbasetemp()
        (root / "mutated.csv").write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(csv_argv("predict", trained, root, root / "mutated.csv"))
        lines = err.getvalue().splitlines()
        if rc:
            assert len(lines) == 1, lines
            match = re.fullmatch(r"error\[([a-z]+)\]: .+", lines[0])
            assert match and rc == EXIT_CODES[match.group(1)], lines
        else:
            assert lines == []

    def test_error_line_is_machine_greppable(self, tmp_path, capsys):
        cli.main(["eval", "--checkpoint", str(tmp_path / "none.bin")])
        err = capsys.readouterr().err.strip().split("\n")[-1]
        assert re.fullmatch(r"error\[[a-z]+\]: .+", err)

    def test_console_script_subprocess(self, tmp_path):
        # the package source, so the child imports xlinear whatever the caller's environment
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONWARNINGS": "ignore"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "from xlinear.cli import entry; entry()",
             ],
            input="", capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2  # argparse usage failure: no subcommand
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.argv = ['xlinear', 'eval', '--checkpoint', "
             f"'{tmp_path}/none.bin']; from xlinear.cli import entry; entry()"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 5
        assert proc.stderr.strip().startswith("error[io]:")


class TestRunConfigLayer:
    def test_defaults_materialized(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"data": {"csv_path": "d.csv"},
                                    "model": {"horizon": 96}}))
        rc = load_run_config(path)
        d = rc.resolved_dict()
        assert d["model"]["d_model"] == 256
        assert d["model"]["t_ff"] == 512
        assert d["train"]["lr_init"] == 1e-4
        assert d["train"]["batch_size"] == 32
        assert d["model"]["embed_dropout"] == 0.1
        assert d["eval"]["scaled_metrics"] is True
        assert d["data"]["split_ratios"] == [0.7, 0.1, 0.2]

    def test_resolved_dict_round_trips(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"data": {"csv_path": "d.csv"},
                                    "model": {"horizon": 8, "lookback": 16}}))
        rc = load_run_config(path)
        again = RunConfig.from_dict(rc.resolved_dict())
        assert again.resolved_dict() == rc.resolved_dict()

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"data": {"csv_path": "d.csv"},
                                 "model": {"horizon": 8},
                                 "train": {"seed": True}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="optimizer"):
            RunConfig.from_dict({"data": {"csv_path": "d.csv"},
                                 "model": {"horizon": 8},
                                 "optimizer": {}})

    @pytest.mark.parametrize("make, field", [
        (lambda **kw: mdl.ModelConfig(horizon=8, n_endo=1, n_exo=0, **kw), "d_model"),
        (TrainConfig, "batch_size"),
        (lambda **kw: DataConfig(csv_path="d.csv", **kw), "limit_rows"),
    ], ids=["model", "train", "data"])
    def test_configs_are_valid_by_construction(self, make, field):
        """An out-of-range field fails when the object is built, also by
        ``dataclasses.replace``, and no field can be assigned afterwards."""
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            make(**{field: 0})
        cfg = make()
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            dataclasses.replace(cfg, **{field: 0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, 0)

    def test_model_config_carries_dataset_shape(self):
        rc = RunConfig.from_dict({"data": {"csv_path": "d.csv"},
                                  "model": {"horizon": 8, "d_model": 32,
                                            "t_ff": 32, "c_ff": 32}})
        cfg = rc.model_config(2, 5)
        assert cfg.n_endo == 2 and cfg.n_exo == 5
        assert cfg.horizon == 8 and cfg.lookback == 96
