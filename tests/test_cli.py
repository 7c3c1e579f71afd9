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
import threading
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
from xlinear.errors import ConfigError, DataError
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


@pytest.fixture(scope="module")
def plain_forecast(trained, tmp_path_factory):
    """The bytes of ``predict`` on the unedited training CSV."""
    out = tmp_path_factory.mktemp("plain")
    assert cli.main(csv_argv("predict", trained, out, trained["csv"])) == 0
    return (out / "out" / "forecast.csv").read_bytes()


def csv_argv(command, trained, tmp_path, csv_path):
    """``train`` on ``csv_path`` with a one-epoch config, or ``predict`` on it
    with the shared checkpoint; both write under ``tmp_path``."""
    if command == "train":
        return ["train", "--config", str(make_config(tmp_path, csv_path, train={"max_epochs": 1}))]
    return ["predict", "--checkpoint", str(trained["checkpoint"]), "--input", str(csv_path),
            "--out-dir", str(tmp_path / "out")]


def edit_line(i, fn):
    """An edit of a file's bytes that applies ``fn`` to line index ``i`` (0 is the header; -2
    is the last data line of a file that ends in a newline)."""
    def edit(raw):
        lines = raw.split(b"\n")
        lines[i] = fn(lines[i])
        return b"\n".join(lines)
    return edit


LOOKBACK = 24  # of make_config: the rows predict forecasts from
LAST_ROW = -2  # line index of the 400-row CSV's last data line, file line 401
FIRST_WINDOW_ROW = 400 - LOOKBACK + 1  # line index of the window's first row, file line 378

# fault -> the edit of one data line that makes it malformed
ROW_FAULTS = {
    "ragged_row": lambda ln: ln + b",1.5",
    "non_numeric_cell": lambda ln: b"1.5,abc",
    "nan_cell": lambda ln: b"nan,1.5",
    "inf_cell": lambda ln: b"1.5,-inf",
    "non_utf8_byte": lambda ln: ln + b"\xff",
    "nul_byte": lambda ln: ln[:3] + b"\x00" + ln[3:],
}
# fault -> (edit of the training CSV's bytes, exit code of train, exit code of predict);
# predict reads only the last L rows, so a malformed row 9 is not read and changes nothing
MALFORMED_CSV = {
    **{fault: (edit_line(9, fn), 3, 0) for fault, fn in ROW_FAULTS.items()},
    "empty_file": (lambda raw: b"", 3, 3),
    "header_only": (lambda raw: raw.split(b"\n")[0] + b"\n", 3, 3),
    "duplicate_header": (edit_line(0, lambda ln: b"x,x"), 3, 3),
    "bom": (lambda raw: b"\xef\xbb\xbf" + raw, 0, 0),
    "quoted_cells": (lambda raw: re.sub(rb"[^,\n]+", rb'"\g<0>"', raw), 0, 0),
    "crlf_line_ends": (lambda raw: raw.replace(b"\n", b"\r\n"), 0, 0),
    "bare_cr_line_ends": (lambda raw: raw.replace(b"\n", b"\r"), 0, 0),
}
# up to three (share of the file, bytes cut, token put there) edits of a CSV's bytes
BYTE_EDITS = st.lists(st.tuples(
    st.floats(0, 1), st.integers(0, 3),
    st.sampled_from([b"", b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xef\xbb\xbf",
                     b"nan", b"-inf", b"#", b" ", b"x", b"_", b"\xd9\xa1", b"e9"])),
    min_size=1, max_size=3)
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

    def test_reads_the_window_alone_past_rows_that_are_not_utf8(self, trained, plain_forecast,
                                                               tmp_path, monkeypatch):
        """On a 5 MB file whose rows before the last L are not UTF-8, ``predict`` reads under
        1% of the bytes, counted as the operating system returns them to a file object or to
        ``os.read`` and ``os.pread``, and forecasts as from the unedited file."""
        head, _, body = trained["csv"].read_bytes().partition(b"\n")
        big = tmp_path / "big.csv"
        big.write_bytes(head + b"\n" + b"\xff\xfe,\xff\n" * ((5 << 20) // 5) + body)
        with pytest.raises(DataError, match="not UTF-8"):
            dio.read_csv_values(big)
        got = []

        class CountingFile(io.FileIO):
            def readinto(self, b):
                n = super().readinto(b)
                got.append(n or 0)
                return n

            def readall(self):
                out = super().readall()
                got.append(len(out))
                return out

        def counting_open(path, mode="r", *args, **kwargs):
            if mode != "rb":
                return open(path, mode, *args, **kwargs)
            return io.BufferedReader(CountingFile(path, "rb"))

        def counted(out):
            got.append(len(out))
            return out

        read, pread = os.read, os.pread
        monkeypatch.setattr(dio, "open", counting_open, raising=False)
        monkeypatch.setattr(os, "read", lambda fd, n: counted(read(fd, n)))
        monkeypatch.setattr(os, "pread", lambda fd, n, at: counted(pread(fd, n, at)))
        assert cli.main(csv_argv("predict", trained, tmp_path, big)) == 0
        assert 0 < sum(got) < 0.01 * os.path.getsize(big) and os.path.getsize(big) > 5e6
        assert (tmp_path / "out" / "forecast.csv").read_bytes() == plain_forecast

    def test_fifo_input_forecasts_through_the_whole_file_read(self, trained, plain_forecast,
                                                              tmp_path):
        fifo = tmp_path / "in.csv"
        os.mkfifo(fifo)
        assert dio.read_csv_tail(fifo, LOOKBACK) is None  # a pipe is not read from its end
        raw = trained["csv"].read_bytes()

        def write():
            with open(fifo, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            rc = cli.main(csv_argv("predict", trained, tmp_path, fifo))
        finally:
            if writer.is_alive():  # a failed call may never open the pipe: free the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
        assert rc == 0 and not writer.is_alive()
        assert (tmp_path / "out" / "forecast.csv").read_bytes() == plain_forecast

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

    def test_trailing_rows_and_whole_file_read_export_the_same_bytes(self, trained, tmp_path,
                                                                     monkeypatch, capsys):
        """The 400-row CSV, its trailing-L copy, and the 400-row CSV read whole as a pipe
        would be give byte-identical gate files."""
        lines = trained["csv"].read_bytes().split(b"\n")
        tail = tmp_path / "tail.csv"
        tail.write_bytes(b"\n".join(lines[:1] + lines[-LOOKBACK - 1:]))

        def export(csv_path, out):
            assert cli.main(["export-weights", "--checkpoint", str(trained["checkpoint"]),
                             "--input", str(csv_path), "--out-dir", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("time_gate.csv", "variate_gate.csv")]

        full = export(trained["csv"], tmp_path / "full")
        assert export(tail, tmp_path / "tail") == full
        monkeypatch.setattr(dio, "read_csv_tail", lambda *args: None)
        assert export(trained["csv"], tmp_path / "whole") == full


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

    @pytest.mark.parametrize("values", ["trained", "edge"])
    def test_forecast_text_is_the_per_value_repr(self, run, tmp_path, monkeypatch, capsys,
                                                 values):
        """``forecast.csv`` is byte for byte the text of ``repr(float(v))`` per value, for the
        trained forecast and for values whose repr is easy to get wrong."""
        edge = np.array([[-0.0, 5e-324, 1e16, 1 / 3], [1e-5, -2.5, 1e22, 0.1],
                         [123456789.125, -1e-300, 2.0 ** 53 + 2, -7.0]])[None]
        real = dio.inverse_scale_forecast
        seen = []

        def forecast(ds, yhat):
            seen.append(real(ds, yhat) if values == "trained" else edge)
            return seen[-1]

        monkeypatch.setattr(dio, "inverse_scale_forecast", forecast)
        assert cli.main(["predict", "--checkpoint", str(run["checkpoint"]),
                         "--input", str(run["csv"]), "--out-dir", str(tmp_path)]) == 0
        fc = seen[0][0]
        want = "step,a,b,c\n" + "".join(
            f"{s + 1}," + ",".join(repr(float(v)) for v in fc[:, s]) + "\n"
            for s in range(fc.shape[1]))
        assert (tmp_path / "forecast.csv").read_bytes() == want.encode()

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
        ("config", {"train": {"beta1": 0.9}}, "unknown key(s): train.beta1"),
        ("config", {"data": {"limit_rows": 0}}, "limit_rows"),
        ("config", {"data": {"split_ratios": [float("nan"), 0.5, 0.5]}}, "split ratios"),
        ("checkpoint", {"target_mode": "bogus"}, "target_mode"),
        ("config", {"data": {"bad\nkey": 1}}, "data.bad\\nkey"),
    ], ids=["seed_negative", "seed_flag_negative", "lr_nan", "lr_infinity", "lr_int_too_big",
            "beta1_unknown_key", "limit_rows_zero",
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

    def test_train_column_whose_scaler_overflows_is_one_data_line(self, tmp_path, capsys):
        """A column alternating +-1e308 has a finite mean but an infinite std; the scaler
        is refused before any output, so no checkpoint stores a non-finite std."""
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("date,a,b\n" + "".join(
            f"2020-01-01,{(-1) ** i * 1e308!r},{i % 7 * 0.5}\n" for i in range(300)))
        cfg_path = make_config(tmp_path, csv_path, data={"target_mode": "multivariate"})
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error[data]: train-split column(s) 'a' overflow float64: "
            "the scaler's mean or std is not finite"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_row_that_overflows_once_scaled_is_one_data_line(self, tmp_path, capsys, command):
        """Column ``a`` is about 1e-10 on the 180 train rows and 1e300 after them, so its
        scaled value overflows; ``predict`` reads that file with the scaler of a checkpoint
        trained on the small values alone."""
        def write(path, far):
            path.write_text("date,a,b\n" + "".join(
                f"2020-01-01,{1e300 if far and i >= 180 else i % 5 * 1e-10!r},{i % 7 * 0.5}\n"
                for i in range(300)))
            return path

        bad = write(tmp_path / "far.csv", far=True)
        if command == "train":
            argv = ["train", "--config", str(make_config(tmp_path, bad))]
        else:
            cfg_path = make_config(tmp_path, write(tmp_path / "near.csv", far=False),
                                   train={"max_epochs": 1})
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            capsys.readouterr()
            argv = ["predict", "--checkpoint", str(tmp_path / "run" / cli.CHECKPOINT_NAME),
                    "--input", str(bad), "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error[data]: column(s) 'a' overflow float64 when scaled: a row lies too far "
            "outside the train split's range"]
        assert not (tmp_path / ("run" if command == "train" else "out")).exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_run_removes_only_the_empty_out_dir_it_made(self, tmp_path, capsys, command,
                                                              existed):
        csv_path = write_synthetic_csv(tmp_path / "series.csv", n_rows=400)
        cfg_path = make_config(tmp_path, csv_path, model={"t_ff": 2 ** 62})
        out_dir = tmp_path / "run"
        if existed:
            out_dir.mkdir()
        extra = ["--variants", "full"] if command == "ablate" else []
        assert cli.main([command, "--config", str(cfg_path), *extra]) == 2
        err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error[")]
        assert len(err) == 1 and err[0].startswith("error[config]: model too large"), err
        assert out_dir.exists() == existed

    @pytest.mark.parametrize("model, reason", [
        ({"t_ff": 2 ** 62}, "array is too big"),
        ({"c_ff": 10 ** 15}, "Unable to allocate"),
    ], ids=["t_ff_too_big", "c_ff_unallocatable"])
    def test_model_too_large_to_allocate_is_one_config_line(self, tmp_path, capsys, model,
                                                            reason):
        # both sizes fail at the allocation itself; none is granted and then filled
        csv_path = write_synthetic_csv(tmp_path / "series.csv", n_rows=400)
        cfg_path = make_config(tmp_path, csv_path, model=model)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error[config]: model too large to allocate: " + reason)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_utf8_csv_one_data_line(self, trained, plain_forecast, tmp_path, capsys,
                                        command):
        """``train`` refuses the byte; ``predict`` does not read line 5, so it forecasts as
        from the unedited file."""
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(edit_line(4, lambda ln: ln + b"\xff")(trained["csv"].read_bytes()))
        rc = cli.main(csv_argv(command, trained, tmp_path, bad))
        err = capsys.readouterr().err.splitlines()
        if command == "train":
            assert rc == 3
            assert err == [f"error[data]: {bad}, line 5: not UTF-8 text (invalid start byte)"]
        else:
            assert rc == 0 and err == []
            assert (tmp_path / "out" / "forecast.csv").read_bytes() == plain_forecast

    @pytest.mark.parametrize("line, rc", [(FIRST_WINDOW_ROW - 1, 0), (FIRST_WINDOW_ROW, 3)],
                             ids=["row_before_the_window", "first_window_row"])
    def test_non_utf8_byte_in_the_window_is_one_data_line(self, trained, plain_forecast,
                                                          tmp_path, capsys, line, rc):
        """``predict`` refuses a byte that is not UTF-8 in the first of the last L rows, with
        the whole-file read's line number, and forecasts past one in the row before."""
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(edit_line(line, lambda ln: b"\xff" + ln)(trained["csv"].read_bytes()))
        assert cli.main(csv_argv("predict", trained, tmp_path, bad)) == rc
        err = capsys.readouterr().err.splitlines()
        if rc:
            assert err == [f"error[data]: {bad}, line {line + 1}: not UTF-8 text "
                           "(invalid start byte)"]
        else:
            assert err == [] and (tmp_path / "out" / "forecast.csv").read_bytes() == \
                plain_forecast

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("fault", sorted(MALFORMED_CSV))
    def test_malformed_csv_one_line_or_success(self, trained, plain_forecast, tmp_path, capsys,
                                               command, fault):
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
            assert (tmp_path / "out" / "forecast.csv").read_bytes() == plain_forecast

    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_malformed_last_row_is_the_whole_file_error(self, trained, tmp_path, capsys, fault):
        """A fault in a row ``predict`` forecasts from is the one error line of the whole-file
        read, line number included."""
        bad = tmp_path / "bad.csv"
        bad.write_bytes(edit_line(LAST_ROW, ROW_FAULTS[fault])(trained["csv"].read_bytes()))
        with pytest.raises(DataError) as whole:
            dio.read_csv_values(bad)
        assert f"{bad}, line 401" in str(whole.value)
        assert cli.main(csv_argv("predict", trained, tmp_path, bad)) == 3
        assert capsys.readouterr().err.splitlines() == [f"error[data]: {whole.value}"]
        assert not (tmp_path / "out").exists()

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
    @pytest.mark.parametrize("header", ["date,a,,y", "date,a,b,"])
    def test_an_empty_column_name_is_one_data_error(self, trained, tmp_path, capsys, command,
                                                    header):
        """A blank name would head an empty forecast column or a ``glob_`` gate row, so it
        is refused before any output is written."""
        values = np.random.default_rng(0).normal(size=(200, 3))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + [
            "2020-01-01," + ",".join(repr(float(v)) for v in row) for row in values]) + "\n")
        assert cli.main(csv_argv(command, trained, tmp_path, bad)) == 3
        column = header.split(",").index("")
        assert capsys.readouterr().err == \
            f"error[data]: {bad}: value column {column} has an empty name in header\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_column_name_an_output_cannot_carry_is_one_data_error(self, trained, tmp_path,
                                                                  capsys, command, name):
        """A quoted header name holding a comma, quote or line break would shift the columns
        of every CSV that names it, so it is refused before any output is written."""
        quoted = '"' + name.replace('"', '""') + '"'
        values = np.random.default_rng(0).normal(size=(200, 3))
        bad = tmp_path / "bad.csv"
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([f"date,{quoted},c,y"] + [
                "2020-01-01," + ",".join(repr(float(v)) for v in row) for row in values]) + "\n")
        assert cli.main(csv_argv(command, trained, tmp_path, bad)) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {bad}: column name {name!r} in header holds a comma, quote or "
            "line break, which an output CSV header cannot carry\n")
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_cell_over_the_csv_field_limit_is_one_data_error(self, trained, plain_forecast,
                                                             tmp_path, capsys, command):
        """``train`` refuses the cell; ``predict`` does not read line 10, so it forecasts as
        from the unedited file."""
        bad = tmp_path / "bad.csv"
        bad.write_bytes(edit_line(9, lambda ln: b"1.5," + b"x" * 200_000)(
            trained["csv"].read_bytes()))
        rc = cli.main(csv_argv(command, trained, tmp_path, bad))
        lines = capsys.readouterr().err.splitlines()
        if command == "train":
            assert rc == 3
            assert len(lines) == 1 and lines[0].startswith(f"error[data]: {bad}: "), lines
        else:
            assert rc == 0 and lines == []
            assert (tmp_path / "out" / "forecast.csv").read_bytes() == plain_forecast

    def test_cell_over_the_csv_field_limit_in_the_last_row_is_one_data_error(
            self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(edit_line(LAST_ROW, lambda ln: b"1.5," + b"x" * 200_000)(
            trained["csv"].read_bytes()))
        with pytest.raises(DataError) as whole:
            dio.read_csv_values(bad)
        assert cli.main(csv_argv("predict", trained, tmp_path, bad)) == 3
        assert capsys.readouterr().err.splitlines() == [f"error[data]: {whole.value}"]
        assert str(whole.value).startswith(f"{bad}: unreadable CSV (field larger than")

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(edits=BYTE_EDITS)
    def test_mutated_csv_keeps_the_error_contract(self, trained, tmp_path_factory, edits):
        raw = trained["csv"].read_bytes()
        for where, cut, token in edits:  # replace `cut` bytes at `where` by `token`
            at = int(where * len(raw))
            raw = raw[:at] + token + raw[at + cut:]
        assert_predict_one_line_or_success(trained, tmp_path_factory.getbasetemp(), raw)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(edits=BYTE_EDITS)
    def test_mutated_header_or_window_keeps_the_error_contract(self, trained, tmp_path_factory,
                                                               edits):
        """The byte edits of the test above, landing only in the bytes ``predict`` reads: the
        header line and the last L rows."""
        raw = trained["csv"].read_bytes()
        head_end = raw.index(b"\n") + 1
        window_start = len(raw) - len(b"\n".join(raw.split(b"\n")[-LOOKBACK - 1:]))
        spots = []
        for where, cut, token in edits:  # `where` is a share of header and window bytes
            at = int(where * (head_end + len(raw) - window_start))
            at = at if at < head_end else window_start + at - head_end
            spots.append((at, cut, token))
        for at, cut, token in sorted(spots, reverse=True):  # later edits keep earlier offsets
            raw = raw[:at] + token + raw[at + cut:]
        assert_predict_one_line_or_success(trained, tmp_path_factory.getbasetemp(), raw)

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

    def test_module_entry_point(self, tmp_path):
        """``python -m xlinear.cli`` runs the CLI: a missing config is one config error."""
        proc = subprocess.run(
            [sys.executable, "-m", "xlinear.cli", "train", "--config",
             str(tmp_path / "absent.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_DIR})
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]: cannot read config")


def assert_predict_one_line_or_success(trained, root, raw):
    """``predict`` on the CSV bytes ``raw`` exits 0 silently or with one error line whose code
    matches its exit code."""
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
