"""End-to-end CLI tests: train/eval/predict/ablate/export-weights, the
JSON config layer, exit codes, and the error-line contract."""

import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from xlinear import checkpoint as ck
from xlinear import cli
from xlinear import data as dio
from xlinear import metrics as mx
from xlinear import model as mdl
from xlinear.config import RunConfig, load_run_config
from xlinear.errors import ConfigError

from synth import lagged_sine_series, write_synthetic_csv


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
        assert len(v_lines) == 1 + 1 + 1  # one exo channel + one global row
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

    def test_variate_gate_labels_every_exo_channel(self, run, tmp_path, capsys):
        assert cli.main(["export-weights", "--checkpoint", str(run["checkpoint"]),
                         "--input", str(run["csv"]), "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "variate_gate.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["a", "b", "c", "glob_a", "glob_b",
                                                   "glob_c"]


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
    ], ids=["no_tensors", "tensors_not_list", "header_len_2_62", "empty_meta",
            "header_not_object", "empty_scaler", "scaler_mean_too_short"])
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

    def test_error_line_is_machine_greppable(self, tmp_path, capsys):
        cli.main(["eval", "--checkpoint", str(tmp_path / "none.bin")])
        err = capsys.readouterr().err.strip().split("\n")[-1]
        assert re.fullmatch(r"error\[[a-z]+\]: .+", err)

    def test_console_script_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from xlinear.cli import entry; entry()",
             ],
            input="", capture_output=True, text=True,
            env={**os.environ, "PYTHONWARNINGS": "ignore"},
        )
        assert proc.returncode == 2  # argparse usage failure: no subcommand
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.argv = ['xlinear', 'eval', '--checkpoint', "
             f"'{tmp_path}/none.bin']; from xlinear.cli import entry; entry()"],
            capture_output=True, text=True,
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

    def test_model_config_carries_dataset_shape(self):
        rc = RunConfig.from_dict({"data": {"csv_path": "d.csv"},
                                  "model": {"horizon": 8, "d_model": 32,
                                            "t_ff": 32, "c_ff": 32}})
        cfg = rc.model_config(2, 5)
        assert cfg.n_endo == 2 and cfg.n_exo == 5
        assert cfg.horizon == 8 and cfg.lookback == 96
