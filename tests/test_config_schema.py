"""The run config's key set, pinned: a new knob, or a knob dropped, shows up here as a
test change. Configs and checkpoints written before the last knobs were dropped name
keys the schema no longer has, and are refused with one config error line."""

import json

import numpy as np
import pytest

from xlinear import checkpoint as ck
from xlinear import cli
from xlinear import model as mdl
from xlinear.config import RunConfig

# the resolved config of {"data": {"csv_path": "d.csv"}, "model": {"horizon": 8}}
RESOLVED_MINIMAL = {
    "data": {"csv_path": "d.csv", "target_mode": "multivariate",
             "split_ratios": [0.7, 0.1, 0.2], "limit_rows": None, "date_column": "date"},
    "model": {"horizon": 8, "lookback": 96, "d_model": 256, "t_ff": 512, "c_ff": 512,
              "embed_dropout": 0.1, "t_dropout": 0.1, "c_dropout": 0.1,
              "head_dropout": 0.1, "gate_activation": "sigmoid", "ablation": "full"},
    "train": {"lr_init": 1e-4, "batch_size": 32, "max_epochs": 30, "patience": 3,
              "seed": 2025},
    "eval": {"scaled_metrics": True},
    "out_dir": "runs",
}

# keys an older build wrote into every resolved config, with the values it wrote
DROPPED = {"model": {"revin_affine": True, "share_embedding": False},
           "train": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}}
DROPPED_LINE = ("error[config]: invalid config: unknown key(s): model.revin_affine, "
                "model.share_embedding; unknown key(s): train.beta1, train.beta2, train.eps")


def older_resolved_config() -> dict:
    cfg = json.loads(json.dumps(RESOLVED_MINIMAL))
    for sec, keys in DROPPED.items():
        cfg[sec].update(keys)
    return cfg


def test_resolved_minimal_config_has_the_23_keys():
    resolved = RunConfig.from_dict({"data": {"csv_path": "d.csv"},
                                    "model": {"horizon": 8}}).resolved_dict()
    assert json.dumps(resolved) == json.dumps(RESOLVED_MINIMAL)  # keys in order, defaults
    assert sum(len(v) if isinstance(v, dict) else 1 for v in resolved.values()) == 23


@pytest.mark.parametrize("source", ["resolved_config", "checkpoint"])
def test_older_config_is_one_config_line(tmp_path, capsys, source):
    if source == "resolved_config":
        path = tmp_path / cli.RESOLVED_NAME
        path.write_text(json.dumps(older_resolved_config(), indent=2))
        argv = ["train", "--config", str(path)]
    else:
        cfg = mdl.ModelConfig(horizon=8, n_endo=1, n_exo=0, lookback=16, d_model=4,
                              t_ff=4, c_ff=4)
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        path = tmp_path / cli.CHECKPOINT_NAME
        ck.save_checkpoint(path, params, older_resolved_config(),
                           {"variable_names": ["y"], "mean": [0.0], "std": [1.0]},
                           {"n_endo": 1, "n_exo": 0})
        argv = ["predict", "--checkpoint", str(path), "--input", str(tmp_path / "absent.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [DROPPED_LINE]
