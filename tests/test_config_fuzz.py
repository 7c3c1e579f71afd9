"""Property test of the config layer: one random fault in an otherwise valid
config makes ``xlinear train`` print exactly one error line and exit 2 for a
wrong key, type or range, before the (absent) CSV is read, or 3 for the
absent CSV when the fault only drops a key that has a default.

The key table below is written out independently of ``xlinear.config``,
so the property checks the schema the config dataclasses derive rather
than restating it.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from xlinear import cli

# section -> key -> (JSON kind, valid value); csv_path and horizon are required
VALID = {
    "data": {"csv_path": ("str", "absent.csv"), "target_mode": ("str", "multivariate"),
             "split_ratios": ("ratios", [0.6, 0.2, 0.2]), "limit_rows": ("int?", 500),
             "date_column": ("str", "date")},
    "model": {"horizon": ("int", 4), "lookback": ("int", 24), "d_model": ("int", 16),
              "t_ff": ("int", 16), "c_ff": ("int", 16), "embed_dropout": ("float", 0.1),
              "t_dropout": ("float", 0.1), "c_dropout": ("float", 0.1),
              "head_dropout": ("float", 0.1), "gate_activation": ("str", "sigmoid"),
              "ablation": ("str", "full")},
    "train": {"lr_init": ("float", 1e-3), "batch_size": ("int", 8), "max_epochs": ("int", 1),
              "patience": ("int", 1), "seed": ("int", 3)},
    "eval": {"scaled_metrics": ("bool", True)},
}
REQUIRED = {("data", "csv_path"), ("model", "horizon")}

# JSON values of every kind, and which config kinds accept each
SAMPLES = ["text", True, None, [1.0, 2.0], {"a": 1}, 7, 2.5, [0.5, 0.25, 0.25]]
ACCEPTS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "int?": lambda v: v is None or ACCEPTS["int"](v),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "ratios": lambda v: isinstance(v, list) and len(v) == 3 and all(map(ACCEPTS["float"], v)),
}

NAN = st.just(math.nan)
NEG = st.floats(max_value=-1e-300)
# (section, key) -> out-of-range values; every one is checked at load
OUT_OF_RANGE = {
    ("data", "target_mode"): st.sampled_from(["bogus", "", "Multivariate"]),
    ("data", "limit_rows"): st.integers(max_value=0),
    ("data", "split_ratios"): st.lists(st.floats() | NAN, min_size=3, max_size=3),
    ("train", "lr_init"): st.floats(max_value=0.0) | NAN | st.just(math.inf),
    ("train", "batch_size"): st.just(0) | st.integers(max_value=0),
    ("train", "max_epochs"): st.just(0) | st.integers(max_value=0),
    ("train", "patience"): st.just(0) | st.integers(max_value=0),
    ("train", "seed"): st.just(-1) | st.integers(max_value=-1),
    ("model", "horizon"): st.integers(max_value=0),
    ("model", "lookback"): st.just(1) | st.integers(max_value=1),  # 1: an open draw misses it
    ("model", "d_model"): st.integers(max_value=0),
    ("model", "embed_dropout"): NEG | st.floats(min_value=1.0) | NAN,
    ("model", "head_dropout"): NEG | st.floats(min_value=1.0) | NAN,
    ("model", "gate_activation"): st.just("relu"),
    ("model", "ablation"): st.just("none"),
}
KEYS = [(sec, key) for sec, keys in VALID.items() for key in keys]


@st.composite
def mutated(draw):
    """(config, expected exit codes) for a valid config with one fault in it."""
    cfg = {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in VALID.items()}
    cfg["out_dir"] = "run"
    how = draw(st.sampled_from(["drop", "unknown", "wrong_type", "out_of_range"]))
    if how == "drop":
        sec, key = draw(st.sampled_from(KEYS))
        del cfg[sec][key]
        return cfg, {2} if (sec, key) in REQUIRED else {3}
    if how == "unknown":
        where = draw(st.sampled_from([None, *VALID]))
        name = draw(st.text(min_size=1, max_size=8))
        target = cfg if where is None else cfg[where]
        if name in target:
            name += "_typo"
        target[name] = draw(st.sampled_from(SAMPLES))
        return cfg, {2}
    if how == "wrong_type":
        sec, key = draw(st.sampled_from([*KEYS, (None, "out_dir")]))
        kind = "str" if sec is None else VALID[sec][key][0]
        value = draw(st.sampled_from([v for v in SAMPLES if not ACCEPTS[kind](v)]))
        (cfg if sec is None else cfg[sec])[key] = value
        return cfg, {2}
    (sec, key), values = draw(st.sampled_from(sorted(OUT_OF_RANGE.items())))
    cfg[sec][key] = draw(values)
    return cfg, {2}


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(case=mutated())
def test_one_fault_one_error_line(tmp_path_factory, case):
    cfg, expected = case
    root = tmp_path_factory.getbasetemp()
    if cfg["data"].get("csv_path") == "absent.csv":
        cfg["data"]["csv_path"] = str(root / "absent.csv")
    if cfg.get("out_dir") == "run":
        cfg["out_dir"] = str(root / "run")
    path = root / "fuzz_config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["train", "--config", str(path)])
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and re.fullmatch(r"error\[[a-z]+\]: .+", lines[0]), lines
    assert rc in expected, (rc, lines[0])
    assert lines[0].startswith("error[config]:" if rc == 2 else "error[data]:")
