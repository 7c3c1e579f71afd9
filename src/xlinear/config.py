"""JSON run configuration: parsing, strict validation, defaults.

The file has four sections (``data``, ``model``, ``train``, ``eval``)
plus ``out_dir``. Unknown keys anywhere are rejected in one pass that
names every offender, so a typo cannot silently fall back to a default.
``resolved_dict`` materializes all defaults; feeding that echo back in
reproduces the identical run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

# key -> (python type tag, default); None default means required
_DATA_KEYS = {
    "csv_path": ("str", None),
    "target_mode": ("str", "multivariate"),
    "split_ratios": ("ratios", (0.7, 0.1, 0.2)),
    "limit_rows": ("int?", None),
    "date_column": ("str", "date"),
}
_MODEL_KEYS = {
    "horizon": ("int", None),
    "lookback": ("int", 96),
    "d_model": ("int", 256),
    "t_ff": ("int", 512),
    "c_ff": ("int", 512),
    "embed_dropout": ("float", 0.1),
    "t_dropout": ("float", 0.1),
    "c_dropout": ("float", 0.1),
    "head_dropout": ("float", 0.1),
    "gate_activation": ("str", "sigmoid"),
    "ablation": ("str", "full"),
    "revin_affine": ("bool", True),
    "share_embedding": ("bool", False),
}
_TRAIN_KEYS = {
    "lr_init": ("float", 1e-4),
    "batch_size": ("int", 32),
    "max_epochs": ("int", 30),
    "patience": ("int", 3),
    "seed": ("int", 2025),
    "beta1": ("float", 0.9),
    "beta2": ("float", 0.999),
    "eps": ("float", 1e-8),
}
_EVAL_KEYS = {
    "scaled_metrics": ("bool", True),
}
_SECTIONS = {"data": _DATA_KEYS, "model": _MODEL_KEYS, "train": _TRAIN_KEYS, "eval": _EVAL_KEYS}


@dataclass
class DataConfig:
    csv_path: str
    target_mode: str = "multivariate"
    split_ratios: tuple = (0.7, 0.1, 0.2)
    limit_rows: int | None = None
    date_column: str = "date"


@dataclass
class RunConfig:
    data: DataConfig
    model: dict  # validated model keys; ModelConfig needs M, C from the data
    train: TrainConfig
    scaled_metrics: bool = True
    out_dir: str = "runs"

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
        problems = []
        unknown = [k for k in raw if k not in (*_SECTIONS, "out_dir")]
        if unknown:
            problems.append("unknown key(s): " + ", ".join(sorted(unknown)))
        sections = {}
        for sec, schema in _SECTIONS.items():
            given = raw.get(sec, {})
            if not isinstance(given, dict):
                problems.append(f"section {sec!r} must be an object")
                given = {}
            bad = [f"{sec}.{k}" for k in given if k not in schema]
            if bad:
                problems.append("unknown key(s): " + ", ".join(sorted(bad)))
            values = {}
            for key, (kind, default) in schema.items():
                if key in given:
                    ok, val = _coerce(kind, given[key])
                    if not ok:
                        problems.append(f"{sec}.{key} must be {_KIND_NAMES[kind]}, "
                                        f"got {given[key]!r}")
                        val = default
                    values[key] = val
                elif default is None and kind not in ("int?",):
                    problems.append(f"missing required key {sec}.{key}")
                else:
                    values[key] = default
            sections[sec] = values
        out_dir = raw.get("out_dir", "runs")
        if not isinstance(out_dir, str):
            problems.append(f"out_dir must be a string, got {out_dir!r}")
            out_dir = "runs"
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        return RunConfig(
            data=DataConfig(**sections["data"]),
            model=sections["model"],
            train=TrainConfig(**sections["train"]).validate(),
            scaled_metrics=sections["eval"]["scaled_metrics"],
            out_dir=out_dir,
        )

    def resolved_dict(self) -> dict:
        return {
            "data": {**asdict(self.data), "split_ratios": list(self.data.split_ratios)},
            "model": dict(self.model),
            "train": asdict(self.train),
            "eval": {"scaled_metrics": self.scaled_metrics},
            "out_dir": self.out_dir,
        }

    def model_config(self, n_endo: int, n_exo: int) -> ModelConfig:
        return ModelConfig(n_endo=n_endo, n_exo=n_exo, **self.model).validate()


_KIND_NAMES = {
    "str": "a string",
    "int": "an integer",
    "int?": "an integer or null",
    "float": "a number",
    "bool": "a boolean",
    "ratios": "a list of three numbers",
}


def _coerce(kind: str, v):
    if kind == "str":
        return isinstance(v, str), v
    if kind == "bool":
        return isinstance(v, bool), v
    if kind == "int":
        return isinstance(v, int) and not isinstance(v, bool), v
    if kind == "int?":
        return v is None or (isinstance(v, int) and not isinstance(v, bool)), v
    if kind == "float":
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        return ok, float(v) if ok else v
    if kind == "ratios":
        ok = (isinstance(v, (list, tuple)) and len(v) == 3
              and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))
        return ok, tuple(float(x) for x in v) if ok else v
    raise AssertionError(kind)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from e
    except ValueError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return RunConfig.from_dict(raw)
