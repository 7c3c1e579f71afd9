"""JSON run configuration: parsing, strict validation, defaults.

The file has four sections (``data``, ``model``, ``train``, ``eval``)
plus ``out_dir``. The config dataclasses are the schema: each field's
annotation is its key's type and its default the key's default. Unknown
keys anywhere are rejected in one pass that names every offender, so a
typo cannot silently fall back to a default. ``resolved_dict``
materializes all defaults; feeding that echo back in reproduces the
identical run.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields

from .data import TARGET_MODES
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    csv_path: str
    target_mode: str = "multivariate"
    split_ratios: tuple = (0.7, 0.1, 0.2)
    limit_rows: int | None = None
    date_column: str = "date"

    def validate(self):
        if self.target_mode not in TARGET_MODES:
            raise ConfigError(
                f"target_mode must be one of {TARGET_MODES}, got {self.target_mode!r}")
        if self.limit_rows is not None and self.limit_rows < 1:
            raise ConfigError(f"limit_rows must be >= 1 or null, got {self.limit_rows}")
        return self


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
                    ok, values[key] = _coerce(kind, given[key])
                    if not ok:
                        problems.append(f"{sec}.{key} must be {_KIND_NAMES[kind]}, "
                                        f"got {given[key]!r}")
                elif default is MISSING:
                    problems.append(f"missing required key {sec}.{key}")
                else:
                    values[key] = default
            sections[sec] = values
        out_dir = raw.get("out_dir", RunConfig.out_dir)
        if not isinstance(out_dir, str):
            problems.append(f"out_dir must be a string, got {out_dir!r}")
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        return RunConfig(
            data=DataConfig(**sections["data"]).validate(),
            model=sections["model"],
            train=TrainConfig(**sections["train"]).validate(),
            out_dir=out_dir,
            **sections["eval"],
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


def _schema(fields_) -> dict:
    """key -> (annotation string, default); the default is MISSING for a required key."""
    return {f.name: (f.type, f.default) for f in fields_}


_SECTIONS = {
    "data": _schema(fields(DataConfig)),
    "model": _schema(f for f in fields(ModelConfig) if f.name not in ("n_endo", "n_exo")),
    "train": _schema(fields(TrainConfig)),
    "eval": _schema(f for f in fields(RunConfig) if f.name == "scaled_metrics"),
}

# type tag -> the words an error uses for it, and the JSON types it accepts
_KIND_NAMES = {"str": "a string", "int": "an integer", "int | None": "an integer or null",
               "float": "a number", "bool": "a boolean", "tuple": "a list of three numbers"}
_TYPES = {"str": str, "bool": bool, "int": int, "int | None": (int, type(None))}


def _to_float(v):
    """``float(v)`` for a JSON number; None for a bool, a non-number or an int too big."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        return float(v)
    except OverflowError:
        return None


def _coerce(kind: str, v):
    """(whether ``v`` fits the type tag ``kind``, the value to store)."""
    if kind in _TYPES:  # a bool is an int to Python but not to the config
        return isinstance(v, _TYPES[kind]) and (kind == "bool" or not isinstance(v, bool)), v
    if kind == "float":
        f = _to_float(v)
        return f is not None, v if f is None else f
    if kind != "tuple":
        raise AssertionError(kind)
    ok = isinstance(v, (list, tuple)) and len(v) == 3 and None not in map(_to_float, v)
    return ok, tuple(map(_to_float, v)) if ok else v


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from e
    except ValueError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return RunConfig.from_dict(raw)
