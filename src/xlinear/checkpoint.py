"""Single-file checkpoint format.

Layout: an 8-byte little-endian unsigned header length, a UTF-8 JSON
header (format version, resolved run config, tensor shape table, scaler
statistics, best-epoch metadata), then one length-prefixed block of raw
little-endian float64 values per tensor, in shape-table order. JSON keys
are sorted and floats round-trip via repr, so identical state produces
byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IOFault
from .model import ModelConfig, XLinearParams

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    version: int
    config: dict  # resolved run config snapshot
    tensors: dict  # name -> float64 array
    scaler: dict  # variable_names, mean, std
    meta: dict  # n_endo, n_exo, best_epoch, ...


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: XLinearParams, run_config: dict, scaler: dict, meta: dict):
    """Write the checkpoint to ``<path>.tmp`` and rename it onto ``path``, so a
    failed save leaves any earlier checkpoint at ``path`` untouched."""
    named = params.named()
    header = {
        "format_version": FORMAT_VERSION,
        "config": run_config,
        "tensors": [{"name": n, "shape": list(t.data.shape)} for n, t in named],
        "scaler": scaler,
        "meta": meta,
    }
    blob = _canonical_json(header)
    tmp = f"{path}.tmp"  # same directory, so the rename cannot cross filesystems
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, t in named:
                raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                fh.write(struct.pack("<Q", len(raw)))
                fh.write(raw)
        os.replace(tmp, path)
    except OSError as e:
        raise IOFault(f"cannot write checkpoint {path}: {e.strerror}") from e
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # left only when the write failed


def _read_exact(fh, n: int, what: str) -> bytes:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:  # checked before reading: a corrupt length must not allocate n bytes
        raise IOFault(f"truncated checkpoint: expected {n} bytes for {what}, {left} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise IOFault(f"truncated checkpoint: expected {n} bytes for {what}, got {len(buf)}")
    return buf


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_header(header, path):
    """Raise IOFault unless ``header`` has the layout save_checkpoint writes."""
    def corrupt(problem):
        return IOFault(f"corrupt checkpoint header in {path}: {problem}")

    if not isinstance(header, dict):
        raise corrupt(f"a JSON {type(header).__name__}, not an object")
    if header.get("format_version") != FORMAT_VERSION:
        raise IOFault(f"unsupported checkpoint format version {header.get('format_version')!r}, "
                      f"this build reads version {FORMAT_VERSION}")
    if not all(isinstance(header.get(k), dict) for k in ("config", "scaler", "meta")):
        raise corrupt("config, scaler and meta must be objects")
    if not all(_is_int(header["meta"].get(k)) for k in ("n_endo", "n_exo")):
        raise corrupt("meta.n_endo and meta.n_exo must be integers")
    tensors = header.get("tensors")
    if not (isinstance(tensors, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(_is_int(k) and k >= 0 for k in e["shape"]) for e in tensors)):
        raise corrupt("tensors must be a list of {name: string, shape: list of ints >= 0}")


def load_checkpoint(path) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise IOFault(f"cannot open checkpoint {path}: {e.strerror}") from e
    with fh:
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        try:
            header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as e:
            raise IOFault(f"corrupt checkpoint header in {path}: {e}") from e
        _check_header(header, path)
        tensors = {}
        for entry in header["tensors"]:
            name, shape = entry["name"], tuple(entry["shape"])
            (nbytes,) = struct.unpack("<Q", _read_exact(fh, 8, f"length of {name}"))
            expected = math.prod(shape) * 8
            if nbytes != expected:
                raise IOFault(f"tensor {name}: payload is {nbytes} bytes but shape "
                              f"{shape} needs {expected}")
            raw = _read_exact(fh, nbytes, f"payload of {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if fh.read(1):
            raise IOFault(f"trailing bytes after last tensor in {path}")
    return Checkpoint(version=FORMAT_VERSION, config=header["config"], tensors=tensors,
                      scaler=header["scaler"], meta=header["meta"])


def params_from_checkpoint(ckpt: Checkpoint, cfg: ModelConfig) -> XLinearParams:
    """Rebuild parameters, insisting the stored shape table matches the
    shapes the config derives."""
    params = XLinearParams(cfg, np.random.default_rng(0))
    expected = {n: t.data.shape for n, t in params.named()}
    stored = {n: a.shape for n, a in ckpt.tensors.items()}
    if expected.keys() != stored.keys():
        missing = sorted(expected.keys() - stored.keys())
        extra = sorted(stored.keys() - expected.keys())
        raise DimensionError(
            f"checkpoint tensor set does not match config: missing {missing}, "
            f"unexpected {extra}")
    bad = [f"{n}: stored {stored[n]} != expected {expected[n]}"
           for n in sorted(expected) if stored[n] != expected[n]]
    if bad:
        raise DimensionError("checkpoint shape table mismatch: " + "; ".join(bad))
    params.load_state_arrays(ckpt.tensors)
    return params
