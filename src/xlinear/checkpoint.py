"""Single-file checkpoint format.

Layout: an 8-byte little-endian unsigned header length, a UTF-8 JSON
header (format version, resolved run config, tensor shape table, scaler
statistics, best-epoch metadata), then one length-prefixed block of raw
little-endian float64 values per tensor, in shape-table order. JSON keys
are sorted and floats round-trip via repr, so identical state produces
byte-identical files. This build writes and reads format version 2 only;
a file of any other version is rejected with one IOFault.

Saving writes each payload from the array's own memory. Loading reads the
header length, then the rest of the file into one buffer, so no corrupt
length can make it allocate more than the file holds. Each payload starts
8 + nbytes after the one before, so a buffer placed to align the first
aligns them all, and every tensor is a writable view of its payload there.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import output_file
from .errors import DimensionError, IOFault
from .model import ModelConfig, XLinearParams, param_shapes

FORMAT_VERSION = 2


@dataclass
class Checkpoint:
    config: dict  # resolved run config snapshot
    tensors: dict  # name -> float64 array
    scaler: dict  # variable_names, mean, std
    meta: dict  # n_endo, n_exo, best_epoch, ...


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params: XLinearParams, run_config: dict, scaler: dict, meta: dict):
    """Write the checkpoint through :func:`~xlinear.data.output_file`, so a
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
    with output_file(path, binary=True) as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in named:
            raw = np.ascontiguousarray(t.data, dtype="<f8")  # no copy for a float64 leaf
            fh.write(struct.pack("<Q", raw.nbytes))
            fh.write(memoryview(raw))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_header(header, path):
    """Raise IOFault unless ``header`` has the layout save_checkpoint writes."""
    def corrupt(problem):
        return IOFault(f"corrupt checkpoint header in {path}: {problem}")

    if not isinstance(header, dict):
        raise corrupt(f"a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if not (_is_int(version) and version == FORMAT_VERSION):
        raise IOFault(f"unsupported checkpoint format version {version!r}, "
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
    names = [e["name"] for e in tensors]
    if len(set(names)) != len(names):  # else a later payload would replace an earlier one
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise corrupt(f"tensor names repeat in the shape table: {repeated}")


def _read_body(fh, hlen: int) -> np.ndarray:
    """The rest of the file after its 8-byte header length, read into one buffer placed so
    the first payload, ``hlen + 8`` bytes in, starts on an 8-byte boundary."""
    n = max(os.fstat(fh.fileno()).st_size - 8, 0)
    store = np.empty(n + 7, dtype=np.uint8)
    pad = -(store.ctypes.data + hlen) % 8
    body = store[pad:pad + n]
    got = fh.readinto(body)
    if got != n:  # the file shrank since fstat
        raise IOFault(f"truncated checkpoint: expected {n} bytes after the header length, "
                      f"got {got}")
    return body


def load_checkpoint(path) -> Checkpoint:
    """Read the header length, then the rest of ``path`` (:func:`_read_body`), and walk the
    header, length prefixes and payloads over that one buffer."""
    try:
        fh = open(path, "rb", buffering=0)
    except OSError as e:
        raise IOFault(f"cannot open checkpoint {path}: {e.strerror}") from e
    with fh:
        head = fh.read(8)
        if len(head) < 8:
            raise IOFault(f"truncated checkpoint: expected 8 bytes for header length, "
                          f"{len(head)} left")
        (hlen,) = struct.unpack("<Q", head)
        body = _read_body(fh, hlen)
    pos = 0

    def take(n: int, what: str) -> np.ndarray:
        nonlocal pos
        left = body.size - pos
        if n > left:
            raise IOFault(f"truncated checkpoint: expected {n} bytes for {what}, {left} left")
        pos += n
        return body[pos - n:pos]

    try:
        header = json.loads(take(hlen, "header").tobytes().decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as e:
        raise IOFault(f"corrupt checkpoint header in {path}: {e}") from e
    _check_header(header, path)
    tensors = {}
    for entry in header["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        (nbytes,) = struct.unpack("<Q", take(8, f"length of {name}"))
        expected = math.prod(shape) * 8
        if nbytes != expected:
            raise IOFault(f"tensor {name}: payload is {nbytes} bytes but shape "
                          f"{shape} needs {expected}")
        tensors[name] = take(nbytes, f"payload of {name}").view("<f8").reshape(shape)
    if pos != body.size:
        raise IOFault(f"trailing bytes after last tensor in {path}")
    return Checkpoint(config=header["config"], tensors=tensors, scaler=header["scaler"],
                      meta=header["meta"])


def params_from_checkpoint(ckpt: Checkpoint, cfg: ModelConfig) -> XLinearParams:
    """Rebuild parameters, insisting the stored shape table matches the
    shapes the config derives."""
    expected = param_shapes(cfg)
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
    return XLinearParams.from_arrays(cfg, ckpt.tensors)
