"""Fuzz test of the checkpoint reader through ``xlinear predict``: a truncated
or bit-flipped checkpoint either still forecasts (exit 0) or fails with a
nonzero exit code other than 1 (the unexpected-fault code) and exactly one
``error[<code>]: ...`` line on stderr.

Inputs are every truncation up to 64 bytes past the JSON header, every
single-bit flip of the 8-byte header length, and one flip in every header
byte, its bit cycling through the 8 positions.
"""

import contextlib
import io
import json
import re
import struct

import pytest

from xlinear import cli

from synthetic_series import write_synthetic_csv

TAIL = 64  # payload bytes past the header that the truncations cover


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A one-epoch checkpoint of a tiny model, its input CSV and its bytes."""
    root = tmp_path_factory.mktemp("ckfuzz")
    csv_path = write_synthetic_csv(root / "series.csv", n_rows=120)
    cfg = {"data": {"csv_path": str(csv_path), "target_mode": "multivariate",
                    "split_ratios": [0.6, 0.2, 0.2]},
           "model": {"horizon": 2, "lookback": 8, "d_model": 4, "t_ff": 4, "c_ff": 4},
           "train": {"batch_size": 16, "max_epochs": 1, "seed": 1},
           "out_dir": str(root / "run")}
    (root / "config.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(root / "config.json")]) == 0
    return root, csv_path, (root / "run" / cli.CHECKPOINT_NAME).read_bytes()


def damaged(raw: bytes):
    """(label, bytes) for every truncation and bit flip the module docstring names."""
    (hlen,) = struct.unpack("<Q", raw[:8])
    for n in range(min(len(raw), 8 + hlen + TAIL) + 1):
        yield f"truncated to {n}", raw[:n]
    for pos in range(8 + hlen):
        bits = range(8) if pos < 8 else (pos % 8,)
        for bit in bits:
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


def test_damaged_checkpoint_forecasts_or_gives_one_error_line(tiny_checkpoint):
    root, csv_path, raw = tiny_checkpoint
    path = root / "damaged.bin"
    argv = ["predict", "--checkpoint", str(path), "--input", str(csv_path),
            "--out-dir", str(root / "out")]
    cases = 0
    for label, data in damaged(raw):
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        lines = err.getvalue().splitlines()
        if rc != 0:
            assert rc != 1 and len(lines) == 1, (label, rc, lines)
            assert re.fullmatch(r"error\[[a-z]+\]: .+", lines[0]), (label, lines)
        cases += 1
    assert cases > 64 + TAIL  # not vacuous: the prefix flips and the tail truncations ran
