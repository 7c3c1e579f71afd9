"""Seeded synthetic series shaped like the ETT transformer datasets.

Each file has an hourly ``date`` column, six load-like columns (HUFL,
HULL, MUFL, MULL, LUFL, LULL) and the oil temperature ``OT`` last, the
column layout of ETTh1/ETTh2. Every column mixes a daily and a weekly
cycle, a slow drift and AR(1) noise; ``OT`` follows a lagged, smoothed
blend of the loads. Only the noise depends on the seed, so forecasting
difficulty is about the same for every seed.
"""

from __future__ import annotations

import datetime as _dt
import os

import numpy as np

COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
START = _dt.datetime(2016, 7, 1)
MIX = np.array([0.3, 0.1, 0.25, 0.1, 0.15, 0.1])  # load blend that heats the oil


def ett_like_values(n_rows: int, seed: int) -> np.ndarray:
    """[n_rows x 7] float64 values; the same seed gives the same array."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows, dtype=np.float64)
    daily = 2.0 * np.pi * t / 24.0
    weekly = 2.0 * np.pi * t / 168.0
    slow = 2.0 * np.pi * t / 2160.0  # ~90-day drift
    clean = []
    for j in range(6):
        cycle = (3.0 * np.sin(daily + 0.4 * j) + 1.0 * np.sin(2.0 * daily + 0.8 * j)
                 + 1.5 * np.sin(weekly + 0.9 * j))
        drift = 2.0 * np.sin(slow + 1.3 * j) + 0.5 * t / max(n_rows, 1)
        clean.append(8.0 + 4.0 * j + cycle + drift)
    clean = np.stack(clean, axis=1)
    loads = clean + np.stack([_ar1(rng, n_rows, 0.7, 0.2) for _ in range(6)], axis=1)
    drive = clean @ MIX
    # thermal lag: OT tracks the load blend with a 6-hour exponential memory
    ot = np.empty(n_rows)
    acc = drive[0]
    for i in range(n_rows):
        acc += (drive[i] - acc) / 6.0
        ot[i] = acc
    ot = 15.0 + 0.8 * (ot - drive.mean()) + 2.0 * np.sin(daily + 1.0)
    ot += _ar1(rng, n_rows, 0.5, 0.15)
    return np.concatenate([loads, ot[:, None]], axis=1)


def _ar1(rng, n, phi, sigma):
    e = rng.normal(0.0, sigma, size=n)
    out = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = phi * prev + e[i]
        out[i] = prev
    return out


def csv_text(values: np.ndarray, first_row: int = 0) -> str:
    """ETT-style CSV text; ``first_row`` offsets the hourly timestamps."""
    lines = ["date," + ",".join(COLUMNS)]
    hour = _dt.timedelta(hours=1)
    for i, row in enumerate(values, start=first_row):
        stamp = (START + i * hour).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(stamp + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def write_inputs(out_dir, n_rows: int, tail_rows: int, seed: int):
    """Write the full-history CSV and its trailing ``tail_rows`` copy.

    Returns (full path, tail path). Identical seeds write identical bytes.
    """
    values = ett_like_values(n_rows, seed)
    full = os.path.join(out_dir, "series_full.csv")
    tail = os.path.join(out_dir, "series_tail.csv")
    with open(full, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(values))
    with open(tail, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(values[-tail_rows:], first_row=n_rows - tail_rows))
    return full, tail
