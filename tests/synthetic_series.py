"""Synthetic forecasting tasks shared across the test suite.

``lagged_sine_series``: two columns, an exogenous driver x built from two
incommensurate sinusoids plus small noise, and an endogenous target y that
copies x with one step of lag plus a slow sinusoidal offset:

    y_t = x_{t-1} + 0.1 * sin(t / 10)

Both the lag-copy and the offset are linearly recoverable from a long
enough lookback, so a correctly wired model driven by a correctly wired
trainer must push validation MSE close to the noise floor.

``driven_series``: the paper's setting, where cheap exogenous inputs drive
the endogenous target one way. A driver x and two noise channels n1, n2
are independent AR(1) series; the target is a smoothed, lagged copy of x

    y_t = mean(x_{t-14}, x_{t-13}, x_{t-12})

with no feedback into x. With a horizon of at most 12 steps every future
target is an average of driver values already in the exogenous history,
while the target's own history predicts little beyond its AR memory.
"""

import numpy as np

DRIVEN_LAG = 12  # y_t averages x_{t-lag-width+1} .. x_{t-lag}
DRIVEN_WIDTH = 3


def lagged_sine_series(n_rows: int = 2000, seed: int = 7, noise: float = 0.02):
    """Returns (x_rows, y_rows), each of length n_rows."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows + 1, dtype=float)
    x = (np.sin(2.0 * np.pi * t / 23.0)
         + 0.6 * np.sin(2.0 * np.pi * t / 89.0 + 1.0)
         + noise * rng.normal(size=t.size))
    y = x[:-1] + 0.1 * np.sin(np.arange(1, n_rows + 1) / 10.0)
    return x[1:], y


def ar1(rng, n: int, phi: float = 0.9) -> np.ndarray:
    """A stationary AR(1) series ``a_t = phi * a_{t-1} + e_t`` with unit normal ``e_t``."""
    e = rng.normal(size=n)
    a = np.empty(n)
    a[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        a[t] = phi * a[t - 1] + e[t]
    return a


def driven_series(n_rows: int = 2000, seed: int = 1, driven: bool = True):
    """Returns (names, [n_rows x 4] values) for columns x, n1, n2, y.

    With ``driven`` False the target is a fourth AR(1) series independent of
    the rest: the negative control, where the exogenous channels carry nothing.
    """
    rng = np.random.default_rng(seed)
    pad = DRIVEN_LAG + DRIVEN_WIDTH - 1
    x, n1, n2, free = (ar1(rng, n_rows + pad) for _ in range(4))
    if driven:
        y = np.mean([x[pad - DRIVEN_LAG - j:pad - DRIVEN_LAG - j + n_rows]
                     for j in range(DRIVEN_WIDTH)], axis=0)
    else:
        y = free[pad:]
    return ("x", "n1", "n2", "y"), np.stack([x[pad:], n1[pad:], n2[pad:], y], axis=1)


def write_csv(path, names, rows):
    lines = [",".join(names)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_synthetic_csv(path, n_rows: int = 2000, seed: int = 7, noise: float = 0.02):
    return write_csv(path, ("x", "y"), zip(*lagged_sine_series(n_rows, seed, noise)))


def write_driven_csv(path, n_rows: int = 2000, seed: int = 1, driven: bool = True):
    return write_csv(path, *driven_series(n_rows, seed, driven))
