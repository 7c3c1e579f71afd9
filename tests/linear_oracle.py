"""The least-squares linear forecaster over whole window histories: a reference for how
much of a split's future a model's inputs determine linearly."""

import numpy as np

from xlinear import data as dio


def windows(ds, split: str, L: int, S: int):
    """(features, targets) of every window ``dio.iter_batches`` yields for ``split``: each
    window's endogenous and exogenous histories flattened beside a constant 1, and its
    flattened endogenous future."""
    xs, ys = [], []
    for b in dio.iter_batches(ds, split, L, S, 256):
        n = len(b)
        xs.append(np.concatenate([b.endo_history.reshape(n, -1), b.exo_history.reshape(n, -1),
                                  np.ones((n, 1))], axis=1))
        ys.append(b.endo_future.reshape(n, -1))
    return np.concatenate(xs), np.concatenate(ys)


def linear_oracle_mse(ds, L: int, S: int) -> float:
    """Test MSE, in the scaled space ``evaluate(scaled=True)`` scores, of the ``lstsq`` map
    from the train windows' features to their targets."""
    x, y = windows(ds, "train", L, S)
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    x, y = windows(ds, "test", L, S)
    return float(np.mean((x @ coef - y) ** 2))
