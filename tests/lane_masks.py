"""Reference dropout keep masks, drawn from a twin Generator with no library draw code."""

import math

import numpy as np

from xlinear import model as mdl


def lane_keep(rng: np.random.Generator, shape, rate: float):
    """The keep mask and survivor scale that dropout at ``rate`` draws for ``shape``.

    ``ceil(size / 4)`` outputs of ``rng.bit_generator.random_raw`` are cut by shifts into
    four 16-bit lanes each, low bits first; an entry is kept where its lane is at least
    ``t = min(round(rate * 65536), 65535)``, and survivors are scaled by
    ``1 / (1 - t / 65536)``.
    """
    size = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-size // 4))
    lanes = np.stack([(raw >> np.uint64(16 * j)) & np.uint64(0xFFFF) for j in range(4)],
                     axis=-1).reshape(-1)[:size]
    t = min(round(rate * 65536), 65535)
    return (lanes >= t).reshape(shape), 1.0 / (1.0 - t / 65536)


def lane_table(rng: np.random.Generator, cfg: mdl.ModelConfig, n: int) -> dict:
    """The keep masks of every site of ``dropout_sites(cfg, n)`` by name, each drawn by
    :func:`lane_keep` in the table's order: the masks ``train`` draws for an ``n``-window
    batch from a Generator in ``rng``'s state."""
    return {site: lane_keep(rng, shape, rate)[0]
            for site, (shape, rate) in mdl.dropout_sites(cfg, n).items()}
