"""The XLinear forecasting network.

Pipeline: per-window reversible instance normalization, separate linear
embeddings of endogenous and exogenous histories, learnable global tokens
concatenated onto the endogenous embedding, a time-wise gating module
(TGM) mixing along the embedding axis, a variate-wise gating module
(VGM) mixing along the channel axis of stacked exogenous embeddings and
global tokens, and a channel-independent linear head producing all S
future steps at once. Gates are MLPs whose activated output multiplies
the gated tensor elementwise.

The global tokens are the same for every window, so their half of the TGM's
first layer is computed once per batch, as a per-channel term; and in
multivariate mode, where one history is both endogenous and exogenous, it is
normalized once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .data import WindowBatch, output_file
from .errors import ConfigError, DimensionError, NumericFault, UsageError
from .tensor import Tensor

GATE_ACTIVATIONS = ("sigmoid", "swish", "tanh", "softmax")
ABLATIONS = ("full", "endo_only", "global_only")

REVIN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; M and C come from the dataset. Checked when built."""

    horizon: int
    n_endo: int
    n_exo: int
    lookback: int = 96
    d_model: int = 256
    t_ff: int = 512
    c_ff: int = 512
    embed_dropout: float = 0.1
    t_dropout: float = 0.1
    c_dropout: float = 0.1
    head_dropout: float = 0.1
    gate_activation: str = "sigmoid"
    ablation: str = "full"

    def __post_init__(self):
        for name in ("horizon", "n_endo", "d_model", "t_ff", "c_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lookback < 2:  # RevIN's per-window std needs two points
            raise ConfigError(f"lookback must be >= 2, got {self.lookback}")
        if self.n_exo < 0:
            raise ConfigError(f"n_exo must be >= 0, got {self.n_exo}")
        for name in ("embed_dropout", "t_dropout", "c_dropout", "head_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ConfigError(
                f"gate_activation must be one of {GATE_ACTIVATIONS}, got {self.gate_activation!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


def param_shapes(cfg: ModelConfig) -> dict:
    """Shape of every learnable tensor by name, in checkpoint and init-draw order. The
    VGM's second layer has a column per gate row the forecast reads: M for an elementwise
    gate, C+M for softmax, whose normalizer spans every channel."""
    L, S, M, C, d = cfg.lookback, cfg.horizon, cfg.n_endo, cfg.n_exo, cfg.d_model
    gates = C + M if cfg.gate_activation == "softmax" else M
    return {"embed_endo_w": (L, d), "embed_endo_b": (d,),
            "embed_exo_w": (L, d), "embed_exo_b": (d,), "global_tokens": (M, d),
            "tgm_w1": (2 * d, cfg.t_ff), "tgm_b1": (cfg.t_ff,),
            "tgm_w2": (cfg.t_ff, 2 * d), "tgm_b2": (2 * d,),
            "vgm_w1": (C + M, cfg.c_ff), "vgm_b1": (cfg.c_ff,),
            "vgm_w2": (cfg.c_ff, gates), "vgm_b2": (gates,),
            "head_w": (2 * d, S), "head_b": (S,), "revin_gamma": (M,), "revin_beta": (M,)}


def _init_array(name: str, shape: tuple, rng: np.random.Generator, n_channels: int) -> np.ndarray:
    """Global tokens N(0, 0.02), linear weights U(+-1/sqrt(fan_in)), RevIN gamma 1, biases
    and RevIN beta 0; only the first two draw from ``rng``. ``vgm_w2`` is drawn at its full
    ``n_channels`` = C+M width and keeps its last columns, so pruning it leaves the draws of
    every tensor unchanged."""
    if name == "global_tokens":
        return rng.normal(0.0, 0.02, size=shape)
    if len(shape) == 2:
        bound = 1.0 / np.sqrt(shape[0])
        width = n_channels if name == "vgm_w2" else shape[1]
        return rng.uniform(-bound, bound, size=(shape[0], width))[:, width - shape[1]:]
    return np.ones(shape) if name == "revin_gamma" else np.zeros(shape)


class XLinearParams:
    """All learnable tensors, with a stable naming for checkpoints."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        try:
            arrays = {name: _init_array(name, shape, rng, cfg.n_exo + cfg.n_endo)
                      for name, shape in param_shapes(cfg).items()}
        except (MemoryError, ValueError) as e:  # numpy's "too big" and "cannot allocate"
            raise ConfigError(f"model too large to allocate: {e}") from e
        self._wrap(cfg, arrays)

    @classmethod
    def from_arrays(cls, cfg: ModelConfig, arrays: dict) -> XLinearParams:
        """Wrap ``arrays`` (name -> array of its :func:`param_shapes` shape) without a copy."""
        params = cls.__new__(cls)
        params._wrap(cfg, arrays)
        return params

    def _wrap(self, cfg: ModelConfig, arrays: dict):
        self.cfg = cfg
        self._names = tuple(param_shapes(cfg))
        for name in self._names:
            setattr(self, name, Tensor(arrays[name], requires_grad=True))

    def named(self):
        """(name, tensor) pairs in checkpoint order."""
        return [(name, getattr(self, name)) for name in self._names]

    def all(self):
        return [t for _, t in self.named()]

    def n_parameters(self) -> int:
        return sum(t.size for t in self.all())

    def state_arrays(self):
        """Copies of the raw parameter arrays, keyed by name."""
        return {name: t.data.copy() for name, t in self.named()}


def dropout_sites(cfg: ModelConfig, n: int) -> dict:
    """(keep mask shape, rate) of the dropout sites of a training forward over ``n`` windows,
    by name in draw order; a rate-0 site draws nothing and is left out. A training forward
    reads its masks from a table of exactly these names, each mask of its site's shape."""
    M, C, d = cfg.n_endo, cfg.n_exo, cfg.d_model
    sites = {"embed_endo": ((n, M, d), cfg.embed_dropout),
             "embed_exo": ((n, C, d), cfg.embed_dropout),
             "tgm": ((n, M, cfg.t_ff), cfg.t_dropout),
             "vgm": ((n, d, cfg.c_ff), cfg.c_dropout),
             "head": ((n, M, 2 * d), cfg.head_dropout)}
    return {name: site for name, site in sites.items() if site[1] > 0.0}


@dataclass
class RevinStats:
    """Per-window, per-variable normalization statistics, shape [b x M x 1]."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class ForwardTrace:
    """The gate activations of one forward pass, for export and tests."""

    time_gate: np.ndarray  # [batch x M x 2*d_model]
    variate_gate: np.ndarray  # [batch x M x d_model], the global-token rows


def revin_normalize(x: Tensor, affine=None):
    """Normalize each window of each variable over its time axis.

    Mean and std (variance + 1e-5, so constant windows are safe) are
    computed per [batch, variable] row and kept for denormalization.
    ``affine`` is an optional (gamma, beta) tensor pair of shape [M].
    Returns (normalized, normalized before the affine, stats); without
    ``affine`` the first two are one tensor.
    """
    if x.ndim != 3 or x.shape[-1] < 2:
        raise DimensionError(f"expected [batch x vars x L] with L >= 2, got {x.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt(x.data.var(axis=-1, keepdims=True) + REVIN_EPS)
    stats = RevinStats(mean=mean, std=std)
    plain = z = (x - Tensor(mean)) / Tensor(std)
    if affine is not None:
        gamma, beta = affine
        m = gamma.shape[0]
        z = z * tc.reshape(gamma, (m, 1)) + tc.reshape(beta, (m, 1))
    return z, plain, stats


def revin_denormalize(yhat: Tensor, stats: RevinStats, affine=None) -> Tensor:
    """Invert :func:`revin_normalize`, broadcasting window stats over S."""
    if yhat.ndim != 3 or yhat.shape[:2] != stats.mean.shape[:2]:
        raise DimensionError(
            f"prediction shape {yhat.shape} does not match stats {stats.mean.shape}")
    if affine is not None:
        gamma, beta = affine
        m = gamma.shape[0]
        yhat = (yhat - tc.reshape(beta, (m, 1))) / tc.reshape(gamma, (m, 1))
    return yhat * Tensor(stats.std) + Tensor(stats.mean)


def embed(x_endo: Tensor, e_exo: Tensor, params: XLinearParams, masks: dict):
    """Project each variable's L-length history to d_model features. Like every stage, it
    drops out at a site iff the mask table ``masks`` (``{}`` in eval) holds it."""
    cfg = params.cfg
    if x_endo.shape[-1] != cfg.lookback or e_exo.shape[-1] != cfg.lookback:
        raise DimensionError(
            f"history length must be L={cfg.lookback}, got endo {x_endo.shape} "
            f"exo {e_exo.shape}")
    x = tc.add(x_endo @ params.embed_endo_w, params.embed_endo_b, into_a=True)
    e = tc.add(e_exo @ params.embed_exo_w, params.embed_exo_b, into_a=True)
    x = tc.dropout(x, cfg.embed_dropout, "embed_endo" in masks, masks.get("embed_endo"))
    e = tc.dropout(e, cfg.embed_dropout, "embed_exo" in masks, masks.get("embed_exo"))
    return x, e


def attach_global_tokens(x_endo: Tensor, params: XLinearParams):
    """Attach the per-variable learnable tokens to the embedding, as the TGM's first layer
    reads them. That layer maps each channel's [embedding, token] by ``tgm_w1``, which is
    ``x_endo @ tgm_w1[:d] + token @ tgm_w1[d:]``; the token half is the same for every
    window, so it is computed here once, with ``tgm_b1``, as the [M x t_ff] per-channel term.
    Returns (``tgm_w1[:d]``, that term)."""
    b, m, d = x_endo.shape
    if params.global_tokens.shape != (m, d):
        raise DimensionError(
            f"global tokens {params.global_tokens.shape} do not match embedding ({m}, {d})")
    w_endo, w_tok = tc.split(params.tgm_w1, (d, d), axis=0)
    return w_endo, params.global_tokens @ w_tok + params.tgm_b1


def tgm(x_endo: Tensor, tokens, params: XLinearParams, masks: dict):
    """Time-wise gating: one MLP over the 2*d_model axis of [embedding, token], shared by
    all variables, whose activated output reweights that sequence. ``tokens`` is
    :func:`attach_global_tokens`' pair: the first layer's embedding rows and the token term,
    which stands for the token half of every row."""
    cfg = params.cfg
    w_endo, term = tokens
    gate = tc.mlp(x_endo, w_endo, term, params.tgm_w2, params.tgm_b2, cfg.t_dropout,
                  masks.get("tgm"), cfg.gate_activation)
    g_endo, g_glob = tc.split(gate, (cfg.d_model, cfg.d_model), axis=-1)
    return g_endo * x_endo, g_glob * params.global_tokens, gate


def vgm(e_exo: Tensor, x_glob: Tensor, params: XLinearParams, masks: dict):
    """Variate-wise gating: an MLP over the stacked (C+M)-channel axis gates the M global
    tokens, the only rows the forecast reads.

    The MLP runs in the transposed [batch x d_model x (C+M)] layout so
    identical weights apply at every embedding position. The first bias rides in the
    GEMM as the weight row of a constant ones channel, stacked after the C+M channels
    before the one transpose, so the [batch x d_model x c_ff] hidden layer has no separate
    bias add; in eval it exists only in :func:`~xlinear.tensor.mlp`'s row blocks. An
    elementwise gate computes only its M global-token columns; softmax normalizes over all
    C+M and keeps the last M.
    """
    cfg = params.cfg
    ones = Tensor(np.ones((x_glob.shape[0], 1, cfg.d_model)))
    t = tc.transpose(tc.concat([e_exo, x_glob, ones], axis=1))  # [b x d x (C+M+1)]
    w1 = tc.concat([params.vgm_w1, tc.reshape(params.vgm_b1, (1, cfg.c_ff))], axis=0)
    gate = tc.mlp(t, w1, None, params.vgm_w2, params.vgm_b2, cfg.c_dropout,
                  masks.get("vgm"), cfg.gate_activation)
    if cfg.gate_activation == "softmax":
        gate = tc.narrow(gate, -1, cfg.n_exo, cfg.n_endo)
    gate = tc.transpose(gate)  # [b x M x d]
    return gate * x_glob, gate


def head(x_endo: Tensor, x_glob: Tensor, params: XLinearParams, masks: dict) -> Tensor:
    """Channel-independent linear map from fused features to S steps.

    Output stays in the normalized space; the caller denormalizes.
    """
    cfg = params.cfg
    z = tc.concat([x_endo, x_glob], axis=-1)
    z = tc.dropout(z, cfg.head_dropout, "head" in masks, masks.get("head"))
    return tc.add(z @ params.head_w, params.head_b, into_a=True)


def _check_finite(data: np.ndarray, stage: str):
    if not np.isfinite(data).all():
        raise NumericFault(f"non-finite values detected at stage {stage!r}")


def forward(batch, params: XLinearParams, masks: dict | None = None):
    """Full forward pass over one WindowBatch.

    Returns the denormalized prediction tensor [batch x M x S] and a ForwardTrace. Ablations
    blank one half of the head input: endo_only keeps the temporally gated endogenous
    features, global_only keeps the exogenous-informed global tokens. ``masks`` None is eval;
    a training forward gets a table of the keep mask of each site of :func:`dropout_sites`,
    by name. A batch whose exogenous history is its endogenous array (multivariate mode) is
    normalized once.
    """
    cfg = params.cfg
    one = batch.exo_history is batch.endo_history
    x_raw = Tensor(batch.endo_history)
    e_raw = x_raw if one else Tensor(batch.exo_history)
    if x_raw.shape[1] != cfg.n_endo or e_raw.shape[1] != cfg.n_exo:
        raise DimensionError(
            f"batch has {x_raw.shape[1]} endo / {e_raw.shape[1]} exo channels, "
            f"config expects {cfg.n_endo} / {cfg.n_exo}")
    if masks is None:
        masks = {}
    else:
        sites = dropout_sites(cfg, x_raw.shape[0])
        if masks.keys() != sites.keys():
            raise UsageError(f"a training forward needs a keep mask for each dropout site "
                             f"{list(sites)} and no other, got {list(masks)}")
    _check_finite(x_raw.data, "input")
    if not one:
        _check_finite(e_raw.data, "input")

    affine = (params.revin_gamma, params.revin_beta)
    xn, plain, stats = revin_normalize(x_raw, affine)
    # the exogenous RevIN has no affine and its stats are never denormalized: for one
    # history it is the endogenous one before its affine
    en = plain if one else revin_normalize(e_raw)[0]
    _check_finite(xn.data, "revin")

    x_emb, e_emb = embed(xn, en, params, masks)
    _check_finite(x_emb.data, "embed")
    tokens = attach_global_tokens(x_emb, params)

    x_endo, x_glob, time_gate = tgm(x_emb, tokens, params, masks)
    _check_finite(time_gate.data, "tgm")

    x_glob2, variate_gate = vgm(e_emb, x_glob, params, masks)
    _check_finite(variate_gate.data, "vgm")

    if cfg.ablation == "endo_only":
        x_glob2 = Tensor(np.zeros_like(x_glob2.data))
    elif cfg.ablation == "global_only":
        x_endo = Tensor(np.zeros_like(x_endo.data))
    yhat_n = head(x_endo, x_glob2, params, masks)
    _check_finite(yhat_n.data, "head")

    yhat = revin_denormalize(yhat_n, stats, affine)
    _check_finite(yhat.data, "denormalize")

    return yhat, ForwardTrace(time_gate=time_gate.data, variate_gate=variate_gate.data)


def predictor(params: XLinearParams, cfg: ModelConfig):
    """Eval-mode closure mapping (endo_hist, exo_hist) arrays to forecasts."""

    def predict(endo_history: np.ndarray, exo_history: np.ndarray) -> np.ndarray:
        yhat, _ = forward(WindowBatch(endo_history, exo_history), params)
        return yhat.data

    return predict


def export_gating_weights(trace: ForwardTrace, out_dir, endo_names=None):
    """Write batch-averaged gate matrices as labeled CSV files.

    ``time_gate.csv`` has one row per endogenous channel over 2*d_model
    positions; ``variate_gate.csv`` has one ``glob_<name>`` row per global token over
    d_model positions. Returns the two paths.
    """
    tg = trace.time_gate.mean(axis=0)
    vg = trace.variate_gate.mean(axis=0)
    m = tg.shape[0]
    endo_names = list(endo_names) if endo_names else [f"endo_{i}" for i in range(m)]
    if len(endo_names) != m or vg.shape[0] != m:
        raise DimensionError(
            f"{len(endo_names)} endo labels do not match gate shapes "
            f"(time {tg.shape[0]}, variate {vg.shape[0]} rows)")
    time_path = os.path.join(out_dir, "time_gate.csv")
    var_path = os.path.join(out_dir, "variate_gate.csv")
    for path, labels, gate in ((time_path, endo_names, tg),
                               (var_path, [f"glob_{n}" for n in endo_names], vg)):
        with output_file(path) as fh:
            fh.write("label," + ",".join(f"pos_{i}" for i in range(gate.shape[1])) + "\n")
            for label, row in zip(labels, gate):
                fh.write(label + "," + ",".join(f"{v:.6g}" for v in row) + "\n")
    return time_path, var_path
