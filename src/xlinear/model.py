"""The XLinear forecasting network.

Pipeline: per-window reversible instance normalization, joint linear
embedding of endogenous and exogenous histories, learnable global tokens
concatenated onto the endogenous embedding, a time-wise gating module
(TGM) mixing along the embedding axis, a variate-wise gating module
(VGM) mixing along the channel axis of stacked exogenous embeddings and
global tokens, and a channel-independent linear head producing all S
future steps at once. Gates are MLPs whose activated output multiplies
the gated tensor elementwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .data import WindowBatch
from .errors import ConfigError, DimensionError, NumericFault
from .tensor import Tensor

GATE_ACTIVATIONS = ("sigmoid", "swish", "tanh", "softmax")
ABLATIONS = ("full", "endo_only", "global_only")

REVIN_EPS = 1e-5


@dataclass
class ModelConfig:
    """Architecture hyperparameters; M and C come from the dataset."""

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
    revin_affine: bool = True
    share_embedding: bool = False

    def validate(self):
        for name in ("horizon", "n_endo", "lookback", "d_model", "t_ff", "c_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        return self


def parameter_count(cfg: ModelConfig) -> int:
    """Closed-form size of the learnable parameter set."""
    L, S, M, C, d = cfg.lookback, cfg.horizon, cfg.n_endo, cfg.n_exo, cfg.d_model
    n = (L + 1) * d * (1 if cfg.share_embedding else 2)
    n += M * d
    n += (2 * d + 1) * cfg.t_ff + (cfg.t_ff + 1) * 2 * d
    n += (C + M + 1) * cfg.c_ff + (cfg.c_ff + 1) * (C + M)
    n += (2 * d + 1) * S
    if cfg.revin_affine:
        n += 2 * M
    return n


class XLinearParams:
    """All learnable tensors, with a stable naming for checkpoints."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        L, S, M, C, d = cfg.lookback, cfg.horizon, cfg.n_endo, cfg.n_exo, cfg.d_model

        def linear_w(fan_in, fan_out):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                          requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        self.embed_endo_w = linear_w(L, d)
        self.embed_endo_b = zeros(d)
        if cfg.share_embedding:
            self.embed_exo_w = self.embed_endo_w
            self.embed_exo_b = self.embed_endo_b
        else:
            self.embed_exo_w = linear_w(L, d)
            self.embed_exo_b = zeros(d)
        self.global_tokens = Tensor(rng.normal(0.0, 0.02, size=(M, d)), requires_grad=True)
        self.tgm_w1 = linear_w(2 * d, cfg.t_ff)
        self.tgm_b1 = zeros(cfg.t_ff)
        self.tgm_w2 = linear_w(cfg.t_ff, 2 * d)
        self.tgm_b2 = zeros(2 * d)
        self.vgm_w1 = linear_w(C + M, cfg.c_ff)
        self.vgm_b1 = zeros(cfg.c_ff)
        self.vgm_w2 = linear_w(cfg.c_ff, C + M)
        self.vgm_b2 = zeros(C + M)
        self.head_w = linear_w(2 * d, S)
        self.head_b = zeros(S)
        if cfg.revin_affine:
            self.revin_gamma = Tensor(np.ones(M), requires_grad=True)
            self.revin_beta = Tensor(np.zeros(M), requires_grad=True)

    _NAMES = ("embed_endo_w", "embed_endo_b", "embed_exo_w", "embed_exo_b",
              "global_tokens", "tgm_w1", "tgm_b1", "tgm_w2", "tgm_b2",
              "vgm_w1", "vgm_b1", "vgm_w2", "vgm_b2", "head_w", "head_b",
              "revin_gamma", "revin_beta")

    def named(self):
        """(name, tensor) pairs in checkpoint order, each tensor once."""
        out = []
        for name in self._NAMES:
            if self.cfg.share_embedding and name in ("embed_exo_w", "embed_exo_b"):
                continue
            if not self.cfg.revin_affine and name.startswith("revin_"):
                continue
            out.append((name, getattr(self, name)))
        return out

    def all(self):
        return [t for _, t in self.named()]

    def n_parameters(self) -> int:
        return sum(t.size for t in self.all())

    def zero_grad(self):
        for t in self.all():
            t.zero_grad()

    def state_arrays(self):
        """Copies of the raw parameter arrays, keyed by name."""
        return {name: t.data.copy() for name, t in self.named()}

    def load_state_arrays(self, arrays: dict):
        for name, t in self.named():
            src = arrays[name]
            if src.shape != t.data.shape:
                raise DimensionError(
                    f"parameter {name}: stored shape {src.shape} != expected {t.data.shape}")
            t.data[...] = src


@dataclass
class RevinStats:
    """Per-window, per-variable normalization statistics, shape [b x M x 1]."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class ForwardTrace:
    """Intermediate quantities of one forward pass, for export and tests."""

    revin_stats: RevinStats
    time_gate: np.ndarray  # [batch x M x 2*d_model]
    variate_gate: np.ndarray  # [batch x (C+M) x d_model]
    prediction: np.ndarray  # [batch x M x S]


def revin_normalize(x: Tensor, affine=None):
    """Normalize each window of each variable over its time axis.

    Mean and std (variance + 1e-5, so constant windows are safe) are
    computed per [batch, variable] row and kept for denormalization.
    ``affine`` is an optional (gamma, beta) tensor pair of shape [M].
    """
    if x.ndim != 3 or x.shape[-1] < 2:
        raise DimensionError(f"expected [batch x vars x L] with L >= 2, got {x.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt(x.data.var(axis=-1, keepdims=True) + REVIN_EPS)
    stats = RevinStats(mean=mean, std=std)
    z = (x - Tensor(mean)) / Tensor(std)
    if affine is not None:
        gamma, beta = affine
        m = gamma.shape[0]
        z = z * tc.reshape(gamma, (m, 1)) + tc.reshape(beta, (m, 1))
    return z, stats


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


def embed(x_endo: Tensor, e_exo: Tensor, params: XLinearParams, training: bool = False,
          rng: np.random.Generator | None = None):
    """Project each variable's L-length history to d_model features."""
    cfg = params.cfg
    if x_endo.shape[-1] != cfg.lookback or e_exo.shape[-1] != cfg.lookback:
        raise DimensionError(
            f"history length must be L={cfg.lookback}, got endo {x_endo.shape} "
            f"exo {e_exo.shape}")
    x = x_endo @ params.embed_endo_w + params.embed_endo_b
    e = e_exo @ params.embed_exo_w + params.embed_exo_b
    x = tc.dropout(x, cfg.embed_dropout, training, rng)
    e = tc.dropout(e, cfg.embed_dropout, training, rng)
    return x, e


def attach_global_tokens(x_endo: Tensor, global_tokens: Tensor) -> Tensor:
    """Concatenate the per-variable learnable token after the embedding."""
    b, m, d = x_endo.shape
    if global_tokens.shape != (m, d):
        raise DimensionError(
            f"global tokens {global_tokens.shape} do not match embedding ({m}, {d})")
    tok = tc.broadcast_to(tc.reshape(global_tokens, (1, m, d)), (b, m, d))
    return tc.concat([x_endo, tok], axis=-1)


def tgm(x_endo_tok: Tensor, params: XLinearParams, training: bool = False,
        rng: np.random.Generator | None = None):
    """Time-wise gating: one MLP over the 2*d_model axis, shared by all
    variables, whose activated output reweights the token sequence."""
    cfg = params.cfg
    h = tc.relu(x_endo_tok @ params.tgm_w1 + params.tgm_b1)
    h = tc.dropout(h, cfg.t_dropout, training, rng)
    gate = tc.activation(h @ params.tgm_w2 + params.tgm_b2, cfg.gate_activation)
    gated = gate * x_endo_tok
    x_endo, x_glob = tc.split(gated, (cfg.d_model, cfg.d_model), axis=-1)
    return x_endo, x_glob, gate


def vgm(e_exo: Tensor, x_glob: Tensor, params: XLinearParams, training: bool = False,
        rng: np.random.Generator | None = None):
    """Variate-wise gating over the stacked (C+M)-channel axis.

    The MLP runs in the transposed [batch x d_model x (C+M)] layout so
    identical weights apply at every embedding position; softmax gates
    normalize over the channel axis it mixes.
    """
    cfg = params.cfg
    tok = tc.concat([e_exo, x_glob], axis=1)  # [b x (C+M) x d]
    t = tc.swap_last2(tok)
    h = tc.relu(t @ params.vgm_w1 + params.vgm_b1)
    h = tc.dropout(h, cfg.c_dropout, training, rng)
    gate = tc.swap_last2(tc.activation(h @ params.vgm_w2 + params.vgm_b2, cfg.gate_activation))
    gated = gate * tok
    e_gated, x_glob2 = tc.split(gated, (cfg.n_exo, cfg.n_endo), axis=1)
    return x_glob2, e_gated, gate


def head(x_endo: Tensor, x_glob: Tensor, params: XLinearParams, training: bool = False,
         rng: np.random.Generator | None = None) -> Tensor:
    """Channel-independent linear map from fused features to S steps.

    Output stays in the normalized space; the caller denormalizes.
    """
    cfg = params.cfg
    z = tc.concat([x_endo, x_glob], axis=-1)
    z = tc.dropout(z, cfg.head_dropout, training, rng)
    return z @ params.head_w + params.head_b


def _check_finite(data: np.ndarray, stage: str):
    if not np.isfinite(data).all():
        raise NumericFault(f"non-finite values detected at stage {stage!r}")


def forward(batch, params: XLinearParams, training: bool = False,
            rng: np.random.Generator | None = None):
    """Full forward pass over one WindowBatch.

    Returns the denormalized prediction tensor [batch x M x S] and a
    ForwardTrace. Ablations blank one half of the head input: endo_only
    keeps the temporally gated endogenous features, global_only keeps the
    exogenous-informed global tokens.
    """
    cfg = params.cfg
    x_raw = Tensor(batch.endo_history)
    e_raw = Tensor(batch.exo_history)
    if x_raw.shape[1] != cfg.n_endo or e_raw.shape[1] != cfg.n_exo:
        raise DimensionError(
            f"batch has {x_raw.shape[1]} endo / {e_raw.shape[1]} exo channels, "
            f"config expects {cfg.n_endo} / {cfg.n_exo}")
    _check_finite(x_raw.data, "input")
    _check_finite(e_raw.data, "input")

    affine = (params.revin_gamma, params.revin_beta) if cfg.revin_affine else None
    xn, stats = revin_normalize(x_raw, affine)
    if cfg.n_exo > 0:
        en, _ = revin_normalize(e_raw, None)  # stats discarded, never denormalized
    else:
        en = e_raw
    _check_finite(xn.data, "revin")

    x_emb, e_emb = embed(xn, en, params, training, rng)
    _check_finite(x_emb.data, "embed")
    tok = attach_global_tokens(x_emb, params.global_tokens)

    x_endo, x_glob, time_gate = tgm(tok, params, training, rng)
    _check_finite(time_gate.data, "tgm")

    x_glob2, _, variate_gate = vgm(e_emb, x_glob, params, training, rng)
    _check_finite(variate_gate.data, "vgm")

    if cfg.ablation == "endo_only":
        yhat_n = head(x_endo, Tensor(np.zeros_like(x_endo.data)), params, training, rng)
    elif cfg.ablation == "global_only":
        yhat_n = head(Tensor(np.zeros_like(x_glob2.data)), x_glob2, params, training, rng)
    else:
        yhat_n = head(x_endo, x_glob2, params, training, rng)
    _check_finite(yhat_n.data, "head")

    yhat = revin_denormalize(yhat_n, stats, affine)
    _check_finite(yhat.data, "denormalize")

    trace = ForwardTrace(
        revin_stats=stats,
        time_gate=time_gate.data,
        variate_gate=variate_gate.data,
        prediction=yhat.data,
    )
    return yhat, trace


def predictor(params: XLinearParams, cfg: ModelConfig):
    """Eval-mode closure mapping (endo_hist, exo_hist) arrays to forecasts."""

    def predict(endo_history: np.ndarray, exo_history: np.ndarray) -> np.ndarray:
        yhat, _ = forward(WindowBatch(endo_history, exo_history), params, training=False)
        return yhat.data

    return predict


def _write_gate_csv(path, labels, matrix: np.ndarray):
    k = matrix.shape[1]
    lines = ["label," + ",".join(f"pos_{i}" for i in range(k))]
    for label, row in zip(labels, matrix):
        lines.append(label + "," + ",".join(f"{v:.6g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_gating_weights(trace: ForwardTrace, out_dir,
                          endo_names=None, exo_names=None):
    """Write batch-averaged gate matrices as labeled CSV files.

    ``time_gate.csv`` has one row per endogenous channel over 2*d_model
    positions; ``variate_gate.csv`` has C+M rows (exogenous channels
    first, then the global tokens) over d_model positions. Returns the
    two paths.
    """
    tg = trace.time_gate.mean(axis=0)
    vg = trace.variate_gate.mean(axis=0)
    m = tg.shape[0]
    c = vg.shape[0] - m
    endo_names = list(endo_names) if endo_names else [f"endo_{i}" for i in range(m)]
    exo_names = list(exo_names) if exo_names else [f"exo_{i}" for i in range(c)]
    if len(endo_names) != m or len(exo_names) != c:
        raise DimensionError(
            f"label counts ({len(endo_names)} endo, {len(exo_names)} exo) do not "
            f"match gate shapes (M={m}, C={c})")
    os.makedirs(out_dir, exist_ok=True)
    time_path = os.path.join(out_dir, "time_gate.csv")
    var_path = os.path.join(out_dir, "variate_gate.csv")
    _write_gate_csv(time_path, endo_names, tg)
    _write_gate_csv(var_path, exo_names + [f"glob_{n}" for n in endo_names], vg)
    return time_path, var_path
