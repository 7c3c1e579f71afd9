"""Dense float64 tensors with tape-based reverse-mode differentiation.

A :class:`Tape` records every differentiable operation executed while it
is active (see :func:`record`). Operations append ``(output, pull)``
nodes in execution order, which is already a topological order, so
:func:`backward` simply walks the list once in reverse, popping each node
before it pulls it: a node's output, intermediate gradient and pull are
released as the walk passes them, and the tape is empty afterwards. A tape
is walked once; gradients accumulate into ``requires_grad`` leaves over the
walks of new tapes until :meth:`Tensor.zero_grad`. A leaf's ``grad`` is
``None`` until a pull reaches it, and ``None`` reads as zero.

With no active tape every op is a plain numpy computation, which is the
eval-mode fast path. :func:`mlp` runs a two-layer MLP over row blocks of
about ``MLP_BLOCK_FLOATS`` hidden floats, so a block's hidden layer stays in
cache from one GEMM to the next. Eval computes each block in place and never
holds the hidden layer at full size; under a tape each block is a chain of
tape ops over the same rows, so eval has the taped forward's bits. An eval
layer of two or more blocks runs its second half of the blocks on one helper
thread, the only thread the library starts.

Dropout reads a bool keep mask of its site's shape, drawn before the forward
by :func:`draw_keep` from four 16-bit lanes per generator output, with one
scalar survivor scale beside the mask; no op draws. With dropout on,
:func:`mlp` applies relu and dropout in place in each block's hidden buffer,
and the pull writes the block's hidden gradient back into it. The bias adds
onto a GEMM output that only the caller holds sum into that output
(:func:`add`'s ``into_a``).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, UsageError

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh", "swish", "softmax")

_active_tape = None


class Tape:
    """Ordered record of performed operations and their gradient rules."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []


@contextlib.contextmanager
def record(tape: Tape):
    """Activate ``tape`` so ops executed in the block are recorded."""
    global _active_tape
    if _active_tape is not None:
        raise UsageError("a tape is already active; tapes do not nest")
    _active_tape = tape
    try:
        yield tape
    finally:
        _active_tape = None


class Tensor:
    """A contiguous row-major float64 array, optionally gradient-tracked."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; a python scalar right operand is folded in as a constant
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _not_scalar(t):
    raise UsageError(f"expected a scalar tensor, got shape {t.data.shape}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _out(data: np.ndarray, *inputs: Tensor) -> Tensor:
    """Build an op output; tracked only when a tape is active and some
    input requires grad. The grad buffer stays lazy (None) so backward
    can skip branches nothing pulled on."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = _active_tape is not None and any(i.requires_grad for i in inputs)
    return t


def _push(out: Tensor, pull) -> Tensor:
    if out.requires_grad:
        _active_tape.nodes.append((out, pull))
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad``. The first gradient is kept as is and a later one makes a
    new sum, so no gradient array is written in place and a pull may pass down a view."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along the axes broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic; a pull computes a gradient only for an operand that requires one


def add(a: Tensor, b: Tensor, into_a: bool = False) -> Tensor:
    """``a + b``, broadcasting ``b``. ``into_a=True`` sums into ``a``'s buffer, which must
    have the output's shape: the output shares it, so the caller must own ``a.data`` and no
    pull may read it; a GEMM output is such a buffer, as :func:`matmul`'s pull never reads
    its own output."""
    out = _out(np.add(a.data, b.data, out=a.data if into_a else None), a, b)

    def pull(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _push(out, pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data - b.data, a, b)

    def pull(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _push(out, pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data * b.data, a, b)

    def pull(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _push(out, pull)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data / b.data, a, b)

    def pull(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * out.data / b.data, b.data.shape))

    return _push(out, pull)


def _check_matmul(a_shape: tuple, w_shape: tuple):
    if len(a_shape) < 2 or len(w_shape) != 2:
        raise DimensionError(f"matmul needs (..., k) @ (k, n), got {a_shape} @ {w_shape}")
    if a_shape[-1] != w_shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a_shape} @ {w_shape}")


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """``a (..., k) @ w (k, n)`` as one GEMM over the rows of ``a``: dA = g wᵀ, dW = aᵀ g.

    Each gradient takes the faster of two forms with the same bits: a broadcast outer
    product for dA of a one-column ``w``, and ``(gᵀ a)ᵀ`` for dW when n < k.
    """
    _check_matmul(a.shape, w.shape)
    k, n = w.shape
    a2 = a.data.reshape(-1, k)
    out = _out((a2 @ w.data).reshape(a.shape[:-1] + (n,)), a, w)

    def pull(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            da = g2 * w.data[:, 0] if n == 1 else g2 @ w.data.T
            _accum(a, da.reshape(a.data.shape))
        _accum(w, (g2.T @ a2).T if n < k else a2.T @ g2)

    return _push(out, pull)


# ---------------------------------------------------------------------------
# activations


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1/(1+t) where x >= 0, else t/(1+t), with t = exp(-|x|) built in place: exp only of
    # non-positive values keeps this overflow-free
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    num = np.maximum(t, x >= 0.0)
    t += 1.0
    return np.divide(num, t, out=num if out is None else out)


def _activate(kind: str, x: np.ndarray, out: np.ndarray | None):
    """``kind`` of the array ``x`` into ``out`` (a new array for None; it may be ``x``): the one
    forward of :func:`activation` and of :func:`mlp`'s eval blocks. Returns the output and
    the sigmoid of ``x`` for swish, whose pull reads it, else None."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out), None
    if kind == "sigmoid":
        return _sigmoid(x, out), None
    if kind == "tanh":
        return np.tanh(x, out=out), None
    if kind == "swish":
        s = _sigmoid(x)
        return np.multiply(x, s, out=out), s
    if kind == "softmax":
        e = x - x.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        return np.divide(e, e.sum(axis=-1, keepdims=True), out=e if out is None else out), None
    raise ConfigError(f"unknown activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")


def activation(x: Tensor, kind: str, keep: tuple[np.ndarray, float] | None = None) -> Tensor:
    """Elementwise transform, or row-wise softmax over the final axis.

    ``keep=(mask, c)`` with ``kind="relu"`` is relu with inverted dropout: a bool ``mask``
    and survivor scale ``c`` from :func:`_keep_scale` give ``x·(mask & (x > 0))·c``. It is
    computed in place in ``x``'s buffer, and the pull writes ``g·(mask & (x > 0))·c`` back
    into the same buffer, so the caller must own ``x.data``, no other pull may read it,
    and the node is pulled once; :func:`mlp`'s hidden layer is such a buffer. The node
    keeps no copy of the live set ``mask & (x > 0)``: the pull reads it back from the
    buffer as its positive entries.
    """
    if keep is not None:
        if kind != "relu":
            raise UsageError(f"a keep mask goes with a relu activation, not {kind!r}")
        mask, c = keep
        live = x.data > 0.0
        live &= mask
        buf = np.multiply(x.data, live, out=x.data)
        buf *= c
        out = _out(buf, x)

        def pull(g):
            # a live entry is x·c > 0 with c >= 1, any other ±0 or NaN: buf > 0 is the live set
            np.multiply(g, buf > 0.0, out=buf)
            _accum(x, np.multiply(buf, c, out=buf))

    else:
        y, s = _activate(kind, x.data, None)
        out = _out(y, x)

        def pull(g):
            if kind == "relu":
                gx = g * (x.data > 0.0)
            elif kind == "sigmoid":
                gx = g * y * (1.0 - y)
            elif kind == "tanh":
                gx = g * (1.0 - y * y)
            elif kind == "swish":
                gx = g * s * (1.0 + x.data * (1.0 - s))
            else:  # softmax
                gy = g * y
                gx = gy - y * gy.sum(axis=-1, keepdims=True)
            _accum(x, gx)

    return _push(out, pull)


# ---------------------------------------------------------------------------
# shape ops


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat of an empty list")
    shapes = [t.data.shape for t in tensors]
    base = list(shapes[0])
    ax = axis % len(base)
    for s in shapes[1:]:
        if len(s) != len(base) or any(s[i] != base[i] for i in range(len(base)) if i != ax):
            raise DimensionError(f"concat shapes incompatible off axis {axis}: {shapes}")
    out = _out(np.concatenate([t.data for t in tensors], axis=ax), *tensors)
    sizes = [s[ax] for s in shapes]

    def pull(g):
        start = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(start, start + n)
            _accum(t, g[tuple(idx)])
            start += n

    return _push(out, pull)


def narrow(x: Tensor, axis: int, start: int, length: int, into: list | None = None) -> Tensor:
    """Contiguous slice along one axis; gradient routes back into place.

    The parts of one :func:`split` share ``into``: the first part pulled keeps the zero
    buffer it makes as ``x.grad``, and while it still is, the other parts write their slices
    into it, in place of a full-size buffer and sum each. A leaf keeps that buffer as its
    ``grad``, so a tape that splits a leaf is walked once, as one with a masked relu is."""
    ax = axis % x.ndim
    idx = [slice(None)] * x.ndim
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)
    out = _out(np.ascontiguousarray(x.data[idx]), x)

    def pull(g):
        if not x.requires_grad:
            return
        if into and into[0] is x.grad:
            into[0][idx] = g
            return
        buf = np.zeros_like(x.data)
        buf[idx] = g
        _accum(x, buf)
        if into is not None and x.grad is buf:
            into[:] = [buf]

    return _push(out, pull)


def split(x: Tensor, sizes, axis: int):
    """Inverse of concat: consecutive narrows of the given sizes, pulled into one buffer."""
    ax = axis % x.ndim
    if sum(sizes) != x.shape[ax]:
        raise DimensionError(f"split sizes {sizes} do not cover axis {axis} of {x.shape}")
    parts, start, into = [], 0, []
    for n in sizes:
        parts.append(narrow(x, ax, start, n, into))
        start += n
    return tuple(parts)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = _out(np.ascontiguousarray(np.swapaxes(x.data, -1, -2)), x)

    def pull(g):
        _accum(x, np.swapaxes(g, -1, -2))

    return _push(out, pull)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = _out(x.data.reshape(shape), x)

    def pull(g):
        _accum(x, g.reshape(x.data.shape))

    return _push(out, pull)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor) -> Tensor:
    """The sum of every entry, a scalar."""
    out = _out(x.data.sum(), x)

    def pull(g):
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _push(out, pull)


# ---------------------------------------------------------------------------
# regularization


def _check_rate(rate: float):
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")


def _lane_threshold(rate: float) -> int:
    return min(round(rate * 65536), 65535)


def draw_keep(out: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Fill the C-contiguous bool array ``out`` with the inverted-dropout keep mask at ``rate``
    and return it. Each output of ``rng.bit_generator.random_raw`` gives four entries their
    16-bit lanes, low bits first, and an entry is kept where its lane is at least ``t =
    min(round(rate * 2**16), 2**16 - 1)``: the stream of one ``random_raw`` call of
    ``ceil(out.size / 4)`` outputs, drawn in flat blocks of about ``MLP_BLOCK_FLOATS``
    entries. Below ``rate = 1 - 2**-17`` the effective rate ``t / 2**16`` is within 2**-17
    of ``rate``; above it ``t`` would round to 2**16 and keep nothing, so it keeps the top
    lane."""
    t = _lane_threshold(rate)
    flat = out.reshape(-1)
    step = max(MLP_BLOCK_FLOATS // 4, 1) * 4
    for lo in range(0, flat.size, step):
        block = flat[lo:lo + step]
        raw = rng.bit_generator.random_raw(-(-block.size // 4))
        np.greater_equal(raw.astype("<u8", copy=False).view("<u2")[:block.size], t, out=block)
    return out


def _keep_scale(keep: np.ndarray | None, shape: tuple, rate: float) -> float:
    """The survivor scale ``c = 1 / (1 - t / 2**16)`` of :func:`draw_keep`'s lane threshold
    ``t`` at ``rate``, once ``keep`` is checked to be a bool mask of the site's ``shape``."""
    if keep is None:
        raise UsageError("dropout in training needs a keep mask, got None")
    if keep.dtype != np.bool_:
        raise UsageError(f"a keep mask must be bool, got dtype {keep.dtype}")
    if keep.shape != shape:
        raise DimensionError(f"keep mask shape {keep.shape} does not match its site {shape}")
    return 1.0 / (1.0 - _lane_threshold(rate) / 65536)


def dropout(x: Tensor, rate: float, training: bool, keep: np.ndarray | None) -> Tensor:
    """Inverted dropout by ``x``'s bool keep mask ``keep``: survivors scaled by ``c`` of
    :func:`_keep_scale`; identity in eval. Forward and pull multiply by the bool mask, then
    by ``c``: the bits of one product with the float scale ``keep · c``, zero signs and NaN
    included."""
    _check_rate(rate)
    if not training or rate == 0.0:
        return x
    c = _keep_scale(keep, x.shape, rate)
    y = x.data * keep
    y *= c
    out = _out(y, x)

    def pull(g):
        gx = g * keep
        gx *= c
        _accum(x, gx)

    return _push(out, pull)


# ---------------------------------------------------------------------------
# two-layer MLP

MLP_BLOCK_FLOATS = 1 << 16  # floats per MLP or dropout-draw block: 512 KB, inside a 2 MB L2


def _row_blocks(rows: int, width: int, period: int = 1) -> list[int]:
    """Bounds of the row blocks :func:`mlp` walks over a ``rows x width`` hidden layer: about
    ``MLP_BLOCK_FLOATS // width`` rows each, starting at multiples of 8 rows and of
    ``period``, with a 1-row tail joined to the block before it. BLAS rounds a misaligned
    or lone row (a matrix-vector product) unlike the same row of one full-size product."""
    unit = math.lcm(8, period)
    step = max(MLP_BLOCK_FLOATS // width // unit, 1) * unit
    return list(range(0, max(rows - 1, 1), step)) + [rows]


def mlp(x: Tensor, w1: Tensor, b1, w2: Tensor, b2: Tensor, rate: float,
        keep: np.ndarray | None, act: str | None = None) -> Tensor:
    """``act(dropout(relu(x @ w1 + b1)) @ w2 + b2)``, a gate for an activation kind ``act``
    and the plain layer for None. ``b1`` is a ``[width]`` bias, None when the bias rides in
    ``w1``, or a ``[m x width]`` per-channel term for ``x`` of shape ``[... x m x k]``, which
    row ``i`` of each ``m`` rows adds. Dropout is on iff ``keep``, the hidden layer's bool
    keep mask, is given and ``rate > 0``.

    Both paths walk the row blocks of :func:`_row_blocks`, whole groups of ``m`` rows for a
    per-channel term, so a block's hidden layer stays in cache from the first GEMM through
    the second, and eval has the taped forward's bits. Under an active tape, or with
    dropout on, each block of ``x``'s rows is a ``split`` part run through ``matmul``, ``add``
    and the hidden layer, then ``matmul``; the parts are concatenated, ``b2`` is added and
    ``act`` is one ``activation`` node; both adds sum into the buffer before them. A layer
    of one block takes no ``split`` or ``concat``: its rows go straight to the first
    ``matmul`` and its part to the ``b2`` add.
    With dropout on the hidden layer is ``activation(h, "relu", (block, c))`` with ``block``
    the block's rows of ``keep``, the hidden layer's mask (for finite input, :func:`dropout`
    of relu up to the sign of a zero): it overwrites the buffer the first GEMM or bias add
    made, which only this function holds, and its pull writes the hidden gradient back into
    it once the second GEMM's pull has read it; else it is ``activation(h, "relu")``.
    Otherwise :func:`_walk` takes each block through both layers in place into its rows of
    one output, and then those rows through ``b2`` and ``act``. A layer of two or more
    blocks walks the first half of its blocks on the calling thread and the rest on this
    process's helper thread, each in its half of one hidden buffer the caller allocates,
    with the caller's numpy error state; every row is the same computation on either
    thread, so the bits do not change. An exception of either half is raised here once
    both halves stop.
    """
    _check_rate(rate)
    _check_matmul(x.shape, w1.shape)
    _check_matmul(x.shape[:-1] + w1.shape[1:], w2.shape)
    if act is not None and act not in ACTIVATION_KINDS:
        raise ConfigError(f"unknown activation kind {act!r}; expected one of {ACTIVATION_KINDS}")
    (k, width), n = w1.shape, w2.shape[1]
    group = b1.shape[:-1] if b1 is not None else ()  # (m,) for a per-channel term
    if b1 is not None and b1.shape[-1] != width or group not in ((), x.shape[-2:-1]):
        raise DimensionError(f"first bias {b1.shape} fits neither [{width}] nor the channels "
                             f"of {x.shape} by {width}")
    rows = math.prod(x.shape[:-1])
    period = math.prod(group)
    bounds = _row_blocks(rows, width, period)
    dropping = keep is not None and rate > 0.0
    if _active_tape is not None or dropping:
        if dropping:
            c = _keep_scale(keep, x.shape[:-1] + (width,), rate)
            mask = keep.reshape((-1,) + group + (width,))
        sizes = [(hi - lo) // period for lo, hi in zip(bounds, bounds[1:])]
        x2 = reshape(x, (-1,) + group + (k,))
        parts = []
        for lo, xb in zip(bounds, split(x2, sizes, 0) if len(sizes) > 1 else (x2,)):
            h = matmul(xb, w1) if b1 is None else add(matmul(xb, w1), b1, into_a=True)
            lo //= period
            block = (mask[lo:lo + xb.shape[0]], c) if dropping else None
            parts.append(matmul(activation(h, "relu", block), w2))
        y = concat(parts, 0) if len(parts) > 1 else parts[0]
        y = reshape(add(y, b2, into_a=True), x.shape[:-1] + (n,))
        return y if act is None else activation(y, act)
    out = np.empty((rows, n))
    walk = (x.data.reshape(rows, k), w1.data, None if b1 is None else b1.data, w2.data,
            b2.data, act, out)
    if len(bounds) == 2:  # one block stays on the caller
        _walk(*walk, bounds, np.empty((rows, width)))
    else:  # the caller walks the first half of the blocks, the helper thread the rest
        mid = len(bounds) // 2
        h = np.empty((2, max(np.diff(bounds)), width))
        half = _helper().submit(contextvars.copy_context().run, _walk, *walk, bounds[mid:], h[1])
        try:
            _walk(*walk, bounds[:mid + 1], h[0])
        finally:
            half.exception()  # waits for the helper's half to stop, raised or not
        half.result()
    return Tensor(out.reshape(x.shape[:-1] + (n,)))


def _walk(x2, w1, b1, w2, b2, act, out, bounds, h):
    """Eval :func:`mlp` over the row blocks between consecutive ``bounds``: each block of
    ``x2``'s rows goes through the first GEMM into the leading rows of the hidden buffer
    ``h``, is biased by ``b1`` (None when it rides in ``w1``) and clipped in place, and is
    multiplied into its rows of ``out``. Then those rows take ``b2`` and the activation
    ``act`` in place, in one pass while they are still in cache: per block, the calls
    would cost more than the pass for a thin output."""
    for lo, hi in zip(bounds, bounds[1:]):
        hb = np.matmul(x2[lo:hi], w1, out=h[:hi - lo])
        if b1 is not None:
            hg = hb.reshape((-1,) + b1.shape)  # [windows x m x width] for a per-channel term
            hg += b1
        _activate("relu", hb, hb)
        np.matmul(hb, w2, out=out[lo:hi])
    rows = out[bounds[0]:bounds[-1]]
    rows += b2
    if act is not None:
        _activate(act, rows, rows)


_helpers = {}  # process id -> the one-worker pool of that process's eval MLP helper


def _helper():
    """This process's one-worker ``ThreadPoolExecutor``, made on first use, and made again in
    a forked child, where the parent's worker thread does not exist. ``setdefault`` is
    atomic, so callers that race on the first use share one pool; a pool that lost never
    started a thread. The import waits for first use, since ``concurrent.futures`` imports
    ``logging``, a few ms of every CLI call's start-up."""
    pid = os.getpid()
    pool = _helpers.get(pid)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor
        pool = _helpers.setdefault(pid, ThreadPoolExecutor(1, thread_name_prefix="xlinear-mlp"))
    return pool


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor, tape: Tape):
    """Populate grads of every requires_grad tensor reachable from ``loss``.

    Nodes whose outputs were never pulled on are skipped, so graph
    branches that do not feed the loss cost nothing. The walk pops each
    node off ``tape.nodes`` before it pulls it, so a node's output, its
    intermediate grad and its pull's closure are freed as soon as the pull
    has run, and the tape is empty afterwards. A tape is walked once; the
    leaves keep accumulating until zero_grad over the walks of new tapes.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    _accum(loss, np.ones_like(loss.data))
    nodes = tape.nodes
    while nodes:
        out, pull = nodes.pop()
        g, out.grad = out.grad, None
        if g is not None:
            pull(g)


@dataclass
class GradCheckReport:
    """Outcome of comparing autodiff against central finite differences."""

    passed: bool
    max_rel_err: float
    n_entries: int
    failures: list = field(default_factory=list)  # (param index, flat index, ad, fd)

    def __str__(self):
        state = "pass" if self.passed else f"FAIL ({len(self.failures)} entries)"
        return f"grad_check: {state}, max rel err {self.max_rel_err:.3e} over {self.n_entries} entries"


def grad_check(f, params, step: float = 1e-5, rel_tol: float = 1e-5) -> GradCheckReport:
    """Compare autodiff grads of ``f()`` with (f(θ+h)-f(θ-h))/2h per entry.

    ``f`` must be deterministic (dropout by fixed masks) and return a scalar
    Tensor built from ``params``. An entry passes when
    |ad - fd| <= rel_tol*(1e-3 + |fd|), and that ratio is the reported relative
    error; the 1e-3 floor guards entries whose true gradient sits at FD noise level.
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    with record(tape):
        loss = f()
    backward(loss, tape)
    ad_grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_rel, n, failures = 0.0, 0, []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        ad = ad_grads[pi].reshape(-1)
        for i in range(flat.size):
            v = flat[i]
            flat[i] = v + step
            fp = f().item()
            flat[i] = v - step
            fm = f().item()
            flat[i] = v
            fd = (fp - fm) / (2.0 * step)
            rel = abs(ad[i] - fd) / (1e-3 + abs(fd))
            max_rel = max(max_rel, rel)
            n += 1
            if rel > rel_tol:
                failures.append((pi, i, float(ad[i]), float(fd)))
    return GradCheckReport(passed=not failures, max_rel_err=max_rel, n_entries=n, failures=failures)
