"""Dense float64 tensors with tape-based reverse-mode differentiation.

A :class:`Tape` records every differentiable operation executed while it
is active (see :func:`record`). Operations append ``(output, pull)``
nodes in execution order, which is already a topological order, so
:func:`backward` simply walks the list once in reverse. Gradients
accumulate into ``requires_grad`` leaves until :meth:`Tensor.zero_grad`;
intermediate gradient buffers are released during the walk.

With no active tape every op is a plain numpy computation, which is the
eval-mode fast path.
"""

from __future__ import annotations

import contextlib
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
        self.grad = np.zeros_like(self.data) if requires_grad else None

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
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            else:
                self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; python scalars are folded in as constants
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


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
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data + b.data, a, b)

    def pull(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _push(out, pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data - b.data, a, b)

    def pull(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _push(out, pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data * b.data, a, b)

    def pull(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _push(out, pull)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data / b.data, a, b)

    def pull(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * out.data / b.data, b.data.shape))

    return _push(out, pull)


def neg(a: Tensor) -> Tensor:
    out = _out(-a.data, a)

    def pull(g):
        _accum(a, -g)

    return _push(out, pull)


def sqrt(a: Tensor) -> Tensor:
    out = _out(np.sqrt(a.data), a)

    def pull(g):
        _accum(a, g * (0.5 / out.data))

    return _push(out, pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading dims broadcast, dA = g Bᵀ, dB = Aᵀ g."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"matmul batch dims not broadcastable: {a.shape} @ {b.shape}") from e
    out = _out(data, a, b)

    def pull(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _push(out, pull)


# ---------------------------------------------------------------------------
# activations


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only of non-positive values keeps this overflow-free
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise transform, or row-wise softmax over the final axis."""
    if kind == "relu":
        out = _out(np.maximum(x.data, 0.0), x)

        def pull(g):
            _accum(x, g * (x.data > 0.0))

    elif kind == "sigmoid":
        y = _sigmoid(x.data)
        out = _out(y, x)

        def pull(g):
            _accum(x, g * y * (1.0 - y))

    elif kind == "tanh":
        y = np.tanh(x.data)
        out = _out(y, x)

        def pull(g):
            _accum(x, g * (1.0 - y * y))

    elif kind == "swish":
        s = _sigmoid(x.data)
        out = _out(x.data * s, x)

        def pull(g):
            _accum(x, g * s * (1.0 + x.data * (1.0 - s)))

    elif kind == "softmax":
        z = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        out = _out(y, x)

        def pull(g):
            gy = g * y
            _accum(x, gy - y * gy.sum(axis=-1, keepdims=True))

    else:
        raise ConfigError(f"unknown activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")
    return _push(out, pull)


def relu(x: Tensor) -> Tensor:
    return activation(x, "relu")


def sigmoid(x: Tensor) -> Tensor:
    return activation(x, "sigmoid")


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


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradient routes back into place."""
    ax = axis % x.ndim
    idx = [slice(None)] * x.ndim
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)
    out = _out(np.ascontiguousarray(x.data[idx]), x)

    def pull(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[idx] = g
            _accum(x, buf)

    return _push(out, pull)


def split(x: Tensor, sizes, axis: int):
    """Inverse of concat: consecutive narrows of the given sizes."""
    ax = axis % x.ndim
    if sum(sizes) != x.shape[ax]:
        raise DimensionError(f"split sizes {sizes} do not cover axis {axis} of {x.shape}")
    parts, start = [], 0
    for n in sizes:
        parts.append(narrow(x, ax, start, n))
        start += n
    return tuple(parts)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = _out(np.ascontiguousarray(x.data.transpose(axes)), x)

    def pull(g):
        _accum(x, g.transpose(inv))

    return _push(out, pull)


def swap_last2(x: Tensor) -> Tensor:
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return transpose(x, axes)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = _out(x.data.reshape(shape), x)

    def pull(g):
        _accum(x, g.reshape(x.data.shape))

    return _push(out, pull)


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = _out(np.ascontiguousarray(np.broadcast_to(x.data, shape)), x)

    def pull(g):
        _accum(x, _unbroadcast(g, x.data.shape))

    return _push(out, pull)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _out(x.data.sum(axis=axis, keepdims=keepdims), x)
    axes = _norm_axes(axis, x.ndim)

    def pull(g):
        _accum(x, _expand_reduced(g, x.data.shape, axes, keepdims))

    return _push(out, pull)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _out(x.data.mean(axis=axis, keepdims=keepdims), x)
    axes = _norm_axes(axis, x.ndim)
    count = int(np.prod([x.data.shape[a] for a in axes])) if axes else x.data.size

    def pull(g):
        _accum(x, _expand_reduced(g, x.data.shape, axes, keepdims) / count)

    return _push(out, pull)


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


# ---------------------------------------------------------------------------
# regularization


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    scale = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = _out(x.data * scale, x)

    def pull(g):
        _accum(x, g * scale)

    return _push(out, pull)


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor, tape: Tape):
    """Populate grads of every requires_grad tensor reachable from ``loss``.

    Nodes whose outputs were never pulled on are skipped, so graph
    branches that do not feed the loss cost nothing. Intermediate grad
    buffers are dropped as the walk passes them; repeated calls without
    zero_grad keep accumulating into the leaves.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad += 1.0
    for out, pull in reversed(tape.nodes):
        g = out.grad
        if g is None:
            continue
        out.grad = None
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


def grad_check(f, params, step: float = 1e-5, rel_tol: float = 1e-5,
               abs_tol: float | None = None) -> GradCheckReport:
    """Compare autodiff grads of ``f()`` with (f(θ+h)-f(θ-h))/2h per entry.

    ``f`` must be deterministic under fixed rng and return a scalar
    Tensor built from ``params``. An entry passes when
    |ad - fd| <= abs_tol + rel_tol*|fd|; the reported relative error uses
    the matching denominator (abs_tol/rel_tol + |fd|), so the absolute
    floor guards entries whose true gradient sits at FD noise level.
    """
    if abs_tol is None:
        abs_tol = rel_tol * 1e-3
    for p in params:
        p.zero_grad()
    tape = Tape()
    with record(tape):
        loss = f()
    backward(loss, tape)
    ad_grads = [p.grad.copy() for p in params]

    floor = abs_tol / rel_tol
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
            rel = abs(ad[i] - fd) / (floor + abs(fd))
            max_rel = max(max_rel, rel)
            n += 1
            if abs(ad[i] - fd) > abs_tol + rel_tol * abs(fd):
                failures.append((pi, i, float(ad[i]), float(fd)))
    return GradCheckReport(passed=not failures, max_rel_err=max_rel, n_entries=n, failures=failures)
