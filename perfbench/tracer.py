"""Span tracing of the xlinear modules, from outside the library.

:class:`Tracer` swaps the public functions of each module for wrappers
that record spans, and puts the originals back when its ``active()``
block ends; nothing under ``src/`` is edited. A span is
``[name, start, end, parent]`` with ``perf_counter`` seconds and the
index of the enclosing span (-1 at top level). Spans stay in memory until
the run writes them out.

Backward is attributed to model stages through the public
``Tape.nodes`` list: each stage wrapper records the range of node
indices its call appended, and the traced ``backward`` swaps every
node's pull for one that times it, then runs the library's own
``tensor.backward``. A timed pull opens its stage's span when the walk
enters that stage's node range. The op of a pull comes from its
closure's qualified name, e.g. ``matmul.<locals>.pull``; a pull of an op
not named here stops the run, so no time goes unattributed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from xlinear import checkpoint, cli, data, metrics, model, tensor, training

STAGES = ("revin", "embed", "tokens", "tgm", "vgm", "head", "denorm")
BWD_OPS = ("matmul", "dropout", "activation", "narrow", "concat", "elementwise", "shape",
           "reduce")

# span name prefix per model stage function
_STAGE_FUNCS = {
    "revin_normalize": "revin",
    "embed": "embed",
    "attach_global_tokens": "tokens",
    "tgm": "tgm",
    "vgm": "vgm",
    "head": "head",
    "revin_denormalize": "denorm",
}

_OP_OF_FUNC = {
    "matmul": "matmul", "dropout": "dropout", "activation": "activation",
    "narrow": "narrow", "concat": "concat",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise", "div": "elementwise",
    "neg": "elementwise", "sqrt": "elementwise",
    "transpose": "shape", "reshape": "shape", "broadcast_to": "shape",
    "tsum": "reduce", "tmean": "reduce",
}


def op_of_pull(pull) -> str:
    """Op family of a tape node's pull closure, from its qualified name."""
    func = pull.__qualname__.split(".", 1)[0]
    if func not in _OP_OF_FUNC:
        raise LookupError(f"tape op {pull.__qualname__!r} has no tensor.bwd metric; "
                          "add it to perfbench/tracer.py")
    return _OP_OF_FUNC[func]


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self._recording = False  # inside training.record: forward is taped
        self._tape = None
        self._ranges = []  # (stage label, lo, hi) node ranges of the last taped forward
        self._bwd_stage = None  # (span index, stage) the backward walk is in
        self.tape_lengths = []  # len(tape.nodes) at each backward

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    def discard(self, idx: int):
        """Drop the most recently opened span, which has no children."""
        assert idx == len(self.spans) - 1 and self._stack[-1] == idx
        self.spans.pop()
        self._stack.pop()

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        for mod, attr, wrapper in self._patches():
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
            self._recording = False

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _patches(self):
        p = [
            (data, "load_csv", self._timed("data.load_csv", data.load_csv)),
            (data, "split_and_scale", self._timed("data.split_and_scale", data.split_and_scale)),
            (data, "read_csv_values", self._read_csv(data.read_csv_values)),
            (data, "iter_batches", self._iter_batches(data.iter_batches)),
            (model, "forward", self._forward(model.forward)),
            (tensor, "dropout", self._dropout(tensor.dropout)),
            (tensor, "matmul", self._matmul(tensor.matmul)),
            (training, "record", self._record(training.record)),
            (training, "mse_loss", self._taped("training.loss", training.mse_loss)),
            (training, "backward", self._backward(training.backward)),
            (training, "adam_step", self._timed("training.adam_step", training.adam_step)),
            (training, "train", self._timed("training.train", training.train)),
            (checkpoint, "save_checkpoint",
             self._timed("checkpoint.save", checkpoint.save_checkpoint)),
            (checkpoint, "load_checkpoint",
             self._timed("checkpoint.load", checkpoint.load_checkpoint)),
            (checkpoint, "params_from_checkpoint",
             self._timed("checkpoint.params", checkpoint.params_from_checkpoint)),
            (metrics, "evaluate", self._timed("metrics.evaluate", metrics.evaluate)),
            (cli, "main", self._cli_main(cli.main)),
        ]
        for func, stage in _STAGE_FUNCS.items():
            p.append((model, func, self._taped(f"model.{stage}", getattr(model, func))))
        return p

    # -- wrappers ------------------------------------------------------------

    def _read_csv(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open("data.read_csv_values")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts["data.csv_rows"] += out[1].shape[0]
            return out
        return wrapper

    def _iter_batches(self, fn):
        tracer = self

        def wrapper(ds, split, *args, **kwargs):
            inner = fn(ds, split, *args, **kwargs)
            in_train = any(tracer.spans[i][0] == "training.train" for i in tracer._stack)
            outer = tracer.open("training.val_pass") if in_train and split == "val" else None
            try:
                while True:
                    idx = tracer.open("data.iter_batches")
                    try:
                        batch = next(inner)
                    except StopIteration:
                        tracer.discard(idx)
                        return
                    tracer.close(idx)
                    yield batch
            finally:
                if outer is not None:
                    tracer.close(outer)
        return wrapper

    def _forward(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open("model.forward.fwd" if self._recording else "model.forward.eval")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _taped(self, prefix, fn):
        """Stage wrapper: times the call and, under a tape, records which
        node indices it appended."""
        stage = prefix.rsplit(".", 1)[1]

        def wrapper(*args, **kwargs):
            if not self._recording:
                idx = self.open(prefix + ".eval")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            nodes = self._tape.nodes
            lo = len(nodes)
            idx = self.open(prefix + ".fwd")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._ranges.append((stage, lo, len(nodes)))
        return wrapper

    def _dropout(self, fn):
        def wrapper(x, rate, training_mode, rng):
            if not (self._recording and training_mode):
                return fn(x, rate, training_mode, rng)
            idx = self.open("tensor.dropout.fwd")
            try:
                return fn(x, rate, training_mode, rng)
            finally:
                self.close(idx)
        return wrapper

    def _matmul(self, fn):
        def wrapper(a, b):
            out = fn(a, b)
            if self._recording:
                self.counts["tensor.matmul_flop"] += 2.0 * out.size * a.shape[-1]
            return out
        return wrapper

    def _record(self, fn):
        @contextlib.contextmanager
        def wrapper(tape):
            with fn(tape):
                self._tape = tape
                self._ranges = []
                self._recording = True
                try:
                    yield tape
                finally:
                    self._recording = False
        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            idx = self.open(f"cli.{argv[0]}" if argv else "cli")
            try:
                return fn(argv)
            finally:
                self.close(idx)
        return wrapper

    def _stage_of_nodes(self, n_nodes):
        labels = ["glue"] * n_nodes
        for stage, lo, hi in self._ranges:
            labels[lo:hi] = [stage] * (hi - lo)
        return labels

    def _backward(self, fn):
        """``backward`` over a tape whose pulls are timed and grouped by stage."""
        def wrapper(loss, tape):
            nodes = tape.nodes
            labels = self._stage_of_nodes(len(nodes))
            self.tape_lengths.append(len(nodes))
            for s in labels:
                self.counts[f"nodes.{s}"] += 1
            nodes[:] = [(out, self._timed_pull(pull, stage))
                        for (out, pull), stage in zip(nodes, labels)]
            root = self.open("tensor.backward")
            try:
                return fn(loss, tape)
            finally:
                if self._bwd_stage is not None:
                    self.close(self._bwd_stage[0])
                    self._bwd_stage = None
                self.close(root)
        return wrapper

    def _timed_pull(self, pull, stage):
        op = "tensor.bwd." + op_of_pull(pull)
        group = ("training.loss" if stage == "loss" else f"model.{stage}") + ".bwd"

        def timed(g):
            if self._bwd_stage is None or self._bwd_stage[1] != stage:
                if self._bwd_stage is not None:
                    self.close(self._bwd_stage[0])
                self._bwd_stage = (self.open(group), stage)
            idx = self.open(op)
            try:
                pull(g)
            finally:
                self.close(idx)
        return timed


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def durations(spans):
    """name -> list of durations (s)."""
    out = defaultdict(list)
    for name, start, end, _ in spans:
        if end is not None:
            out[name].append(end - start)
    return out


def self_times(spans):
    """name -> list of self times (s): duration minus the time the span's
    direct children cover. Children of one span never overlap here, since
    the traced program is single-threaded."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    out = defaultdict(list)
    for i, (name, start, end, _) in enumerate(spans):
        if end is not None:
            out[name].append(end - start - child[i])
    return out


def layer_metrics(tracer: Tracer, checkpoint_bytes: int) -> dict:
    """Per-layer metric values (see BENCHMARK.json for names and units)."""
    dur = durations(tracer.spans)
    selfs = self_times(tracer.spans)
    c = tracer.counts
    steps = max(len(dur["training.adam_step"]), 1)
    eval_calls = max(len(dur["model.forward.eval"]), 1)

    def per_step_ms(name):
        return 1e3 * sum(dur[name]) / steps

    def mean_ms(values):
        return 1e3 * sum(values) / len(values) if values else 0.0

    m = {
        "tensor.backward_ms": per_step_ms("tensor.backward"),
        "tensor.tape_nodes": sum(tracer.tape_lengths) / steps,
        "tensor.matmul_gflop": 3.0 * c["tensor.matmul_flop"] / steps / 1e9,
        "tensor.dropout.fwd_ms": per_step_ms("tensor.dropout.fwd"),
        "model.forward.fwd_ms": per_step_ms("model.forward.fwd"),
        "model.forward.eval_ms": 1e3 * sum(dur["model.forward.eval"]) / eval_calls,
        "model.forward.glue_ms": 1e3 * sum(selfs["model.forward.fwd"]) / steps,
        "training.loss.fwd_ms": per_step_ms("training.loss.fwd"),
        "training.loss.bwd_ms": per_step_ms("training.loss.bwd"),
        "training.adam_step_ms": per_step_ms("training.adam_step"),
        "training.val_pass_s": (sum(dur["training.val_pass"]) / len(dur["training.val_pass"])
                                if dur["training.val_pass"] else 0.0),
        "data.read_csv_values_ms": mean_ms(dur["data.read_csv_values"]),
        "data.read_csv_rows_per_s": (c["data.csv_rows"] / sum(dur["data.read_csv_values"])
                                     if dur["data.read_csv_values"] else 0.0),
        "data.iter_batches_ms_per_batch": mean_ms(dur["data.iter_batches"]),
        "checkpoint.load_ms": (mean_ms(dur["checkpoint.load"])
                               + mean_ms(dur["checkpoint.params"])),
        "checkpoint.save_ms": mean_ms(dur["checkpoint.save"]),
        "checkpoint.bytes": float(checkpoint_bytes),
        "metrics.evaluate.self_ms": mean_ms(selfs["metrics.evaluate"]),
        "cli.predict.self_ms": mean_ms(selfs["cli.predict"]),
        "cli.eval.self_ms": mean_ms(selfs["cli.eval"]),
    }
    for op in BWD_OPS:
        m[f"tensor.bwd.{op}_ms"] = per_step_ms(f"tensor.bwd.{op}")
    for stage in STAGES:
        m[f"model.{stage}.fwd_ms"] = per_step_ms(f"model.{stage}.fwd")
        m[f"model.{stage}.bwd_ms"] = per_step_ms(f"model.{stage}.bwd")
        m[f"model.{stage}.eval_ms"] = 1e3 * sum(dur[f"model.{stage}.eval"]) / eval_calls
        m[f"model.{stage}.tape_nodes"] = c[f"nodes.{stage}"] / steps
    return m
