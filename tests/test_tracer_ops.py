"""Every tape op of the engine has an op family in the benchmark's tracer and is taped by a
training step, and every stage function the tracer patches is in the model.

``perfbench/tracer.py`` names a backward pull's op from the function that defines it and
stops a traced run on a name it does not map, and it patches ``xlinear.model``'s stage
functions by name; this finds an unmapped op or a renamed stage without a traced run.
"""

import inspect
import os
import sys

import numpy as np
import pytest

from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.training import mse_loss

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import harness  # noqa: E402
import tracer as trc  # noqa: E402


def tape_ops():
    """Names of the functions in ``xlinear.tensor`` that define a ``pull`` closure."""
    return sorted(name for name, fn in vars(tc).items()
                  if inspect.isfunction(fn) and fn.__module__ == tc.__name__
                  and any(inspect.iscode(c) and c.co_name == "pull"
                          for c in fn.__code__.co_consts))


def test_every_tape_op_has_a_tracer_family():
    ops = tape_ops()
    assert {"matmul", "activation", "narrow", "concat", "dropout"} <= set(ops)
    unmapped = [op for op in ops if op not in trc._OP_OF_FUNC]
    assert not unmapped, f"tape op(s) with no tensor.bwd family in perfbench/tracer.py: {unmapped}"


@pytest.mark.parametrize("gate", ["sigmoid", "softmax"])
def test_every_tape_op_is_taped_by_a_training_step(gate):
    """A training step, forward and ``mse_loss`` of a multivariate batch at the benchmark's
    tiny size with every dropout site on, tapes each op of :func:`tape_ops`: an op that no
    step tapes is dead code that the tracer still maps."""
    size, n = harness.TINY, harness.TINY.batch_size
    cfg = mdl.ModelConfig(horizon=size.horizon, n_endo=7, n_exo=7, lookback=size.lookback,
                          d_model=size.d_model, t_ff=size.t_ff, c_ff=size.c_ff,
                          gate_activation=gate)
    rng = np.random.default_rng(0)
    history = rng.normal(size=(n, 7, size.lookback))
    batch = mdl.WindowBatch(history, history, rng.normal(size=(n, 7, size.horizon)))
    sites = mdl.dropout_sites(cfg, n)
    assert len(sites) == 5
    masks = {site: tc.draw_keep(np.empty(shape, bool), rate, rng)
             for site, (shape, rate) in sites.items()}
    tape = tc.Tape()
    with tc.record(tape):
        yhat, _ = mdl.forward(batch, mdl.XLinearParams(cfg, rng), masks)
        mse_loss(yhat, tc.Tensor(batch.endo_future))
    taped = {pull.__qualname__.split(".")[0] for _, pull in tape.nodes}
    missing = sorted(set(tape_ops()) - taped)
    assert not missing, f"tape op(s) that no training step tapes: {missing}"


def test_every_traced_stage_is_a_function_of_the_model():
    missing = [name for name in trc._STAGE_FUNCS
               if not inspect.isfunction(getattr(mdl, name, None))]
    assert not missing, ("perfbench/tracer.py patches stage function(s) that xlinear.model "
                         f"does not define: {missing}")
    assert len(trc._STAGE_FUNCS) == 7
