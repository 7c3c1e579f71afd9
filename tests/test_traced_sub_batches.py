"""The benchmark's tracer over sub-batched training steps.

``perfbench``'s own tests train at its tiny size, where a batch is one
sub-batch; this forces several per batch, as the reproduction size runs.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import tracer as trc  # noqa: E402
from xlinear import training  # noqa: E402


def test_traced_training_attributes_every_sub_batch_node(tmp_path, monkeypatch):
    run = harness.Run("train_m", 3, 0.0, True, str(tmp_path), harness.TINY)
    run.prepare()
    cfg = run.cfg
    monkeypatch.setattr(training, "STEP_BLOCK_FLOATS",
                        8 * max(cfg.d_model * cfg.c_ff, cfg.n_endo * cfg.t_ff))
    assert training.sub_batch_windows(cfg) == 8 < run.run_cfg.train.batch_size
    t = trc.Tracer()
    with t.active():  # an op the tracer cannot map raises LookupError here
        training.train(cfg, run.run_cfg.train, run.ds, echo=False)
    steps = len(trc.durations(t.spans)["training.adam_step"])
    assert steps and len(t.tape_lengths) > steps
    assert t.counts["nodes.glue"] == 0
    staged = sum(t.counts[f"nodes.{s}"] for s in (*trc.STAGES, "loss"))
    assert staged == sum(t.tape_lengths)
