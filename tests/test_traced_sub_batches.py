"""The benchmark's tracer over sub-batched training steps.

``perfbench``'s own tests train at its tiny size, where a batch is one
sub-batch; this forces several per batch, as the reproduction size runs,
for every model variant.
"""

import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import synth  # noqa: E402
import tracer as trc  # noqa: E402
from xlinear import data as dio  # noqa: E402
from xlinear import training  # noqa: E402
from xlinear.model import ABLATIONS, GATE_ACTIVATIONS  # noqa: E402


def test_traced_training_attributes_every_sub_batch_node(tmp_path, monkeypatch):
    run = harness.Run("train_m", 3, 0.0, True, str(tmp_path), harness.TINY)
    run.prepare()
    _assert_every_node_staged(monkeypatch, run.cfg, run.run_cfg.train, run.ds)


# variant -> (target mode, model keys over the benchmark's sigmoid, full-ablation model,
# which the test above traces); "no_exogenous" reads the endogenous column alone, so C = 0
VARIANTS = {
    **{f"gate_{g}": ("multivariate", {"gate_activation": g})
       for g in GATE_ACTIVATIONS if g != "sigmoid"},
    **{f"ablation_{a}": ("multivariate", {"ablation": a}) for a in ABLATIONS if a != "full"},
    "last_column_endogenous": ("last-column-endogenous", {}),
    "no_exogenous": ("last-column-endogenous", {}),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_traced_training_attributes_every_variant_node(tmp_path, monkeypatch, variant):
    target_mode, model = VARIANTS[variant]
    size = harness.TINY
    lines = synth.csv_text(synth.ett_like_values(size.train_rows, seed=5)).splitlines()
    if variant == "no_exogenous":
        lines = [line.rsplit(",", 1)[1] for line in lines]
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    run_cfg = harness.run_config(size, target_mode, str(csv_path), str(tmp_path / "runs"))
    ds = dio.split_and_scale(dio.load_csv(csv_path, target_mode), harness.SPLIT,
                             size.lookback, size.horizon)
    cfg = dataclasses.replace(run_cfg, model={**run_cfg.model, **model}).model_config(
        ds.n_endo, ds.n_exo)
    assert (cfg.n_exo == 0) == (variant == "no_exogenous")
    _assert_every_node_staged(monkeypatch, cfg, run_cfg.train, ds)


def _assert_every_node_staged(monkeypatch, cfg, train_cfg, ds):
    """Train traced in 8-window sub-batches: the tracer maps every op, and every tape node
    lies in a model stage or the loss."""
    monkeypatch.setattr(training, "STEP_BLOCK_FLOATS",
                        8 * max(cfg.d_model * cfg.c_ff, cfg.n_endo * cfg.t_ff))
    assert training.sub_batch_windows(cfg) == 8 < train_cfg.batch_size
    t = trc.Tracer()
    with t.active():  # an op the tracer cannot map raises LookupError here
        training.train(cfg, train_cfg, ds, echo=False)
    steps = len(trc.durations(t.spans)["training.adam_step"])
    assert steps and len(t.tape_lengths) > steps
    assert t.counts["nodes.glue"] == 0
    staged = sum(t.counts[f"nodes.{s}"] for s in (*trc.STAGES, "loss"))
    assert staged == sum(t.tape_lengths)
