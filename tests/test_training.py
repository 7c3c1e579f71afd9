"""Tests for the loss, Adam, LR schedule, early stopping, and train loop."""

import math

import numpy as np
import pytest

from xlinear import data as dio
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear import training as tr
from xlinear.errors import ConfigError, DimensionError, NumericFault
from xlinear.tensor import Tensor

from synthetic_series import write_synthetic_csv


def mse_oracle(yhat, y):
    """Triple-loop reference, no vectorization shared with the implementation."""
    total = 0.0
    n = 0
    for b in range(yhat.shape[0]):
        for m in range(yhat.shape[1]):
            for s in range(yhat.shape[2]):
                total += (yhat[b, m, s] - y[b, m, s]) ** 2
                n += 1
    return total / n


def adam_oracle(theta0, grad_fn, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar Adam simulation straight from the update equations."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(theta)
    return out


class ScalarParams:
    """Minimal stand-in exposing the same surface adam_step needs."""

    def __init__(self, value):
        self.theta = Tensor(np.array([value]), requires_grad=True)

    def named(self):
        return [("theta", self.theta)]


class TestMseLoss:
    def test_identical_tensors(self):
        y = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        assert tr.mse_loss(y, y).item() == 0.0

    def test_unit_offset(self):
        y = Tensor(np.zeros((2, 3, 4)))
        yhat = Tensor(np.ones((2, 3, 4)))
        assert tr.mse_loss(yhat, y).item() == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 3, 4))
        got = tr.mse_loss(Tensor(a), Tensor(b)).item()
        assert got == pytest.approx(mse_oracle(a, b), rel=1e-12)

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 3, 4))
        yhat = Tensor(a, requires_grad=True)
        tape = tc.Tape()
        with tc.record(tape):
            loss = tr.mse_loss(yhat, Tensor(b))
        tc.backward(loss, tape)
        np.testing.assert_allclose(yhat.grad, 2.0 * (a - b) / a.size, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tr.mse_loss(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 5))))


class TestLrSchedule:
    def test_constant_phase(self):
        for e in (0, 1, 2):
            assert tr.lr_schedule(1e-3, e) == 1e-3

    def test_decay_boundary(self):
        assert tr.lr_schedule(1e-3, 3) == 1e-3

    def test_decay_value(self):
        assert tr.lr_schedule(1e-4, 5) == pytest.approx(8.1e-5, rel=1e-12)

    def test_monotone_nonincreasing(self):
        lrs = [tr.lr_schedule(1e-3, e) for e in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            tr.lr_schedule(1e-3, -1)


class TestAdamStep:
    def test_zero_gradient_is_a_no_op(self):
        p = ScalarParams(1.5)
        p.theta.zero_grad()
        state = tr.AdamState.__new__(tr.AdamState)
        state.m = {"theta": np.zeros(1)}
        state.v = {"theta": np.zeros(1)}
        state.t = 0
        tr.adam_step(p, state, 0.1, tr.TrainConfig())
        assert p.theta.data[0] == 1.5
        assert state.m["theta"][0] == 0.0 and state.v["theta"][0] == 0.0

    def test_first_step_size_is_lr(self):
        p = ScalarParams(1.0)
        p.theta.grad = np.array([1.0])
        state = tr.AdamState.__new__(tr.AdamState)
        state.m = {"theta": np.zeros(1)}
        state.v = {"theta": np.zeros(1)}
        state.t = 0
        cfg = tr.TrainConfig()
        tr.adam_step(p, state, 0.01, cfg)
        # bias-corrected m-hat = v-hat = 1 at t=1, so the step is lr/(1+eps)
        assert p.theta.data[0] == pytest.approx(1.0 - 0.01 / (1.0 + cfg.eps), rel=1e-12)
        assert state.t == 1
        assert np.array_equal(p.theta.grad, np.zeros(1))  # grads cleared

    def test_hundred_steps_on_quadratic(self):
        p = ScalarParams(1.0)
        state = tr.AdamState.__new__(tr.AdamState)
        state.m = {"theta": np.zeros(1)}
        state.v = {"theta": np.zeros(1)}
        state.t = 0
        cfg = tr.TrainConfig()
        trajectory = []
        for _ in range(100):
            p.theta.grad = 2.0 * p.theta.data.copy()
            tr.adam_step(p, state, 0.1, cfg)
            trajectory.append(float(p.theta.data[0]))
        assert abs(trajectory[-1]) < 0.05
        expected = adam_oracle(1.0, lambda th: 2.0 * th, 0.1, 100)
        np.testing.assert_allclose(trajectory, expected, atol=1e-12)

    def test_step_counter_shared_across_parameters(self):
        cfg = mdl.ModelConfig(horizon=2, n_endo=1, n_exo=1, lookback=4, d_model=4,
                              t_ff=4, c_ff=4).validate()
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        state = tr.AdamState(params)
        tr.adam_step(params, state, 0.01, tr.TrainConfig())
        assert state.t == 1
        tr.adam_step(params, state, 0.01, tr.TrainConfig())
        assert state.t == 2


class TestEarlyStopper:
    def test_patience_one_spec_example(self):
        st = tr.EarlyStopper(patience=1)
        assert st.update(0, 3.0) == (True, False)
        assert st.update(1, 2.0) == (True, False)
        improved, stop = st.update(2, 2.5)
        assert not improved and stop
        assert st.best_epoch == 1

    def test_streak_resets_on_new_best(self):
        st = tr.EarlyStopper(patience=2)
        st.update(0, 3.0)
        st.update(1, 3.5)
        assert st.update(2, 2.9) == (True, False)  # streak cleared
        assert st.update(3, 3.1) == (False, False)
        assert st.update(4, 3.2) == (False, True)
        assert st.best_epoch == 2

    def test_tie_is_not_an_improvement(self):
        st = tr.EarlyStopper(patience=1)
        st.update(0, 1.0)
        improved, stop = st.update(1, 1.0)
        assert not improved and stop


@pytest.fixture(scope="module")
def synth_ds(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "synth.csv"
    write_synthetic_csv(path)
    ds = dio.load_csv(path, "last-column-endogenous")
    return dio.split_and_scale(ds, (0.7, 0.1, 0.2), lookback=48, horizon=8)


def synth_model_cfg():
    return mdl.ModelConfig(horizon=8, n_endo=1, n_exo=1, lookback=48, d_model=32,
                           t_ff=64, c_ff=32, embed_dropout=0.0, t_dropout=0.0,
                           c_dropout=0.0, head_dropout=0.0)


class TestTrainLoop:
    def test_identifiable_task_converges(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=8, patience=8)
        _, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        assert log.best_val_loss < 0.01

    def test_deterministic_replay(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=3, patience=3, seed=5)
        pa, la = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        pb, lb = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        assert [(r.train_loss, r.val_loss) for r in la.records] == \
               [(r.train_loss, r.val_loss) for r in lb.records]
        for (na, ta), (nb, tb) in zip(pa.named(), pb.named()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_full_batch_losses_strictly_decrease(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=4096, max_epochs=5, patience=5)
        _, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        losses = [r.train_loss for r in log.records]
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_lr_column_follows_schedule(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=256, max_epochs=6, patience=6)
        _, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        for r in log.records:
            assert r.lr == tr.lr_schedule(1e-3, r.epoch)
        assert [r.epoch for r in log.records] == list(range(6))

    def test_returned_params_are_val_best(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=4, patience=4)
        params, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        recomputed = tr._val_mse(params, synth_ds, 48, 8, 64)
        assert recomputed == log.best_val_loss
        assert log.best_epoch == min(log.records, key=lambda r: r.val_loss).epoch

    def test_early_stop_restores_best_snapshot(self, tmp_path):
        # small noisy series so validation loss bounces within a few epochs
        path = tmp_path / "noisy.csv"
        write_synthetic_csv(path, n_rows=260, seed=3, noise=0.6)
        ds = dio.load_csv(path, "last-column-endogenous")
        ds = dio.split_and_scale(ds, (0.6, 0.2, 0.2), lookback=24, horizon=4)
        mcfg = mdl.ModelConfig(horizon=4, n_endo=1, n_exo=1, lookback=24, d_model=16,
                               t_ff=16, c_ff=16, embed_dropout=0.0, t_dropout=0.0,
                               c_dropout=0.0, head_dropout=0.0)
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=16, max_epochs=40, patience=2)
        params, log = tr.train(mcfg, tcfg, ds, echo=False)
        assert log.stopped_early
        assert len(log.records) == log.best_epoch + tcfg.patience + 1
        assert log.best_epoch < log.records[-1].epoch
        recomputed = tr._val_mse(params, ds, 24, 4, 16)
        assert recomputed == log.best_val_loss

    def test_csv_round_trip(self, synth_ds, tmp_path):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=256, max_epochs=2, patience=2)
        _, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        log.to_csv(tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_loss,seconds"
        assert len(lines) == 1 + len(log.records)
        for line, r in zip(lines[1:], log.records):
            e, lr, tl, vl, sec = line.split(",")
            assert int(e) == r.epoch
            assert float(lr) == r.lr
            assert float(tl) == r.train_loss  # repr() round-trips exactly
            assert float(vl) == r.val_loss
            assert float(sec) >= 0.0

    def test_divergence_aborts_with_context(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e80, batch_size=64, max_epochs=3, patience=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFault, match=r"epoch \d+, batch \d+"):
                tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)

    def test_stderr_echo(self, synth_ds, capsys):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=1024, max_epochs=1, patience=1)
        tr.train(synth_model_cfg(), tcfg, synth_ds, echo=True)
        err = capsys.readouterr().err
        assert "epoch 0:" in err and "val_loss" in err

    def test_bad_train_config_rejected(self, synth_ds):
        with pytest.raises(ConfigError):
            tr.train(synth_model_cfg(), tr.TrainConfig(lr_init=-1.0), synth_ds)
        with pytest.raises(ConfigError):
            tr.train(synth_model_cfg(), tr.TrainConfig(patience=0), synth_ds)
