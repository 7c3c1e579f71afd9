"""Tests for the loss, Adam, LR schedule, early stopping, and train loop."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from xlinear import data as dio
from xlinear import metrics as mx
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear import training as tr
from xlinear.errors import ConfigError, DimensionError, NumericFault
from xlinear.tensor import Tensor

from lane_masks import lane_table
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
        tr.adam_step(p, state, 0.1)
        assert p.theta.data[0] == 1.5
        assert state.m["theta"][0] == 0.0 and state.v["theta"][0] == 0.0

    def test_first_step_size_is_lr(self):
        p = ScalarParams(1.0)
        p.theta.grad = np.array([1.0])
        state = tr.AdamState.__new__(tr.AdamState)
        state.m = {"theta": np.zeros(1)}
        state.v = {"theta": np.zeros(1)}
        state.t = 0
        tr.adam_step(p, state, 0.01)
        # bias-corrected m-hat = v-hat = 1 at t=1, so the step is lr/(1+eps)
        assert p.theta.data[0] == pytest.approx(1.0 - 0.01 / (1.0 + tr.ADAM_EPS), rel=1e-12)
        assert state.t == 1
        assert p.theta.grad is None  # grads cleared

    def test_missing_gradient_reads_as_zero(self):
        """A leaf no pull reached keeps ``grad`` None; its moments decay as with zeros."""
        runs = []
        for grad in (None, np.zeros(1)):
            p = ScalarParams(0.75)
            state = tr.AdamState.__new__(tr.AdamState)
            state.m = {"theta": np.array([0.3])}
            state.v = {"theta": np.array([0.02])}
            state.t = 4
            p.theta.grad = grad
            tr.adam_step(p, state, 0.01)
            runs.append((p.theta.data.copy(), state.m["theta"].copy(), state.v["theta"].copy()))
            assert p.theta.grad is None
        for got, want in zip(*runs):
            assert np.array_equal(got, want)
        assert runs[0][1][0] == 0.3 * tr.ADAM_BETA1 and runs[0][0][0] != 0.75

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_gradient_is_named_before_any_update(self, bad):
        cfg = mdl.ModelConfig(horizon=3, n_endo=2, n_exo=2, lookback=6, d_model=4,
                              t_ff=5, c_ff=5)
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        state = tr.AdamState(params)
        for _, p in params.named():
            p.grad = np.ones_like(p.data)
        params.vgm_w2.grad[1, 0] = bad
        before = params.state_arrays()
        with pytest.raises(NumericFault, match="^non-finite gradient of parameter 'vgm_w2'$"):
            tr.adam_step(params, state, 0.01)
        assert state.t == 0
        for name, p in params.named():
            assert np.array_equal(p.data, before[name]), name
            assert not state.m[name].any() and not state.v[name].any(), name

    def test_three_steps_have_the_bits_of_the_expression(self):
        """The in-place update equals ``m*b1 + (1-b1)*g``, ``v*b2 + (1-b2)*g*g`` and
        ``p - lr*(m/bc1)/(sqrt(v/bc2) + eps)`` bit for bit over three steps, with a
        transposed (non-contiguous) gradient and a parameter no pull reached."""
        cfg = mdl.ModelConfig(horizon=3, n_endo=2, n_exo=2, lookback=6, d_model=4,
                              t_ff=5, c_ff=5)
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        state = tr.AdamState(params)
        ref = {name: p.data.copy() for name, p in params.named()}
        ref_m = {name: np.zeros_like(p.data) for name, p in params.named()}
        ref_v = {name: np.zeros_like(p.data) for name, p in params.named()}
        rng = np.random.default_rng(1)
        for t, lr in enumerate((1e-3, 3e-4, 5e-2), start=1):
            grads = {}
            for name, p in params.named():
                g = None if name == "head_b" and t == 2 else rng.normal(size=p.shape)
                if g is not None and g.ndim == 2:
                    g = np.ascontiguousarray(g.T).T
                grads[name] = p.grad = g
            tr.adam_step(params, state, lr)
            b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for name, p in params.named():
                g, m, v = grads[name], ref_m[name], ref_v[name]
                m *= b1
                v *= b2
                if g is not None:
                    m += (1.0 - b1) * g
                    v += (1.0 - b2) * g * g
                ref[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)
                assert np.array_equal(p.data, ref[name]), (t, name)
                assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)
                assert p.grad is None
        assert any(not g.flags.c_contiguous for g in grads.values() if g is not None)

    def test_hundred_steps_on_quadratic(self):
        p = ScalarParams(1.0)
        state = tr.AdamState.__new__(tr.AdamState)
        state.m = {"theta": np.zeros(1)}
        state.v = {"theta": np.zeros(1)}
        state.t = 0
        trajectory = []
        for _ in range(100):
            p.theta.grad = 2.0 * p.theta.data.copy()
            tr.adam_step(p, state, 0.1)
            trajectory.append(float(p.theta.data[0]))
        assert abs(trajectory[-1]) < 0.05
        expected = adam_oracle(1.0, lambda th: 2.0 * th, 0.1, 100)
        np.testing.assert_allclose(trajectory, expected, atol=1e-12)

    def test_step_counter_shared_across_parameters(self):
        cfg = mdl.ModelConfig(horizon=2, n_endo=1, n_exo=1, lookback=4, d_model=4,
                              t_ff=4, c_ff=4)
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        state = tr.AdamState(params)
        tr.adam_step(params, state, 0.01)
        assert state.t == 1
        tr.adam_step(params, state, 0.01)
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


def assert_reruns_identical(ds, mcfg):
    """Two training runs of one config give identical losses and parameters."""
    tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=3, patience=3, seed=5)
    pa, la = tr.train(mcfg, tcfg, ds, echo=False)
    pb, lb = tr.train(mcfg, tcfg, ds, echo=False)
    assert [(r.train_loss, r.val_loss) for r in la.records] == \
           [(r.train_loss, r.val_loss) for r in lb.records]
    for (na, ta), (nb, tb) in zip(pa.named(), pb.named()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


class TestTrainLoop:
    def test_identifiable_task_converges(self, synth_ds):
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=8, patience=8)
        _, log = tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        assert log.best_val_loss < 0.01

    def test_deterministic_replay(self, synth_ds):
        assert_reruns_identical(synth_ds, synth_model_cfg())

    def test_endo_only_run_matches_zero_filled_grads(self, synth_ds, monkeypatch):
        """No pull reaches the VGM or the exogenous embedding in an ``endo_only`` run, so
        their grads stay None; the run is bit-identical to one whose Adam sees zeros."""
        mcfg = dataclasses.replace(synth_model_cfg(), ablation="endo_only", c_dropout=0.2,
                                   t_dropout=0.1, embed_dropout=0.1, head_dropout=0.1)
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=2, patience=2)
        pa, la = tr.train(mcfg, tcfg, synth_ds, echo=False)

        real_step, untouched = tr.adam_step, set()

        def zero_filled_step(params, state, lr):
            for name, p in params.named():
                if p.grad is None:
                    untouched.add(name)
                    p.grad = np.zeros_like(p.data)
            real_step(params, state, lr)

        monkeypatch.setattr(tr, "adam_step", zero_filled_step)
        pb, lb = tr.train(mcfg, tcfg, synth_ds, echo=False)
        assert untouched == {"embed_exo_w", "embed_exo_b", "vgm_w1", "vgm_b1", "vgm_w2",
                             "vgm_b2"}
        assert [(r.train_loss, r.val_loss) for r in la.records] == \
               [(r.train_loss, r.val_loss) for r in lb.records]
        for (na, ta), (nb, tb) in zip(pa.named(), pb.named()):
            assert na == nb and np.array_equal(ta.data, tb.data), na

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
        recomputed = mx.pooled_mse(mdl.predictor(params, params.cfg), synth_ds, "val", 48, 8)
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
        recomputed = mx.pooled_mse(mdl.predictor(params, mcfg), ds, "val", 24, 4)
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

    def test_a_non_finite_gradient_names_its_parameter_and_step(self, synth_ds, monkeypatch):
        """An infinite gradient with a finite loss stops the run at its Adam step, not at the
        next forward's ``embed`` check."""
        real, batches = tr.accumulate_gradients, []

        def one_infinite_grad(params, batch, masks):
            loss = real(params, batch, masks)
            batches.append(len(batch))
            if len(batches) == 2:
                g = params.tgm_w1.grad.copy()
                g[0, 0] = np.inf
                params.tgm_w1.grad = g
            return loss

        monkeypatch.setattr(tr, "accumulate_gradients", one_infinite_grad)
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=64, max_epochs=2, patience=2)
        with pytest.raises(NumericFault, match=r"^non-finite gradient of parameter 'tgm_w1' "
                                               r"\(epoch 0, batch 1\)$"):
            tr.train(synth_model_cfg(), tcfg, synth_ds, echo=False)
        assert len(batches) == 2

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


def force_sub_batch_windows(monkeypatch, cfg, windows):
    """Set ``STEP_BLOCK_FLOATS`` so a training sub-batch of ``cfg`` holds ``windows``."""
    per_window = max(cfg.d_model * cfg.c_ff, cfg.n_endo * cfg.t_ff)
    monkeypatch.setattr(tr, "STEP_BLOCK_FLOATS", windows * per_window)
    assert tr.sub_batch_windows(cfg) == windows


@pytest.fixture
def recorded_masks(monkeypatch):
    """(buffer view drawn into, a copy of the mask then) of every dropout site that ``train``
    draws, in draw order."""
    made, real_draw_keep = [], tr.draw_keep

    def draw_keep(out, rate, rng):
        made.append((out, real_draw_keep(out, rate, rng).copy()))
        return out

    monkeypatch.setattr(tr, "draw_keep", draw_keep)
    return made


SUB_BATCH_MODEL = dict(horizon=4, lookback=16, d_model=8, t_ff=16, c_ff=12, embed_dropout=0.1,
                       t_dropout=0.2, c_dropout=0.3, head_dropout=0.15)


def sub_batch_case(tmp_path, target_mode, n=30, **model):
    """Fresh params and an ``n``-window training batch of the synthetic series; ``model``
    overrides fields of ``SUB_BATCH_MODEL``."""
    ds = dio.load_csv(write_synthetic_csv(tmp_path / "series.csv", n_rows=400), target_mode)
    ds = dio.split_and_scale(ds, (0.7, 0.1, 0.2), lookback=16, horizon=4)
    cfg = mdl.ModelConfig(n_endo=ds.n_endo, n_exo=ds.n_exo,
                          **{**SUB_BATCH_MODEL, **model})
    batch = next(dio.iter_batches(ds, "train", 16, 4, n))
    return cfg, mdl.XLinearParams(cfg, np.random.default_rng(3)), batch


def batch_grads(params, batch, masks):
    for p in params.all():
        p.zero_grad()
    loss = tr.accumulate_gradients(params, batch, masks)
    return loss, {name: None if p.grad is None else p.grad.copy() for name, p in params.named()}


CASES = [("multivariate", "sigmoid", "full"), ("last-column-endogenous", "sigmoid", "full"),
         ("multivariate", "softmax", "full"), ("last-column-endogenous", "softmax", "full"),
         ("multivariate", "sigmoid", "endo_only"),
         ("last-column-endogenous", "sigmoid", "endo_only")]


class TestSubBatches:
    @pytest.mark.parametrize("target_mode,gate,ablation", CASES)
    def test_accumulated_grads_match_one_shot(self, tmp_path, monkeypatch, target_mode, gate,
                                              ablation):
        cfg, params, batch = sub_batch_case(tmp_path, target_mode, gate_activation=gate,
                                            ablation=ablation)
        # reference: one tape over the whole batch
        masks = lane_table(np.random.default_rng(9), cfg, len(batch))
        tape = tc.Tape()
        with tc.record(tape):
            yhat, _ = mdl.forward(batch, params, masks)
            loss = tr.mse_loss(yhat, Tensor(batch.endo_future))
        tc.backward(loss, tape)
        taped = {name: None if p.grad is None else p.grad.copy() for name, p in params.named()}

        force_sub_batch_windows(monkeypatch, cfg, len(batch))
        one_loss, one = batch_grads(params, batch, masks)
        assert one_loss == loss.item()
        for name, g in one.items():
            assert (g is None) == (taped[name] is None) and (g is None or
                                                             np.array_equal(g, taped[name]))

        force_sub_batch_windows(monkeypatch, cfg, 8)  # 30 windows: 8 + 8 + 8 + 6
        sub_loss, sub = batch_grads(params, batch, masks)
        assert sub_loss == pytest.approx(one_loss, rel=1e-12)
        for name, g in sub.items():
            want = one[name]
            assert (g is None) == (want is None), name
            if g is not None:
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max(), name
        if ablation == "endo_only":
            assert sub["vgm_w1"] is None and sub["embed_exo_w"] is None

    @pytest.mark.parametrize("target_mode", ["multivariate", "last-column-endogenous"])
    def test_step_and_eval_forward_leave_the_batch_untouched(self, tmp_path, monkeypatch,
                                                             target_mode):
        """In multivariate mode one array is both histories, so neither a taped training
        step over sub-batches nor an eval forward may write into a batch array."""
        cfg, params, batch = sub_batch_case(tmp_path, target_mode)
        assert np.shares_memory(batch.endo_history, batch.exo_history) == \
            (target_mode == "multivariate")
        before = [a.copy() for a in (batch.endo_history, batch.exo_history, batch.endo_future)]
        force_sub_batch_windows(monkeypatch, cfg, 8)
        tr.accumulate_gradients(params, batch, lane_table(np.random.default_rng(12), cfg, 30))
        mdl.predictor(params, cfg)(batch.endo_history, batch.exo_history)
        for got, want in zip((batch.endo_history, batch.exo_history, batch.endo_future), before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("target_mode", ["multivariate", "last-column-endogenous"])
    def test_train_draws_each_batch_table_from_the_dropout_generator(self, tmp_path,
                                                                     recorded_masks,
                                                                     target_mode):
        """Each batch's masks, the short last batch's in the leading rows of the buffers too,
        are the lanes of the seed's third spawned Generator drawn in site order, batch after
        batch: ``lane_table`` of a twin."""
        cfg, _, _ = sub_batch_case(tmp_path, target_mode)
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", target_mode),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        tr.train(cfg, tr.TrainConfig(batch_size=121, max_epochs=1, seed=11), ds, echo=False)
        batches = list(dio.iter_batches(ds, "train", 16, 4, 121,
                                        np.random.default_rng(11).spawn(3)[1]))
        assert [len(b) for b in batches] == [121, 121, 19]
        twin = np.random.default_rng(11).spawn(3)[2]
        want = [keep for b in batches for keep in lane_table(twin, cfg, len(b)).values()]
        assert len(recorded_masks) == len(want)
        for (_, keep), w in zip(recorded_masks, want):
            assert keep.dtype == bool and np.array_equal(keep, w)

    @pytest.mark.parametrize("rates", [(0.1, 0.2, 0.3, 0.15), (0.05, 0.5, 0.9, 0.45)])
    def test_each_site_keeps_its_binomial_share(self, rates):
        """Each site's keep fraction lies within 5 sigma of ``1 - t/65536``."""
        embed, t_rate, c_rate, head_rate = rates
        cfg = mdl.ModelConfig(n_endo=2, n_exo=3, **{
            **SUB_BATCH_MODEL, "d_model": 32, "t_ff": 64, "c_ff": 64, "embed_dropout": embed,
            "t_dropout": t_rate, "c_dropout": c_rate, "head_dropout": head_rate})
        sites = mdl.dropout_sites(cfg, 64)
        assert [rate for _, rate in sites.values()] == [embed, embed, t_rate, c_rate, head_rate]
        rng = np.random.default_rng(14)
        for shape, rate in sites.values():
            keep = tc.draw_keep(np.empty(shape, bool), rate, rng)
            p = 1.0 - round(rate * 65536) / 65536
            sigma = math.sqrt(p * (1.0 - p) / keep.size)
            assert abs(keep.mean() - p) <= 5.0 * sigma, (rate, keep.size, keep.mean())

    def test_zero_rates_draw_nothing(self, tmp_path, monkeypatch, recorded_masks):
        """With every rate 0 the table is empty: a step reads no mask and ``train`` draws
        none."""
        cfg, params, batch = sub_batch_case(tmp_path, "multivariate", embed_dropout=0.0,
                                            t_dropout=0.0, c_dropout=0.0, head_dropout=0.0)
        assert mdl.dropout_sites(cfg, len(batch)) == {}
        force_sub_batch_windows(monkeypatch, cfg, 8)
        assert math.isfinite(tr.accumulate_gradients(params, batch, {}))
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", "multivariate"),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        tr.train(cfg, tr.TrainConfig(batch_size=121, max_epochs=1), ds, echo=False)
        assert recorded_masks == []

    def test_ragged_split_and_short_last_batch(self, tmp_path, monkeypatch):
        cfg, _, _ = sub_batch_case(tmp_path, "last-column-endogenous")
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", "last-column-endogenous"),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        force_sub_batch_windows(monkeypatch, cfg, 32)
        sizes, real_forward = [], mdl.forward

        def forward(batch, params, masks=None):
            if masks is not None:
                sizes.append(len(batch))
            return real_forward(batch, params, masks)

        monkeypatch.setattr(mdl, "forward", forward)
        tr.train(cfg, tr.TrainConfig(batch_size=121, max_epochs=1), ds, echo=False)
        windows = dio.n_windows(ds, "train", 16, 4)
        full, last = divmod(windows, 121)
        assert full >= 1 and 0 < last < 121
        tail = [32] * (last // 32) + ([last % 32] if last % 32 else [])
        assert sizes == [32, 32, 32, 25] * full + tail

    def test_sub_batched_reruns_are_identical(self, synth_ds, monkeypatch):
        mcfg = dataclasses.replace(synth_model_cfg(), embed_dropout=0.1, t_dropout=0.1,
                                   c_dropout=0.1, head_dropout=0.1)
        force_sub_batch_windows(monkeypatch, mcfg, 8)
        assert_reruns_identical(synth_ds, mcfg)

    def test_step_peak_stays_below_twice_the_one_shot_hidden_layer(self, tmp_path,
                                                                   monkeypatch):
        cfg, params, batch = sub_batch_case(tmp_path, "last-column-endogenous", n=64,
                                            d_model=32, c_ff=64)
        force_sub_batch_windows(monkeypatch, cfg, 8)
        state = tr.AdamState(params)
        masks = lane_table(np.random.default_rng(13), cfg, len(batch))
        hidden_bytes = len(batch) * cfg.d_model * cfg.c_ff * 8
        tracemalloc.start()
        try:
            tr.accumulate_gradients(params, batch, masks)
            tr.adam_step(params, state, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * hidden_bytes, (peak, hidden_bytes)

    @pytest.mark.parametrize("n_endo,n_exo,layers", [(1, 6, 2.7), (7, 7, 5.0)])
    def test_reproduction_size_step_holds_one_hidden_buffer(self, n_endo, n_exo, layers):
        """One taped 32-window step at the reproduction size (L = S = 96, d_model 128,
        t_ff 256, c_ff 128) peaks below ``layers`` VGM hidden layers of [32 x 128 x 128]
        floats: the hidden layer is one buffer in forward and its gradient is written back
        into it. With its masks drawn beforehand the step peaks at 2.2 (MS) and 4.6 (M)
        hidden layers; one more full-size buffer held through the backward gives 3.2 and
        5.6."""
        cfg = mdl.ModelConfig(n_endo=n_endo, n_exo=n_exo, lookback=96, horizon=96, d_model=128,
                              t_ff=256, c_ff=128)
        n = tr.sub_batch_windows(cfg)
        assert n == 32
        params = mdl.XLinearParams(cfg, np.random.default_rng(30))
        data = np.random.default_rng(31)
        batch = dio.WindowBatch(data.normal(size=(n, n_endo, 96)),
                                data.normal(size=(n, n_exo, 96)),
                                data.normal(size=(n, n_endo, 96)))
        tr.accumulate_gradients(params, batch, lane_table(np.random.default_rng(32), cfg, n))
        for p in params.all():
            p.zero_grad()
        masks = lane_table(np.random.default_rng(33), cfg, n)
        tracemalloc.start()
        try:
            tr.accumulate_gradients(params, batch, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hidden_bytes = n * cfg.d_model * cfg.c_ff * 8
        assert peak < layers * hidden_bytes, (peak / hidden_bytes, layers)

    @pytest.mark.parametrize("target_mode", ["multivariate", "last-column-endogenous"])
    def test_training_has_the_bits_of_the_float_scale_hidden_layer(self, tmp_path,
                                                                   monkeypatch, target_mode):
        """A sub-batched ``train`` run gives the parameters and log, bit for bit, of the same
        run with each taped hidden layer built as a ``mul`` by the float scale
        ``(keep & (h > 0)) · c``."""
        cfg, _, _ = sub_batch_case(tmp_path, target_mode)
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", target_mode),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        force_sub_batch_windows(monkeypatch, cfg, 8)
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=24, max_epochs=2, patience=2, seed=5)
        params, log = tr.train(cfg, tcfg, ds, echo=False)
        real_mlp, taped = tc.mlp, []

        def float_scale_mlp(x, w1, b1, w2, b2, rate, keep, act):
            if keep is None:
                return real_mlp(x, w1, b1, w2, b2, rate, keep, act)
            taped.append(x.shape[0])
            h = x @ w1 if b1 is None else x @ w1 + b1
            c = tc._keep_scale(keep, h.shape, rate)
            h = h * Tensor((keep & (h.data > 0.0)) * c)
            return tc.activation(h @ w2 + b2, act)

        monkeypatch.setattr(tc, "mlp", float_scale_mlp)
        ref_params, ref_log = tr.train(cfg, tcfg, ds, echo=False)
        assert 8 in taped  # the reference ran, in 8-window sub-batches
        for (name, p), ref in zip(params.named(), ref_params.all()):
            assert np.array_equal(p.data.view(np.uint64), ref.data.view(np.uint64)), name
        assert [(r.train_loss, r.val_loss) for r in log.records] == \
            [(r.train_loss, r.val_loss) for r in ref_log.records]


def site_case(tmp_path, mode, n=30, **model):
    """``sub_batch_case`` in a target mode, or with no exogenous channel for ``"no-exo"``."""
    if mode != "no-exo":
        return sub_batch_case(tmp_path, mode, n, **model)
    cfg = mdl.ModelConfig(n_endo=2, n_exo=0, **{**SUB_BATCH_MODEL, **model})
    data = np.random.default_rng(15)
    batch = dio.WindowBatch(data.normal(size=(n, 2, 16)), np.zeros((n, 0, 16)),
                            data.normal(size=(n, 2, 4)))
    return cfg, mdl.XLinearParams(cfg, np.random.default_rng(3)), batch


class TestDropoutSites:
    @pytest.mark.parametrize("ablation", mdl.ABLATIONS)
    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    @pytest.mark.parametrize("mode", ["multivariate", "last-column-endogenous", "no-exo"])
    def test_a_taped_forward_reads_each_site_of_the_table_in_order(self, tmp_path, mode, gate,
                                                                   ablation):
        """A taped training forward reads each site of ``dropout_sites`` once, in the
        table's order, and each mask has the shape its op checks it against."""
        cfg, params, batch = site_case(tmp_path, mode, gate_activation=gate, ablation=ablation)
        sites = mdl.dropout_sites(cfg, len(batch))
        assert len(sites) == 5 and sites["embed_exo"][0][1] == cfg.n_exo
        reads = []

        class ReadLog(dict):
            def get(self, site, default=None):
                reads.append(site)
                return super().get(site, default)

        with tc.record(tc.Tape()):
            mdl.forward(batch, params,
                        ReadLog(lane_table(np.random.default_rng(16), cfg, len(batch))))
        assert reads == list(sites)

    def test_zero_rate_sites_are_left_out(self):
        cfg = mdl.ModelConfig(horizon=4, n_endo=2, n_exo=3, lookback=16, d_model=8, t_ff=16,
                              c_ff=12, embed_dropout=0.0, t_dropout=0.2, c_dropout=0.0,
                              head_dropout=0.1)
        assert mdl.dropout_sites(cfg, 5) == {"tgm": ((5, 2, 16), 0.2), "head": ((5, 2, 16), 0.1)}

    def test_a_run_draws_every_batch_into_one_buffer_per_site(self, tmp_path, recorded_masks):
        """One ``train`` epoch of 121-window batches and a shorter last batch draws each
        site's mask into the same buffer every batch."""
        cfg, _, _ = sub_batch_case(tmp_path, "last-column-endogenous")
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", "last-column-endogenous"),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        tr.train(cfg, tr.TrainConfig(batch_size=121, max_epochs=1), ds, echo=False)
        full, last = divmod(dio.n_windows(ds, "train", 16, 4), 121)
        assert full >= 1 and last > 0 and len(recorded_masks) == 5 * (full + 1)
        for site in range(5):
            draws = [keep for keep, _ in recorded_masks[site::5]]
            assert len({keep.base.ctypes.data for keep in draws}) == 1
            assert [len(keep) for keep in draws] == [121] * full + [last]


class TestValidationLoss:
    @pytest.mark.parametrize("target_mode", ["multivariate", "last-column-endogenous"])
    def test_val_loss_is_the_evaluate_mse(self, tmp_path, monkeypatch, target_mode):
        """With every dropout rate above 0, each epoch's ``val_loss`` is the pooled
        validation MSE that ``evaluate`` reports for that epoch's params, and the returned
        params score ``best_val_loss`` again bit for bit."""
        ds = dio.load_csv(write_synthetic_csv(tmp_path / "series.csv", n_rows=1000), target_mode)
        ds = dio.split_and_scale(ds, (0.7, 0.1, 0.2), lookback=16, horizon=4)
        assert dio.n_windows(ds, "val", 16, 4) > mx.EVAL_BATCH  # the sum spans batches
        cfg = mdl.ModelConfig(n_endo=ds.n_endo, n_exo=ds.n_exo, **SUB_BATCH_MODEL)
        assert min(cfg.embed_dropout, cfg.t_dropout, cfg.c_dropout, cfg.head_dropout) > 0
        scored, real_pooled_mse = [], mx.pooled_mse

        def pooled_mse(model, ds, split, L, S):
            scored.append(mx.evaluate(model, ds, split, L, S).aggregate["mse"])
            return real_pooled_mse(model, ds, split, L, S)

        monkeypatch.setattr(mx, "pooled_mse", pooled_mse)
        tcfg = tr.TrainConfig(lr_init=1e-3, batch_size=24, max_epochs=4, patience=4, seed=8)
        params, log = tr.train(cfg, tcfg, ds, echo=False)
        assert len(scored) == len(log.records) == 4
        for r, want in zip(log.records, scored):
            assert r.val_loss == pytest.approx(want, rel=1e-12, abs=0.0)
        assert real_pooled_mse(mdl.predictor(params, cfg), ds, "val", 16, 4) == log.best_val_loss

    def test_val_pass_ignores_the_training_batch_size(self, tmp_path, monkeypatch):
        """The validation walk batches ``EVAL_BATCH`` windows whatever ``batch_size`` is."""
        cfg, _, _ = sub_batch_case(tmp_path, "multivariate")
        ds = dio.split_and_scale(dio.load_csv(tmp_path / "series.csv", "multivariate"),
                                 (0.7, 0.1, 0.2), lookback=16, horizon=4)
        sizes, real_iter_batches = {}, dio.iter_batches

        def iter_batches(ds, split, L, S, batch_size, **kw):
            sizes.setdefault(split, set()).add(batch_size)
            return real_iter_batches(ds, split, L, S, batch_size, **kw)

        monkeypatch.setattr(dio, "iter_batches", iter_batches)
        tr.train(cfg, tr.TrainConfig(batch_size=7, max_epochs=2, patience=2), ds, echo=False)
        assert sizes == {"train": {7}, "val": {mx.EVAL_BATCH}}
