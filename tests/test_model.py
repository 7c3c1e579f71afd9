"""XLinear network tests: RevIN, embedding, gating modules, head,
forward composition, ablations, and the gating-weight export."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.errors import DimensionError, NumericFault, UsageError
from xlinear.tensor import Tensor
from xlinear.training import mse_loss


def tiny_cfg(**over):
    base = dict(horizon=4, n_endo=2, n_exo=3, lookback=8, d_model=6, t_ff=8, c_ff=8,
                embed_dropout=0.0, t_dropout=0.0, c_dropout=0.0, head_dropout=0.0)
    base.update(over)
    return mdl.ModelConfig(**base)


def make_params(cfg, seed=0):
    return mdl.XLinearParams(cfg, np.random.default_rng(seed))


def zero_gates(params):
    """Zero both gating MLPs so every sigmoid gate sits at exactly 0.5."""
    for name in ("tgm_w1", "tgm_b1", "tgm_w2", "tgm_b2",
                 "vgm_w1", "vgm_b1", "vgm_w2", "vgm_b2"):
        getattr(params, name).data[...] = 0.0
    return params


def make_batch(cfg, n=5, seed=1):
    rng = np.random.default_rng(seed)

    class B:
        pass

    b = B()
    b.endo_history = rng.normal(size=(n, cfg.n_endo, cfg.lookback))
    b.exo_history = rng.normal(size=(n, cfg.n_exo, cfg.lookback))
    b.endo_future = rng.normal(size=(n, cfg.n_endo, cfg.horizon))
    return b


class TestRevin:
    def test_constant_window_maps_to_zeros(self):
        x = Tensor(np.full((1, 1, 4), 5.0))
        z, stats = mdl.revin_normalize(x)
        np.testing.assert_allclose(z.data, 0.0)
        assert stats.mean[0, 0, 0] == 5.0

    def test_two_point_symmetry(self):
        z, stats = mdl.revin_normalize(Tensor(np.array([[[0.0, 2.0]]])))
        assert stats.mean[0, 0, 0] == 1.0
        np.testing.assert_allclose(z.data, [[[-1.0, 1.0]]], atol=1e-4)  # eps shrinks slightly

    def test_round_trip_without_affine(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 16))
        z, stats = mdl.revin_normalize(Tensor(x))
        back = mdl.revin_denormalize(z, stats)
        np.testing.assert_allclose(back.data, x, atol=1e-9)

    def test_round_trip_with_affine(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 12))
        gamma = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        z, stats = mdl.revin_normalize(Tensor(x), (gamma, beta))
        back = mdl.revin_denormalize(z, stats, (gamma, beta))
        np.testing.assert_allclose(back.data, x, atol=1e-9)

    def test_denormalize_zero_recovers_mean(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 8))
        _, stats = mdl.revin_normalize(Tensor(x))
        out = mdl.revin_denormalize(Tensor(np.zeros((2, 2, 3))), stats)
        np.testing.assert_allclose(out.data, np.broadcast_to(stats.mean, (2, 2, 3)))

    def test_window_too_short(self):
        with pytest.raises(DimensionError):
            mdl.revin_normalize(Tensor(np.ones((1, 1, 1))))

    def test_stats_shape_mismatch(self):
        _, stats = mdl.revin_normalize(Tensor(np.ones((2, 2, 4))))
        with pytest.raises(DimensionError):
            mdl.revin_denormalize(Tensor(np.ones((2, 3, 4))), stats)


class TestParams:
    @pytest.mark.parametrize("cfg", [
        tiny_cfg(),
        tiny_cfg(horizon=96, n_endo=7, n_exo=7, lookback=96, d_model=32, t_ff=48,
                 c_ff=24, revin_affine=False),
        tiny_cfg(horizon=12, n_endo=1, n_exo=6, lookback=24, d_model=16, t_ff=64, c_ff=16),
    ])
    def test_count_matches_formula(self, cfg):
        params = make_params(cfg)
        assert params.n_parameters() == mdl.parameter_count(cfg)

    def test_shared_embedding_drops_one_matrix(self):
        cfg = tiny_cfg(share_embedding=True)
        params = make_params(cfg)
        assert params.embed_exo_w is params.embed_endo_w
        assert params.n_parameters() == mdl.parameter_count(cfg)
        assert mdl.parameter_count(cfg) == mdl.parameter_count(tiny_cfg()) - (8 + 1) * 6

    @pytest.mark.parametrize("over", [{}, {"share_embedding": True}, {"revin_affine": False}])
    def test_shape_table_lists_every_tensor_in_order(self, over):
        cfg = tiny_cfg(**over)
        named = [(name, t.shape) for name, t in make_params(cfg).named()]
        assert named == list(mdl.param_shapes(cfg).items())

    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    @pytest.mark.parametrize("n_endo,n_exo", [(2, 3), (1, 6), (7, 7)])
    def test_vgm_output_width_and_count_per_activation(self, gate, n_endo, n_exo):
        """The VGM's second layer has M columns for an elementwise gate, C+M for softmax."""
        cfg = tiny_cfg(n_endo=n_endo, n_exo=n_exo, gate_activation=gate)
        width = n_exo + n_endo if gate == "softmax" else n_endo
        shapes = mdl.param_shapes(cfg)
        assert shapes["vgm_w2"] == (8, width) and shapes["vgm_b2"] == (width,)
        L, S, d, t_ff, c_ff = 8, 4, 6, 8, 8
        count = (2 * (L * d + d) + n_endo * d + 2 * (2 * d * t_ff) + t_ff + 2 * d
                 + (n_exo + n_endo + 1) * c_ff + (c_ff + 1) * width
                 + 2 * d * S + S + 2 * n_endo)
        assert mdl.parameter_count(cfg) == count == make_params(cfg).n_parameters()

    @pytest.mark.parametrize("gate", ["sigmoid", "swish", "tanh"])
    def test_pruned_init_keeps_the_global_columns_of_the_full_draw(self, gate):
        """Every tensor draws as at full width, so the RNG stream is that of softmax."""
        pruned = make_params(tiny_cfg(gate_activation=gate), seed=4).named()
        full = dict(make_params(tiny_cfg(gate_activation="softmax"), seed=4).named())
        for name, t in pruned:
            want = full[name].data
            if name in ("vgm_w2", "vgm_b2"):
                want = want[..., 3:]
            assert np.array_equal(t.data, want), name

    def test_shapes(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        assert p.embed_endo_w.shape == (8, 6)
        assert p.global_tokens.shape == (2, 6)
        assert p.tgm_w1.shape == (12, 8)
        assert p.tgm_w2.shape == (8, 12)
        assert p.vgm_w1.shape == (5, 8)
        assert p.vgm_w2.shape == (8, 2)
        assert p.vgm_b2.shape == (2,)
        assert p.head_w.shape == (12, 4)
        assert p.revin_gamma.shape == (2,)
        assert all(t.requires_grad for t in p.all())

    def test_init_statistics(self):
        cfg = tiny_cfg(d_model=64, t_ff=128)
        p = make_params(cfg, seed=3)
        bound = 1.0 / np.sqrt(2 * 64)
        assert np.abs(p.tgm_w1.data).max() <= bound
        assert np.array_equal(p.tgm_b1.data, np.zeros(128))
        assert np.array_equal(p.revin_gamma.data, np.ones(2))
        assert np.abs(p.global_tokens.data).max() < 0.2  # ~N(0, 0.02)


class TestEmbed:
    def test_zero_input_zero_bias(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        x = Tensor(np.zeros((2, cfg.n_endo, cfg.lookback)))
        e = Tensor(np.zeros((2, cfg.n_exo, cfg.lookback)))
        xe, ee = mdl.embed(x, e, p)
        np.testing.assert_allclose(xe.data, 0.0)
        np.testing.assert_allclose(ee.data, 0.0)

    def test_identity_weights_pass_input_through(self):
        cfg = tiny_cfg(d_model=8)  # d_model == L
        p = make_params(cfg)
        p.embed_endo_w.data[...] = np.eye(8)
        p.embed_endo_b.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, cfg.n_endo, 8))
        xe, _ = mdl.embed(Tensor(x), Tensor(np.zeros((3, cfg.n_exo, 8))), p)
        np.testing.assert_allclose(xe.data, x)

    def test_wrong_length_rejected(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        with pytest.raises(DimensionError):
            mdl.embed(Tensor(np.zeros((2, 2, 9))), Tensor(np.zeros((2, 3, 8))), p)

    def test_embed_weight_grads_match_fd(self):
        cfg = tiny_cfg()
        # seeds chosen to keep ReLU pre-activations away from kinks, where
        # central differences stop tracking the (correct) subgradient
        p = make_params(cfg, seed=20)
        b = make_batch(cfg, n=3, seed=21)
        y = Tensor(b.endo_future)

        def f():
            yhat, _ = mdl.forward(b, p, training=False)
            return mse_loss(yhat, y)

        report = tc.grad_check(f, [p.embed_endo_w, p.embed_exo_w], step=1e-4, rel_tol=1e-4)
        assert report.passed, str(report)


class TestAttachGlobalTokens:
    def test_round_trip_recovers_tokens(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=5)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 2, 6)))
        tok = mdl.attach_global_tokens(x, p.global_tokens)
        assert tok.shape == (4, 2, 12)
        _, second = tc.split(tok, (6, 6), axis=-1)
        expected = np.broadcast_to(p.global_tokens.data, (4, 2, 6))
        assert np.array_equal(second.data, expected)

    def test_zero_tokens_zero_second_half(self):
        x = Tensor(np.ones((2, 3, 5)))
        out = mdl.attach_global_tokens(x, Tensor(np.zeros((3, 5))))
        np.testing.assert_allclose(out.data[..., 5:], 0.0)

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            mdl.attach_global_tokens(Tensor(np.ones((2, 3, 5))), Tensor(np.zeros((4, 5))))


class TestTgm:
    def test_zero_weights_gate_half(self):
        cfg = tiny_cfg()
        p = zero_gates(make_params(cfg))
        x = np.random.default_rng(3).normal(size=(3, 2, 12))
        x_endo, x_glob, gate = mdl.tgm(Tensor(x), p)
        np.testing.assert_allclose(gate.data, 0.5)
        np.testing.assert_allclose(np.concatenate([x_endo.data, x_glob.data], axis=-1),
                                   0.5 * x)

    def test_sigmoid_gate_strictly_inside_unit_interval(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=8)
        x = np.random.default_rng(4).normal(size=(5, 2, 12))
        _, _, gate = mdl.tgm(Tensor(x), p)
        assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)

    def test_channel_permutation_equivariance(self):
        """One shared MLP means permuting the M channels permutes outputs."""
        cfg = tiny_cfg(n_endo=4)
        p = make_params(cfg, seed=9)
        x = np.random.default_rng(5).normal(size=(3, 4, 12))
        perm = np.array([2, 0, 3, 1])
        a_endo, a_glob, _ = mdl.tgm(Tensor(x), p)
        b_endo, b_glob, _ = mdl.tgm(Tensor(x[:, perm, :]), p)
        np.testing.assert_allclose(b_endo.data, a_endo.data[:, perm, :])
        np.testing.assert_allclose(b_glob.data, a_glob.data[:, perm, :])


class TestVgm:
    def test_zero_weights_halve_global_tokens(self):
        cfg = tiny_cfg()
        p = zero_gates(make_params(cfg))
        rng = np.random.default_rng(6)
        e = rng.normal(size=(3, 3, 6))
        g = rng.normal(size=(3, 2, 6))
        x_glob2, gate = mdl.vgm(Tensor(e), Tensor(g), p)
        np.testing.assert_allclose(x_glob2.data, 0.5 * g)
        assert gate.shape == (3, 2, 6)

    def test_no_exogenous_degenerates_to_token_gating(self):
        cfg = tiny_cfg(n_exo=0)
        p = make_params(cfg, seed=10)
        g = np.random.default_rng(7).normal(size=(2, 2, 6))
        x_glob2, gate = mdl.vgm(Tensor(np.zeros((2, 0, 6))), Tensor(g), p)
        assert x_glob2.shape == (2, 2, 6)
        assert gate.shape == (2, 2, 6)

    def test_position_permutation_equivariance(self):
        """The channel MLP applies at every embedding position alike."""
        cfg = tiny_cfg()
        p = make_params(cfg, seed=11)
        rng = np.random.default_rng(8)
        e = rng.normal(size=(2, 3, 6))
        g = rng.normal(size=(2, 2, 6))
        perm = np.array([5, 3, 0, 1, 4, 2])
        a_glob, a_gate = mdl.vgm(Tensor(e), Tensor(g), p)
        b_glob, b_gate = mdl.vgm(Tensor(e[:, :, perm]), Tensor(g[:, :, perm]), p)
        np.testing.assert_allclose(b_glob.data, a_glob.data[:, :, perm])
        np.testing.assert_allclose(b_gate.data, a_gate.data[:, :, perm])


    @pytest.mark.parametrize("gate", ["sigmoid", "softmax", "swish", "tanh"])
    @pytest.mark.parametrize("n_endo,n_exo", [(3, 3), (1, 4)])
    @pytest.mark.parametrize("training", [False, True])
    def test_bias_in_gemm_matches_the_unfused_layer(self, gate, n_endo, n_exo, training):
        """Against the unpruned layer: ``relu(t @ W1 + b1)``, ``dropout`` with the same draw,
        and a gate for all C+M channels from the full ``(c_ff, C+M)`` draw of ``vgm_w2``,
        which a softmax config keeps whole. An elementwise gate's exogenous columns get no
        gradient there."""
        over = dict(n_endo=n_endo, n_exo=n_exo, c_dropout=0.3)
        cfg = tiny_cfg(gate_activation=gate, **over)
        p = make_params(cfg, seed=21)
        full = make_params(tiny_cfg(gate_activation="softmax", **over), seed=21)
        c = n_exo if gate != "softmax" else 0
        data = np.random.default_rng(5)
        p.vgm_b1.data[...] = data.normal(size=cfg.c_ff)
        full.vgm_b2.data[...] = data.normal(size=n_exo + n_endo)
        p.vgm_b2.data[...] = full.vgm_b2.data[c:]
        assert np.array_equal(p.vgm_w2.data, full.vgm_w2.data[:, c:])
        data = np.random.default_rng(6)
        e = Tensor(data.normal(size=(3, n_exo, 6)), requires_grad=True)
        g = Tensor(data.normal(size=(3, n_endo, 6)), requires_grad=True)
        weights = data.normal(size=(3, n_endo, 6))

        def unpruned(e, g, p, training, rng):
            tok = tc.concat([e, g], axis=1)
            h = tc.activation(tc.transpose(tok) @ p.vgm_w1 + p.vgm_b1, "relu")
            h = tc.dropout(h, cfg.c_dropout, training, rng)
            gate = tc.transpose(tc.activation(h @ full.vgm_w2 + full.vgm_b2,
                                              cfg.gate_activation))
            _, x_glob2 = tc.split(gate * tok, (n_exo, n_endo), axis=1)
            return x_glob2, tc.split(gate, (n_exo, n_endo), axis=1)[1]

        leaves = [e, g, p.vgm_w1, p.vgm_b1]

        def run(fn, w2, b2):
            for t in leaves + [w2, b2]:
                t.zero_grad()
            tape = tc.Tape()
            with tc.record(tape):
                outs = fn(e, g, p, training, np.random.default_rng(8))
                loss = tc.tsum(outs[1] * Tensor(weights)) + tc.tsum(outs[0] * outs[0])
            tc.backward(loss, tape)
            return [o.data for o in outs], [t.grad.copy() for t in leaves + [w2, b2]]

        outs, grads = run(mdl.vgm, p.vgm_w2, p.vgm_b2)
        ref_outs, ref_grads = run(unpruned, full.vgm_w2, full.vgm_b2)
        assert not np.any(ref_grads[-2][:, :c]) and not np.any(ref_grads[-1][:c])
        ref_grads[-2:] = [ref_grads[-2][:, c:], ref_grads[-1][c:]]
        for got, want in zip(outs + grads, ref_outs + ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_endo,n_exo", [(7, 7), (1, 6)])
    def test_eval_peak_stays_below_the_full_hidden_layer(self, n_endo, n_exo):
        """In eval the [b*d_model x c_ff] hidden layer exists only in row blocks."""
        cfg = tiny_cfg(n_endo=n_endo, n_exo=n_exo, d_model=32, c_ff=256)
        p = make_params(cfg, seed=26)
        data = np.random.default_rng(27)
        e = Tensor(data.normal(size=(64, n_exo, 32)))
        g = Tensor(data.normal(size=(64, n_endo, 32)))
        hidden_bytes = 64 * cfg.d_model * cfg.c_ff * 8
        tracemalloc.start()
        try:
            mdl.vgm(e, g, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < hidden_bytes, (peak, hidden_bytes)


class TestHead:
    def test_zero_weights_broadcast_bias(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        p.head_w.data[...] = 0.0
        p.head_b.data[...] = np.array([1.0, -2.0, 3.0, 0.25])
        rng = np.random.default_rng(9)
        out = mdl.head(Tensor(rng.normal(size=(3, 2, 6))),
                       Tensor(rng.normal(size=(3, 2, 6))), p)
        np.testing.assert_allclose(out.data, np.broadcast_to(p.head_b.data, (3, 2, 4)))

    def test_paper_scale_output_shape(self):
        cfg = tiny_cfg(horizon=96, n_endo=7, n_exo=7, d_model=6)
        p = make_params(cfg)
        rng = np.random.default_rng(10)
        out = mdl.head(Tensor(rng.normal(size=(2, 7, 6))),
                       Tensor(rng.normal(size=(2, 7, 6))), p)
        assert out.shape == (2, 7, 96)

    def test_channel_permutation_equivariance(self):
        cfg = tiny_cfg(n_endo=5)
        p = make_params(cfg, seed=12)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 5, 6))
        b = rng.normal(size=(2, 5, 6))
        perm = np.array([4, 2, 0, 1, 3])
        out = mdl.head(Tensor(a), Tensor(b), p)
        out_p = mdl.head(Tensor(a[:, perm]), Tensor(b[:, perm]), p)
        np.testing.assert_allclose(out_p.data, out.data[:, perm])

    def test_head_weight_grads_match_fd(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=13)
        b = make_batch(cfg, n=2, seed=14)
        y = Tensor(b.endo_future)

        def f():
            yhat, _ = mdl.forward(b, p, training=False)
            return mse_loss(yhat, y)

        report = tc.grad_check(f, [p.head_w, p.head_b], step=1e-4, rel_tol=1e-4)
        assert report.passed, str(report)


class TestForward:
    def test_eval_forward_is_pure(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=15)
        b = make_batch(cfg)
        y1, _ = mdl.forward(b, p, training=False)
        y2, _ = mdl.forward(b, p, training=False)
        assert np.array_equal(y1.data, y2.data)

    def test_prediction_shape_and_trace(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=16)
        b = make_batch(cfg, n=4)
        yhat, trace = mdl.forward(b, p, training=False)
        assert yhat.shape == (4, 2, 4)
        assert trace.time_gate.shape == (4, 2, 12)
        assert trace.variate_gate.shape == (4, 2, 6)

    def test_training_dropout_changes_output_but_replays(self):
        cfg = tiny_cfg(embed_dropout=0.3, t_dropout=0.2, c_dropout=0.2, head_dropout=0.2)
        p = make_params(cfg, seed=17)
        b = make_batch(cfg)
        ya, _ = mdl.forward(b, p, training=True, rng=np.random.default_rng(1))
        yb, _ = mdl.forward(b, p, training=True, rng=np.random.default_rng(1))
        yc, _ = mdl.forward(b, p, training=True, rng=np.random.default_rng(2))
        assert np.array_equal(ya.data, yb.data)
        assert not np.array_equal(ya.data, yc.data)

    @pytest.mark.parametrize("site", ["embed_dropout", "t_dropout", "c_dropout",
                                      "head_dropout"])
    def test_training_dropout_without_rng_is_a_usage_error(self, site):
        """Each dropout site, the gating MLPs' hidden layers included, names the missing rng."""
        cfg = tiny_cfg(**{site: 0.2})
        with pytest.raises(UsageError, match="rng"):
            mdl.forward(make_batch(cfg), make_params(cfg), training=True)

    def test_ablations_differ_only_through_gated_global_path(self):
        cfg_full = tiny_cfg()
        cfg_endo = tiny_cfg(ablation="endo_only")
        b = make_batch(cfg_full)
        p = make_params(cfg_full, seed=18)
        p_endo = make_params(cfg_endo, seed=18)
        y_full, t_full = mdl.forward(b, p, training=False)
        y_endo, t_endo = mdl.forward(b, p_endo, training=False)
        # the temporally gated endogenous path is identical in both graphs
        np.testing.assert_allclose(t_full.time_gate, t_endo.time_gate)
        assert not np.allclose(y_full.data, y_endo.data)
        # endo_only is blind to the VGM parameters; full is not
        p_endo.vgm_w2.data[...] += 0.5
        y_endo2, _ = mdl.forward(b, p_endo, training=False)
        np.testing.assert_allclose(y_endo2.data, y_endo.data)
        p.vgm_w2.data[...] += 0.5
        y_full2, _ = mdl.forward(b, p, training=False)
        assert not np.allclose(y_full2.data, y_full.data)

    def test_global_only_ignores_endo_head_half(self):
        cfg = tiny_cfg(ablation="global_only")
        p = make_params(cfg, seed=19)
        b = make_batch(cfg)
        y1, _ = mdl.forward(b, p, training=False)
        # the endo half of the head input is zeroed, so the first d_model
        # rows of the head weight cannot influence the output
        p.head_w.data[:cfg.d_model, :] += 123.0
        y2, _ = mdl.forward(b, p, training=False)
        np.testing.assert_allclose(y1.data, y2.data)

    def test_tiny_model_full_gradient_check(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=20)
        b = make_batch(cfg, n=3, seed=21)
        y = Tensor(b.endo_future)

        def f():
            yhat, _ = mdl.forward(b, p, training=False)
            return mse_loss(yhat, y)

        report = tc.grad_check(f, p.all(), step=1e-4, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_nan_input_names_stage(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        b = make_batch(cfg)
        b.endo_history = b.endo_history.copy()
        b.endo_history[0, 0, 0] = np.nan
        with pytest.raises(NumericFault, match="input"):
            mdl.forward(b, p, training=False)

    def test_poisoned_head_bias_names_stage(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        p.head_b.data[...] = np.nan
        b = make_batch(cfg)
        with pytest.raises(NumericFault, match="head"):
            mdl.forward(b, p, training=False)

    def test_channel_count_guard(self):
        cfg = tiny_cfg()
        p = make_params(cfg)
        b = make_batch(tiny_cfg(n_endo=3, n_exo=3))
        with pytest.raises(DimensionError):
            mdl.forward(b, p, training=False)

    @pytest.mark.parametrize("kind,lo,hi", [("sigmoid", 0.0, 1.0), ("tanh", -1.0, 1.0)])
    def test_gate_ranges(self, kind, lo, hi):
        cfg = tiny_cfg(gate_activation=kind)
        p = make_params(cfg, seed=22)
        _, trace = mdl.forward(make_batch(cfg), p, training=False)
        for g in (trace.time_gate, trace.variate_gate):
            assert np.all(g > lo) and np.all(g < hi)

    def test_softmax_gate_rows_normalize_over_mixed_axis(self):
        cfg = tiny_cfg(gate_activation="softmax")
        p = make_params(cfg, seed=23)
        _, trace = mdl.forward(make_batch(cfg), p, training=False)
        # TGM mixes the last (2*d_model) axis
        np.testing.assert_allclose(trace.time_gate.sum(axis=-1), 1.0, atol=1e-9)
        # VGM mixes all C+M channels; the trace keeps the M global-token rows, which hold
        # what the exogenous rows leave of each position's unit mass
        glob_mass = trace.variate_gate.sum(axis=1)
        assert np.all(glob_mass > 0.0) and np.all(glob_mass < 1.0)
        cfg0 = tiny_cfg(gate_activation="softmax", n_exo=0)
        _, trace0 = mdl.forward(make_batch(cfg0), make_params(cfg0, seed=23), training=False)
        np.testing.assert_allclose(trace0.variate_gate.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    @pytest.mark.parametrize("n_endo,n_exo", [(3, 3), (1, 4)])
    @pytest.mark.parametrize("ablation", mdl.ABLATIONS)
    def test_eval_blocks_equal_the_taped_forward(self, monkeypatch, gate, n_endo, n_exo,
                                                ablation):
        """Blocks of 8 rows leave a ragged last block in both gating MLPs (11*n_endo TGM
        rows, 66 VGM rows), and the eval forward still gives the taped forward's bits."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        cfg = tiny_cfg(gate_activation=gate, n_endo=n_endo, n_exo=n_exo, ablation=ablation)
        p = make_params(cfg, seed=24)
        b = make_batch(cfg, n=11, seed=25)
        y_eval, trace_eval = mdl.forward(b, p, training=False)
        tape = tc.Tape()
        with tc.record(tape):
            y_taped, trace_taped = mdl.forward(b, p, training=False)
        assert tape.nodes and not y_eval.requires_grad
        np.testing.assert_array_equal(y_eval.data, y_taped.data)
        np.testing.assert_array_equal(trace_eval.time_gate, trace_taped.time_gate)
        np.testing.assert_array_equal(trace_eval.variate_gate, trace_taped.variate_gate)

    def test_paper_size_eval_blocks_stay_within_rounding_of_the_taped_forward(self):
        """At the paper size in M mode the VGM's second GEMM has K = 512, and OpenBLAS
        rounds a row block of it unlike the same rows of the full product (blocks are
        bit-equal up to K = 384), so here the eval forward is only within 1e-15 of the
        taped one, relative to each output's largest magnitude: the gap is a few ulp, and a
        forecast entry near zero differs by more than 1e-15 of itself."""
        cfg = mdl.ModelConfig(horizon=96, n_endo=7, n_exo=7, d_model=256, t_ff=512,
                              c_ff=512)
        p = make_params(cfg, seed=26)
        b = make_batch(cfg, n=5, seed=27)
        y_eval, trace_eval = mdl.forward(b, p, training=False)
        tape = tc.Tape()
        with tc.record(tape):
            y_taped, trace_taped = mdl.forward(b, p, training=False)
        assert tape.nodes and not y_eval.requires_grad
        for got, want in ((y_eval.data, y_taped.data),
                          (trace_eval.time_gate, trace_taped.time_gate),
                          (trace_eval.variate_gate, trace_taped.variate_gate)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


class TestExport:
    def test_zero_weight_gates_export_as_half(self, tmp_path):
        cfg = tiny_cfg()
        p = zero_gates(make_params(cfg))
        _, trace = mdl.forward(make_batch(cfg), p, training=False)
        t_path, v_path = mdl.export_gating_weights(trace, tmp_path)
        for path in (t_path, v_path):
            lines = Path(path).read_text().strip().split("\n")
            for line in lines[1:]:
                vals = [float(v) for v in line.split(",")[1:]]
                assert all(v == 0.5 for v in vals)

    def test_variate_gate_row_count_and_header(self, tmp_path):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=24)
        _, trace = mdl.forward(make_batch(cfg), p, training=False)
        _, v_path = mdl.export_gating_weights(trace, tmp_path, endo_names=["y1", "y2"])
        lines = Path(v_path).read_text().strip().split("\n")
        assert len(lines) == 1 + cfg.n_endo
        assert lines[0] == "label," + ",".join(f"pos_{i}" for i in range(cfg.d_model))
        assert [ln.split(",")[0] for ln in lines[1:]] == ["glob_y1", "glob_y2"]

    def test_label_count_mismatch_rejected(self, tmp_path):
        cfg = tiny_cfg()
        _, trace = mdl.forward(make_batch(cfg), make_params(cfg, seed=24), training=False)
        with pytest.raises(DimensionError, match="3 endo labels"):
            mdl.export_gating_weights(trace, tmp_path, endo_names=["y1", "y2", "y3"])

    def test_re_export_is_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=25)
        _, trace = mdl.forward(make_batch(cfg), p, training=False)
        a = tmp_path / "a"
        b = tmp_path / "b"
        t1, v1 = mdl.export_gating_weights(trace, a)
        t2, v2 = mdl.export_gating_weights(trace, b)
        assert Path(t1).read_bytes() == Path(t2).read_bytes()
        assert Path(v1).read_bytes() == Path(v2).read_bytes()
