"""XLinear network tests: RevIN, embedding, gating modules, head,
forward composition, ablations, and the gating-weight export."""

import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xlinear import data as dio
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.errors import DimensionError, NumericFault, UsageError
from xlinear.tensor import Tensor
from xlinear.training import mse_loss

from lane_masks import lane_table


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
        z, _, stats = mdl.revin_normalize(x)
        np.testing.assert_allclose(z.data, 0.0)
        assert stats.mean[0, 0, 0] == 5.0

    def test_two_point_symmetry(self):
        z, _, stats = mdl.revin_normalize(Tensor(np.array([[[0.0, 2.0]]])))
        assert stats.mean[0, 0, 0] == 1.0
        np.testing.assert_allclose(z.data, [[[-1.0, 1.0]]], atol=1e-4)  # eps shrinks slightly

    def test_round_trip_without_affine(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 16))
        z, _, stats = mdl.revin_normalize(Tensor(x))
        back = mdl.revin_denormalize(z, stats)
        np.testing.assert_allclose(back.data, x, atol=1e-9)

    def test_round_trip_with_affine(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 12))
        gamma = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        z, _, stats = mdl.revin_normalize(Tensor(x), (gamma, beta))
        back = mdl.revin_denormalize(z, stats, (gamma, beta))
        np.testing.assert_allclose(back.data, x, atol=1e-9)

    def test_denormalize_zero_recovers_mean(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 8))
        _, _, stats = mdl.revin_normalize(Tensor(x))
        out = mdl.revin_denormalize(Tensor(np.zeros((2, 2, 3))), stats)
        np.testing.assert_allclose(out.data, np.broadcast_to(stats.mean, (2, 2, 3)))

    def test_window_too_short(self):
        with pytest.raises(DimensionError):
            mdl.revin_normalize(Tensor(np.ones((1, 1, 1))))

    def test_stats_shape_mismatch(self):
        _, _, stats = mdl.revin_normalize(Tensor(np.ones((2, 2, 4))))
        with pytest.raises(DimensionError):
            mdl.revin_denormalize(Tensor(np.ones((2, 3, 4))), stats)


def closed_form_count(cfg) -> int:
    """The parameter count written out layer by layer, independent of ``param_shapes``."""
    L, S, M, C, d = cfg.lookback, cfg.horizon, cfg.n_endo, cfg.n_exo, cfg.d_model
    width = C + M if cfg.gate_activation == "softmax" else M
    return (2 * (L * d + d) + M * d + 2 * (2 * d * cfg.t_ff) + cfg.t_ff + 2 * d
            + (C + M + 1) * cfg.c_ff + (cfg.c_ff + 1) * width + 2 * d * S + S + 2 * M)


class TestParams:
    @pytest.mark.parametrize("cfg", [
        tiny_cfg(),
        tiny_cfg(horizon=96, n_endo=7, n_exo=7, lookback=96, d_model=32, t_ff=48, c_ff=24),
        tiny_cfg(horizon=12, n_endo=1, n_exo=6, lookback=24, d_model=16, t_ff=64, c_ff=16),
    ])
    def test_count_matches_formula(self, cfg):
        assert make_params(cfg).n_parameters() == closed_form_count(cfg)

    @pytest.mark.parametrize("over", [{}, {"gate_activation": "softmax"}, {"n_exo": 0}])
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
        assert make_params(cfg).n_parameters() == closed_form_count(cfg)

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


def concat_tgm(x, p):
    """The TGM as the paper writes it, on the concatenation [embedding, token]: ``gate =
    act(relu([x, tok] @ tgm_w1 + tgm_b1) @ tgm_w2 + tgm_b2)`` times [x, tok], split in two."""
    b, m, d = x.shape
    tok = tc.broadcast_to(tc.reshape(p.global_tokens, (1, m, d)), (b, m, d))
    z = tc.concat([x, tok], axis=-1)
    h = tc.activation(z @ p.tgm_w1 + p.tgm_b1, "relu")
    gate = tc.activation(h @ p.tgm_w2 + p.tgm_b2, p.cfg.gate_activation)
    x_endo, x_glob = tc.split(gate * z, (d, d), axis=-1)
    return x_endo, x_glob, gate


class TestAttachGlobalTokens:
    def test_returns_the_embedding_rows_and_the_token_term(self):
        """The first layer's embedding rows, and the tokens through its token rows plus its
        bias: per channel, the same for every window."""
        cfg = tiny_cfg()
        p = make_params(cfg, seed=5)
        p.tgm_b1.data[...] = np.random.default_rng(2).normal(size=cfg.t_ff)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 2, 6)))
        w_endo, term = mdl.attach_global_tokens(x, p)
        np.testing.assert_array_equal(w_endo.data, p.tgm_w1.data[:6])
        assert term.shape == (2, cfg.t_ff)
        np.testing.assert_array_equal(
            term.data, p.global_tokens.data @ p.tgm_w1.data[6:] + p.tgm_b1.data)

    def test_first_layer_equals_the_concatenated_input_layer(self):
        """``x @ tgm_w1[:d] + term`` is ``[x, tok] @ tgm_w1 + tgm_b1`` with the sum
        reassociated."""
        cfg = tiny_cfg()
        p = make_params(cfg, seed=6)
        p.tgm_b1.data[...] = np.random.default_rng(3).normal(size=cfg.t_ff)
        x = np.random.default_rng(4).normal(size=(4, 2, 6))
        w_endo, term = mdl.attach_global_tokens(Tensor(x), p)
        tok = np.broadcast_to(p.global_tokens.data, (4, 2, 6))
        want = np.concatenate([x, tok], axis=-1) @ p.tgm_w1.data + p.tgm_b1.data
        np.testing.assert_allclose(x @ w_endo.data + term.data, want, rtol=1e-13, atol=1e-14)

    def test_zero_tokens_leave_the_bias(self):
        cfg = tiny_cfg(n_endo=3)
        p = make_params(cfg, seed=7)
        p.global_tokens.data[...] = 0.0
        p.tgm_b1.data[...] = np.arange(cfg.t_ff)
        _, term = mdl.attach_global_tokens(Tensor(np.ones((2, 3, 6))), p)
        np.testing.assert_array_equal(term.data, np.broadcast_to(np.arange(cfg.t_ff), (3, 8)))

    def test_shape_guard(self):
        p = make_params(tiny_cfg())  # global tokens [2 x 6]
        with pytest.raises(DimensionError):
            mdl.attach_global_tokens(Tensor(np.ones((2, 3, 6))), p)


def run_tgm(x, p, training=False, masks=None):
    return mdl.tgm(x, mdl.attach_global_tokens(x, p), p, training, masks)


class TestTgm:
    def test_zero_weights_gate_half(self):
        cfg = tiny_cfg()
        p = zero_gates(make_params(cfg))
        x = np.random.default_rng(3).normal(size=(3, 2, 6))
        x_endo, x_glob, gate = run_tgm(Tensor(x), p)
        np.testing.assert_allclose(gate.data, 0.5)
        np.testing.assert_allclose(x_endo.data, 0.5 * x)
        np.testing.assert_allclose(x_glob.data,
                                   np.broadcast_to(0.5 * p.global_tokens.data, (3, 2, 6)))

    def test_sigmoid_gate_strictly_inside_unit_interval(self):
        cfg = tiny_cfg()
        p = make_params(cfg, seed=8)
        x = np.random.default_rng(4).normal(size=(5, 2, 6))
        _, _, gate = run_tgm(Tensor(x), p)
        assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)

    def test_channel_permutation_equivariance(self):
        """One shared MLP means permuting the M channels, tokens included, permutes
        outputs."""
        cfg = tiny_cfg(n_endo=4)
        p = make_params(cfg, seed=9)
        x = np.random.default_rng(5).normal(size=(3, 4, 6))
        perm = np.array([2, 0, 3, 1])
        a_endo, a_glob, _ = run_tgm(Tensor(x), p)
        p.global_tokens.data[...] = p.global_tokens.data[perm]
        b_endo, b_glob, _ = run_tgm(Tensor(x[:, perm, :]), p)
        np.testing.assert_allclose(b_endo.data, a_endo.data[:, perm, :])
        np.testing.assert_allclose(b_glob.data, a_glob.data[:, perm, :])

    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    @pytest.mark.parametrize("n_endo", [1, 3])
    def test_equals_the_concatenated_tgm(self, gate, n_endo):
        """Outputs, gate and the gradients of the embedding, ``tgm_w1``, ``tgm_b1`` and the
        global tokens match the TGM on [embedding, token] up to the reassociated first-layer
        sum."""
        cfg = tiny_cfg(gate_activation=gate, n_endo=n_endo)
        p = make_params(cfg, seed=10)
        data = np.random.default_rng(11)
        p.tgm_b1.data[...] = data.normal(size=cfg.t_ff)
        p.tgm_b2.data[...] = data.normal(size=2 * cfg.d_model)
        x = Tensor(data.normal(size=(5, n_endo, 6)), requires_grad=True)
        weights = [Tensor(data.normal(size=s)) for s in ((5, n_endo, 6), (5, n_endo, 6),
                                                         (5, n_endo, 12))]
        leaves = [x, p.tgm_w1, p.tgm_b1, p.tgm_w2, p.tgm_b2, p.global_tokens]

        def run(fn):
            for t in leaves:
                t.zero_grad()
            tape = tc.Tape()
            with tc.record(tape):
                outs = fn(x, p)
                sums = [tc.tsum(o * w) for o, w in zip(outs, weights)]
                loss = sums[0] + sums[1] + sums[2]
            tc.backward(loss, tape)
            return [o.data for o in outs] + [t.grad.copy() for t in leaves]

        for got, want in zip(run(run_tgm), run(concat_tgm)):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-12)

    def test_split_tgm_grads_match_fd(self):
        """A forward through the split TGM: finite differences of ``tgm_w1`` (its token
        rows too), ``tgm_b1`` and the global tokens."""
        cfg = tiny_cfg()
        p = make_params(cfg, seed=20)
        b = make_batch(cfg, n=3, seed=21)
        y = Tensor(b.endo_future)

        def f():
            yhat, _ = mdl.forward(b, p, training=False)
            return mse_loss(yhat, y)

        report = tc.grad_check(f, [p.tgm_w1, p.tgm_b1, p.global_tokens], step=1e-4,
                               rel_tol=1e-4)
        assert report.passed, str(report)
        assert report.n_entries == 12 * 8 + 8 + 2 * 6


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
        """Against the unpruned layer: ``relu(t @ W1 + b1)``, ``dropout`` by the same mask,
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

        masks = lane_table(np.random.default_rng(8), cfg, 3)

        def unpruned(e, g, p, training, masks):
            tok = tc.concat([e, g], axis=1)
            h = tc.activation(tc.transpose(tok) @ p.vgm_w1 + p.vgm_b1, "relu")
            h = tc.dropout(h, cfg.c_dropout, training, masks["vgm"])
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
                outs = fn(e, g, p, training, masks)
                loss = tc.tsum(outs[1] * Tensor(weights)) + tc.tsum(outs[0] * outs[0])
            tc.backward(loss, tape)
            return [o.data for o in outs], [t.grad.copy() for t in leaves + [w2, b2]]

        outs, grads = run(mdl.vgm, p.vgm_w2, p.vgm_b2)
        ref_outs, ref_grads = run(unpruned, full.vgm_w2, full.vgm_b2)
        assert not np.any(ref_grads[-2][:, :c]) and not np.any(ref_grads[-1][:c])
        ref_grads[-2:] = [ref_grads[-2][:, c:], ref_grads[-1][c:]]
        for got, want in zip(outs + grads, ref_outs + ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gate", ["sigmoid", "softmax"])
    @pytest.mark.parametrize("n_endo,n_exo", [(3, 3), (1, 4)], ids=["M", "MS"])
    @pytest.mark.parametrize("training", [False, True])
    def test_one_stack_equals_the_two_concat_composition(self, gate, n_endo, n_exo, training):
        """Stacking the ones channel with the tokens before the one transpose gives the bits
        of transposing the tokens and then appending the ones channel: output, gate, and the
        gradients of the tokens and of every VGM parameter."""
        cfg = tiny_cfg(gate_activation=gate, n_endo=n_endo, n_exo=n_exo, c_dropout=0.3)
        p = make_params(cfg, seed=23)
        data = np.random.default_rng(9)
        p.vgm_b1.data[...] = data.normal(size=cfg.c_ff)
        p.vgm_b2.data[...] = data.normal(size=p.vgm_b2.shape)
        e = Tensor(data.normal(size=(3, n_exo, 6)), requires_grad=True)
        g = Tensor(data.normal(size=(3, n_endo, 6)), requires_grad=True)
        weights = data.normal(size=(3, n_endo, 6))
        masks = lane_table(np.random.default_rng(8), cfg, 3)

        def two_concat(e_exo, x_glob, params, training, masks):
            t = tc.transpose(tc.concat([e_exo, x_glob], axis=1))
            t1 = tc.concat([t, Tensor(np.ones(t.shape[:-1] + (1,)))], axis=-1)
            w1 = tc.concat([params.vgm_w1, tc.reshape(params.vgm_b1, (1, cfg.c_ff))], axis=0)
            h = tc.mlp(t1, w1, None, params.vgm_w2, params.vgm_b2, cfg.c_dropout, training,
                       masks["vgm"])
            gate = tc.activation(h, cfg.gate_activation)
            if cfg.gate_activation == "softmax":
                gate = tc.narrow(gate, -1, cfg.n_exo, cfg.n_endo)
            gate = tc.transpose(gate)
            return gate * x_glob, gate

        leaves = [e, g, p.vgm_w1, p.vgm_b1, p.vgm_w2, p.vgm_b2]

        def run(fn):
            for t in leaves:
                t.zero_grad()
            tape = tc.Tape()
            with tc.record(tape):
                outs = fn(e, g, p, training, masks)
                loss = tc.tsum(outs[1] * Tensor(weights)) + tc.tsum(outs[0] * outs[0])
            tc.backward(loss, tape)
            return [o.data for o in outs] + [t.grad.copy() for t in leaves]

        for got, want in zip(run(mdl.vgm), run(two_concat)):
            np.testing.assert_array_equal(got, want)

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
        ya, yb, yc = (mdl.forward(b, p, training=True,
                                  masks=lane_table(np.random.default_rng(seed), cfg, 5))[0]
                      for seed in (1, 1, 2))
        assert np.array_equal(ya.data, yb.data)
        assert not np.array_equal(ya.data, yc.data)

    @pytest.mark.parametrize("site", ["embed_dropout", "t_dropout", "c_dropout",
                                      "head_dropout"])
    def test_training_dropout_without_its_mask_is_a_usage_error(self, site):
        """Each dropout site, the gating MLPs' hidden layers included, names the missing keep
        mask, with no table or with a table that lacks the site."""
        cfg = tiny_cfg(**{site: 0.2})
        for masks in (None, {}):
            with pytest.raises(UsageError, match="needs a keep mask"):
                mdl.forward(make_batch(cfg), make_params(cfg), training=True, masks=masks)

    def test_a_mask_table_of_another_batch_size_is_a_dimension_error(self):
        cfg = tiny_cfg(head_dropout=0.2)
        with pytest.raises(DimensionError, match="keep mask shape"):
            mdl.forward(make_batch(cfg, n=5), make_params(cfg), training=True,
                        masks=lane_table(np.random.default_rng(3), cfg, 6))

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

    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    def test_reproduction_size_gates_on_both_threads_equal_the_taped_forward(self, gate):
        """A 64-window eval batch at the reproduction size has a 2-block TGM layer (448 rows
        of width 256, in blocks of 224, whole windows) and a 16-block VGM layer (8192 rows of
        width 128), so each gate is computed in row blocks, half of them on the helper
        thread, and still has the taped forward's bits."""
        cfg = mdl.ModelConfig(horizon=96, n_endo=7, n_exo=7, d_model=128, t_ff=256, c_ff=128,
                              gate_activation=gate)
        assert tc._row_blocks(64 * 7, 256, 7) == [0, 224, 448]
        assert len(tc._row_blocks(64 * 128, 128)) == 17
        p = make_params(cfg, seed=28)
        b = make_batch(cfg, n=64, seed=29)
        b.exo_history = b.endo_history
        threads, real = [], tc._walk

        def walk(*args):
            threads.append(threading.get_ident())
            real(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(tc, "_walk", walk)
            y_eval, trace_eval = mdl.forward(b, p, training=False)
        assert len(threads) == 4 and len(set(threads)) == 2
        tape = tc.Tape()
        with tc.record(tape):
            y_taped, trace_taped = mdl.forward(b, p, training=False)
        assert tape.nodes and not y_eval.requires_grad
        np.testing.assert_array_equal(y_eval.data, y_taped.data)
        np.testing.assert_array_equal(trace_eval.time_gate, trace_taped.time_gate)
        np.testing.assert_array_equal(trace_eval.variate_gate, trace_taped.variate_gate)

    @pytest.mark.parametrize("n_endo,n_exo", [(7, 7), (1, 6)])
    def test_paper_size_eval_blocks_equal_the_taped_forward(self, n_endo, n_exo):
        """At the paper size the VGM's second GEMM has K = 512, where OpenBLAS rounds a row
        block unlike the same rows of one full-size product; the taped forward walks the
        eval blocks, so the two still agree bit for bit."""
        cfg = mdl.ModelConfig(horizon=96, n_endo=n_endo, n_exo=n_exo, d_model=256, t_ff=512,
                              c_ff=512)
        p = make_params(cfg, seed=26)
        b = make_batch(cfg, n=5, seed=27)
        y_eval, trace_eval = mdl.forward(b, p, training=False)
        tape = tc.Tape()
        with tc.record(tape):
            y_taped, trace_taped = mdl.forward(b, p, training=False)
        assert tape.nodes and not y_eval.requires_grad
        np.testing.assert_array_equal(y_eval.data, y_taped.data)
        np.testing.assert_array_equal(trace_eval.time_gate, trace_taped.time_gate)
        np.testing.assert_array_equal(trace_eval.variate_gate, trace_taped.variate_gate)


class TestOneHistory:
    """A multivariate batch passes one array as both histories, normalized once."""

    @pytest.fixture
    def case(self):
        cfg = tiny_cfg(n_endo=3, n_exo=3, embed_dropout=0.2, t_dropout=0.2, c_dropout=0.2,
                       head_dropout=0.2)
        p = make_params(cfg, seed=40)
        data = np.random.default_rng(41)
        p.revin_gamma.data[...] = data.uniform(0.5, 2.0, size=3)
        p.revin_beta.data[...] = data.normal(size=3)
        vals = data.normal(size=(80, 3))
        ds = dio.split_and_scale(dio.TimeSeriesDataset(("a", "b", "c"), vals, "multivariate"),
                                 (0.6, 0.2, 0.2), cfg.lookback, cfg.horizon)
        (batch, *_) = dio.iter_batches(ds, "train", cfg.lookback, cfg.horizon, 6)
        assert batch.exo_history is batch.endo_history
        twin = dio.WindowBatch(batch.endo_history, batch.exo_history.copy(), batch.endo_future)
        return cfg, p, batch, twin

    def test_eval_forward_has_the_bits_of_an_equal_copy(self, case):
        cfg, p, batch, twin = case
        (y, trace), (y_twin, trace_twin) = (mdl.forward(b, p) for b in (batch, twin))
        np.testing.assert_array_equal(y.data, y_twin.data)
        np.testing.assert_array_equal(trace.time_gate, trace_twin.time_gate)
        np.testing.assert_array_equal(trace.variate_gate, trace_twin.variate_gate)

    def test_training_step_has_the_bits_of_an_equal_copy(self, case):
        """Prediction and every parameter gradient of a taped training forward."""
        cfg, p, batch, twin = case
        masks = lane_table(np.random.default_rng(42), cfg, len(batch))
        runs = []
        for b in (batch, twin):
            for t in p.all():
                t.zero_grad()
            tape = tc.Tape()
            with tc.record(tape):
                y, _ = mdl.forward(b, p, training=True, masks=masks)
                loss = mse_loss(y, Tensor(b.endo_future))
            tc.backward(loss, tape)
            runs.append([y.data] + [t.grad for t in p.all()])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    def test_one_history_is_normalized_once(self, case, monkeypatch):
        cfg, p, batch, twin = case
        calls = []
        real = mdl.revin_normalize
        monkeypatch.setattr(mdl, "revin_normalize", lambda *a: calls.append(a) or real(*a))
        mdl.forward(batch, p, training=False)
        assert len(calls) == 1
        mdl.forward(twin, p, training=False)
        assert len(calls) == 3


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
