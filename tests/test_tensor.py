"""Tensor engine tests.

Gradient rules are checked against an independent central-difference
oracle (``fd_grad`` below, plain numpy, no library code) in addition to
the library's own grad_check.
"""

import contextlib
import os
import sys
import threading
from concurrent import futures

import numpy as np
import pytest

from xlinear import cli
from xlinear import data as dio
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.errors import ConfigError, DimensionError, UsageError
from xlinear.tensor import Tape, Tensor, backward, grad_check, record

from lane_masks import lane_keep, lane_table


def fd_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-returning f() w.r.t. x,
    mutating x in place entry by entry."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        v = flat[i]
        flat[i] = v + step
        fp = f()
        flat[i] = v - step
        fm = f()
        flat[i] = v
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_err(ad: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(ad - fd) / (1e-8 + np.abs(fd))))


def ad_grad(f, x: Tensor) -> np.ndarray:
    """Autodiff gradient of scalar f() w.r.t. tensor x."""
    x.zero_grad()
    tape = Tape()
    with record(tape):
        loss = f()
    backward(loss, tape)
    return x.grad.copy()


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal((a @ b).data, b.data)

    def test_inner_product(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_needs_matrices(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)))

        def f():
            return tc.tsum(a @ b)

        ad = ad_grad(f, a)
        fd = fd_grad(lambda: f().item(), a.data)
        assert max_rel_err(ad, fd) < 1e-6

    def test_batched_broadcast_grads(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

        def f():
            return tc.tsum((a @ b) * (a @ b))

        for t in (a, b):
            ad = ad_grad(f, t)
            fd = fd_grad(lambda: f().item(), t.data)
            assert max_rel_err(ad, fd) < 1e-5

    @pytest.mark.parametrize("a_shape", [(4, 2, 3), (2, 3, 2, 3)], ids=["3d", "4d"])
    @pytest.mark.parametrize("a_grad", [True, False], ids=["a_grad", "a_const"])
    def test_leading_dims_fold_into_one_gemm(self, a_shape, a_grad):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=a_shape), requires_grad=a_grad)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

        def f():
            y = a @ w
            return tc.tsum(y * y)

        for t in (a, w) if a_grad else (w,):
            ad = ad_grad(f, t)
            fd = fd_grad(lambda: f().item(), t.data)
            assert max_rel_err(ad, fd) < 1e-5
        if not a_grad:
            assert a.grad is None

    def test_output_equals_numpy_matmul(self):
        rng = np.random.default_rng(9)
        a, w = rng.normal(size=(5, 3, 7, 6)), rng.normal(size=(6, 4))
        np.testing.assert_allclose((Tensor(a) @ Tensor(w)).data, np.matmul(a, w),
                                   rtol=0, atol=1e-12)

    def test_shared_weight_accumulates_both_uses(self):
        """One W on two inputs gets the sum of both pulls."""
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        e = Tensor(rng.normal(size=(2, 5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f(*inputs):
            return tc.tsum(tc.concat([tc.activation(t @ w, "sigmoid") for t in inputs], axis=1))

        both = ad_grad(lambda: f(x, e), w)
        assert max_rel_err(both, fd_grad(lambda: f(x, e).item(), w.data)) < 1e-5
        np.testing.assert_allclose(both, ad_grad(lambda: f(x), w) + ad_grad(lambda: f(e), w),
                                   rtol=1e-12)

    # (windows, rows per window, k, n) of the model's GEMMs in one 32-window training
    # sub-batch at the reproduction size (d_model 128, c_ff 128, L = S = 96), M mode with
    # 7 endo / 7 exo and MS mode with 1 / 6, plus the VGM's second layer at the paper size
    MODEL_GEMMS = {
        "vgm_w1_M": (32, 128, 15, 128), "vgm_w2_M": (32, 128, 128, 7),
        "vgm_w1_MS": (32, 128, 8, 128), "vgm_w2_MS": (32, 128, 128, 1),
        "head_M": (32, 7, 256, 96), "head_MS": (32, 1, 256, 96),
        "embed_endo_M": (32, 7, 96, 128), "embed_exo_MS": (32, 6, 96, 128),
        "vgm_w2_M_paper": (4, 256, 512, 7),
    }

    @pytest.mark.parametrize("shape", MODEL_GEMMS.values(), ids=MODEL_GEMMS)
    def test_pull_has_the_bits_of_the_plain_gemms(self, shape):
        """A one-column ``w``'s dA is a broadcast outer product and dW for n < k is
        ``(gᵀ a)ᵀ``; both give the bits of ``g wᵀ`` and ``aᵀ g`` at the model's shapes."""
        b, r, k, n = shape
        rng = np.random.default_rng(k * n + r)
        a = Tensor(rng.normal(size=(b, r, k)), requires_grad=True)
        w = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        g = rng.normal(size=(b, r, n))
        tape = Tape()
        with record(tape):
            loss = tc.tsum((a @ w) * Tensor(g))
        backward(loss, tape)
        a2, g2 = a.data.reshape(-1, k), g.reshape(-1, n)
        np.testing.assert_array_equal(a.grad.reshape(-1, k), g2 @ w.data.T)
        np.testing.assert_array_equal(w.grad, a2.T @ g2)

    @pytest.mark.parametrize("n", [1, 2, 6, 9], ids=["one_column", "n_lt_k", "n_eq_k", "n_gt_k"])
    def test_grad_check_on_each_pull_form(self, n):
        rng = np.random.default_rng(20 + n)
        a = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, n)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3, n)))

        def f():
            y = a @ w
            return tc.tsum(y * y * c)

        report = grad_check(f, [a, w], rel_tol=1e-6)
        assert report.passed, str(report)

    def test_right_operand_must_be_2d(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 3))) @ Tensor(np.ones((2, 3, 4)))

    def test_grads_owned_and_writable_after_training_step(self):
        """Leaf grads are writable arrays that share memory with no other leaf's grad or
        data; a grad may view a buffer only its own pull made. zero_grad drops them."""
        cfg = mdl.ModelConfig(horizon=3, n_endo=2, n_exo=2, lookback=6, d_model=4, t_ff=5,
                              c_ff=5)
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = dio.WindowBatch(endo_history=rng.normal(size=(3, 2, 6)),
                                exo_history=rng.normal(size=(3, 2, 6)))
        tape = Tape()
        with record(tape):
            yhat, _ = mdl.forward(batch, params, training=True, masks=lane_table(rng, cfg, 3))
            loss = tc.tsum(yhat * yhat)
        backward(loss, tape)
        named = params.named()
        for name, p in named:
            assert p.grad.shape == p.shape and p.grad.flags.writeable, name
            others = [q.data for _, q in named] + [q.grad for n, q in named if n != name]
            assert not any(np.shares_memory(p.grad, arr) for arr in others), name
        for name, p in named:
            assert np.any(p.grad != 0.0), name
            p.zero_grad()
            assert p.grad is None, name


def two_branch_sigmoid(x):
    """The sigmoid as two full-size branches joined by ``where``, the reference form."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestActivations:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308,
               708.0, -708.0, 709.0, -709.0, 36.7, -36.7, 5e-324, -5e-324]

    def test_sigmoid_has_the_bits_of_the_two_branch_form(self):
        """Under ``errstate(all="raise")`` each value gives the reference's bits (signs of
        zeros and NaN payloads too) or the same error: beyond |x| of about 708, exp(-|x|)
        is subnormal and both forms raise underflow. With underflow ignored every value,
        ±745 and ±1e308 included, and 800k random ones give the same bits."""
        for v in self.SPECIAL:
            x = np.full(3, v)
            outcomes = []
            for fn in (tc._sigmoid, two_branch_sigmoid):
                try:
                    with np.errstate(all="raise"):
                        outcomes.append(fn(x))
                except FloatingPointError as ex:
                    outcomes.append(str(ex))
            got, want = outcomes
            assert (got == want) if isinstance(want, str) else same_bits(got, want), v
        rng = np.random.default_rng(21)
        x = np.concatenate([self.SPECIAL, rng.normal(scale=4.0, size=400_000),
                            rng.uniform(-800.0, 800.0, size=400_000)])
        with np.errstate(all="raise", under="ignore"):
            assert same_bits(tc._sigmoid(x), two_branch_sigmoid(x))
        inner = x[np.abs(x) < 700.0]
        with np.errstate(all="raise"):
            assert same_bits(tc._sigmoid(inner), two_branch_sigmoid(inner))

    def test_sigmoid_at_zero(self):
        assert tc.activation(Tensor([0.0]), "sigmoid").data[0] == 0.5

    def test_relu_negative(self):
        assert tc.activation(Tensor([-3.2]), "relu").data[0] == 0.0

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(tc.activation(Tensor([[0.0, 0.0, 0.0]]), "softmax").data,
                                   [[1 / 3, 1 / 3, 1 / 3]])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            tc.activation(Tensor([1.0]), "gelu")

    def test_sigmoid_bounded_and_monotone(self):
        # beyond |x| ~ 36.7 float64 rounds 1/(1+exp(-x)) to exactly 1.0,
        # so strict bounds are only testable inside the representable range
        x = np.linspace(-30, 30, 501)
        y = tc.activation(Tensor(x), "sigmoid").data
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert np.all(np.diff(y) >= 0.0)

    def test_relu_idempotent_on_nonnegatives(self):
        x = Tensor(np.linspace(0, 5, 50))
        once = tc.activation(x, "relu").data
        assert np.array_equal(tc.activation(Tensor(once), "relu").data, once)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = tc.activation(Tensor(rng.normal(size=(4, 7))), "softmax").data
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-9)

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "swish", "softmax"])
    def test_grads_match_fd(self, kind):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 1)))

        def f():
            return tc.tsum(tc.activation(x, kind) @ w)

        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-5

    def test_relu_grad_away_from_kink(self):
        rng = np.random.default_rng(12)
        # keep |x| >= 0.1 so central differences never straddle the kink
        mag = rng.uniform(0.1, 2.0, size=(4, 4))
        x = Tensor(mag * rng.choice([-1.0, 1.0], size=(4, 4)), requires_grad=True)

        def f():
            return tc.tsum(tc.activation(x, "relu") * tc.activation(x, "relu"))

        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-5


class TestShapeOps:
    def test_concat_shape(self):
        out = tc.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_concat_incompatible(self):
        with pytest.raises(DimensionError):
            tc.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_concat_split_round_trip_exact(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 4)))
        ra, rb = tc.split(tc.concat([a, b], axis=-1), (3, 4), axis=-1)
        assert np.array_equal(ra.data, a.data)
        assert np.array_equal(rb.data, b.data)

    def test_split_sizes_must_cover(self):
        with pytest.raises(DimensionError):
            tc.split(Tensor(np.ones((2, 5))), (2, 2), axis=1)

    @pytest.mark.parametrize("other", [None, "before", "after"])
    def test_split_parts_pull_into_place(self, other):
        """The parts of a split fill one gradient buffer, an unpulled part leaves zeros, and
        a gradient from another consumer of ``x``, pulled after the parts or before them,
        adds to it."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w0, w2, v = (rng.normal(size=s) for s in ((2, 4), (3, 4), (6, 4)))
        tape = Tape()
        with record(tape):
            terms = [tc.tsum(x * Tensor(v))] if other == "before" else []
            p0, _, p2 = tc.split(x, (2, 1, 3), axis=0)
            terms += [tc.tsum(p0 * Tensor(w0)), tc.tsum(p2 * Tensor(w2))]
            if other == "after":
                terms.append(tc.tsum(x * Tensor(v)))
            loss = terms[0]
            for t in terms[1:]:
                loss = loss + t
        backward(loss, tape)
        want = np.concatenate([w0, np.zeros((1, 4)), w2])
        np.testing.assert_array_equal(x.grad, want if other is None else want + v)

    def test_concat_grad_is_ones_on_both_inputs(self):
        a = Tensor(np.random.default_rng(2).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(3).normal(size=(2, 4)), requires_grad=True)
        tape = Tape()
        with record(tape):
            loss = tc.tsum(tc.concat([a, b], axis=1))
        backward(loss, tape)
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.ones((2, 4)))

    @pytest.mark.parametrize("make", [
        lambda x: tc.transpose(x),
        lambda x: tc.reshape(x, (6,)),
        lambda x: tc.narrow(x, 1, 1, 2),
        lambda x: tc.broadcast_to(tc.reshape(x, (2, 3, 1)), (2, 3, 4)),
    ])
    def test_shape_op_grads(self, make):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-2, 2, size=(2, 3)), requires_grad=True)

        def f():
            y = make(x)
            return tc.tsum(y * y)

        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-5

    def test_transpose_swaps_the_last_two_axes(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 3)))
        assert np.array_equal(tc.transpose(x).data, np.swapaxes(x.data, 1, 2))

        def f():
            return tc.tsum(tc.transpose(x) * w)

        assert np.array_equal(ad_grad(f, x), np.swapaxes(w.data, 1, 2))


class TestElementwiseGrads:
    """Broadcasting arithmetic against the finite-difference oracle."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_broadcast_grads(self, op):
        rng = np.random.default_rng(17)
        a = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)  # off zero for div
        fn = getattr(tc, op)

        def f():
            return tc.tsum(fn(a, b) * fn(a, b))

        for t in (a, b):
            ad = ad_grad(f, t)
            fd = fd_grad(lambda: f().item(), t.data)
            assert max_rel_err(ad, fd) < 1e-5

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("const", [0, 1])
    def test_constant_operand_gets_no_grad(self, op, const):
        rng = np.random.default_rng(19)
        a_data = rng.uniform(-2, 2, size=(3, 4))
        b_data = rng.uniform(0.5, 2.0, size=(4,))
        fn = getattr(tc, op)

        def grads(tracked):
            a = Tensor(a_data.copy(), requires_grad=tracked[0])
            b = Tensor(b_data.copy(), requires_grad=tracked[1])
            tape = Tape()
            with record(tape):
                loss = tc.tsum(fn(a, b) * fn(a, b))
            backward(loss, tape)
            return a.grad, b.grad

        both = grads((True, True))
        one = grads((const != 0, const != 1))
        assert one[const] is None
        assert np.array_equal(one[1 - const], both[1 - const])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = tc.dropout(x, 0.0, training=True, keep=None)
        assert out is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert tc.dropout(x, 0.9, training=False, keep=None) is x

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            tc.dropout(Tensor([1.0]), 1.0, training=True, keep=np.ones(1, bool))

    def test_training_without_a_mask_is_one_usage_error(self):
        with pytest.raises(UsageError, match="needs a keep mask"):
            tc.dropout(Tensor(np.ones(4)), 0.2, training=True, keep=None)

    @pytest.mark.parametrize("shape", [(5, 1, 4), (4,), (5, 3, 1), (15, 4), (5, 4, 3)])
    def test_a_mask_not_of_the_input_shape_is_one_dimension_error(self, shape):
        """A broadcastable or same-size mask is refused too: the keep mask of a site has its
        shape."""
        x = Tensor(np.ones((5, 3, 4)))
        with pytest.raises(DimensionError, match="keep mask shape"):
            tc.dropout(x, 0.2, training=True, keep=np.ones(shape, bool))

    @pytest.mark.parametrize("mask", [np.array([0.5, 2.0, 1.0, 0.0]),
                                      np.array([1, 0, 1, 1], np.uint8)])
    def test_a_mask_that_is_not_bool_is_one_usage_error(self, mask):
        """A float mask would scale the entries it keeps by its values, not drop them."""
        with pytest.raises(UsageError, match=f"must be bool, got dtype {mask.dtype}"):
            tc.dropout(Tensor(np.ones(4)), 0.5, training=True, keep=mask)

    def test_monte_carlo_mean_preserved(self):
        """Inverted scaling keeps E[output] = input within 2% at 10k draws."""
        rng = np.random.default_rng(123)
        x = Tensor(rng.uniform(0.5, 1.5, size=100))
        acc = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            keep = tc.draw_keep(np.empty(100, bool), 0.5, rng)
            acc += tc.dropout(x, 0.5, training=True, keep=keep).data
        est = acc.mean() / draws
        assert abs(est - x.data.mean()) / x.data.mean() < 0.02

    def test_grad_uses_the_same_mask(self):
        """Forward and pull use one mask, survivors scaled by exactly 1/(1 - t/65536)."""
        x = Tensor(np.ones(1001), requires_grad=True)
        keep, scale = lane_keep(np.random.default_rng(7), x.shape, 0.3)
        tape = Tape()
        with record(tape):
            y = tc.dropout(x, 0.3, training=True, keep=keep)
            loss = tc.tsum(y)
        backward(loss, tape)
        assert scale == 65536 / 45875  # t = round(0.3 * 65536) = 19661
        assert keep.any() and not keep.all()
        np.testing.assert_array_equal(y.data, np.where(keep, scale, 0.0))
        np.testing.assert_array_equal(x.grad, np.where(keep, scale, 0.0))


class TestDrawKeep:
    """``draw_keep`` fills a bool buffer with the lanes of :func:`lane_keep`'s twin draw and
    leaves the Generator where that draw leaves it."""

    @pytest.mark.parametrize("rate", [0.3, 0.75])
    def test_fills_the_buffer_with_the_lanes_dropout_multiplies_by(self, rate):
        """Handed the buffer, ``dropout`` multiplies by it in forward and pull. 100002
        entries span two draw blocks and end inside a generator output."""
        x = Tensor(np.random.default_rng(40).normal(size=(7, 14286, 1)) + 2.0,
                   requires_grad=True)
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        buf = np.ones(x.shape, bool)
        assert tc.draw_keep(buf, rate, rng) is buf
        keep, scale = lane_keep(twin, x.shape, rate)
        np.testing.assert_array_equal(buf, keep)
        assert rng.bit_generator.state == twin.bit_generator.state
        tape = Tape()
        with record(tape):
            y = tc.dropout(x, rate, training=True, keep=buf)
            loss = tc.tsum(y)
        backward(loss, tape)
        np.testing.assert_array_equal(y.data, x.data * np.where(keep, scale, 0.0))
        np.testing.assert_array_equal(x.grad, np.where(keep, scale, 0.0))

    def test_a_lane_cut_leaves_the_generator_where_the_twin_draw_does(self):
        """1001 entries leave three lanes of the last output unused."""
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        keep = tc.draw_keep(np.empty(1001, bool), 0.3, rng)
        want, _ = lane_keep(twin, keep.shape, 0.3)
        np.testing.assert_array_equal(keep, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rate", [2.0 ** -18, 7.6e-6])
    def test_a_rate_below_half_a_lane_step_keeps_everything(self, rate):
        """Below 2**-17 the threshold rounds to 0: every entry is kept at scale 1, and the
        Generator still advances by the draw."""
        x = Tensor(np.random.default_rng(1).normal(size=(5, 9)))
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        keep = tc.draw_keep(np.empty(x.shape, bool), rate, rng)
        want, scale = lane_keep(twin, x.shape, rate)
        assert keep.all() and want.all() and scale == 1.0
        np.testing.assert_array_equal(tc.dropout(x, rate, True, keep).data, x.data)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("rate", [1.0 - 2.0 ** -17, 1.0 - 2.0 ** -18, np.nextafter(1.0, 0.0)])
    def test_a_rate_within_half_a_lane_step_of_one_keeps_the_top_lane(self, rate):
        """There ``round(rate * 65536)`` is 65536, which would keep nothing and scale by
        1/0; the threshold stays at 65535, so the top lane survives at scale 65536."""
        x = Tensor(np.ones((64, 4096)))
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        keep = tc.draw_keep(np.empty(x.shape, bool), rate, rng)
        with np.errstate(all="raise"):
            y = tc.dropout(x, rate, training=True, keep=keep)
        want, scale = lane_keep(twin, x.shape, rate)
        assert scale == 65536.0 and keep.any()
        np.testing.assert_array_equal(keep, want)
        np.testing.assert_array_equal(y.data, np.where(keep, 65536.0, 0.0))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("block_floats", [4, 10, 12, 1000, 1 << 16])
    def test_masks_do_not_depend_on_the_draw_block(self, monkeypatch, block_floats):
        """The draw walks flat blocks of a multiple of 4 entries (10 rounds down to 8), so
        every block size gives the whole-site draw and the same Generator end state."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", block_floats)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        keep = tc.draw_keep(np.empty((7, 13, 11), bool), 0.25, rng)
        want, _ = lane_keep(twin, keep.shape, 0.25)
        np.testing.assert_array_equal(keep, want)
        assert rng.bit_generator.state == twin.bit_generator.state


def hidden_layer(x, rate, training, keep):
    """``mlp``'s hidden layer on ``x``: both of its layers are identities with no bias."""
    eye = Tensor(np.eye(x.shape[-1]))
    return tc.mlp(x, eye, None, eye, Tensor(np.zeros(x.shape[-1])), rate, training, keep)


class TestReluDropout:
    """``mlp``'s hidden layer: relu and inverted dropout as one product by one mask."""

    def test_equals_dropout_of_relu_by_the_same_mask(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 5, 6)))
        keep, _ = lane_keep(np.random.default_rng(11), x.shape, 0.3)
        fused = hidden_layer(x, 0.3, training=True, keep=keep).data
        plain = tc.dropout(tc.activation(x, "relu"), 0.3, training=True, keep=keep).data
        assert np.array_equal(fused, plain)  # equal as numbers: -0.0 == 0.0
        assert np.array_equal(np.abs(fused), np.abs(plain))
        assert (fused > 0).any() and (fused == 0).any()

    def test_eval_and_rate_zero_are_relu(self):
        x = Tensor(np.array([[-1.5, 0.0, 2.0]]))
        for taped in (False, True):
            for training, rate in ((False, 0.5), (True, 0.0)):
                with record(Tape()) if taped else contextlib.nullcontext():
                    out = hidden_layer(x, rate, training, keep=None)
                assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            hidden_layer(Tensor([[1.0]]), 1.0, training=True, keep=np.ones((1, 1), bool))

    def test_grad_check_in_training(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(0.2, 1.0, size=(3, 8)) * rng.choice([-1.0, 1.0], size=(3, 8)),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(3, 8)))
        keep, _ = lane_keep(np.random.default_rng(9), x.shape, 0.4)

        def f():
            y = hidden_layer(x, 0.4, training=True, keep=keep)
            return tc.tsum(y * y * w)

        report = grad_check(f, [x], rel_tol=1e-6)
        assert report.passed, str(report)
        assert (x.grad == 0).any() and (x.grad != 0).any()


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a``: zero signs and NaN payloads compare too."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


SPECIAL = np.array([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324])


class TestMaskedRelu:
    """``activation(x, "relu", keep=(mask, c))``: relu and inverted dropout in ``x``'s own
    buffer, with the pull's gradient written back into it."""

    @pytest.fixture(autouse=True)
    def inf_times_zero_is_meant(self):
        with np.errstate(invalid="ignore"):  # SPECIAL's inf·0 makes NaN without a warning
            yield

    @staticmethod
    def case(seed=20):
        data = np.random.default_rng(seed)
        x = np.concatenate([SPECIAL, data.normal(size=190)]).reshape(8, 25)
        mask, c = lane_keep(data, x.shape, 0.3)
        g = np.concatenate([data.normal(size=190), SPECIAL]).reshape(8, 25)
        return x, mask, c, g

    def test_writes_over_its_input_and_pulls_into_the_same_buffer(self):
        x, mask, c, g = self.case()
        h = Tensor(x.copy(), requires_grad=True)
        buf = h.data
        tape = Tape()
        with record(tape):
            y = tc.activation(h, "relu", keep=(mask, c))
            loss = tc.tsum(y * Tensor(g))
        scale = (mask & (x > 0.0)) * c  # the float scale of the mul it replaces
        assert y.data is buf
        np.testing.assert_array_equal(bits(buf), bits(x * scale))
        backward(loss, tape)
        assert h.grad is buf
        np.testing.assert_array_equal(bits(buf), bits(g * scale))

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "swish", "softmax"])
    def test_a_mask_goes_with_relu_only(self, kind):
        with pytest.raises(UsageError, match="relu"):
            tc.activation(Tensor(np.ones((2, 3))), kind, keep=(np.ones((2, 3), bool), 2.0))

    def test_dropout_has_the_bits_of_the_float_scale_product(self):
        """``dropout`` multiplies by the bool mask and then by ``c``, in forward and pull;
        that is one product with the float scale ``keep · c``, bit for bit."""
        x, _, _, g = self.case(22)
        h = Tensor(x, requires_grad=True)
        keep, c = lane_keep(np.random.default_rng(23), x.shape, 0.3)
        tape = Tape()
        with record(tape):
            y = tc.dropout(h, 0.3, training=True, keep=keep)
            loss = tc.tsum(y * Tensor(g))
        backward(loss, tape)
        scale = np.where(keep, c, 0.0)
        assert keep.any() and not keep.all()
        np.testing.assert_array_equal(bits(y.data), bits(x * scale))
        np.testing.assert_array_equal(bits(h.grad), bits(g * scale))
        np.testing.assert_array_equal(bits(h.data), bits(x))


class TestMlp:
    """``mlp`` walks row blocks: in place in eval, as tape ops under a tape or with dropout
    on."""

    @staticmethod
    def layers(k=5, width=8, n=3, bias=True, seed=12):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(k, width)), requires_grad=True),
                Tensor(rng.normal(size=width), requires_grad=True) if bias else None,
                Tensor(rng.normal(size=(width, n)), requires_grad=True),
                Tensor(rng.normal(size=n), requires_grad=True))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 8, 17, 30, 41])
    @pytest.mark.parametrize("block_floats", [64, 40])
    @pytest.mark.parametrize("n", [3, 1])
    def test_eval_blocks_equal_one_full_size_product(self, monkeypatch, bias, rows,
                                                     block_floats, n):
        """Blocks of 8 rows (40 floats of width 8 round up to 8 rows, and the 17-row case
        has a 1-row tail, which joins the block before it) give the bits of the unblocked
        layer, also for a 1-column output, which BLAS computes as matrix-vector products."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", block_floats)
        w1, b1, w2, b2 = self.layers(bias=bias, n=n)
        x = np.random.default_rng(13).normal(size=(rows, 5))
        h = x @ w1.data + (b1.data if bias else 0.0)
        want = np.maximum(h, 0.0) @ w2.data + b2.data
        got = tc.mlp(Tensor(x), w1, b1, w2, b2, 0.4, training=False, keep=None)
        np.testing.assert_array_equal(got.data, want)
        assert not got.requires_grad

    @pytest.mark.parametrize("windows", [1, 3, 8, 9, 17])
    @pytest.mark.parametrize("act", [None, "sigmoid", "softmax"])
    def test_a_per_channel_term_walks_whole_windows(self, monkeypatch, windows, act):
        """A ``[m x width]`` first bias adds its row ``i`` to row ``i`` of each ``m`` rows;
        the blocks hold whole windows (24 rows, 8 windows of 3), and eval has the bits of
        the taped walk, whose gradients are those of the broadcast composition."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1, _, w2, b2 = self.layers()
        rng = np.random.default_rng(15)
        term = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        x = Tensor(rng.normal(size=(windows, 3, 5)), requires_grad=True)
        bounds = tc._row_blocks(3 * windows, 8, 3)
        assert all(b % 24 == 0 for b in bounds[:-1]) and bounds[-1] == 3 * windows
        g = rng.normal(size=(windows, 3, 3))

        def run(f):
            for t in (x, w1, term, w2, b2):
                t.zero_grad()
            tape = Tape()
            with record(tape):
                y = f()
                loss = tc.tsum(y * Tensor(g))
            backward(loss, tape)
            return [y.data] + [t.grad for t in (x, w1, term, w2, b2)]

        def composed():
            y = tc.activation(x @ w1 + term, "relu") @ w2 + b2
            return y if act is None else tc.activation(y, act)

        got = run(lambda: tc.mlp(x, w1, term, w2, b2, 0.0, False, None, act))
        evaluated = tc.mlp(x, w1, term, w2, b2, 0.0, False, None, act)
        np.testing.assert_array_equal(evaluated.data, got[0])
        for a, b in zip(got, run(composed)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("shape", [(4, 8), (3, 7), (2, 3, 8)])
    def test_a_first_bias_of_neither_shape_is_one_dimension_error(self, shape):
        w1, _, w2, b2 = self.layers()
        with pytest.raises(DimensionError, match="first bias"):
            tc.mlp(Tensor(np.ones((2, 3, 5))), w1, Tensor(np.ones(shape)), w2, b2, 0.0, False,
                   None)

    def test_an_unknown_gate_kind_is_one_config_error(self):
        w1, b1, w2, b2 = self.layers()
        with pytest.raises(ConfigError, match="gelu"):
            tc.mlp(Tensor(np.ones((2, 5))), w1, b1, w2, b2, 0.0, False, None, "gelu")

    def test_keeps_the_leading_axes(self, monkeypatch):
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1, b1, w2, b2 = self.layers()
        x = Tensor(np.random.default_rng(14).normal(size=(3, 7, 5)))
        got = tc.mlp(x, w1, b1, w2, b2, 0.0, training=True, keep=None)
        flat = tc.mlp(tc.reshape(x, (21, 5)), w1, b1, w2, b2, 0.0, training=False, keep=None)
        assert got.shape == (3, 7, 3)
        np.testing.assert_array_equal(got.data.reshape(21, 3), flat.data)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("training", [False, True])
    def test_taped_path_is_the_composed_ops(self, monkeypatch, bias, training):
        """Under a tape ``mlp`` walks the eval row blocks (20 rows of width 8 in blocks of 8,
        8 and 4): a ``split`` part per block through ``matmul``, the bias ``add`` and the
        hidden layer, then ``matmul``, and one ``concat`` and ``b2`` add. With dropout on, a
        block's hidden layer is one masked-relu ``activation`` node where the composition has
        a ``mul`` by the float scale of its rows of the whole-layer keep mask; values and
        gradients are the composition's bit for bit."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1, b1, w2, b2 = self.layers(bias=bias)
        x = Tensor(np.random.default_rng(15).normal(size=(4, 5, 5)), requires_grad=True)
        keep, scale = lane_keep(np.random.default_rng(16), (4, 5, 8), 0.3)
        runs = []
        for fused in (True, False):
            tape = Tape()
            hidden = []
            with record(tape):
                if fused:
                    y = tc.mlp(x, w1, b1, w2, b2, 0.3, training, keep if training else None)
                else:
                    parts = []
                    blocks = tc.split(tc.reshape(x, (20, 5)), (8, 8, 4), 0)
                    for lo, xb in zip((0, 8, 16), blocks):
                        h = xb @ w1 + b1 if bias else xb @ w1
                        if training:  # one mul by relu and the block's keep rows
                            rows = keep.reshape(20, 8)[lo:lo + xb.shape[0]]
                            h = h * Tensor((rows & (h.data > 0.0)) * scale)
                            hidden.append(len(tape.nodes) - 1)
                        else:
                            h = tc.activation(h, "relu")
                        parts.append(h @ w2)
                    y = tc.reshape(tc.concat(parts, 0) + b2, (4, 5, 3))
                backward(tc.tsum(y * y), tape)
            leaves = [t for t in (x, w1, b1, w2, b2) if t is not None]
            runs.append(([pull.__qualname__ for _, pull in tape.nodes], y.data,
                         [t.grad for t in leaves]))
            for t in leaves:
                t.zero_grad()
        (ops, y, grads), (ref_ops, ref_y, ref_grads) = runs
        for i in hidden:
            ref_ops[i] = "activation.<locals>.pull"
        assert len(hidden) == (3 if training else 0)
        assert ops == ref_ops
        np.testing.assert_array_equal(y, ref_y)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("training", [False, True])
    def test_one_block_takes_no_split_or_concat(self, monkeypatch, bias, training):
        """Under a tape a one-block layer (9 rows of width 8 in blocks of 8: the 1-row tail
        joins the first block) runs its rows straight through ``matmul``, the bias ``add``
        and the hidden layer, then ``matmul``, and its part straight to the ``b2`` add:
        no ``split`` or ``concat`` node. Values and gradients are the composition's bit for
        bit."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        assert tc._row_blocks(9, 8) == [0, 9]
        w1, b1, w2, b2 = self.layers(bias=bias)
        x = Tensor(np.random.default_rng(19).normal(size=(3, 3, 5)), requires_grad=True)
        keep, scale = lane_keep(np.random.default_rng(20), (3, 3, 8), 0.3)
        runs = []
        for fused in (True, False):
            tape = Tape()
            with record(tape):
                if fused:
                    y = tc.mlp(x, w1, b1, w2, b2, 0.3, training, keep if training else None)
                else:
                    x2 = tc.reshape(x, (9, 5))
                    h = x2 @ w1 + b1 if bias else x2 @ w1
                    if training:
                        h = h * Tensor((keep.reshape(9, 8) & (h.data > 0.0)) * scale)
                    else:
                        h = tc.activation(h, "relu")
                    y = tc.reshape(h @ w2 + b2, (3, 3, 3))
                backward(tc.tsum(y * y), tape)
            leaves = [t for t in (x, w1, b1, w2, b2) if t is not None]
            runs.append(([pull.__qualname__.split(".")[0] for _, pull in tape.nodes], y.data,
                         [t.grad for t in leaves]))
            for t in leaves:
                t.zero_grad()
        (ops, y, grads), (ref_ops, ref_y, ref_grads) = runs
        first = ["reshape", "matmul", *(["add"] if bias else [])]
        last = ["matmul", "add", "reshape", "mul", "tsum"]
        assert ops == first + ["activation"] + last
        assert ref_ops == first + ["mul" if training else "activation"] + last
        np.testing.assert_array_equal(y, ref_y)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)

    def test_dropout_without_a_tape_is_the_composed_ops(self):
        w1, b1, w2, b2 = self.layers()
        x = Tensor(np.random.default_rng(17).normal(size=(9, 5)))
        keep, _ = lane_keep(np.random.default_rng(18), (9, 8), 0.5)
        got = tc.mlp(x, w1, b1, w2, b2, 0.5, training=True, keep=keep)
        want = tc.dropout(tc.activation(x @ w1 + b1, "relu"), 0.5, True, keep) @ w2 + b2
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("shape", [(12, 8), (2, 6, 8), (4, 3, 1), (4, 1, 8), (4, 3, 5)])
    def test_a_mask_not_of_the_hidden_layer_shape_is_one_dimension_error(self, taped, shape):
        """The hidden layer of a (4, 3, 5) input is (4, 3, 8). A mask of that size in another
        shape, a broadcastable mask and one of another size are each refused the same way."""
        w1, b1, w2, b2 = self.layers()
        x = Tensor(np.ones((4, 3, 5)))
        with pytest.raises(DimensionError, match=r"keep mask shape .* \(4, 3, 8\)"), \
                record(Tape()) if taped else contextlib.nullcontext():
            tc.mlp(x, w1, b1, w2, b2, 0.1, training=True, keep=np.ones(shape, bool))

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_a_mask_that_is_not_bool_is_one_usage_error(self, taped, dtype):
        w1, b1, w2, b2 = self.layers()
        with pytest.raises(UsageError, match=f"must be bool, got dtype {np.dtype(dtype)}"), \
                record(Tape()) if taped else contextlib.nullcontext():
            tc.mlp(Tensor(np.ones((4, 3, 5))), w1, b1, w2, b2, 0.1, training=True,
                   keep=np.ones((4, 3, 8), dtype))

    @pytest.mark.parametrize("w2_shape", [(7, 3), (8,), (8, 3, 1)])
    def test_mis_shaped_w2_raises_as_under_a_tape(self, w2_shape):
        w1, b1, _, b2 = self.layers()
        w2 = Tensor(np.zeros(w2_shape), requires_grad=True)
        x = Tensor(np.ones((2, 4, 5)))
        with pytest.raises(DimensionError) as taped, record(Tape()):
            tc.mlp(x, w1, b1, w2, b2, 0.1, training=False, keep=None)
        with pytest.raises(DimensionError) as eval_mode:
            tc.mlp(x, w1, b1, w2, b2, 0.1, training=False, keep=None)
        assert str(eval_mode.value) == str(taped.value)
        assert "matmul" in str(eval_mode.value)

    def test_mis_shaped_input_raises_in_eval(self):
        w1, b1, w2, b2 = self.layers()
        with pytest.raises(DimensionError, match="inner dims"):
            tc.mlp(Tensor(np.ones((2, 4))), w1, b1, w2, b2, 0.1, training=False, keep=None)
        with pytest.raises(DimensionError, match="needs"):
            tc.mlp(Tensor(np.ones(5)), w1, b1, w2, b2, 0.1, training=False, keep=None)


class InlinePool:
    """A stand-in for ``tensor._helper()``'s pool that runs the submitted half on the calling
    thread: the one-thread walk of the same blocks."""

    @staticmethod
    def submit(fn, *args):
        done = futures.Future()
        done.set_result(fn(*args))
        return done


@pytest.fixture
def walks(monkeypatch):
    """(thread id, bounds) of each ``tensor._walk`` call, in call order."""
    calls, real = [], tc._walk

    def walk(*args):
        calls.append((threading.get_ident(), list(args[-2])))
        real(*args)

    monkeypatch.setattr(tc, "_walk", walk)
    return calls


class TestMlpHelper:
    """An eval ``mlp`` of two or more row blocks walks the second half of them on one helper
    thread, with the bits of a one-thread walk."""

    layers = staticmethod(TestMlp.layers)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("rows,k,width,n,blocks", [
        (16, 5, 8, 3, 2), (24, 5, 8, 3, 3), (128, 5, 8, 3, 16), (17, 5, 8, 3, 2),
        (25, 5, 8, 3, 3), (8192, 15, 128, 7, 16), (448, 256, 256, 256, 2)])
    def test_the_threaded_walk_has_the_one_thread_bits(self, monkeypatch, walks, bias, rows,
                                                       k, width, n, blocks):
        """Blocks of 8 rows of width 8, and the VGM and TGM layers of a 64-window eval batch
        at the reproduction size (blocks of 512 rows of width 128 and of 256 rows of width
        256); 17 and 25 rows end in a 1-row tail joined to the block before it. The caller walks the first half of
        the blocks, the helper the rest."""
        if width == 8:
            monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        bounds = tc._row_blocks(rows, width)
        assert len(bounds) == blocks + 1
        w1, b1, w2, b2 = self.layers(k, width, n, bias=bias)
        x = Tensor(np.random.default_rng(30).normal(size=(rows, k)))
        got = tc.mlp(x, w1, b1, w2, b2, 0.4, training=False, keep=None)
        mid = len(bounds) // 2
        assert sorted(b for _, b in walks) == [bounds[:mid + 1], bounds[mid:]]
        assert dict((b[0], ident) for ident, b in walks)[0] == threading.get_ident()
        assert len({ident for ident, _ in walks}) == 2
        del walks[:]
        with monkeypatch.context() as m:
            m.setattr(tc, "_helper", InlinePool)
            want = tc.mlp(x, w1, b1, w2, b2, 0.4, training=False, keep=None)
        assert {ident for ident, _ in walks} == {threading.get_ident()}
        np.testing.assert_array_equal(got.data, want.data)

    def test_a_one_block_layer_stays_on_the_caller(self, walks):
        w1, b1, w2, b2 = self.layers()
        tc.mlp(Tensor(np.ones((9, 5))), w1, b1, w2, b2, 0.0, training=False, keep=None)
        assert walks == [(threading.get_ident(), [0, 9])]

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_an_exception_of_either_half_is_raised_on_the_caller(self, monkeypatch, failing):
        """The caller raises only once the helper's half has stopped, and the next call
        walks on the same helper."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1, b1, w2, b2 = self.layers()
        x = Tensor(np.random.default_rng(31).normal(size=(32, 5)))
        want = tc.mlp(x, w1, b1, w2, b2, 0.0, training=False, keep=None)
        real, caller, finished = tc._walk, threading.get_ident(), []

        def walk(*args):
            on_helper = threading.get_ident() != caller
            if on_helper == (failing == "helper"):
                raise OverflowError(f"injected into the {failing}'s half")
            if on_helper:
                threading.Event().wait(0.05)  # the caller's half has raised by now
            real(*args)
            finished.append(on_helper)

        monkeypatch.setattr(tc, "_walk", walk)
        with pytest.raises(OverflowError, match=f"the {failing}'s half"):
            tc.mlp(x, w1, b1, w2, b2, 0.0, training=False, keep=None)
        assert finished == [failing == "caller"]
        monkeypatch.setattr(tc, "_walk", real)
        got = tc.mlp(x, w1, b1, w2, b2, 0.0, training=False, keep=None)
        np.testing.assert_array_equal(got.data, want.data)

    def test_the_helper_runs_under_the_callers_numpy_error_state(self, monkeypatch):
        """Only the helper's rows overflow, and they raise as the caller's would."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1 = np.zeros((5, 8))
        w1[0] = 1.0
        x = np.zeros((16, 5))
        x[8:, 0] = 1.7e308  # the bias add doubles it in the helper's rows only
        layers = (Tensor(w1), Tensor(np.full(8, 1.7e308)), Tensor(np.full((8, 3), 1e-300)),
                  Tensor(np.zeros(3)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            tc.mlp(Tensor(x), *layers, 0.0, training=False, keep=None)
        with np.errstate(over="ignore", invalid="ignore"):
            out = tc.mlp(Tensor(x), *layers, 0.0, training=False, keep=None).data
        assert np.isfinite(out[:8]).all() and np.isinf(out[8:]).all()

    def test_user_threads_sharing_one_predictor_get_the_one_thread_bits(self, monkeypatch):
        """Four user threads, more than the host's cores, each forecast their own windows
        twenty times through one predictor under a short switch interval; every forecast
        has the bits of a one-block forward on one thread."""
        cfg = mdl.ModelConfig(horizon=4, n_endo=3, n_exo=2, lookback=16, d_model=8, t_ff=16,
                              c_ff=16)
        predict = mdl.predictor(mdl.XLinearParams(cfg, np.random.default_rng(32)), cfg)
        rng = np.random.default_rng(33)
        inputs = [(rng.normal(size=(16, 3, 16)), rng.normal(size=(16, 2, 16)))
                  for _ in range(4)]
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 1 << 30)
        want = [predict(*xs) for xs in inputs]
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        start, got = threading.Barrier(4), [[] for _ in inputs]

        def user(i):
            start.wait(timeout=10)
            got[i] += [predict(*inputs[i]) for _ in range(20)]

        users = [threading.Thread(target=user, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in users:
                t.start()
            for t in users:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in users)
        for mine, ref in zip(got, want):
            assert len(mine) == 20
            for y in mine:
                np.testing.assert_array_equal(y, ref)

    def test_a_changed_process_id_gets_a_new_helper(self, monkeypatch, walks):
        """As in a forked child, whose parent's helper thread does not exist."""
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        w1, b1, w2, b2 = self.layers()
        x = Tensor(np.random.default_rng(34).normal(size=(16, 5)))
        want = tc.mlp(x, w1, b1, w2, b2, 0.0, training=False, keep=None)
        pid = os.getpid()
        pool = tc._helpers[pid]
        child = max(tc._helpers) + 1
        monkeypatch.setattr(tc.os, "getpid", lambda: child)
        try:
            got = tc.mlp(x, w1, b1, w2, b2, 0.0, training=False, keep=None)
            assert tc._helpers[child] is not pool
        finally:
            tc._helpers.pop(child).shutdown(wait=True)
        assert tc._helpers[pid] is pool
        parent, child = ({ident for ident, _ in run} - {threading.get_ident()}
                         for run in (walks[:2], walks[2:]))
        assert len(parent) == len(child) == 1 and parent != child
        np.testing.assert_array_equal(got.data, want.data)

    def test_a_traced_eval_has_the_spans_of_a_one_thread_walk(self, tmp_path, monkeypatch,
                                                              walks):
        """The helper calls nothing the benchmark's tracer patches, so a traced ``eval``
        opens the same spans with the same parents and counts the same as one whose
        halves both run on the caller, and writes the same metrics."""
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench"))
        try:
            import harness
            import tracer as trc
        finally:
            sys.path.pop(0)
        run = harness.Run("infer", 3, 0.0, True, str(tmp_path), harness.TINY)
        run.prepare()
        monkeypatch.setattr(tc, "MLP_BLOCK_FLOATS", 64)
        runs = []
        for pool in (tc._helper, InlinePool):
            out = tmp_path / f"eval_{len(runs)}"
            del walks[:]
            monkeypatch.setattr(tc, "_helper", pool)
            t = trc.Tracer()
            with t.active():
                assert cli.main(["eval", "--checkpoint", run.ckpt_path, "--split", "test",
                                 "--out-dir", str(out)]) == 0
            threads = {ident for ident, _ in walks}
            runs.append(([(name, parent) for name, _, _, parent in t.spans], dict(t.counts),
                         (out / "metrics_test.csv").read_bytes(), len(threads)))
        (spans, counts, metrics, threads), (ref_spans, ref_counts, ref_metrics, one) = runs
        assert (threads, one) == (2, 1)
        assert "model.vgm.eval" in {name for name, _ in spans}
        assert spans == ref_spans
        assert counts == ref_counts
        assert metrics == ref_metrics


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        tape = Tape()
        with record(tape):
            loss = tc.tsum(x)
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_square_gradient(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        tape = Tape()
        with record(tape):
            loss = tc.tsum(x * x)
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2.0, -4.0])

    def test_accumulation_until_reset(self):
        x = Tensor([3.0], requires_grad=True)
        for expect in (6.0, 12.0):
            tape = Tape()
            with record(tape):
                loss = tc.tsum(x * x)
            backward(loss, tape)
            assert x.grad[0] == pytest.approx(expect)
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with record(tape):
            y = x * x
        with pytest.raises(UsageError):
            backward(y, tape)

    def test_unused_branch_costs_nothing(self):
        x = Tensor([2.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        tape = Tape()
        with record(tape):
            dead = z * z  # never feeds the loss
            loss = tc.tsum(x * x)
        assert dead.requires_grad
        backward(loss, tape)
        assert z.grad is None
        assert x.grad[0] == 4.0

    def test_tapes_do_not_nest(self):
        with record(Tape()):
            with pytest.raises(UsageError):
                with record(Tape()):
                    pass

    def test_deterministic_replay(self):
        """Same seed and op sequence give bit-identical forward and grads."""

        def run():
            keep = tc.draw_keep(np.empty((4, 3), bool), 0.4, np.random.default_rng(99))
            x = Tensor(np.linspace(-1, 1, 24).reshape(4, 6), requires_grad=True)
            w = Tensor(np.random.default_rng(5).normal(size=(6, 3)), requires_grad=True)
            tape = Tape()
            with record(tape):
                h = tc.dropout(tc.activation(x @ w, "sigmoid"), 0.4, training=True, keep=keep)
                loss = tc.tsum(h * h)
            backward(loss, tape)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestGradCheck:
    def test_quadratic_passes_tight(self):
        theta = Tensor(np.linspace(-1, 1, 7), requires_grad=True)
        report = grad_check(lambda: tc.tsum(theta * theta), [theta],
                            step=1e-6, rel_tol=1e-7)
        assert report.passed
        assert report.n_entries == 7

    def test_sigmoid_composition_passes(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))

        def f():
            return tc.tsum(tc.activation(x @ w, "sigmoid"))

        report = grad_check(f, [w], step=1e-5, rel_tol=1e-5)
        assert report.passed, str(report)

    def test_wrong_rule_detected(self):
        """Negative control: a deliberately wrong gradient rule must fail."""
        x = Tensor([1.5, -0.5], requires_grad=True)

        def bad_square(t):
            out = tc._out(t.data * t.data, t)

            def pull(g):
                tc._accum(t, g * 3.0 * t.data)  # wrong factor

            return tc._push(out, pull)

        report = grad_check(lambda: tc.tsum(bad_square(x)), [x], step=1e-5, rel_tol=1e-5)
        assert not report.passed
        assert report.failures
        assert "FAIL" in str(report)


def test_property_fd_agreement_random_ops():
    """Every exposed differentiable op agrees with central differences to
    1e-5 on random inputs in [-2, 2]."""
    rng = np.random.default_rng(55)
    x = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    # keep relu inputs clear of the kink
    x.data[np.abs(x.data) < 0.1] = 0.25
    cases = [
        lambda: tc.tsum(tc.activation(x, "sigmoid") * x),
        lambda: tc.tsum(tc.activation(x, "tanh") + x * x),
        lambda: tc.tsum(tc.activation(x, "swish")),
        lambda: tc.tsum(tc.activation(x, "softmax") * x),
        lambda: tc.tsum(tc.activation(x, "relu")),
        lambda: tc.tsum(tc.tsum(x * x) * x),
        lambda: tc.tsum(tc.transpose(x) @ x),
        lambda: tc.tsum(tc.concat([x, x * 2.0], axis=0)),
        lambda: tc.tsum(tc.narrow(x, 1, 1, 3) * 2.5),
        lambda: tc.tsum(x / Tensor(np.full((3, 4), 2.0)) - x),
    ]
    for f in cases:
        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-5
