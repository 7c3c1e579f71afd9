"""Tensor engine tests.

Gradient rules are checked against an independent central-difference
oracle (``fd_grad`` below, plain numpy, no library code) in addition to
the library's own grad_check.
"""

import numpy as np
import pytest

from xlinear import data as dio
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.errors import ConfigError, DimensionError, UsageError
from xlinear.tensor import Tape, Tensor, backward, grad_check, record


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
        """One W on two inputs (the share_embedding pattern) gets the sum of both pulls."""
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        e = Tensor(rng.normal(size=(2, 5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f(*inputs):
            return tc.tsum(tc.concat([tc.sigmoid(t @ w) for t in inputs], axis=1))

        both = ad_grad(lambda: f(x, e), w)
        assert max_rel_err(both, fd_grad(lambda: f(x, e).item(), w.data)) < 1e-5
        np.testing.assert_allclose(both, ad_grad(lambda: f(x), w) + ad_grad(lambda: f(e), w),
                                   rtol=1e-12)

    def test_right_operand_must_be_2d(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 3))) @ Tensor(np.ones((2, 3, 4)))

    def test_grads_owned_and_writable_after_training_step(self):
        """Leaf grads are fresh arrays, never views of a shared or read-only buffer,
        so Adam and zero_grad may write them in place."""
        cfg = mdl.ModelConfig(horizon=3, n_endo=2, n_exo=2, lookback=6, d_model=4, t_ff=5,
                              c_ff=5, share_embedding=True).validate()
        params = mdl.XLinearParams(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = dio.WindowBatch(endo_history=rng.normal(size=(3, 2, 6)),
                                exo_history=rng.normal(size=(3, 2, 6)))
        tape = Tape()
        with record(tape):
            yhat, _ = mdl.forward(batch, params, training=True, rng=rng)
            loss = tc.tmean(yhat * yhat)
        backward(loss, tape)
        for name, p in params.named():
            assert p.grad.flags.writeable and p.grad.flags.owndata, name
            assert np.any(p.grad != 0.0), name
            p.zero_grad()
            assert not np.any(p.grad), name


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert tc.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu_negative(self):
        assert tc.relu(Tensor([-3.2])).data[0] == 0.0

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
        y = tc.sigmoid(Tensor(x)).data
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert np.all(np.diff(y) >= 0.0)

    def test_relu_idempotent_on_nonnegatives(self):
        x = Tensor(np.linspace(0, 5, 50))
        once = tc.relu(x).data
        assert np.array_equal(tc.relu(Tensor(once)).data, once)

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
            return tc.tsum(tc.relu(x) * tc.relu(x))

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
        lambda x: tc.transpose(x, (1, 0)),
        lambda x: tc.reshape(x, (6,)),
        lambda x: tc.narrow(x, 1, 1, 2),
        lambda x: tc.broadcast_to(tc.reshape(x, (2, 3, 1)), (2, 3, 4)),
        lambda x: tc.tmean(x, axis=0, keepdims=True),
        lambda x: tc.tsum(x, axis=1, keepdims=False),
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

    def test_sqrt_and_neg(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)

        def f():
            return tc.tsum(tc.neg(tc.sqrt(x)) * Tensor(np.arange(1.0, 6.0)))

        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-6


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = tc.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert tc.dropout(x, 0.9, training=False, rng=None) is x

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            tc.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_monte_carlo_mean_preserved(self):
        """Inverted scaling keeps E[output] = input within 2% at 10k draws."""
        rng = np.random.default_rng(123)
        x = Tensor(rng.uniform(0.5, 1.5, size=100))
        acc = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            acc += tc.dropout(x, 0.5, training=True, rng=rng).data
        est = acc.mean() / draws
        assert abs(est - x.data.mean()) / x.data.mean() < 0.02

    def test_grad_uses_the_same_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        tape = Tape()
        with record(tape):
            y = tc.dropout(x, 0.3, training=True, rng=np.random.default_rng(7))
            kept = y.data > 0  # mask realized in the forward
            loss = tc.tsum(y)
        backward(loss, tape)
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.7)
        np.testing.assert_allclose(x.grad[~kept], 0.0)


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
        assert x.grad[0] == 0.0

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
        assert np.array_equal(z.grad, [0.0])
        assert x.grad[0] == 4.0

    def test_tapes_do_not_nest(self):
        with record(Tape()):
            with pytest.raises(UsageError):
                with record(Tape()):
                    pass

    def test_deterministic_replay(self):
        """Same seed and op sequence give bit-identical forward and grads."""

        def run():
            rng = np.random.default_rng(99)
            x = Tensor(np.linspace(-1, 1, 24).reshape(4, 6), requires_grad=True)
            w = Tensor(np.random.default_rng(5).normal(size=(6, 3)), requires_grad=True)
            tape = Tape()
            with record(tape):
                h = tc.dropout(tc.sigmoid(x @ w), 0.4, training=True, rng=rng)
                loss = tc.tmean(h * h)
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
            return tc.tmean(tc.sigmoid(x @ w))

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
        lambda: tc.tsum(tc.relu(x)),
        lambda: tc.tsum(tc.tmean(x * x, axis=1)),
        lambda: tc.tsum(tc.transpose(x, (1, 0)) @ x),
        lambda: tc.tsum(tc.concat([x, x * 2.0], axis=0)),
        lambda: tc.tsum(tc.narrow(x, 1, 1, 3) * 2.5),
        lambda: tc.tsum(x / Tensor(np.full((3, 4), 2.0)) - x),
    ]
    for f in cases:
        ad = ad_grad(f, x)
        fd = fd_grad(lambda: f().item(), x.data)
        assert max_rel_err(ad, fd) < 1e-5
