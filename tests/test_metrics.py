"""Metric tests built around independent scalar-loop oracles.

Every oracle below recomputes its metric with plain Python loops and
math-module scalars, sharing no code path with the implementation.
"""

import dataclasses
import math

import numpy as np
import pytest

from xlinear import data as dio
from xlinear import metrics as mx
from xlinear.errors import MetricUndefinedError, UsageError


def mse_mae_oracle(y, yhat):
    se = ae = 0.0
    for a, b in zip(y, yhat):
        se += (a - b) ** 2
        ae += abs(a - b)
    return se / len(y), ae / len(y)


def nse_oracle(y, yhat):
    ybar = sum(y) / len(y)
    num = sum((a - b) ** 2 for a, b in zip(y, yhat))
    den = sum((a - ybar) ** 2 for a in y)
    return 1.0 - num / den


def kge_oracle(y, yhat):
    n = len(y)
    my = sum(y) / n
    mh = sum(yhat) / n
    sy = math.sqrt(sum((a - my) ** 2 for a in y) / n)
    sh = math.sqrt(sum((b - mh) ** 2 for b in yhat) / n)
    r = sum((a - my) * (b - mh) for a, b in zip(y, yhat)) / (n * sy * sh)
    alpha = sh / sy
    beta = mh / my
    return 1.0 - math.sqrt((r - 1) ** 2 + (alpha - 1) ** 2 + (beta - 1) ** 2)


def mape_oracle(y, yhat):
    total = 0.0
    kept = 0
    for a, b in zip(y, yhat):
        if abs(a) >= 1e-8:
            total += abs((a - b) / a)
            kept += 1
    return total / kept * 100.0, len(y) - kept


class TestMseMae:
    def test_perfect(self):
        y = np.arange(5.0)
        assert mx.mse_mae(y, y) == (0.0, 0.0)

    def test_unit_residuals(self):
        assert mx.mse_mae(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == (1.0, 1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=50)
        yhat = rng.normal(size=50)
        mse, mae = mx.mse_mae(y, yhat)
        omse, omae = mse_mae_oracle(y.tolist(), yhat.tolist())
        assert mse == pytest.approx(omse, rel=1e-12)
        assert mae == pytest.approx(omae, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mx.mse_mae(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            mx.mse_mae(np.zeros(3), np.zeros(4))


class TestNse:
    def test_perfect_is_exactly_one(self):
        y = np.array([0.3, 1.7, -2.2, 0.9])
        assert mx.nse(y, y.copy()) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        yhat = np.full(4, y.mean())
        assert mx.nse(y, yhat) == 0.0

    def test_direct_substitution(self):
        assert mx.nse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) == 0.5

    def test_constant_observed_undefined(self):
        with pytest.raises(MetricUndefinedError):
            mx.nse(np.full(5, 2.0), np.arange(5.0))

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=80)
        yhat = y + rng.normal(scale=0.5, size=80)
        assert mx.nse(y, yhat) == pytest.approx(nse_oracle(y.tolist(), yhat.tolist()),
                                                rel=1e-12)


class TestKge:
    def test_perfect_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.normal(loc=rng.uniform(0.5, 3.0), size=int(rng.integers(2, 60)))
            assert mx.kge(y, y.copy()) == 1.0

    def test_doubled_forecast(self):
        y = np.random.default_rng(3).normal(loc=2.0, size=100)
        assert mx.kge(y, 2.0 * y) == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        y = rng.normal(loc=1.5, size=100)
        yhat = 0.7 * y + rng.normal(scale=0.3, size=100)
        assert mx.kge(y, yhat) == pytest.approx(kge_oracle(y.tolist(), yhat.tolist()),
                                                abs=1e-10)

    def test_constant_series_undefined(self):
        with pytest.raises(MetricUndefinedError):
            mx.kge(np.full(5, 1.0), np.arange(5.0))
        with pytest.raises(MetricUndefinedError):
            mx.kge(np.arange(5.0), np.full(5, 1.0))

    def test_zero_observed_mean_undefined(self):
        with pytest.raises(MetricUndefinedError):
            mx.kge(np.array([-1.0, 1.0]), np.array([0.5, 1.5]))


class TestMape:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mx.mape(y, y.copy()) == 0.0

    def test_percent_units(self):
        assert mx.mape(np.array([2.0]), np.array([1.0])) == 50.0

    def test_near_zero_points_excluded_and_counted(self):
        y = np.array([1.0, 1e-12, 2.0, -1e-9])
        yhat = np.array([1.1, 5.0, 1.8, 5.0])
        val, excluded = mx.mape_with_count(y, yhat)
        assert excluded == 2
        assert val == pytest.approx((0.1 / 1.0 + 0.2 / 2.0) / 2 * 100.0, rel=1e-10)

    def test_all_excluded_undefined(self):
        with pytest.raises(MetricUndefinedError):
            mx.mape(np.zeros(3), np.ones(3))

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0.5, 4.0, size=60)
        yhat = y * rng.uniform(0.8, 1.2, size=60)
        val, excl = mx.mape_with_count(y, yhat)
        oval, oexcl = mape_oracle(y.tolist(), yhat.tolist())
        assert val == pytest.approx(oval, rel=1e-10)
        assert excl == oexcl == 0


class TestPropertySweep:
    def test_thousand_random_series_match_oracles(self):
        """Criterion-level sweep: every metric vs its loop oracle at 1e-10."""
        rng = np.random.default_rng(6)
        for i in range(1000):
            n = int(rng.integers(2, 40))
            y = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.2, 3), size=n)
            yhat = y * rng.uniform(0.5, 1.5) + rng.normal(scale=rng.uniform(0.05, 1), size=n)
            ly, lh = y.tolist(), yhat.tolist()
            mse, mae = mx.mse_mae(y, yhat)
            omse, omae = mse_mae_oracle(ly, lh)
            assert math.isclose(mse, omse, rel_tol=1e-10, abs_tol=1e-10)
            assert math.isclose(mae, omae, rel_tol=1e-10, abs_tol=1e-10)
            assert math.isclose(mx.nse(y, yhat), nse_oracle(ly, lh),
                                rel_tol=1e-10, abs_tol=1e-10)
            try:
                got = mx.kge(y, yhat)
            except MetricUndefinedError:
                assert abs(sum(ly) / n) < 1e-12  # only a zero mean can trip it here
            else:
                assert math.isclose(got, kge_oracle(ly, lh), rel_tol=1e-10, abs_tol=1e-10)
            try:
                gotm, _ = mx.mape_with_count(y, yhat)
            except MetricUndefinedError:
                assert all(abs(v) < 1e-8 for v in ly)
            else:
                oval, _ = mape_oracle(ly, lh)
                assert math.isclose(gotm, oval, rel_tol=1e-10, abs_tol=1e-10)

    def test_pooled_point_permutation_invariance(self):
        rng = np.random.default_rng(7)
        y = rng.normal(loc=1.0, size=200)
        yhat = y + rng.normal(scale=0.4, size=200)
        perm = rng.permutation(200)
        a = mx.mse_mae(y[perm], yhat[perm])
        b = mx.mse_mae(y, yhat)
        assert a == pytest.approx(b, rel=1e-12)
        assert mx.nse(y[perm], yhat[perm]) == pytest.approx(mx.nse(y, yhat), rel=1e-12)
        assert mx.kge(y[perm], yhat[perm]) == pytest.approx(mx.kge(y, yhat), rel=1e-12)


def ramp_dataset(tmp_path, n_rows=120, n_vars=3):
    """Deterministic affine ramps: the future of every variable is exactly
    last-history-value + step * (s+1), so an oracle predictor can be perfect."""
    cols = ",".join(f"v{j}" for j in range(n_vars))
    lines = [cols]
    for t in range(n_rows):
        lines.append(",".join(repr(0.5 * (j + 1) * t + j) for j in range(n_vars)))
    path = tmp_path / "ramp.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = dio.load_csv(path, "multivariate")
    return dio.split_and_scale(ds, (0.6, 0.2, 0.2), lookback=8, horizon=4)


def perfect_ramp_predictor(endo_hist, exo_hist):
    last = endo_hist[:, :, -1:]
    step = endo_hist[:, :, -1:] - endo_hist[:, :, -2:-1]
    s = np.arange(1, 5, dtype=np.float64).reshape(1, 1, 4)
    return last + step * s


def pooled_truth(ds, split, L, S):
    out = {n: [] for n in ds.endo_names}
    for batch in dio.iter_batches(ds, split, L, S, 256):
        for j, n in enumerate(ds.endo_names):
            out[n].append(batch.endo_future[:, j, :].ravel())
    return {n: np.concatenate(v) for n, v in out.items()}


class TestEvaluate:
    def test_perfect_oracle_model(self, tmp_path):
        ds = ramp_dataset(tmp_path)
        rep = mx.evaluate(perfect_ramp_predictor, ds, "test", 8, 4)
        for name in rep.variable_names:
            row = rep.per_variable[name]
            assert row["mse"] == pytest.approx(0.0, abs=1e-24)
            assert row["mae"] == pytest.approx(0.0, abs=1e-12)
            assert row["nse"] == pytest.approx(1.0, abs=1e-12)
            assert row["kge"] == pytest.approx(1.0, abs=1e-9)
        assert not rep.metric_errors

    def test_mean_predictor_scores_zero_nse(self, tmp_path):
        ds = ramp_dataset(tmp_path)
        means = pooled_truth(ds, "test", 8, 4)
        means = {n: v.mean() for n, v in means.items()}
        order = list(ds.endo_names)

        def mean_model(endo_hist, exo_hist):
            out = np.empty((endo_hist.shape[0], len(order), 4))
            for j, n in enumerate(order):
                out[:, j, :] = means[n]
            return out

        rep = mx.evaluate(mean_model, ds, "test", 8, 4)
        for name in rep.variable_names:
            assert rep.per_variable[name]["nse"] == 0.0
            # constant forecast leaves KGE undefined, recorded not raised
            assert rep.per_variable[name]["kge"] is None
            assert "kge" in rep.metric_errors[name]

    def test_per_variable_matches_manual_pooling(self, tmp_path):
        ds = ramp_dataset(tmp_path)
        rng = np.random.default_rng(8)

        def noisy_model(endo_hist, exo_hist):
            clean = perfect_ramp_predictor(endo_hist, exo_hist)
            return clean + 0.05 * np.sin(np.arange(clean.size).reshape(clean.shape))

        rep = mx.evaluate(noisy_model, ds, "test", 8, 4)
        truth = pooled_truth(ds, "test", 8, 4)
        preds = {n: [] for n in ds.endo_names}
        for batch in dio.iter_batches(ds, "test", 8, 4, 256):
            yhat = noisy_model(batch.endo_history, batch.exo_history)
            for j, n in enumerate(ds.endo_names):
                preds[n].append(yhat[:, j, :].ravel())
        for n in ds.endo_names:
            p = np.concatenate(preds[n])
            row = rep.per_variable[n]
            omse, omae = mse_mae_oracle(truth[n].tolist(), p.tolist())
            assert row["mse"] == pytest.approx(omse, rel=1e-10)
            assert row["mae"] == pytest.approx(omae, rel=1e-10)
            assert row["nse"] == pytest.approx(nse_oracle(truth[n].tolist(), p.tolist()),
                                               rel=1e-10)
            assert row["kge"] == pytest.approx(kge_oracle(truth[n].tolist(), p.tolist()),
                                               abs=1e-10)

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("target_mode", ["multivariate", "last-column-endogenous"])
    def test_one_pool_equals_per_batch_pooling(self, tmp_path, scaled, target_mode):
        """Every metric, error and exclusion count equals that of the series pooled batch by
        batch and variable by variable, each batch mapped to original units on its own."""
        ds = dataclasses.replace(ramp_dataset(tmp_path), target_mode=target_mode)

        def noisy_model(endo_hist, exo_hist):
            clean = perfect_ramp_predictor(endo_hist, exo_hist)
            return clean + 0.05 * np.sin(np.arange(clean.size).reshape(clean.shape))

        preds = {n: [] for n in ds.endo_names}
        truth = {n: [] for n in ds.endo_names}
        for yhat, y in mx.split_forecasts(noisy_model, ds, "test", 8, 4):
            if not scaled:
                yhat = dio.inverse_scale_forecast(ds, yhat)
                y = dio.inverse_scale_forecast(ds, y)
            for j, n in enumerate(ds.endo_names):
                preds[n].append(yhat[:, j, :].ravel())
                truth[n].append(y[:, j, :].ravel())
        rep = mx.evaluate(noisy_model, ds, "test", 8, 4, scaled=scaled)
        for n in ds.endo_names:
            vals, errs, excl = mx._metrics_for(np.concatenate(truth[n]), np.concatenate(preds[n]))
            assert rep.per_variable[n] == vals
            assert rep.metric_errors.get(n, {}) == errs
            assert rep.mape_excluded[n] == excl
        assert list(rep.per_variable) == list(ds.endo_names)

    def test_aggregate_is_mean_of_variables(self, tmp_path):
        ds = ramp_dataset(tmp_path)

        def skew_model(endo_hist, exo_hist):
            return perfect_ramp_predictor(endo_hist, exo_hist) + 0.1

        rep = mx.evaluate(skew_model, ds, "test", 8, 4)
        for m in mx.METRIC_NAMES:
            vals = [rep.per_variable[n][m] for n in rep.variable_names]
            assert rep.aggregate[m] == pytest.approx(np.mean(vals), rel=1e-12)

    def test_unscaled_space_rescales_residuals(self, tmp_path):
        ds = ramp_dataset(tmp_path)

        def off_model(endo_hist, exo_hist):
            return perfect_ramp_predictor(endo_hist, exo_hist) + 0.25

        scaled = mx.evaluate(off_model, ds, "test", 8, 4, scaled=True)
        orig = mx.evaluate(off_model, ds, "test", 8, 4, scaled=False)
        assert orig.scaled_space is False
        for j, n in enumerate(ds.endo_names):
            sd = ds.scaler_std[j]
            assert orig.per_variable[n]["mse"] == pytest.approx(
                scaled.per_variable[n]["mse"] * sd * sd, rel=1e-10)
            assert orig.per_variable[n]["mae"] == pytest.approx(
                scaled.per_variable[n]["mae"] * sd, rel=1e-10)
            # affine maps leave NSE untouched
            assert orig.per_variable[n]["nse"] == pytest.approx(
                scaled.per_variable[n]["nse"], rel=1e-10)

    def test_n_windows_counted(self, tmp_path):
        ds = ramp_dataset(tmp_path)
        rep = mx.evaluate(perfect_ramp_predictor, ds, "test", 8, 4)
        assert rep.n_windows == dio.n_windows(ds, "test", 8, 4)
        assert rep.horizon == 4

    def test_model_shape_guard(self, tmp_path):
        ds = ramp_dataset(tmp_path)

        def bad_model(endo_hist, exo_hist):
            return np.zeros((endo_hist.shape[0], 1, 4))

        with pytest.raises(UsageError):
            mx.evaluate(bad_model, ds, "test", 8, 4)


class TestReportSerialization:
    def make_report(self, tmp_path):
        ds = ramp_dataset(tmp_path)
        return mx.evaluate(perfect_ramp_predictor, ds, "test", 8, 4)

    def test_csv_layout(self, tmp_path):
        rep = self.make_report(tmp_path)
        lines = rep.as_csv_text().strip().split("\n")
        assert lines[0] == "variable,mse,mae,nse,kge,mape,mape_excluded"
        assert len(lines) == 1 + len(rep.variable_names) + 1
        assert lines[-1].startswith("aggregate,")
        cells = lines[1].split(",")
        assert cells[0] == rep.variable_names[0]
        assert float(cells[3]) == pytest.approx(1.0, abs=1e-9)  # nse column

    def test_csv_nan_for_undefined(self, tmp_path):
        ds = ramp_dataset(tmp_path)

        def const_model(endo_hist, exo_hist):
            return np.zeros((endo_hist.shape[0], 3, 4))

        rep = mx.evaluate(const_model, ds, "test", 8, 4)
        line = rep.as_csv_text().strip().split("\n")[1]
        assert ",nan," in line  # kge cell

    def test_table_mentions_space_and_counts(self, tmp_path):
        rep = self.make_report(tmp_path)
        txt = rep.as_table_text()
        assert "scaled" in txt
        assert "aggregate" in txt
        assert str(rep.n_windows) in txt
