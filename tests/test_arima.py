import math

import numpy as np
import pytest

from crimecast.arima import (
    ArimaFit,
    ArimaSpec,
    _css_objective,
    fit_arima,
    forecast_arima,
    select_orders,
)
from crimecast.exceptions import InvalidArgumentError
from crimecast.series import TimeSeries, difference

from conftest import Q0, ar1, series


def ma1(theta: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + 1)
    return e[1:] + theta * e[:-1]


class TestSpecValidation:
    def test_negative_order_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ArimaSpec(-1, 0, 0)

    def test_pure_random_walk_allowed(self):
        ArimaSpec(0, 1, 0)


class TestFit:
    def test_random_walk_with_drift_closed_form(self, rng):
        y = np.cumsum(rng.normal(2.0, 1.0, 200))
        fit = fit_arima(series(y), ArimaSpec(0, 1, 0))
        assert fit.constant == pytest.approx(np.diff(y).mean(), abs=1e-12)
        assert fit.converged

    def test_white_noise_constant_model(self, rng):
        w = rng.normal(3.0, 2.0, 500)
        fit = fit_arima(series(w), ArimaSpec(0, 0, 0))
        assert fit.constant == pytest.approx(w.mean(), abs=1e-9)
        assert fit.sigma2 == pytest.approx(w.var(), abs=1e-9)

    def test_ar1_recovery(self):
        y = ar1(0.5, 2000, seed=101)
        fit = fit_arima(series(y), ArimaSpec(1, 0, 0))
        assert fit.converged
        assert abs(fit.ar_coeffs[0] - 0.5) < 0.1

    def test_ma1_recovery(self):
        y = ma1(0.4, 4000, seed=202)
        fit = fit_arima(series(y), ArimaSpec(0, 0, 1))
        assert fit.converged
        assert abs(fit.ma_coeffs[0] - 0.4) < 0.1

    def test_loglik_matches_gaussian_density(self):
        y = ar1(0.6, 300, seed=5)
        fit = fit_arima(series(y), ArimaSpec(1, 0, 1))
        ll = sum(
            -0.5 * (math.log(2 * math.pi * fit.sigma2) + r * r / fit.sigma2)
            for r in fit.residuals.values
        )
        assert fit.log_likelihood == pytest.approx(ll, abs=1e-6)

    def test_residual_frame(self):
        y = ar1(0.5, 100, seed=3)
        fit = fit_arima(series(np.cumsum(y)), ArimaSpec(1, 1, 0))
        # d=1 and p=1 consume the first two level positions.
        assert fit.residuals.start == Q0 + 2
        assert len(fit.residuals) == 98

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            fit_arima(series([1.0, 2.0, 3.0, 4.0]), ArimaSpec(1, 0, 1))

    def test_missing_values_rejected(self):
        ts = TimeSeries("x", Q0, (float("nan"), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        with pytest.raises(InvalidArgumentError):
            fit_arima(ts, ArimaSpec(0, 0, 0))

    def test_ma_reflected_into_invertible_region(self):
        # theta = 2.5 would be the non-invertible optimum; the fit must land
        # on the invertible mirror 1/2.5 = 0.4 side.
        y = ma1(2.5, 3000, seed=77)
        fit = fit_arima(series(y), ArimaSpec(0, 0, 1))
        assert abs(fit.ma_coeffs[0]) <= 1.0


class TestCssGradient:
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_matches_central_differences(self, p, q):
        # Independent oracle: the exact gradient against central differences
        # of the objective value, at seeded random points with burn > p.
        rng = np.random.default_rng(100 * p + q)
        for _ in range(5):
            w = 0.3 * np.cumsum(rng.normal(size=60)) + rng.normal(size=60)
            burn = p + int(rng.integers(1, 4))
            objective = _css_objective(w, ArimaSpec(p, 0, q), burn)
            theta = np.concatenate(
                ([rng.normal()], rng.uniform(-0.3, 0.3, p), rng.uniform(-0.6, 0.6, q))
            )
            _, grad = objective(theta)
            numeric = np.empty_like(theta)
            for i in range(len(theta)):
                step = np.zeros_like(theta)
                step[i] = 1e-6 * max(1.0, abs(theta[i]))
                numeric[i] = (objective(theta + step)[0] - objective(theta - step)[0]) / (2 * step[i])
            scale = np.max(np.abs(numeric))
            assert np.max(np.abs(grad - numeric)) <= 1e-6 * scale

    def test_bfgs_uses_the_exact_gradient(self, monkeypatch):
        # A finite-difference gradient costs one extra objective call per
        # parameter; with the exact one BFGS makes about one call per iteration.
        from scipy import optimize

        minimize = optimize.minimize
        calls = []

        def spy(fun, x0, *args, **kwargs):
            res = minimize(fun, x0, *args, **kwargs)
            calls.append((kwargs.get("jac"), res))
            return res

        monkeypatch.setattr(optimize, "minimize", spy)
        y = 1400.0 + np.cumsum(np.random.default_rng(0).normal(8.0, 60.0, 48))
        select_orders(difference(series(y)), 2, 2)
        assert len(calls) == 6  # the (p, q) candidates with q >= 1
        for jac, res in calls:
            assert jac is True or callable(jac)
            assert res.nfev <= 4 * (res.nit + 1), (res.nfev, res.nit)


class TestForecast:
    def test_drift_forecast(self):
        fit = ArimaFit(
            ArimaSpec(0, 1, 0), 2.0, (), (), 1.0, 0.0, 0.0,
            TimeSeries("r", Q0, (0.0, 0.0)), True,
        )
        history = series([96.0, 98.0, 100.0])
        assert forecast_arima(fit, history, 3).tolist() == [102.0, 104.0, 106.0]

    def test_ar1_hand_recursion(self):
        fit = ArimaFit(
            ArimaSpec(1, 0, 0), 0.0, (0.5,), (), 1.0, 0.0, 0.0,
            TimeSeries("r", Q0, (0.0, 0.0)), True,
        )
        assert forecast_arima(fit, series([1.0, 2.0, 8.0]), 3).tolist() == [4.0, 2.0, 1.0]

    def test_training_one_step_errors_equal_residuals(self):
        y = np.cumsum(ar1(0.4, 250, seed=13, c=0.5))
        ts = series(y)
        fit = fit_arima(ts, ArimaSpec(1, 1, 1))
        # One-step forecasts from each growing prefix; the shortest prefix
        # that seeds the recursion (d + p + 1 = 3 values) predicts the second
        # residual's quarter.
        first = fit.residuals.start + 1
        preds = [forecast_arima(fit, ts.window(ts.start, q - 1), 1)[0]
                 for q in (first + h for h in range(ts.end - first + 1))]
        errors = ts.to_array()[first - ts.start :] - np.asarray(preds)
        np.testing.assert_allclose(errors, fit.residuals.to_array()[1:], atol=1e-9)

    def test_dynamic_converges_to_process_mean(self):
        y = ar1(0.7, 3000, seed=44, c=1.5)
        fit = fit_arima(series(y), ArimaSpec(1, 0, 0))
        fc = forecast_arima(fit, series(y), 200)
        mean = fit.constant / (1.0 - sum(fit.ar_coeffs))
        gaps = np.abs(fc - mean)
        assert gaps[-1] < 1e-6
        assert np.all(gaps[1:] <= gaps[:-1] + 1e-12)

    def test_zero_horizon_rejected(self):
        fit = ArimaFit(
            ArimaSpec(0, 1, 0), 2.0, (), (), 1.0, 0.0, 0.0,
            TimeSeries("r", Q0, (0.0, 0.0)), True,
        )
        with pytest.raises(InvalidArgumentError):
            forecast_arima(fit, series([1.0, 2.0]), 0)


class TestSelectOrders:
    def test_white_noise_selects_zero(self):
        ts = series(np.random.default_rng(1).normal(0, 1, 500))
        spec = select_orders(ts, 2, 2)
        assert (spec.p, spec.q) == (0, 0)

    def test_ar2_selected(self):
        rng = np.random.default_rng(6)
        x = np.zeros(3000)
        e = rng.normal(0, 1, 3000)
        for i in range(2, 3000):
            x[i] = 0.5 * x[i - 1] + 0.3 * x[i - 2] + e[i]
        spec = select_orders(series(x), 3, 3)
        assert (spec.p, spec.q) == (2, 0)

    def test_empty_grid(self):
        ts = series(np.random.default_rng(2).normal(size=50))
        spec = select_orders(ts, 0, 0)
        assert (spec.p, spec.d, spec.q) == (0, 0, 0)

    def test_grid_bound(self):
        with pytest.raises(InvalidArgumentError):
            select_orders(series(np.arange(50.0)), 6, 0)

    def test_differenced_drift_walk_mostly_zero(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = 1400.0 + np.cumsum(rng.normal(8.0, 60.0, 48))
            spec = select_orders(difference(series(y)), 2, 2)
            hits += (spec.p, spec.q) == (0, 0)
        assert hits >= 18
