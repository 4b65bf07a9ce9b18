import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import crimecast
from crimecast.arima import (
    MAX_GRID_ORDER,
    ArimaFit,
    ArimaSpec,
    _BOUNDARY,
    _Css,
    _pacf_coefficients,
    _pacf_inverse,
    _pacf_transform,
    fit_arima,
    forecast_arima,
    select_orders,
)
from crimecast.exceptions import DegenerateInputError, InvalidArgumentError
from crimecast.series import difference

from conftest import ar1, css_residuals_plainly, series


def ma1(theta: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + 1)
    return e[1:] + theta * e[:-1]


def coefficients(x: np.ndarray, p: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The (c, ar, ma) of the solver's coordinates x = (c, u_ar, u_ma)."""
    return float(x[0]), _pacf_transform(x[1 : 1 + p])[0], -_pacf_transform(x[1 + p :])[0]


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
            for r in fit.residuals
        )
        assert fit.log_likelihood == pytest.approx(ll, abs=1e-6)

    def test_residual_frame(self):
        y = ar1(0.5, 100, seed=3)
        fit = fit_arima(series(np.cumsum(y)), ArimaSpec(1, 1, 0))
        # d=1 and p=1 consume the first two level positions: the first
        # residual is that of level position 2, the difference w[1].
        w = np.diff(np.cumsum(y))
        assert fit.residuals[0] == pytest.approx(w[1] - fit.constant - fit.ar_coeffs[0] * w[0], abs=1e-12)
        assert len(fit.residuals) == 98

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            fit_arima(series([1.0, 2.0, 3.0, 4.0]), ArimaSpec(1, 0, 1))

    def test_missing_values_rejected(self):
        ts = series([float("nan"), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(InvalidArgumentError):
            fit_arima(ts, ArimaSpec(0, 0, 0))

    def test_ma_reflected_into_invertible_region(self):
        # theta = 2.5 is not invertible; the fit, which only visits invertible
        # MA polynomials, lands near its invertible mirror 1/2.5 = 0.4.
        y = ma1(2.5, 3000, seed=77)
        fit = fit_arima(series(y), ArimaSpec(0, 0, 1))
        assert fit.converged and not fit.ma_boundary
        assert abs(fit.ma_coeffs[0] - 0.4) < 0.1

    def test_pure_ar_on_the_boundary_has_not_converged(self):
        # phi = 0.99997 is a stationary root, but its partial autocorrelation
        # lies past 1 - 1e-4, the boundary at which an MA fit's AR side has
        # not converged either.
        rng = np.random.default_rng(0)
        w = 1000.0 * 0.99997 ** np.arange(120) + rng.normal(0.0, 1e-6, 120)
        fit = fit_arima(series(w), ArimaSpec(1, 0, 0))
        assert fit.ar_coeffs[0] == pytest.approx(0.99997, abs=1e-7)
        assert _BOUNDARY <= fit.ar_coeffs[0] < 1.0
        assert not fit.converged


class TestCssResiduals:
    @seed(20261027)
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agree_with_a_plain_recursion(self, data):
        # Independent oracle: conftest's recursion, for p and q in 0..3, down
        # to a single residual, as `forecast_arima` may ask of a short history.
        p, q = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        w = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=p + 1, max_size=40)))
        c = data.draw(st.floats(-1e3, 1e3))
        ar = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p)))
        # |theta_j| <= 0.2 keeps sum |theta_j| < 1, so the recursion is bounded
        # by `scale`; near-zero residuals are compared to it, not to themselves.
        ma = np.array(data.draw(st.lists(st.floats(-0.2, 0.2), min_size=q, max_size=q)))
        scale = (abs(c) + (1.0 + np.abs(ar).sum()) * np.abs(w).max()) / (1.0 - np.abs(ma).sum())
        got = _Css(w, p, q).residuals(c, ar, ma)
        np.testing.assert_allclose(got, css_residuals_plainly(w, c, ar, ma), rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_a_fit_keeps_the_residuals_of_its_coefficients(self, p, q):
        # The fit reports the residuals of the solver's last point, with no
        # second filter pass; a fresh object at the reported coefficients
        # gives them byte for byte.
        w = ar1(0.5, 90, seed=10 * p + q) + ma1(0.4, 90, seed=q)
        fit = fit_arima(series(w), ArimaSpec(p, 0, q), _burn=3)
        fresh = _Css(w, p, q).residuals(fit.constant, np.array(fit.ar_coeffs), np.array(fit.ma_coeffs))
        assert fit.residuals.tobytes() == fresh[3 - p :].tobytes()

    def test_a_forecast_starts_from_the_plain_residuals(self):
        # The first two forecasts of an ARIMA(1,1,2) read the last two
        # innovations of the history, here from conftest's recursion.
        y = np.cumsum(ma1(0.6, 200, seed=9) + 0.3)
        fit = fit_arima(series(y), ArimaSpec(1, 1, 2))
        w = np.diff(y)
        e = css_residuals_plainly(w, fit.constant, fit.ar_coeffs, fit.ma_coeffs)
        c, (phi,), (t1, t2) = fit.constant, fit.ar_coeffs, fit.ma_coeffs
        w1 = c + phi * w[-1] + t1 * e[-1] + t2 * e[-2]
        w2 = c + phi * w1 + t2 * e[-1]
        want = [y[-1] + w1, y[-1] + w1 + w2]
        np.testing.assert_allclose(forecast_arima(fit, series(y), 2), want, rtol=1e-12)


class TestCssJacobian:
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_matches_central_differences(self, p, q):
        # Independent oracle: the exact residual Jacobian in the solver's
        # coordinates x = (c, u_ar, u_ma) against central differences of the
        # residuals, at seeded random points with burn > p.
        rng = np.random.default_rng(100 * p + q)
        for _ in range(5):
            w = 0.3 * np.cumsum(rng.normal(size=60)) + rng.normal(size=60)
            burn = p + int(rng.integers(1, 4))
            problem = _Css(w, p, q, burn - p)
            x = np.concatenate(([rng.normal()], rng.uniform(-1.5, 1.5, p + q)))
            jac = problem.jacobian(x, problem.residuals(*coefficients(x, p)))
            numeric = np.empty_like(jac)
            for i in range(len(x)):
                step = np.zeros_like(x)
                step[i] = 1e-6 * max(1.0, abs(x[i]))
                diff = problem.residuals(*coefficients(x + step, p)) - problem.residuals(*coefficients(x - step, p))
                numeric[i] = diff[problem.lo :] / (2 * step[i])
            scale = np.max(np.abs(numeric))
            assert np.max(np.abs(jac - numeric)) <= 1e-6 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=MAX_GRID_ORDER))
    def test_transform_is_stationary(self, u):
        # The roots of 1 - sum phi_k z^k lie outside the unit circle when
        # those of z^p - sum phi_k z^(p-k), their reciprocals, lie inside.
        # np.roots resolves a modulus of 1 - 1e-6 only roughly, so u stays
        # where |r_k| = |tanh(u_k)| <= 0.995.
        phi, _ = _pacf_transform(np.array(u))
        assert np.all(np.abs(np.roots(np.concatenate(([1.0], -phi)))) < 1.0)
        np.testing.assert_allclose(_pacf_transform(_pacf_inverse(phi))[0], phi, rtol=0.0, atol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=MAX_GRID_ORDER))
    def test_coefficients_equal_the_transform_exactly(self, u):
        # The trial points of a fit take the coefficients without their
        # derivative; the fits stay the same only if both agree bit for bit.
        assert _pacf_coefficients(np.array(u)) == _pacf_transform(np.array(u))[0].tolist()

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_reused_buffers_give_fresh_results(self, p, q):
        # An object refills its MA band and derivative rows at every call, so
        # a call leaves nothing behind that changes the next one.
        rng = np.random.default_rng(10 * p + q)
        w = 0.3 * np.cumsum(rng.normal(size=60)) + rng.normal(size=60)
        x1, x2 = (np.concatenate(([rng.normal()], rng.uniform(-1.5, 1.5, p + q))) for _ in range(2))
        e2 = _Css(w, p, q, 2).residuals(*coefficients(x2, p))
        problem = _Css(w, p, q, 2)
        first = problem.residuals(*coefficients(x1, p))
        jac = problem.jacobian(x2, e2)
        again = problem.residuals(*coefficients(x1, p))
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() == _Css(w, p, q, 2).residuals(*coefficients(x1, p)).tobytes()
        fresh = _Css(w, p, q, 2).jacobian(x2, e2)
        assert jac.tobytes() == fresh.tobytes()
        assert problem.jacobian(x2, e2).tobytes() == fresh.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=MAX_GRID_ORDER))
    def test_inverse_undoes_transform(self, u):
        # The step-down divides by 1 - r_k^2 at each order, so u itself comes
        # back to 1e-8 only while no r_k is close to +-1 (here |r_k| <= 0.965).
        phi, _ = _pacf_transform(np.array(u))
        np.testing.assert_allclose(_pacf_inverse(phi), u, rtol=0.0, atol=1e-8)

    def test_inverse_refuses_a_boundary_polynomial(self):
        assert _pacf_inverse(np.array([1.0])) is None
        assert _pacf_inverse(np.array([0.0, -_BOUNDARY])) is None

    @pytest.mark.parametrize("order,ar,ma", [((1, 1), [0.6], [0.3]), ((0, 2), [], [0.5, -0.3])])
    def test_no_lower_ssr_from_nelder_mead(self, order, ar, ma):
        # Independent oracle: Nelder-Mead on the CSS of (c, phi, theta), from
        # random stationary and invertible starts, with its own residual
        # recursion, finds no lower SSR than the fit.
        from scipy import optimize

        p, q = order
        rng = np.random.default_rng(31 + p)
        e = rng.normal(0.0, 1.0, 400)
        y = np.zeros(400)
        for t in range(2, 400):
            y[t] = 2.0 + sum(a * y[t - 1 - i] for i, a in enumerate(ar)) + e[t]
            y[t] += sum(m * e[t - 1 - j] for j, m in enumerate(ma))
        y = y[200:]
        fit = fit_arima(series(y), ArimaSpec(p, 0, q))
        assert fit.converged and not fit.ma_boundary
        ssr_fit = float(np.square(fit.residuals).sum())

        def inside(coeffs):
            roots = np.roots(np.concatenate(([1.0], coeffs))[::-1]) if len(coeffs) else []
            return bool(np.all(np.abs(roots) > 1.0))

        def ssr(theta):
            c, phi, th = theta[0], theta[1 : 1 + p], theta[1 + p :]
            if not inside(-phi) or not inside(th):
                return np.inf
            resid = [0.0] * q
            for t in range(p, len(y)):
                value = y[t] - c - sum(phi[i] * y[t - 1 - i] for i in range(p))
                resid.append(value - sum(th[j] * resid[-1 - j] for j in range(q)))
            return float(np.square(resid[q:]).sum())

        for _ in range(5):
            while True:
                start = np.concatenate(([y.mean() + rng.normal()], rng.uniform(-0.9, 0.9, p + q)))
                if np.isfinite(ssr(start)):
                    break
            res = optimize.minimize(ssr, start, method="Nelder-Mead",
                                    options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000})
            assert res.fun >= ssr_fit * (1.0 - 1e-8), (res.fun, ssr_fit)

    def test_order_search_leaves_scipy_optimize_unloaded(self):
        src = Path(crimecast.__file__).parents[1]
        code = (
            "import sys; import numpy as np\n"
            "from crimecast.arima import select_orders\n"
            "w = np.random.default_rng(0).normal(8.0, 60.0, 48)\n"
            "select_orders(w, 2, 2)\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.signal') if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              check=True, timeout=120)
        assert done.stdout.splitlines() == ["['scipy.linalg']"]


class TestForecast:
    def test_drift_forecast(self):
        fit = ArimaFit(
            ArimaSpec(0, 1, 0), 2.0, (), (), 1.0, 0.0, 0.0,
            np.zeros(2), True,
        )
        history = series([96.0, 98.0, 100.0])
        assert forecast_arima(fit, history, 3).tolist() == [102.0, 104.0, 106.0]

    def test_ar1_hand_recursion(self):
        fit = ArimaFit(
            ArimaSpec(1, 0, 0), 0.0, (0.5,), (), 1.0, 0.0, 0.0,
            np.zeros(2), True,
        )
        assert forecast_arima(fit, series([1.0, 2.0, 8.0]), 3).tolist() == [4.0, 2.0, 1.0]

    def test_training_one_step_errors_equal_residuals(self):
        y = np.cumsum(ar1(0.4, 250, seed=13, c=0.5))
        ts = series(y)
        fit = fit_arima(ts, ArimaSpec(1, 1, 1))
        # One-step forecasts from each growing prefix; the shortest prefix
        # that seeds the recursion (d + p + 1 = 3 values) predicts the second
        # residual's position.
        first = len(ts) - len(fit.residuals) + 1
        preds = [forecast_arima(fit, ts[:t], 1)[0] for t in range(first, len(ts))]
        errors = ts[first:] - np.asarray(preds)
        np.testing.assert_allclose(errors, fit.residuals[1:], atol=1e-9)

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
            np.zeros(2), True,
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

    def test_boundary_candidates_dropped_and_counted(self, caplog):
        # On this differenced walk the (1,1), (1,2), (2,1) and (2,2) fits stop
        # with an MA root on the unit circle, where their CSS AIC undercuts
        # every interior fit; kept, they would move the choice off (0,0).
        y = 1400.0 + np.cumsum(np.random.default_rng(2).normal(8.0, 60.0, 48))
        w = difference(series(y))
        assert [fit_arima(w, ArimaSpec(p, 0, q), _burn=2).ma_boundary for p, q in ((1, 1), (2, 2))] == [True, True]
        with caplog.at_level(logging.INFO, logger="crimecast.arima"):
            spec = select_orders(w, 2, 2)
        assert (spec.p, spec.q) == (0, 0)
        assert "after dropping 4 MA boundary and 0 unconverged candidates" in caplog.text

    @pytest.mark.parametrize("level", [logging.WARNING, logging.INFO])
    def test_a_constant_series_raises_at_any_log_level(self, caplog, level):
        with caplog.at_level(level, logger="crimecast.arima"), pytest.raises(DegenerateInputError, match="is constant"):
            select_orders(series([5.0] * 30), 2, 2)

    def test_differenced_drift_walk_mostly_zero(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = 1400.0 + np.cumsum(rng.normal(8.0, 60.0, 48))
            spec = select_orders(difference(series(y)), 2, 2)
            hits += (spec.p, spec.q) == (0, 0)
        assert hits >= 18
