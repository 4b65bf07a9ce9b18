import numpy as np
import pytest

from crimecast.exceptions import CollinearityError, CrimecastError, InvalidArgumentError
from crimecast.regression import (
    Dataset,
    RegressionSpec,
    build_model_spec,
    fit_ols,
    forecast_regression,
)
from conftest import Q0


def gauss_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force normal-equations oracle: Gaussian elimination with
    partial pivoting, independent of the QR estimation path."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    k = len(b)
    for i in range(k):
        piv = i + int(np.argmax(np.abs(A[i:, i])))
        A[[i, piv]] = A[[piv, i]]
        b[[i, piv]] = b[[piv, i]]
        for j in range(i + 1, k):
            f = A[j, i] / A[i, i]
            A[j] -= f * A[i]
            b[j] -= f * b[i]
    out = np.zeros(k)
    for i in range(k - 1, -1, -1):
        out[i] = (b[i] - A[i, i + 1 :] @ out[i + 1 :]) / A[i, i]
    return out


def dataset_from_matrix(y: np.ndarray, X: np.ndarray, start=Q0) -> tuple[Dataset, RegressionSpec]:
    names = [f"x{j}" for j in range(X.shape[1])]
    spec = RegressionSpec("y", tuple((n, 0) for n in names))
    return Dataset.align(start, {"y": y, **dict(zip(names, X.T))}), spec


class TestModelSpecs:
    def test_model2_coefficient_count(self):
        spec = build_model_spec(2)
        assert len(spec.terms) + 1 == 12  # and the intercept

    def test_model4_coefficient_count(self):
        spec = build_model_spec(4)
        assert len(spec.terms) + 1 == 15  # and the intercept

    def test_model3_adds_exactly_event_terms(self):
        extra = set(build_model_spec(3).terms) - set(build_model_spec(2).terms)
        assert {name for name, _ in extra} == {"event_detected_num", "news_num"}

    def test_nesting(self):
        assert set(build_model_spec(2).terms) < set(build_model_spec(3).terms)
        assert set(build_model_spec(3).terms) < set(build_model_spec(4).terms)

    def test_model5_is_model4_with_ar_errors(self):
        m4, m5 = build_model_spec(4), build_model_spec(5)
        assert m4.terms == m5.terms
        assert (m4.ar_error_order, m5.ar_error_order) == (0, 1)

    def test_population_unlagged(self):
        assert ("population", 0) in build_model_spec(2).terms

    def test_unknown_id(self):
        with pytest.raises(InvalidArgumentError):
            build_model_spec(9)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RegressionSpec("y", (("x", 0), ("x", 0)))


class TestFitOls:
    def test_exact_line(self):
        x = np.arange(1.0, 11.0)
        ds, spec = dataset_from_matrix(3.0 + 2.0 * x, x[:, None])
        fit = fit_ols(ds, spec)
        assert fit.coefficients == pytest.approx((3.0, 2.0), abs=1e-10)
        assert np.max(np.abs(fit.residuals)) < 1e-10
        assert fit.adj_r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(15, 51))
            k = int(rng.integers(1, 9))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            ds, spec = dataset_from_matrix(y, X)
            fit = fit_ols(ds, spec)
            Xi = np.column_stack([np.ones(n), X])
            oracle = gauss_solve(Xi.T @ Xi, Xi.T @ y)
            worst = max(worst, float(np.max(np.abs(np.asarray(fit.coefficients) - oracle))))
        assert worst < 1e-8

    def test_collinearity_names_redundant_column(self, rng):
        x1 = rng.normal(size=20)
        ds = Dataset.align(Q0, {"y": 1.0 + x1, "x1": x1, "x2": 2.0 * x1})
        with pytest.raises(CollinearityError) as err:
            fit_ols(ds, RegressionSpec("y", (("x1", 0), ("x2", 0))))
        assert "x2" in err.value.columns

    def test_residuals_orthogonal_to_regressors(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        ds, spec = dataset_from_matrix(y, X)
        fit = fit_ols(ds, spec)
        e = fit.residuals
        scale = np.linalg.norm(e) * np.linalg.norm(X, axis=0)
        dots = np.abs(X.T @ e)
        assert np.all(dots <= 1e-6 * np.maximum(scale, 1.0))
        assert abs(e.mean()) < 1e-8

    def test_r2_never_decreases_with_regressor(self, rng):
        n = 60
        X = rng.normal(size=(n, 3))
        y = X[:, 0] * 0.5 + rng.normal(size=n)
        sse = []
        for k in (1, 2, 3):
            ds, spec = dataset_from_matrix(y, X[:, :k])
            fit = fit_ols(ds, spec)
            sse.append(float(fit.residuals @ fit.residuals))
        assert sse[0] >= sse[1] >= sse[2]

    def test_affine_rescale_invariance(self, rng):
        n = 50
        X = rng.normal(size=(n, 2))
        y = 1.0 + X @ np.array([0.5, -1.2]) + rng.normal(size=n)
        ds, spec = dataset_from_matrix(y, X)
        fit = fit_ols(ds, spec)
        X2 = X.copy()
        X2[:, 0] *= 10.0
        ds2, spec2 = dataset_from_matrix(y, X2)
        fit2 = fit_ols(ds2, spec2)
        assert fit2.adj_r_squared == pytest.approx(fit.adj_r_squared, rel=1e-9)
        assert fit2.coefficients[1] == pytest.approx(fit.coefficients[1] / 10.0, rel=1e-9)

    def test_lagged_term_drops_first_row(self, rng):
        n = 20
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        ds = Dataset.align(Q0, {"y": y, "x": x})
        fit = fit_ols(ds, RegressionSpec("y", (("x", 1),)))
        assert fit.n_used == n - 1
        assert fit.end - (len(fit.residuals) - 1) == Q0 + 1

    def test_too_few_rows(self, rng):
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        ds, spec = dataset_from_matrix(y, X)
        with pytest.raises(InvalidArgumentError):
            fit_ols(ds, spec)


class TestAr1Errors:
    def make_fixture(self, seed=30, n=120, rho=0.7):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        e = np.zeros(n)
        innov = rng.normal(0.0, 0.5, n)
        for i in range(1, n):
            e[i] = rho * e[i - 1] + innov[i]
        y = 2.0 + 1.5 * x + e
        ds = Dataset.align(Q0, {"y": y, "x": x})
        return ds, RegressionSpec("y", (("x", 0),), ar_error_order=1)

    def test_recovers_structure(self):
        ds, spec = self.make_fixture()
        fit = fit_ols(ds, spec)
        assert fit.rho is not None and 0.4 < fit.rho < 0.9
        assert abs(fit.coefficients[1] - 1.5) < 0.2

    def test_innovation_mean_zero(self):
        ds, spec = self.make_fixture()
        fit = fit_ols(ds, spec)
        assert abs(float(np.mean(fit.residuals))) < 1e-8

    def test_matches_two_stage_oracle(self):
        # Independent re-implementation: one extra Cochrane-Orcutt sweep from
        # the fitted rho must reproduce the fitted coefficients (fixed point).
        ds, spec = self.make_fixture(seed=31, n=80)
        fit = fit_ols(ds, spec)
        y = ds.values[0, :, ds.names.index("y")]
        x = ds.values[0, :, ds.names.index("x")]
        X = np.column_stack([np.ones(len(y)), x])
        rho = fit.rho
        ys = y[1:] - rho * y[:-1]
        Xs = X[1:] - rho * X[:-1]
        oracle = np.linalg.lstsq(Xs, ys, rcond=None)[0]
        assert np.max(np.abs(oracle - np.asarray(fit.coefficients))) < 1e-6


    @pytest.mark.parametrize(
        "rho, message",
        [
            (1.02, r"^the AR\(1\)-error fit did not converge in 50 Cochrane-Orcutt rounds \(rho 1\.02\d*\)$"),
            (1.05, r"^the AR\(1\)-error fit ended at rho 1\.05\d*, outside \(-1, 1\)$"),
        ],
        ids=["still-moving", "explosive"],
    )
    def test_unconverged_or_explosive_rho_rejected(self, rho, message):
        ds, spec = self.make_fixture(rho=rho)
        with pytest.raises(CrimecastError, match=message):
            fit_ols(ds, spec)

class TestForecastRegression:
    def test_intercept_only_prediction(self):
        ds = Dataset.align(Q0, {"y": [7.0] * 20})
        fit = fit_ols(ds, RegressionSpec("y", ()))
        fc = forecast_regression(fit, ds, (Q0 + 10, Q0 + 13))
        assert fc == pytest.approx([7.0] * 4, abs=1e-9)

    def test_exact_line_extended(self):
        n, horizon = 16, 4
        x = np.arange(1.0, n + horizon + 1)
        y = 3.0 + 2.0 * x
        full = Dataset.align(Q0, {"y": [*y[:n], *[float("nan")] * horizon], "x": x})
        fit = fit_ols(full.window(Q0, Q0 + n - 1), RegressionSpec("y", (("x", 0),)))
        fc = forecast_regression(fit, full, (Q0 + n, Q0 + n + horizon - 1))
        np.testing.assert_allclose(fc, y[n:], atol=1e-9)

    def test_missing_predictor_named(self, rng):
        n = 20
        ds = Dataset.align(Q0, {"y": rng.normal(size=n), "x": rng.normal(size=n)})
        fit = fit_ols(ds, RegressionSpec("y", (("x", 0),)))
        with pytest.raises(InvalidArgumentError, match="x"):
            forecast_regression(fit, ds, (Q0 + n, Q0 + n))

    def test_ar1_error_forecast_matches_hand_rolled(self):
        # 20-row fixture: prediction must equal x'b + rho^h * e_T beyond the
        # last observed dependent value.
        rng = np.random.default_rng(8)
        n, horizon = 20, 3
        x = rng.normal(size=n + horizon)
        e = np.zeros(n)
        for i in range(1, n):
            e[i] = 0.6 * e[i - 1] + rng.normal(0, 0.3)
        y = 1.0 + 2.0 * x[:n] + e
        full = Dataset.align(Q0, {"y": [*y, *[float("nan")] * horizon], "x": x})
        spec = RegressionSpec("y", (("x", 0),), ar_error_order=1)
        fit = fit_ols(full.window(Q0, Q0 + n - 1), spec)
        fc = forecast_regression(fit, full, (Q0 + n, Q0 + n + horizon - 1))
        b0, b1 = fit.coefficients
        e_hand = y - (b0 + b1 * x[:n])
        expected = []
        e_prev = e_hand[-1]
        for h in range(horizon):
            expected.append(b0 + b1 * x[n + h] + fit.rho * e_prev)
            e_prev = fit.rho * e_prev
        np.testing.assert_allclose(fc, expected, atol=1e-9)

    def test_ar1_error_forecast_ignores_the_holdout_dependent(self):
        # The forecast runs from the fit's last quarter on the fitted values:
        # the same whether the frame holds the holdout's actual values or NaN.
        rng = np.random.default_rng(9)
        n, horizon = 24, 4
        x = rng.normal(size=n + horizon)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.2, n + horizon)
        observed, masked = (
            Dataset.align(Q0, {"y": ys, "x": x})
            for ys in (y, [*y[:n], *[float("nan")] * horizon])
        )
        fit = fit_ols(observed.window(Q0, Q0 + n - 1), RegressionSpec("y", (("x", 0),), ar_error_order=1))
        span = (Q0 + n, Q0 + n + horizon - 1)
        fc = forecast_regression(fit, observed, span)
        np.testing.assert_array_equal(fc, forecast_regression(fit, masked, span))
        # A later start gives the tail of the same forecast.
        np.testing.assert_array_equal(forecast_regression(fit, masked, (Q0 + n + 2, span[1])), fc[2:])

    def test_ar1_error_span_must_start_after_the_fit(self):
        rng = np.random.default_rng(10)
        n = 24
        x = rng.normal(size=n)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.2, n)
        full = Dataset.align(Q0, {"y": y, "x": x})
        last = Q0 + n - 5
        fit = fit_ols(full.window(Q0, last), RegressionSpec("y", (("x", 0),), ar_error_order=1))
        assert fit.end == last
        for start in (Q0, last):
            with pytest.raises(InvalidArgumentError, match=f"after the fit's last quarter {last}, not {start}$"):
                forecast_regression(fit, full, (start, Q0 + n - 1))


class TestDatasetIO:
    def test_wide_csv_roundtrip(self, tmp_path, rng):
        ds, _ = dataset_from_matrix(rng.normal(size=8), rng.normal(size=(8, 2)))
        lines = ["year,quarter," + ",".join(ds.names)]
        for t in range(8):
            q = ds.start + t
            lines.append(f"{q.year},{q.quarter}," + ",".join(repr(float(v)) for v in ds.values[0, t]))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        back = Dataset.from_csv(path)
        assert back.names == ds.names
        np.testing.assert_allclose(back.values[0, :, back.names.index("y")], ds.values[0, :, ds.names.index("y")])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(InvalidArgumentError, match="one length"):
            Dataset.align(Q0, {"a": [1.0, 2.0], "b": [1.0]})
