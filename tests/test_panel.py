import warnings

import numpy as np
import pytest

from crimecast.exceptions import CollinearityError, EmptyPanelError, InvalidArgumentError
from crimecast.panel import (
    PanelDataset,
    balance_panel,
    fit_fixed_effects,
    fit_random_effects,
    forecast_panel,
    within,
)
from crimecast.regression import RegressionSpec
from crimecast.stattests import hausman_test

from conftest import Q0, cell

SPEC_X = RegressionSpec("y", (("x", 0),))


def simulate_panel(seed, n_units=10, periods=20, slope=2.0, noise=0.1, sigma_u=1.0, endog=0.0):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_units):
        ui = rng.normal(0.0, sigma_u)
        x = rng.normal(0.0, 1.0, periods) + endog * ui
        y = 1.0 + ui + slope * x + rng.normal(0.0, noise, periods)
        for t in range(periods):
            rows.append((f"U{u:02d}", Q0 + t, {"y": y[t], "x": x[t]}))
    return PanelDataset.from_rows(rows)


def slope(fit, name: str) -> float:
    return fit.slopes[fit.slope_names.index(name)]


def present_quarters(panel: PanelDataset, unit: str) -> list:
    """The quarters with an observation of `unit`, read from the row mask."""
    return [panel.start + int(t) for t in np.flatnonzero(panel.present[panel.unit_names.index(unit)])]


def lsdv_oracle(panel: PanelDataset, spec: RegressionSpec) -> np.ndarray:
    """Dummy-variable OLS: slopes from a design with explicit unit dummies."""
    units = panel.unit_names
    ys, xs, dummies = [], [], []
    for i, unit in enumerate(units):
        quarters = present_quarters(panel, unit)
        y_u = np.array([cell(panel, unit, q, spec.dependent) for q in quarters])
        x_u = np.column_stack(
            [
                np.array([cell(panel, unit, q - k, name) for q in quarters[k:]])
                for name, k in spec.terms
            ]
        )
        y_u = y_u[max(k for _, k in spec.terms) :] if any(k for _, k in spec.terms) else y_u
        d = np.zeros((len(y_u), len(units)))
        d[:, i] = 1.0
        ys.append(y_u)
        xs.append(x_u)
        dummies.append(d)
    y = np.concatenate(ys)
    X = np.hstack([np.vstack(xs), np.vstack(dummies)])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    return beta[: len(spec.terms)]


class TestBalance:
    def make_gappy_panel(self, n_units=51, gappy=4, periods=12):
        rows = []
        rng = np.random.default_rng(0)
        for u in range(n_units):
            skip = {3, 7} if u < gappy else set()
            for t in range(periods):
                if t in skip:
                    continue
                rows.append((f"S{u:02d}", Q0 + t, {"fbi_num": float(10 + u + t), "x": rng.normal()}))
        return PanelDataset.from_rows(rows)

    def test_drops_incomplete_units(self):
        panel = self.make_gappy_panel()
        balanced, report = balance_panel(panel, (panel.start, panel.end), "fbi_num")
        assert len(report.retained) == 47
        assert len(report.dropped) == 4
        assert 0.9 < report.retained_share < 1.0

    def test_single_complete_unit(self):
        rows = [("CA", Q0 + t, {"fbi_num": 1.0}) for t in range(8)]
        panel = PanelDataset.from_rows(rows)
        balanced, report = balance_panel(panel, (panel.start, panel.end), "fbi_num")
        assert report.retained == ("CA",)
        assert report.retained_share == 1.0

    def test_idempotent(self):
        panel = self.make_gappy_panel()
        once, _ = balance_panel(panel, (panel.start, panel.end), "fbi_num")
        twice, report = balance_panel(once, (once.start, once.end), "fbi_num")
        assert twice.unit_names == once.unit_names
        assert report.dropped == ()

    def test_all_dropped(self):
        rows = [("CA", Q0, {"y": 1.0}), ("CA", Q0 + 2, {"y": 1.0}),
                ("NY", Q0 + 1, {"y": 1.0})]
        panel = PanelDataset.from_rows(rows)
        with pytest.raises(EmptyPanelError):
            balance_panel(panel, (panel.start, panel.end), "y")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PanelDataset.from_rows([("CA", Q0, {"y": 1.0}), ("CA", Q0, {"y": 2.0})])


class TestFixedEffects:
    def test_slope_recovery(self):
        panel = simulate_panel(seed=1, noise=0.1)
        fit = fit_fixed_effects(within(panel, SPEC_X))
        assert abs(slope(fit, "x") - 2.0) < 0.05

    def test_equals_lsdv_oracle(self):
        for seed in range(5):
            panel = simulate_panel(seed=seed, n_units=6, periods=12, noise=1.0)
            fit = fit_fixed_effects(within(panel, SPEC_X))
            oracle = lsdv_oracle(panel, SPEC_X)
            assert np.max(np.abs(np.asarray(fit.slopes) - oracle)) < 1e-6

    def test_absorbed_regressor_rejected(self):
        rows = []
        rng = np.random.default_rng(4)
        for u in range(4):
            const = float(u)
            for t in range(10):
                rows.append((f"U{u}", Q0 + t, {"y": rng.normal(), "x": const}))
        panel = PanelDataset.from_rows(rows)
        with pytest.raises(CollinearityError):
            fit_fixed_effects(within(panel, SPEC_X))

    def test_lag_trimming_per_unit(self):
        panel = simulate_panel(seed=3, n_units=3, periods=10)
        spec = RegressionSpec("y", (("x", 1),))
        _, usable, first, counts = panel.usable_rows(spec.dependent, spec.terms)
        assert counts.tolist() == [9, 9, 9]
        assert first.tolist() == [1, 1, 1]
        assert not usable[:, 0].any()

    def test_needs_two_units(self):
        rows = [("CA", Q0 + t, {"y": float(t), "x": float(t % 3)}) for t in range(10)]
        with pytest.raises(InvalidArgumentError):
            fit_fixed_effects(within(PanelDataset.from_rows(rows), SPEC_X))


class TestRandomEffects:
    def test_zero_sigma_u_reduces_to_pooled(self):
        panel = simulate_panel(seed=11, sigma_u=0.0, noise=1.0, n_units=12, periods=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_random_effects(within(panel, SPEC_X))
        assert fit.theta < 0.35
        # pooled OLS oracle
        ys, xs = [], []
        for unit in panel.unit_names:
            for q in present_quarters(panel, unit):
                ys.append(cell(panel, unit, q, "y"))
                xs.append(cell(panel, unit, q, "x"))
        X = np.column_stack([np.ones(len(ys)), xs])
        pooled = np.linalg.lstsq(X, np.asarray(ys), rcond=None)[0]
        assert abs(slope(fit, "x") - pooled[1]) < 0.05

    def test_theta_one_limit_matches_fixed_effects(self):
        panel = simulate_panel(seed=13, sigma_u=3.0, noise=1e-4, n_units=8, periods=25)
        re = fit_random_effects(within(panel, SPEC_X))
        fe = fit_fixed_effects(within(panel, SPEC_X))
        assert re.theta >= 0.999
        assert abs(slope(re, "x") - slope(fe, "x")) < 1e-4

    def test_theta_in_unit_interval(self):
        panel = simulate_panel(seed=17, sigma_u=1.0, noise=1.0)
        fit = fit_random_effects(within(panel, SPEC_X))
        assert 0.0 <= fit.theta <= 1.0

    def test_negative_sigma_u_truncated_with_warning(self):
        panel = simulate_panel(seed=23, sigma_u=0.0, noise=1.0, n_units=5, periods=8)
        with pytest.warns(UserWarning, match="sigma2_u"):
            fit = fit_random_effects(within(panel, SPEC_X))
        assert fit.sigma2_u == 0.0
        assert fit.sigma2_u_truncated is True

    def test_unbalanced_rejected(self):
        panel = simulate_panel(seed=2, n_units=3, periods=10)
        rows = [
            (u, q, {"y": cell(panel, u, q, "y"), "x": cell(panel, u, q, "x")})
            for u in panel.unit_names
            for q in present_quarters(panel, u)
            if not (u == "U00" and q == Q0)
        ]
        with pytest.raises(InvalidArgumentError):
            fit_random_effects(within(PanelDataset.from_rows(rows), SPEC_X))

    def test_matches_explicit_gls(self):
        """GLS with Omega = s2e*I + s2u*J_T per unit, at the fit's own variance
        components, gives the quasi-demeaned slopes and intercept."""
        panel = simulate_panel(seed=31, n_units=9, periods=14, noise=1.0, sigma_u=1.5)
        spec = RegressionSpec("y", (("x", 0), ("x", 1)))
        fit = fit_random_effects(within(panel, spec))
        assert fit.sigma2_u > 0.0
        assert fit.sigma2_u_truncated is False
        t_len = 13
        omega_inv = np.linalg.inv(fit.sigma2_e * np.eye(t_len) + fit.sigma2_u * np.ones((t_len, t_len)))
        xtx, xty = np.zeros((3, 3)), np.zeros(3)
        for unit in panel.unit_names:
            quarters = present_quarters(panel, unit)[1:]
            y_u = np.array([cell(panel, unit, q, "y") for q in quarters])
            x_u = np.array([[1.0] + [cell(panel, unit, q - k, name) for name, k in spec.terms] for q in quarters])
            xtx += x_u.T @ omega_inv @ x_u
            xty += x_u.T @ omega_inv @ y_u
        gls = np.linalg.solve(xtx, xty)
        assert abs(gls[0] - fit.intercept) < 1e-8
        np.testing.assert_allclose(fit.slopes, gls[1:], rtol=0.0, atol=1e-8)

    def test_hausman_exogenous_rarely_rejects(self):
        rejections = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(40):
                panel = simulate_panel(seed=seed, noise=1.0, endog=0.0)
                step = within(panel, SPEC_X)
                fe, re = fit_fixed_effects(step), fit_random_effects(step)
                h = hausman_test(fe.slopes, fe.slope_cov, re.slopes, re.slope_cov)
                rejections += h.p_value < 0.05
        assert rejections <= 4


class TestSharedWithinStep:
    @pytest.mark.parametrize("seed, sigma_u", [(31, 1.5), (1, 0.0)], ids=["sigma2-u-positive", "sigma2-u-truncated"])
    def test_fits_of_one_step_equal_fits_of_their_own_steps(self, seed, sigma_u):
        """The fixed- and random-effects fits of one within step, in either
        order, equal bit for bit the fits that each build their own step."""
        panel = simulate_panel(seed=seed, n_units=9, periods=14, noise=1.0, sigma_u=sigma_u)
        spec = RegressionSpec("y", (("x", 0), ("x", 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            separate = [fit_fixed_effects(within(panel, spec)), fit_random_effects(within(panel, spec))]
            step = within(panel, spec)
            re_first = fit_random_effects(step)
            shared = [fit_fixed_effects(step), fit_random_effects(step), re_first]
        for a, b in zip(shared, [*separate, separate[1]]):
            assert a == b
            np.testing.assert_array_equal(a.slope_cov, b.slope_cov)
        assert separate[1].sigma2_u_truncated is (sigma_u == 0.0)


class TestRowOrder:
    def test_shuffled_rows_give_identical_fits(self):
        panel = simulate_panel(seed=41, n_units=6, periods=15, noise=1.0)
        rows = [
            (u, q, {"y": cell(panel, u, q, "y"), "x": cell(panel, u, q, "x")})
            for u in panel.unit_names
            for q in present_quarters(panel, u)
        ]
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled = PanelDataset.from_rows([rows[i] for i in order])
        spec = RegressionSpec("y", (("x", 0), ("x", 1)))
        for fit in (fit_fixed_effects, fit_random_effects):
            a, b = fit(within(panel, spec)), fit(within(shuffled, spec))
            assert a == b
            np.testing.assert_array_equal(a.slope_cov, b.slope_cov)


class TestForecastPanel:
    def test_noiseless_recovery(self):
        panel = simulate_panel(seed=5, noise=0.0, periods=24)
        train = panel.restricted(panel.unit_names, (Q0, Q0 + 19))
        fit = fit_fixed_effects(within(train, SPEC_X))
        forecasts = forecast_panel(fit, panel, (Q0 + 20, Q0 + 23))
        assert forecasts.shape == (len(panel.unit_names), 4)
        for unit, fc in zip(panel.unit_names, forecasts):
            actual = [cell(panel, unit, Q0 + 20 + h, "y") for h in range(4)]
            np.testing.assert_allclose(fc, actual, atol=1e-8)

    def test_unit_absent_from_the_fit_rejected(self):
        panel = simulate_panel(seed=6, n_units=4, periods=12)
        train = panel.restricted(panel.unit_names[:3], (Q0, Q0 + 11))
        fit = fit_fixed_effects(within(train, SPEC_X))
        with pytest.raises(InvalidArgumentError, match="unit 'U03' is absent"):
            forecast_panel(fit, panel, (Q0 + 4, Q0 + 5))

    def test_missing_predictor_names_unit_and_quarter(self):
        panel = simulate_panel(seed=9, n_units=3, periods=10)
        fit = fit_fixed_effects(within(panel, SPEC_X))
        with pytest.raises(InvalidArgumentError, match="U00"):
            forecast_panel(fit, panel, (Q0 + 10, Q0 + 10))


class TestWithinAlgebra:
    def test_unit_effects_reconstruct_unit_means(self):
        panel = simulate_panel(seed=22, n_units=5, periods=12, noise=0.3)
        fit = fit_fixed_effects(within(panel, SPEC_X))
        for unit in panel.unit_names:
            quarters = present_quarters(panel, unit)
            y_mean = float(np.mean([cell(panel, unit, q, "y") for q in quarters]))
            x_mean = float(np.mean([cell(panel, unit, q, "x") for q in quarters]))
            assert fit.unit_effects[unit] + slope(fit, "x") * x_mean == pytest.approx(y_mean, abs=1e-10)
