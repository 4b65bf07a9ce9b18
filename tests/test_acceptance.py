"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every numeric check is against an oracle, a simulation, or a stated
tolerance; report layouts are pinned by golden files.
"""

import datetime as dt
import json
import time
import warnings
from contextlib import contextmanager

import numpy as np

from crimecast.arima import ArimaSpec, fit_arima, select_orders
from crimecast.cli import EXIT_OK, main
from crimecast.evaluation import mape, rmse
from crimecast.geo import load_gazetteer, resolve_state
from crimecast.panel import fit_fixed_effects, fit_random_effects, within
from crimecast.regression import Dataset, RegressionSpec, build_model_spec, fit_ols, forecast_regression
from crimecast.series import Quarter, decompose_additive, difference
from crimecast.signals import ArticleRecord, aggregate_by_state, aggregate_quarterly, load_articles, tally
from crimecast.stattests import adf_test, cohens_kappa, durbin_watson, hausman_test, ljung_box

from conftest import FIXTURES, GAZETTEER, GOLDEN, Q0, corpus_of, series
from test_panel import lsdv_oracle, simulate_panel
from test_regression import dataset_from_matrix, gauss_solve

CONFIG = FIXTURES / "config.json"


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number:02d}: {description} ({elapsed:.2f}s)")


def test_criterion_01_ols_oracle_equivalence():
    with criterion(1, "OLS matches the normal-equations oracle on 100 fixtures, <1e-8"):
        rng = np.random.default_rng(20260801)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(12, 51))
            k = int(rng.integers(1, 9))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            ds, spec = dataset_from_matrix(y, X)
            fit = fit_ols(ds, spec)
            Xi = np.column_stack([np.ones(n), X])
            oracle = gauss_solve(Xi.T @ Xi, Xi.T @ y)
            worst = max(worst, float(np.max(np.abs(np.asarray(fit.coefficients) - oracle))))
        elapsed = time.perf_counter() - started
        assert worst < 1e-8, f"max coefficient gap {worst}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_02_fixed_effects_equal_lsdv():
    with criterion(2, "within estimator equals dummy-variable OLS on 20 panels, <1e-6"):
        rng = np.random.default_rng(20260802)
        started = time.perf_counter()
        spec = RegressionSpec("y", (("x", 0),))
        worst = 0.0
        for rep in range(20):
            n_units = int(rng.integers(3, 11))
            panel = simulate_panel(seed=int(rng.integers(0, 2**31)), n_units=n_units, periods=20, noise=1.0)
            fit = fit_fixed_effects(within(panel, spec))
            oracle = lsdv_oracle(panel, spec)
            worst = max(worst, float(np.max(np.abs(np.asarray(fit.slopes) - oracle))))
        elapsed = time.perf_counter() - started
        assert worst < 1e-6, f"max slope gap {worst}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_03_arima_recovery():
    with criterion(3, "AR(1)/MA(1) recovered within 0.1; drift equals mean difference to 1e-12"):
        started = time.perf_counter()
        rng = np.random.default_rng(20260803)
        e = rng.normal(0.0, 1.0, 2200)
        ar = np.zeros(2200)
        for t in range(1, 2200):
            ar[t] = 0.5 * ar[t - 1] + e[t]
        fit_ar = fit_arima(series(ar[200:]), ArimaSpec(1, 0, 0))
        assert fit_ar.converged
        assert abs(fit_ar.ar_coeffs[0] - 0.5) < 0.1

        e2 = rng.normal(0.0, 1.0, 4001)
        ma = e2[1:] + 0.4 * e2[:-1]
        fit_ma = fit_arima(series(ma), ArimaSpec(0, 0, 1))
        assert fit_ma.converged
        assert abs(fit_ma.ma_coeffs[0] - 0.4) < 0.1

        walk = np.cumsum(rng.normal(2.0, 5.0, 300))
        fit_rw = fit_arima(series(walk), ArimaSpec(0, 1, 0))
        assert abs(fit_rw.constant - np.diff(walk).mean()) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_04_order_selection_zero_orders():
    with criterion(4, "differenced drift random walk selects (0,0) in >=95/100 seeded runs"):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = 1400.0 + np.cumsum(rng.normal(8.0, 60.0, 48))
            spec = select_orders(difference(series(y)), 2, 2)
            hits += (spec.p, spec.q) == (0, 0)
        assert hits >= 95, f"(0,0) selected in only {hits}/100 runs"


def test_criterion_05_decomposition_recovery():
    with criterion(5, "ramp+seasonal components recovered <1e-9; reconstruction holds"):
        ramp = np.arange(1.0, 49.0)
        pattern = np.tile([2.0, 0.0, -1.0, -1.0], 12)
        ts = series(ramp + pattern)
        trend, seasonal, irregular = decompose_additive(ts)
        defined = ~np.isnan(trend)
        assert np.max(np.abs(trend[defined] - ramp[defined])) < 1e-9
        assert np.max(np.abs(seasonal[:4] - pattern[:4])) < 1e-9
        assert np.max(np.abs(irregular[defined])) < 1e-9
        recon = trend + seasonal + irregular
        assert np.max(np.abs(recon[defined] - ts[defined])) < 1e-9


def test_criterion_06_diagnostics_sanity():
    with criterion(6, "ADF separates iid from random walk; DW and Ljung-Box in expected bands"):
        rng = np.random.default_rng(7)
        iid = rng.normal(0.0, 1.0, 500)
        walk = np.cumsum(rng.normal(0.0, 1.0, 500))
        assert adf_test(series(iid), 8).p_value < 0.05
        assert adf_test(series(walk), 8).p_value > 0.10
        residuals = np.random.default_rng(11).normal(0.0, 1.0, 500)
        assert 1.7 <= durbin_watson(residuals) <= 2.3
        white = np.random.default_rng(5).normal(0.0, 1.0, 1000)
        assert ljung_box(series(white), 10).p_value > 0.05


def test_criterion_07_hausman_discrimination():
    with criterion(7, "Hausman rejects endogenous effects and accepts exogenous in >=90/100 each"):
        started = time.perf_counter()
        spec = RegressionSpec("y", (("x", 0),))

        def run(endog: float) -> int:
            rejections = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for seed in range(100):
                    panel = simulate_panel(seed=seed, n_units=10, periods=20, noise=1.0, endog=endog)
                    step = within(panel, spec)
                    fe, re = fit_fixed_effects(step), fit_random_effects(step)
                    h = hausman_test(fe.slopes, fe.slope_cov, re.slopes, re.slope_cov)
                    rejections += h.p_value < 0.05
            return rejections

        endogenous_rejections = run(1.5)
        exogenous_rejections = run(0.0)
        elapsed = time.perf_counter() - started
        assert endogenous_rejections >= 90, f"endogenous DGP rejected only {endogenous_rejections}/100"
        assert 100 - exogenous_rejections >= 90, f"exogenous DGP rejected {exogenous_rejections}/100"
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s"


def test_criterion_08_metric_identities():
    with criterion(8, "F1 identity at the reference operating point; RMSE/MAPE examples exact"):
        p, r = 0.8162, 0.8325
        assert abs(2 * p * r / (p + r) - 0.8243) < 5e-4
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert abs(rmse([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) - 1.0) < 1e-9
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - 2.5 * np.sqrt(2.0)) < 1e-9
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert abs(mape([100.0, 200.0], [110.0, 180.0]) - 10.0) < 1e-9


def _simulate_event_world(seed: int, n: int = 140):
    """Synthetic quarterly world whose dependent loads on hate_reported_index."""
    rng = np.random.default_rng(seed)
    cov = {}
    for j, (name, _) in enumerate(build_model_spec(2).terms):
        base = 50.0 * (j + 1)
        path = np.empty(n)
        path[0] = base
        for t in range(1, n):
            path[t] = base + 0.7 * (path[t - 1] - base) + rng.normal(0.0, base * 0.02)
        cov[name] = path
    latent = np.zeros(n)
    for t in range(1, n):
        latent[t] = 0.8 * latent[t - 1] + rng.normal(0.0, 0.4)
    idx = 1.0 / (1.0 + np.exp(-latent - 1.0))
    news = rng.poisson(30.0, n) + 1
    events = np.array([rng.binomial(news[t], idx[t]) for t in range(n)])
    realized = events / news
    y = np.empty(n)
    for t in range(n):
        agg_lag = cov["aggravated_assault_rate"][max(t - 1, 0)]
        uner_lag = cov["uner_quar"][max(t - 1, 0)]
        y[t] = 10.0 + 0.3 * agg_lag - 2.0 * uner_lag + 0.5 * cov["population"][t] + 80.0 * realized[t] + rng.normal(0.0, 3.0)
    signals = {"news_num": news, "event_detected_num": events, "hate_reported_index": realized}
    return Dataset.align(Q0, {"fbi_num_noseasonnal": y, **cov, **signals})


def test_criterion_09_event_factor_benefit():
    with criterion(9, "index-loaded DGP: Model-4 analog beats Model-2 analog in >=90/100 runs"):
        wins = 0
        horizon = 8
        for seed in range(100):
            data = _simulate_event_world(seed)
            fit_end = data.end - horizon
            train = data.window(data.start, fit_end)
            holdout_span = (fit_end + 1, data.end)
            actual = data.predictors([("fbi_num_noseasonnal", 0)], holdout_span)[0, :, 0]
            scores = {}
            for model_id in (2, 4):
                fit = fit_ols(train, build_model_spec(model_id))
                scores[model_id] = rmse(actual, forecast_regression(fit, data, holdout_span))
            wins += scores[4] < scores[2]
        assert wins >= 90, f"Model 4 analog won only {wins}/100 replications"


def test_criterion_10_report_format_fidelity(tmp_path):
    with criterion(10, "fixed report column set; golden files; byte-identical reruns"):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main([
                "fit-forecast", "--config", str(CONFIG),
                "--output-dir", str(out), "--models", "1,2,3,4,5,6,7",
            ])
            assert code == EXIT_OK
        payload = json.loads((out_a / "report.json").read_text())
        for row in payload["models"]:
            assert list(row) == ["Models", "R-Squared", "Log Likelihood", "RMSE", "MAPE"]
        panel_payload = json.loads((out_a / "panel_report.json").read_text())
        for row in panel_payload["models"]:
            assert list(row) == ["Models", "R-Squared", "Log Likelihood", "RMSE", "MAPE"]
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "panel_report.json").read_bytes() == (out_b / "panel_report.json").read_bytes()
        assert (out_a / "report.json").read_bytes() == (GOLDEN / "report.json").read_bytes()
        assert (out_a / "panel_report.json").read_bytes() == (GOLDEN / "panel_report.json").read_bytes()


def test_criterion_11_state_resolution_kappa():
    with criterion(11, "resolver vs gold states on the bundled 500-article fixture, kappa >= 0.75"):
        gaz = load_gazetteer(GAZETTEER)
        records = load_articles(FIXTURES / "articles_annotated_500.jsonl")
        assert len(records) == 500
        gold = [r.state for r in records]
        predicted = [resolve_state(r.text(), gaz).state for r in records]
        kappa = cohens_kappa(gold, predicted)
        assert kappa >= 0.75, f"kappa {kappa:.4f}"


def test_criterion_12_index_arithmetic_and_reconciliation():
    with criterion(12, "index examples exact; state/national counts reconcile on every fixture"):
        def index(counts):
            """hate_reported_index per quarter of 2010, `(events, news)` records in each."""
            records = [
                ArticleRecord(f"{q}-{i}", dt.date(2010, 3 * q + 1, 1), "t", "b",
                              predicted_label="hate_crime" if i < events else "not_hate_crime")
                for q, (events, news) in enumerate(counts)
                for i in range(news)
            ]
            frame = aggregate_quarterly(tally([corpus_of(records)]), (Quarter(2010, 1), Quarter(2010, len(counts))))
            return frame.values[0, :, frame.names.index("hate_reported_index")].tolist()

        assert index([(50, 1000)]) == [0.05]
        assert index([(7, 7)]) == [1.0]
        assert index([(1, 2), (0, 0), (1, 1)])[1] == 0.0
        records = load_articles(FIXTURES / "articles.jsonl")
        gaz = load_gazetteer(GAZETTEER)
        resolved = []
        for record in records:
            resolution = resolve_state(record.text(), gaz)
            resolved.append(record._replace(state=resolution.state))
        quarter = [Quarter(r.date.year, (r.date.month - 1) // 3 + 1) for r in resolved]
        out = aggregate_by_state(tally([corpus_of(resolved)]), (min(quarter), max(quarter)))
        unknown = [q for q, r in zip(quarter, resolved) if r.state == "UNKNOWN"]
        state_news = out.by_state.values[:, :, out.by_state.names.index("news_num")]
        state_index = out.by_state.values[:, :, out.by_state.names.index("hate_reported_index")]
        national_news = out.national.values[0, :, out.national.names.index("news_num")]
        for i in range(len(national_news)):
            q = out.national.start + i
            state_sum = sum(state_news[:, i])
            assert state_sum + unknown.count(q) == national_news[i]
            for index in state_index[:, i]:
                assert 0.0 <= index <= 1.0
