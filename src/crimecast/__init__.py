"""Quarterly crime-trend forecasting with news-derived event signals."""

from .arima import ArimaFit, ArimaSpec, fit_arima, forecast_arima, select_orders
from .evaluation import ForecastReport, ModelRow, compare_models, mape, rmse, score_model
from .exceptions import (
    CollinearityError,
    CrimecastError,
    DegenerateInputError,
    EmptyPanelError,
    InvalidArgumentError,
)
from .panel import PanelDataset, PanelFit, balance_panel, fit_fixed_effects, fit_random_effects, forecast_panel
from .regression import Dataset, RegressionFit, RegressionSpec, build_model_spec, fit_ols, forecast_regression
from .series import (
    DecompositionResult,
    Quarter,
    TimeSeries,
    acf,
    decompose_additive,
    deseasonalize,
    difference,
    pacf,
)
from .signals import ArticleRecord, Corpus, StateSignals, aggregate_by_state, aggregate_quarterly
from .stattests import (
    TestResult,
    adf_test,
    cohens_kappa,
    durbin_watson,
    hausman_test,
    levene_test,
    ljung_box,
    paired_t_test,
)

__version__ = "0.1.0"

__all__ = [
    "ArimaFit",
    "ArimaSpec",
    "ArticleRecord",
    "CollinearityError",
    "Corpus",
    "CrimecastError",
    "Dataset",
    "DecompositionResult",
    "DegenerateInputError",
    "EmptyPanelError",
    "ForecastReport",
    "InvalidArgumentError",
    "ModelRow",
    "PanelDataset",
    "PanelFit",
    "Quarter",
    "RegressionFit",
    "RegressionSpec",
    "StateSignals",
    "TestResult",
    "TimeSeries",
    "acf",
    "adf_test",
    "aggregate_by_state",
    "aggregate_quarterly",
    "balance_panel",
    "build_model_spec",
    "cohens_kappa",
    "compare_models",
    "decompose_additive",
    "deseasonalize",
    "difference",
    "durbin_watson",
    "fit_arima",
    "fit_fixed_effects",
    "fit_ols",
    "fit_random_effects",
    "forecast_arima",
    "forecast_panel",
    "forecast_regression",
    "hausman_test",
    "levene_test",
    "ljung_box",
    "mape",
    "pacf",
    "paired_t_test",
    "rmse",
    "score_model",
    "select_orders",
]
