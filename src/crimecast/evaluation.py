"""Forecast accuracy metrics, the multi-model comparison report, and the
statistics of the panel report: the Hausman decision and the comparison of
two models' stacked predictions."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from . import reporting, stattests
from .exceptions import InvalidArgumentError
from .panel import PanelFit
from .record import Record
from .series import Quarter

# The column spelling of every model row in report.json and panel_report.json.
REPORT_COLUMNS = ("Models", "R-Squared", "Log Likelihood", "RMSE", "MAPE")
HAUSMAN_LEVEL = 0.05


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if len(a) != len(p) or len(a) == 0:
        raise InvalidArgumentError("sequences must have equal nonzero length")
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error, reported x100."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if len(a) != len(p) or len(a) == 0:
        raise InvalidArgumentError("sequences must have equal nonzero length")
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        raise InvalidArgumentError(f"actual value at index {int(zeros[0])} is zero")
    return float(np.mean(np.abs((a - p) / a)) * 100.0)


class ModelRow(Record):
    """One model's report row: its fit statistics, holdout errors and predictions."""

    name: str
    r_squared: float
    log_likelihood: float
    rmse: float
    mape: float
    predictions: tuple[float, ...]

    def to_dict(self) -> dict:
        return dict(zip(REPORT_COLUMNS, (self.name, self.r_squared, self.log_likelihood, self.rmse, self.mape)))


def score_model(
    name: str, r_squared: float, log_likelihood: float, actual: Sequence[float], predicted: Sequence[float]
) -> ModelRow:
    """The report row of a model whose holdout predictions are `predicted`;
    both reports score every model here."""
    predicted = tuple(map(float, predicted))
    return ModelRow(name, r_squared, log_likelihood, rmse(actual, predicted), mape(actual, predicted), predicted)


class ForecastReport(Record):
    """Per-model metric rows over an identical holdout range: the quarters
    from `start`, one per actual value."""

    rows: tuple[ModelRow, ...]
    start: Quarter
    actual: tuple[float, ...]

    def to_dict(self) -> dict:
        holdout = {"start": str(self.start), "end": str(self.start + (len(self.actual) - 1)), "actual": list(self.actual)}
        return {"holdout": holdout, "models": [row.to_dict() for row in self.rows]}

    def write_json(self, path: str | Path) -> None:
        reporting.write_json(self.to_dict(), path)

    def write_long_csv(self, path: str | Path) -> None:
        """Long-format `year,quarter,model,predicted,actual` rows for plotting."""
        quarters = [self.start + h for h in range(len(self.actual))]
        rows = (
            (q.year, q.quarter, row.name, pred, act)
            for row in self.rows
            for q, pred, act in zip(quarters, row.predictions, self.actual)
        )
        reporting.write_csv(("year", "quarter", "model", "predicted", "actual"), rows, path)


def compare_models(rows: Sequence[ModelRow], start: Quarter, actual: Sequence[float]) -> ForecastReport:
    """The report of the models scored on the holdout `actual` from quarter
    `start`, in input order."""
    if not rows:
        raise InvalidArgumentError("need at least one model to compare")
    return ForecastReport(rows=tuple(rows), start=start, actual=tuple(map(float, actual)))


def hausman_decision(fe: PanelFit, re: PanelFit) -> dict:
    """The Hausman test of fixed against random effects, with the estimator
    it favours at the 5% level and the random-effects variance components
    (a truncated sigma2_u makes random effects pooled OLS)."""
    result = stattests.hausman_test(fe.slopes, fe.slope_cov, re.slopes, re.slope_cov)
    decision = "fixed" if result.p_value < HAUSMAN_LEVEL else "random"
    variance = {"sigma2_u": re.sigma2_u, "theta": re.theta, "sigma2_u_truncated": re.sigma2_u_truncated}
    return result._asdict() | {"decision": decision} | variance


def compare_predictions(a: ModelRow, b: ModelRow, actual: Sequence[float]) -> dict:
    """Levene and paired t tests between two models' stacked holdout
    predictions, and the mean of each stack and of the actual values."""
    return {
        "levene": stattests.levene_test(a.predictions, b.predictions)._asdict(),
        "paired_t": stattests.paired_t_test(a.predictions, b.predictions)._asdict(),
        "means": {
            "actual": sum(actual) / len(actual),
            a.name: sum(a.predictions) / len(a.predictions),
            b.name: sum(b.predictions) / len(b.predictions),
        },
    }
