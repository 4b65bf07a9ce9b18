"""Lagged-exogenous least squares for the national quarterly models.

Model 2 regresses the deseasonalized national series on the accepted crime
and labor covariates, Model 3 adds the raw news-event counts, Model 4 adds
the hate_reported_index ratio, and Model 5 is Model 4 re-estimated with
AR(1) errors (iterated Cochrane-Orcutt). The panel Models 6 and 7 take the
Model 2 and Model 4 terms on the state series.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from .arima import _adjusted_r2, _gaussian_loglik
from .exceptions import CollinearityError, CrimecastError, DegenerateInputError, InvalidArgumentError
from .record import Record
from .series import NATIONAL, PanelDataset, Quarter, _check_gaps, read_quarterly_csv
from .stattests import durbin_watson

_CO_TOL = 1e-8
_CO_MAX_ITER = 50

DEPENDENT_NAME = "fbi_num_noseasonnal"
PANEL_DEPENDENT = "fbi_num"

# Term order follows the model equations; population enters unlagged, every
# other covariate at lag 1.
_MODEL2_TERMS: tuple[tuple[str, int], ...] = (
    ("aggravated_assault_rate", 1),
    ("arrests_drug_abuse_violations", 1),
    ("arrests_weapons", 1),
    ("burglary_rate", 1),
    ("homicide_victims_black", 1),
    ("murder_nonnegligent_manslaughter_rate", 1),
    ("population", 0),
    ("rape_rate", 1),
    ("robbery_rate", 1),
    ("total_law_enforcement_employees", 1),
    ("uner_quar", 1),
)
_EVENT_TERMS: tuple[tuple[str, int], ...] = (
    ("event_detected_num", 0),
    ("news_num", 0),
)
_INDEX_TERM: tuple[tuple[str, int], ...] = (("hate_reported_index", 0),)


class RegressionSpec(Record):
    """Declarative regression: dependent, (variable, lag) terms and optional
    AR(1) error structure. The national fits add an intercept; the panel fits
    take the unit effects instead."""

    dependent: str
    terms: tuple[tuple[str, int], ...]
    ar_error_order: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((str(n), int(k)) for n, k in self.terms))
        if self.ar_error_order not in (0, 1):
            raise InvalidArgumentError("ar_error_order must be 0 or 1")
        for name, k in self.terms:
            if k not in (0, 1):
                raise InvalidArgumentError(f"term {name!r} has unsupported lag {k}")
        if len(set(self.terms)) != len(self.terms):
            raise InvalidArgumentError("duplicate (variable, lag) terms")

    def term_names(self) -> tuple[str, ...]:
        return tuple(f"{n}(-{k})" if k else n for n, k in self.terms)


def build_model_spec(model_id: int) -> RegressionSpec:
    """Return the term list for Models 2-7; Model 5 adds AR(1) errors to Model 4,
    and Models 6 and 7 are Models 2 and 4 on the panel dependent."""
    if model_id in (6, 7):
        return build_model_spec(2 if model_id == 6 else 4)._replace(dependent=PANEL_DEPENDENT)
    if model_id == 2:
        terms = _MODEL2_TERMS
    elif model_id == 3:
        terms = _MODEL2_TERMS + _EVENT_TERMS
    elif model_id in (4, 5):
        terms = _MODEL2_TERMS + _EVENT_TERMS + _INDEX_TERM
    else:
        raise InvalidArgumentError(f"unknown model id {model_id}; expected 2..7")
    return RegressionSpec(dependent=DEPENDENT_NAME, terms=terms, ar_error_order=1 if model_id == 5 else 0)


class Dataset(PanelDataset):
    """The national frame: named quarterly series as the one unit of a
    PanelDataset, every quarter of the frame present."""

    @classmethod
    def align(cls, start: Quarter, columns: Mapping[str, np.ndarray]) -> "Dataset":
        """The frame of named, equal-length columns from quarter `start`."""
        if len({len(column) for column in columns.values()}) != 1:
            raise InvalidArgumentError("dataset needs one or more columns of one length")
        values = np.column_stack(list(columns.values())).astype(float, copy=False)
        return cls((NATIONAL,), start, tuple(columns), values[None], np.ones((1, len(values)), dtype=bool))

    def window(self, start: Quarter, end: Quarter) -> "Dataset":
        """The quarters start..end, which must lie inside the frame."""
        if not self.start <= start <= end <= self.end:
            raise InvalidArgumentError(f"window {start}..{end} is not inside {self.start}..{self.end}")
        lo, hi = start - self.start, end - self.start + 1
        return Dataset(self.unit_names, start, self.names, self.values[:, lo:hi], self.present[:, lo:hi])

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """Load a wide `year,quarter,<variable>...` CSV of consecutive quarters;
        a column with an interior gap is rejected."""
        names, _, index, values, _ = read_quarterly_csv(path, ("year", "quarter"), consecutive=True)
        _check_gaps(path, names, values)
        return cls.align(Quarter.from_index(index[0]), dict(zip(names, values.T)))


class RegressionFit(Record):
    spec: RegressionSpec
    coef_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    residuals: np.ndarray
    end: Quarter  # the quarter of the last residual
    sigma2: float
    log_likelihood: float
    adj_r_squared: float
    durbin_watson: float
    n_used: int
    rho: float | None = None


def _build_design(dataset: Dataset, spec: RegressionSpec) -> tuple[np.ndarray, np.ndarray, list[str], Quarter]:
    """Assemble (y, X, column names, last used quarter) from the one
    gap-free run of rows where the dependent and every lagged term are finite;
    X starts with the intercept column."""
    yx, _, first, counts = dataset.usable_rows(spec.dependent, spec.terms)
    mat = yx[0, first[0] : first[0] + counts[0]]
    y = mat[:, 0]
    X = np.column_stack([np.ones(len(y)), mat[:, 1:]])
    return y, X, ["intercept", *spec.term_names()], dataset.start + int(first[0] + counts[0] - 1)


def _qr_solve(X: np.ndarray, y: np.ndarray, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Solve least squares through a QR factorization of the column-scaled
    design (never the explicit normal equations).

    Returns (coefficients, (X'X)^{-1}). Rank deficiency raises a
    CollinearityError naming each column that is linearly dependent on the
    columns before it, so the later-added duplicate gets the blame.
    """
    n, k = X.shape
    norms = np.sqrt((X * X).sum(axis=0))
    zero_cols = [names[j] for j in range(k) if norms[j] == 0.0]
    if zero_cols:
        raise CollinearityError(zero_cols, "all-zero columns: " + ", ".join(zero_cols))
    scaled = X / norms
    q, r = np.linalg.qr(scaled, mode="reduced")
    diag = np.abs(np.diag(r))
    tol = max(n, k) * np.finfo(float).eps * 16.0
    bad = [j for j in range(k) if diag[j] <= tol]
    if bad:
        raise CollinearityError([names[j] for j in bad])
    beta = np.linalg.solve(r, q.T @ y) / norms
    r_inv = np.linalg.inv(r)
    xtx_inv = (r_inv @ r_inv.T) / np.outer(norms, norms)
    return beta, xtx_inv


def _gaussian_fit_stats(y: np.ndarray, resid: np.ndarray, k_total: int) -> tuple[float, float, float]:
    """(sigma2_ml, log_likelihood, adjusted R^2) for a residual vector."""
    n = len(resid)
    ssr = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    sigma2, loglik = _gaussian_loglik(ssr, n)
    if sst > 0.0:
        r2 = 1.0 - ssr / sst
    else:
        r2 = 1.0 if ssr == 0.0 else 0.0
    return sigma2, loglik, _adjusted_r2(r2, n, k_total)


def fit_ols(dataset: Dataset, spec: RegressionSpec) -> RegressionFit:
    """Least-squares estimation via an unpivoted Householder QR of the
    column-scaled design (`_qr_solve`; no explicit normal equations).

    With ar_error_order=1, estimates regression with AR(1) errors by iterated
    feasible GLS (Cochrane-Orcutt), iterating rho to 1e-8; the stored
    residuals are then the AR(1) innovations. A rho still moving after 50
    rounds, or one with |rho| >= 1, is a CrimecastError.
    """
    y, X, names, end = _build_design(dataset, spec)
    n, k = X.shape
    if n <= k + 2:
        raise InvalidArgumentError(f"need more than {k + 2} usable rows, got {n}")

    beta, xtx_inv = _qr_solve(X, y, names)
    resid = y - X @ beta
    rho = None
    if spec.ar_error_order == 1:
        # Cochrane-Orcutt: transform out the AR(1) error, refit, iterate rho.
        rho = 0.0
        for _ in range(_CO_MAX_ITER):
            den = float(resid[:-1] @ resid[:-1])
            if den == 0.0:
                raise DegenerateInputError("residuals vanish; AR(1) error estimation is degenerate")
            rho_new = float(resid[1:] @ resid[:-1]) / den
            y_star = y[1:] - rho_new * y[:-1]
            x_star = X[1:] - rho_new * X[:-1]
            beta, xtx_inv = _qr_solve(x_star, y_star, names)
            resid = y - X @ beta
            if abs(rho_new - rho) < _CO_TOL:
                rho = rho_new
                break
            rho = rho_new
        else:
            raise CrimecastError(
                f"the AR(1)-error fit did not converge in {_CO_MAX_ITER} Cochrane-Orcutt rounds (rho {rho:.6g})"
            )
        if abs(rho) >= 1.0:
            raise CrimecastError(f"the AR(1)-error fit ended at rho {rho:.6g}, outside (-1, 1)")

    # With AR(1) errors the statistics are those of the innovations, which
    # start one quarter later, and rho counts as one more parameter.
    if rho is None:
        e, y_e, k_total = resid, y, k
    else:
        e, y_e, k_total = resid[1:] - rho * resid[:-1], y[1:], k + 1
    ssr = float(e @ e)
    s2 = ssr / (len(e) - k)
    sigma2, loglik, adj_r2 = _gaussian_fit_stats(y_e, e, k_total)
    return RegressionFit(
        spec=spec,
        coef_names=tuple(names),
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(v) for v in np.sqrt(np.clip(s2 * np.diag(xtx_inv), 0.0, None))),
        residuals=e,
        end=end,
        sigma2=sigma2,
        log_likelihood=loglik,
        adj_r_squared=adj_r2,
        durbin_watson=durbin_watson(e) if ssr > 0.0 else float("nan"),
        n_used=n,
        rho=rho,
    )


def forecast_regression(fit: RegressionFit, dataset: Dataset, span: tuple[Quarter, Quarter]) -> np.ndarray:
    """Linear predictions for each quarter of the inclusive span.

    With AR(1) errors the forecast is dynamic from the fit's last quarter T:
    the structural residual at T, read from the dataset, is multiplied by rho
    once per later quarter and added to that quarter's prediction. The span
    must then start after T.
    """
    start, end = span
    if end < start:
        raise InvalidArgumentError(f"empty forecast span {start}..{end}")
    spec = fit.spec
    if fit.rho is None:
        return dataset.predict(spec.terms, fit.coefficients, span, intercept=True)[0]

    last = fit.end
    if start <= last:
        raise InvalidArgumentError(f"an AR(1)-error forecast must start after the fit's last quarter {last}, not {start}")
    cores = dataset.predict(spec.terms, fit.coefficients, (last, end), intercept=True)[0].tolist()
    e = float(dataset.predictors([(spec.dependent, 0)], (last, last))[0, 0, 0]) - cores[0]
    preds = []
    for core in cores[1:]:
        e = fit.rho * e
        preds.append(core + e)
    return np.array(preds[start - last - 1 :])
