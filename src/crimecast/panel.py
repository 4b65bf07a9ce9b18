"""State-level panel estimation: balancing, the within (fixed-effects)
estimator, Swamy-Arora random effects, and per-unit forecasting."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arima import Forecast, _gaussian_loglik
from .exceptions import (
    CollinearityError,
    EmptyPanelError,
    InvalidArgumentError,
)
from .regression import RegressionSpec, _qr_solve
from .series import Quarter, TimeSeries, read_quarterly_csv


def _window(arr: np.ndarray, lo: int, n: int, fill) -> np.ndarray:
    """`arr[:, lo:lo + n]` along the quarter axis, `fill` where that leaves `arr`."""
    out = np.full((arr.shape[0], n) + arr.shape[2:], fill, dtype=arr.dtype)
    a, b = max(lo, 0), min(lo + n, arr.shape[1])
    if a < b:
        out[:, a - lo : b - lo] = arr[:, a:b]
    return out


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Observations on a units × quarters × variables grid: `values[i, t, j]`
    is variable `names[j]` of unit `unit_names[i]` at quarter `start + t`, NaN
    when missing (all NaN in a row that does not exist), and `present[i, t]`
    marks the rows that exist. Units and variables are sorted; units may have
    gaps until the panel is balanced."""

    unit_names: tuple[str, ...]
    start: Quarter
    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    present: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, Quarter, Mapping[str, float]]]) -> "PanelDataset":
        rows = list(rows)
        if not rows:
            raise InvalidArgumentError("panel has no observations")
        units = sorted({str(u) for u, _, _ in rows})
        names = sorted({name for _, _, values in rows for name in values})
        start = min(q for _, q, _ in rows)
        row_of = {u: i for i, u in enumerate(units)}
        values = np.full((len(units), max(q for _, q, _ in rows) - start + 1, len(names)), np.nan)
        present = np.zeros(values.shape[:2], dtype=bool)
        for unit, q, row in rows:
            i, t = row_of[str(unit)], q - start
            if present[i, t]:
                raise InvalidArgumentError(f"duplicate observation for {unit} at {q}")
            present[i, t] = True
            values[i, t] = [row.get(name, np.nan) for name in names]
        return cls(tuple(units), start, tuple(names), values, present)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PanelDataset":
        """Load a long `state,year,quarter,<variable>...` CSV."""
        names, rows = read_quarterly_csv(path, ("state", "year", "quarter"))
        return cls.from_rows((keys[0], q, dict(zip(names, values))) for keys, q, values in rows)

    def units(self) -> tuple[str, ...]:
        return self.unit_names

    def span(self) -> tuple[Quarter, Quarter]:
        occupied = np.flatnonzero(self.present.any(axis=0))
        return self.start + int(occupied[0]), self.start + int(occupied[-1])

    def unit_quarters(self, unit: str) -> list[Quarter]:
        return [self.start + int(t) for t in np.flatnonzero(self.present[self.unit_names.index(unit)])]

    def _gather(self, terms: Sequence[tuple[str, int]], span: tuple[Quarter, Quarter]) -> np.ndarray:
        """Units × quarters × terms over the span; term (name, k) at q is `name` at q - k."""
        out = np.empty((len(self.unit_names), span[1] - span[0] + 1, len(terms)))
        for j, (name, k) in enumerate(terms):
            if name not in self.names:
                raise InvalidArgumentError(f"panel has no variable {name!r}")
            column = self.values[:, :, self.names.index(name)]
            out[:, :, j] = _window(column, span[0] - k - self.start, out.shape[1], np.nan)
        return out

    def value(self, unit: str, q: Quarter, name: str) -> float:
        """Variable `name` of `unit` at quarter `q`; NaN when missing."""
        return float(self._gather([(name, 0)], (q, q))[self.unit_names.index(unit), 0, 0])

    def with_unit_series(self, columns: Mapping[str, Mapping[str, TimeSeries]]) -> "PanelDataset":
        """Add or replace variables: `columns[name][unit]` over that series'
        quarters, and 0.0 in every other existing row."""
        names = tuple(sorted(set(self.names) | set(columns)))
        values = np.zeros(self.present.shape + (len(names),))
        for j, name in enumerate(names):
            if name not in columns:
                values[:, :, j] = self.values[:, :, self.names.index(name)]
            for i, unit in enumerate(self.unit_names):
                if unit in columns.get(name, {}):
                    series = columns[name][unit]
                    lo = self.start - series.start
                    values[i, :, j] = _window(series.to_array()[None], lo, values.shape[1], 0.0)[0]
        values[~self.present] = np.nan
        return PanelDataset(self.unit_names, self.start, names, values, self.present)

    def restricted(self, units: Iterable[str], span: tuple[Quarter, Quarter]) -> "PanelDataset":
        keep = set(units)
        lo, n = span[0] - self.start, max(span[1] - span[0] + 1, 0)
        present = _window(self.present, lo, n, False)
        rows = [i for i, u in enumerate(self.unit_names) if u in keep and present[i].any()]
        if not rows:
            raise EmptyPanelError("no observations left after restriction")
        kept = tuple(self.unit_names[i] for i in rows)
        return PanelDataset(kept, span[0], self.names, _window(self.values[rows], lo, n, np.nan), present[rows])


@dataclass(frozen=True)
class BalanceReport:
    span: tuple[Quarter, Quarter]
    dropped: tuple[str, ...]
    retained: tuple[str, ...]
    coverage: Mapping[str, float]
    retained_share: float


def balance_panel(
    panel: PanelDataset,
    min_coverage: float = 1.0,
    span: tuple[Quarter, Quarter] | None = None,
    dependent: str | None = None,
) -> tuple[PanelDataset, BalanceReport]:
    """Drop units whose coverage over the modeling span is below min_coverage.

    Coverage counts quarters with an observation (with a finite dependent
    value when `dependent` is given). The report carries the retained share
    of the dependent variable's total (of the observation count without one).
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise InvalidArgumentError("min_coverage must be in [0, 1]")
    start, end = span = span or panel.span()
    covered = weight = _window(panel.present, start - panel.start, end - start + 1, False)
    if dependent is not None:
        dep = panel._gather([(dependent, 0)], span)[:, :, 0]
        covered = covered & ~np.isnan(dep)
        weight = np.where(covered, dep, 0.0)
    shares = covered.sum(axis=1) / (end - start + 1)
    kept = shares >= min_coverage
    if not kept.any():
        raise EmptyPanelError("balancing dropped every unit")
    total = float(weight.sum())
    report = BalanceReport(
        span=span,
        dropped=tuple(u for u, k in zip(panel.units(), kept) if not k),
        retained=tuple(u for u, k in zip(panel.units(), kept) if k),
        coverage=dict(zip(panel.units(), shares.tolist())),
        retained_share=float(weight[kept].sum()) / total if total != 0.0 else 1.0,
    )
    return (panel.restricted(report.retained, span) if report.dropped else panel), report


@dataclass(frozen=True)
class PanelFit:
    """Common slopes with covariance plus the unit-effect structure."""

    method: str  # "fixed" | "random"
    spec: RegressionSpec
    slope_names: tuple[str, ...]
    slopes: tuple[float, ...]
    slope_cov: np.ndarray = field(compare=False)
    unit_effects: Mapping[str, float]
    intercept: float | None
    sigma2_e: float
    sigma2_u: float | None
    theta: float | None
    within_r_squared: float
    overall_r_squared: float
    log_likelihood: float
    residuals: Mapping[str, TimeSeries]
    n_obs: int

    def slope(self, name: str) -> float:
        try:
            return self.slopes[self.slope_names.index(name)]
        except ValueError:
            raise InvalidArgumentError(f"no slope named {name!r}") from None

    def average_effect(self) -> float:
        if self.method == "random":
            return float(self.intercept or 0.0)
        return float(np.mean(list(self.unit_effects.values())))


@dataclass(frozen=True)
class _Within:
    """Usable rows stacked by unit, then time; the unit means; the demeaned design."""

    units: tuple[str, ...]
    names: list[str]
    starts: list[Quarter]
    counts: np.ndarray
    y: np.ndarray
    x: np.ndarray
    y_bar: np.ndarray
    x_bar: np.ndarray
    y_dm: np.ndarray
    x_dm: np.ndarray
    sst: float  # total sum of squares of y about its grand mean

    def unit_series(self, stacked: np.ndarray) -> dict[str, TimeSeries]:
        parts = np.split(stacked, np.cumsum(self.counts)[:-1])
        return {u: TimeSeries(f"{u}_residuals", s, tuple(p)) for u, s, p in zip(self.units, self.starts, parts)}


def _within(panel: PanelDataset, spec: RegressionSpec) -> _Within:
    """Stack the rows where the dependent and every lagged term are finite and
    demean them by unit; each unit needs one gap-free run of k + 2 or more."""
    units = panel.units()
    if len(units) < 2:
        raise InvalidArgumentError("panel estimation needs at least 2 units")
    start = panel.start
    yx = panel._gather(((spec.dependent, 0),) + spec.terms, (start, start + (panel.present.shape[1] - 1)))
    usable = np.isfinite(yx).all(axis=2)
    first, counts = usable.argmax(axis=1), usable.sum(axis=1)
    k = len(spec.terms)
    for unit, row, t0, count in zip(units, usable, first, counts):
        if not row[t0 : t0 + count].all():
            raise InvalidArgumentError(f"unit {unit!r} has gaps in its usable rows; balance the panel first")
        if count < k + 2:
            raise InvalidArgumentError(f"unit {unit!r} contributes {count} usable rows, need at least {k + 2}")
    lo, hi = first.min(), (first + counts).max()
    yx, usable = yx[:, lo:hi], usable[:, lo:hi]
    y_bar = np.where(usable, yx[:, :, 0], 0.0).sum(axis=1) / counts
    x_bar = np.where(usable[:, :, None], yx[:, :, 1:], 0.0).sum(axis=1) / counts[:, None]
    y, x = yx[:, :, 0][usable], yx[:, :, 1:][usable]
    starts = [start + int(t) for t in first]
    y_dm, x_dm = y - np.repeat(y_bar, counts), x - np.repeat(x_bar, counts, axis=0)
    sst = float(np.sum((y - y.mean()) ** 2))
    return _Within(units, list(spec.term_names()), starts, counts, y, x, y_bar, x_bar, y_dm, x_dm, sst)


def _within_slopes(w: _Within) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Within OLS: (slopes, (X'X)^-1, residuals, sigma2_e on n - N - k dof)."""
    beta, xtx_inv = _qr_solve(w.x_dm, w.y_dm, w.names)
    resid = w.y_dm - w.x_dm @ beta
    dof = len(w.y) - len(w.units) - len(w.names)
    if dof <= 0:
        raise InvalidArgumentError("not enough observations for within degrees of freedom")
    return beta, xtx_inv, resid, float(resid @ resid) / dof


def _r_squared(ssr: float, sst: float) -> float:
    return 1.0 - ssr / sst if sst > 0.0 else float("nan")


def fit_fixed_effects(panel: PanelDataset, spec: RegressionSpec) -> PanelFit:
    """Within estimator: demean by unit, pooled OLS, per-unit intercepts.

    The slope covariance uses the within degrees of freedom (n - N - k).
    """
    w = _within(panel, spec)
    n, k = w.x.shape

    # A regressor constant within every unit is absorbed by the effects.
    scale = np.abs(w.x).max(axis=0)
    absorbed = [w.names[j] for j in range(k) if np.abs(w.x_dm[:, j]).max() <= 1e-12 * max(scale[j], 1.0)]
    if absorbed:
        raise CollinearityError(absorbed, "regressors constant within units: " + ", ".join(absorbed))

    beta, xtx_inv, resid, sigma2_e = _within_slopes(w)
    ssr = float(resid @ resid)
    return PanelFit(
        method="fixed",
        spec=spec,
        slope_names=tuple(w.names),
        slopes=tuple(float(b) for b in beta),
        slope_cov=sigma2_e * xtx_inv,
        unit_effects={u: float(yb - xb @ beta) for u, yb, xb in zip(w.units, w.y_bar, w.x_bar)},
        intercept=None,
        sigma2_e=sigma2_e,
        sigma2_u=None,
        theta=None,
        within_r_squared=_r_squared(ssr, float(w.y_dm @ w.y_dm)),
        overall_r_squared=_r_squared(ssr, w.sst),
        log_likelihood=_gaussian_loglik(ssr, n)[1],
        residuals=w.unit_series(resid),
        n_obs=n,
    )


def fit_random_effects(panel: PanelDataset, spec: RegressionSpec) -> PanelFit:
    """Swamy-Arora random effects on a balanced panel.

    Variance components come from the within and between residual variances;
    negative sigma2_u estimates are truncated at zero with a warning. GLS is
    carried out by quasi-demeaning with theta = 1 - sqrt(s2e/(s2e + T*s2u)).
    """
    w = _within(panel, spec)
    if len(set(w.counts.tolist())) != 1 or len(set(w.starts)) != 1:
        raise InvalidArgumentError("random effects requires a balanced panel")
    t_len = int(w.counts[0])
    n_units = len(w.units)
    n, k = w.x.shape

    # Within step for sigma2_e.
    sigma2_e = _within_slopes(w)[3]

    # Between step for sigma2_u.
    if n_units < k + 2:
        raise InvalidArgumentError("too few units for the between regression")
    xb = np.column_stack([np.ones(n_units), w.x_bar])
    beta_b, _ = _qr_solve(xb, w.y_bar, ["intercept"] + w.names)
    resid_b = w.y_bar - xb @ beta_b
    s2_between = float(resid_b @ resid_b) / (n_units - k - 1)
    sigma2_u = s2_between - sigma2_e / t_len
    if sigma2_u < 0.0:
        warnings.warn("negative sigma2_u estimate truncated at zero", stacklevel=2)
        sigma2_u = 0.0
    theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + t_len * sigma2_u))

    # Quasi-demeaned GLS.
    y_star = w.y - theta * np.repeat(w.y_bar, t_len)
    x_star = np.column_stack([np.full(n, 1.0 - theta), w.x - theta * np.repeat(w.x_bar, t_len, axis=0)])
    beta_full, xtx_inv = _qr_solve(x_star, y_star, ["intercept"] + w.names)
    resid_star = y_star - x_star @ beta_full
    ssr_star = float(resid_star @ resid_star)
    intercept = float(beta_full[0])
    beta = beta_full[1:]

    resid = w.y - intercept - w.x @ beta
    resid_dm = w.y_dm - w.x_dm @ beta
    return PanelFit(
        method="random",
        spec=spec,
        slope_names=tuple(w.names),
        slopes=tuple(float(b) for b in beta),
        slope_cov=(ssr_star / (n - k - 1) * xtx_inv)[1:, 1:],
        unit_effects={},
        intercept=intercept,
        sigma2_e=sigma2_e,
        sigma2_u=sigma2_u,
        theta=float(theta),
        within_r_squared=_r_squared(float(resid_dm @ resid_dm), float(w.y_dm @ w.y_dm)),
        overall_r_squared=_r_squared(float(resid @ resid), w.sst),
        log_likelihood=_gaussian_loglik(ssr_star, n)[1],
        residuals=w.unit_series(resid),
        n_obs=n,
    )


def forecast_panel(
    fit: PanelFit, panel: PanelDataset, span: tuple[Quarter, Quarter]
) -> dict[str, Forecast]:
    """Per-unit forecasts: unit intercept plus the common slopes.

    Units absent from training receive the average intercept with a warning.
    """
    start, end = span
    horizon = end - start + 1
    if horizon < 1:
        raise InvalidArgumentError(f"empty forecast span {start}..{end}")
    units = panel.units()
    for unit in units:
        if fit.method == "fixed" and unit not in fit.unit_effects:
            warnings.warn(f"unit {unit!r} absent from training; using the average intercept", stacklevel=2)
    average = fit.average_effect()
    intercepts = np.array([fit.unit_effects.get(unit, average) for unit in units])
    x = panel._gather(fit.spec.terms, span)
    missing = np.argwhere(np.isnan(x))
    if len(missing):
        i, h, j = (int(v) for v in missing[0])
        name, lag_k = fit.spec.terms[j]
        raise InvalidArgumentError(f"missing predictor {name!r} for unit {units[i]!r} at {start + h - lag_k}")
    # np.dot sums each (unit, quarter) row as one dot product, as row-by-row forecasts do.
    preds = intercepts[:, None] + np.dot(x, np.asarray(fit.slopes))
    return {unit: Forecast(start - 1, horizon, tuple(p), "static") for unit, p in zip(units, preds.tolist())}
