"""State-level panel estimation: balancing, the within (fixed-effects)
estimator, Swamy-Arora random effects, and per-unit forecasting."""

from __future__ import annotations

import warnings
from typing import Mapping

import numpy as np

from .arima import _gaussian_loglik
from .exceptions import CollinearityError, DegenerateInputError, EmptyPanelError, InvalidArgumentError
from .record import Record
from .regression import RegressionSpec, _qr_solve
from .series import PanelDataset, Quarter


class BalanceReport(Record):
    dropped: tuple[str, ...]
    retained: tuple[str, ...]
    retained_share: float


def balance_panel(
    panel: PanelDataset, span: tuple[Quarter, Quarter], dependent: str
) -> tuple[PanelDataset, BalanceReport]:
    """Keep the units whose `dependent` is finite at every quarter of the
    span (a missing row has none), restricted to the span. The report
    carries the retained units' share of the dependent's total over the span.
    """
    dep = panel._gather([(dependent, 0)], span)[:, :, 0]
    kept = ~np.isnan(dep).any(axis=1)
    if not kept.any():
        raise EmptyPanelError("balancing dropped every unit")
    weight = np.nan_to_num(dep)
    total = float(weight.sum())
    report = BalanceReport(
        dropped=tuple(u for u, k in zip(panel.unit_names, kept) if not k),
        retained=tuple(u for u, k in zip(panel.unit_names, kept) if k),
        retained_share=float(weight[kept].sum()) / total if total != 0.0 else 1.0,
    )
    return panel.restricted(report.retained, span), report


class PanelFit(Record):
    """Common slopes with covariance plus the unit-effect structure."""

    _uncompared = ("slope_cov",)
    method: str  # "fixed" | "random"
    spec: RegressionSpec
    slope_names: tuple[str, ...]
    slopes: tuple[float, ...]
    slope_cov: np.ndarray
    unit_effects: Mapping[str, float]
    intercept: float | None
    sigma2_e: float
    sigma2_u: float | None
    theta: float | None
    overall_r_squared: float
    log_likelihood: float
    sigma2_u_truncated: bool = False  # random effects: a negative sigma2_u estimate was set to 0


class Within(Record):
    """The within step of one panel and spec, which its fixed- and
    random-effects fits share: the usable rows stacked by unit, then time;
    the unit means; and the within slopes with (X'X)^-1 of the demeaned
    design, their sum of squared residuals and sigma2_e."""

    spec: RegressionSpec
    units: tuple[str, ...]
    names: list[str]
    first: np.ndarray  # each unit's first usable quarter index
    counts: np.ndarray
    y: np.ndarray
    x: np.ndarray
    y_bar: np.ndarray
    x_bar: np.ndarray
    sst: float  # total sum of squares of y about its grand mean
    beta: np.ndarray
    xtx_inv: np.ndarray
    ssr: float
    sigma2_e: float  # on the within degrees of freedom, n - N - k

    def __post_init__(self) -> None:
        # Both fits read these arrays, so neither may write into them.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def within(panel: PanelDataset, spec: RegressionSpec) -> Within:
    """Stack the rows where the dependent and every lagged term are finite,
    demean them by unit and fit the within OLS; each unit needs one gap-free
    run of k + 2 or more. A regressor constant within every unit is absorbed
    by the effects and rejected."""
    units = panel.unit_names
    if len(units) < 2:
        raise InvalidArgumentError("panel estimation needs at least 2 units")
    yx, usable, first, counts = panel.usable_rows(spec.dependent, spec.terms)
    names = list(spec.term_names())
    k = len(names)
    for unit, count in zip(units, counts):
        if count < k + 2:
            raise InvalidArgumentError(f"unit {unit!r} contributes {count} usable rows, need at least {k + 2}")
    lo, hi = first.min(), (first + counts).max()
    yx, usable = yx[:, lo:hi], usable[:, lo:hi]
    y_bar = np.where(usable, yx[:, :, 0], 0.0).sum(axis=1) / counts
    x_bar = np.where(usable[:, :, None], yx[:, :, 1:], 0.0).sum(axis=1) / counts[:, None]
    y, x = yx[:, :, 0][usable], yx[:, :, 1:][usable]
    y_dm, x_dm = y - np.repeat(y_bar, counts), x - np.repeat(x_bar, counts, axis=0)

    scale = np.abs(x).max(axis=0)
    absorbed = [names[j] for j in range(k) if np.abs(x_dm[:, j]).max() <= 1e-12 * max(scale[j], 1.0)]
    if absorbed:
        raise CollinearityError(absorbed, "regressors constant within units: " + ", ".join(absorbed))

    beta, xtx_inv = _qr_solve(x_dm, y_dm, names)
    resid = y_dm - x_dm @ beta
    dof = len(y) - len(units) - k
    if dof <= 0:
        raise InvalidArgumentError("not enough observations for within degrees of freedom")
    ssr = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    return Within(spec, units, names, first, counts, y, x, y_bar, x_bar, sst, beta, xtx_inv, ssr, ssr / dof)


def _r_squared(ssr: float, sst: float) -> float:
    return 1.0 - ssr / sst if sst > 0.0 else float("nan")


def fit_fixed_effects(w: Within) -> PanelFit:
    """Within estimator: the within step's slopes, with per-unit intercepts.

    The slope covariance uses the within degrees of freedom (n - N - k).
    """
    return PanelFit(
        method="fixed",
        spec=w.spec,
        slope_names=tuple(w.names),
        slopes=tuple(float(b) for b in w.beta),
        slope_cov=w.sigma2_e * w.xtx_inv,
        unit_effects={u: float(yb - xb @ w.beta) for u, yb, xb in zip(w.units, w.y_bar, w.x_bar)},
        intercept=None,
        sigma2_e=w.sigma2_e,
        sigma2_u=None,
        theta=None,
        overall_r_squared=_r_squared(w.ssr, w.sst),
        log_likelihood=_gaussian_loglik(w.ssr, len(w.y))[1],
    )


def fit_random_effects(w: Within) -> PanelFit:
    """Swamy-Arora random effects on a balanced panel, from its within step.

    Variance components come from the within and between residual variances;
    negative sigma2_u estimates are truncated at zero with a warning. GLS is
    carried out by quasi-demeaning with theta = 1 - sqrt(s2e/(s2e + T*s2u)),
    which is undefined, a DegenerateInputError, when both components are zero.
    """
    if len(set(w.counts.tolist())) != 1 or len(set(w.first.tolist())) != 1:
        raise InvalidArgumentError("random effects requires a balanced panel")
    t_len = int(w.counts[0])
    n_units = len(w.units)
    n, k = w.x.shape
    sigma2_e = w.sigma2_e

    # Between step for sigma2_u.
    if n_units < k + 2:
        raise InvalidArgumentError("too few units for the between regression")
    xb = np.column_stack([np.ones(n_units), w.x_bar])
    beta_b, _ = _qr_solve(xb, w.y_bar, ["intercept"] + w.names)
    resid_b = w.y_bar - xb @ beta_b
    s2_between = float(resid_b @ resid_b) / (n_units - k - 1)
    sigma2_u = s2_between - sigma2_e / t_len
    truncated = sigma2_u < 0.0
    if truncated:
        warnings.warn("negative sigma2_u estimate truncated at zero", stacklevel=2)
        sigma2_u = 0.0
    if sigma2_e + t_len * sigma2_u == 0.0:
        raise DegenerateInputError("both variance components are zero; theta is undefined")
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
    return PanelFit(
        method="random",
        spec=w.spec,
        slope_names=tuple(w.names),
        slopes=tuple(float(b) for b in beta),
        slope_cov=(ssr_star / (n - k - 1) * xtx_inv)[1:, 1:],
        unit_effects={},
        intercept=intercept,
        sigma2_e=sigma2_e,
        sigma2_u=sigma2_u,
        theta=float(theta),
        overall_r_squared=_r_squared(float(resid @ resid), w.sst),
        log_likelihood=_gaussian_loglik(ssr_star, n)[1],
        sigma2_u_truncated=truncated,
    )


def forecast_panel(fit: PanelFit, panel: PanelDataset, span: tuple[Quarter, Quarter]) -> np.ndarray:
    """Units × quarters forecasts over the span, rows in `panel.unit_names`:
    each unit's intercept (the fixed effect, or the random-effects
    intercept) plus the common slopes. A unit that a fixed-effects fit
    lacks is an error naming it.
    """
    start, end = span
    if end < start:
        raise InvalidArgumentError(f"empty forecast span {start}..{end}")
    for unit in panel.unit_names:
        if fit.method == "fixed" and unit not in fit.unit_effects:
            raise InvalidArgumentError(f"unit {unit!r} is absent from the fixed-effects fit")
    intercepts = np.array([fit.unit_effects.get(unit, fit.intercept) for unit in panel.unit_names])
    return intercepts[:, None] + panel.predict(fit.spec.terms, fit.slopes, span)
