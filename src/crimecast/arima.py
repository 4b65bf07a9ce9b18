"""ARIMA(p,d,q) estimation by conditional sum of squares, AIC order
selection, and dynamic forecasting.

Estimation conditions on the first p observations of the differenced series
with pre-sample innovations set to zero, and maximizes the concentrated
Gaussian likelihood with BFGS from a least-squares AR initialization. BFGS
takes the exact CSS gradient, from one MA filter pass over the stacked
Jacobian rows (Box, Jenkins & Reinsel, *Time Series Analysis*, ch. 7).
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, acf, pacf

logger = logging.getLogger(__name__)

_GRAD_TOL = 1e-8
_MAX_ITER = 500
# Candidates within this AIC distance of the minimum are treated as tied and
# resolved toward the more parsimonious order. Exact AIC ties have measure
# zero, so the tie-break rule needs a band; 6 units is past the
# "considerably less support" threshold of the AIC-difference literature.
_AIC_TIE_TOL = 6.0
# Largest p or q that `select_orders` searches.
MAX_GRID_ORDER = 5


@dataclass(frozen=True)
class ArimaSpec:
    """Model orders: AR(p), d-fold differencing, MA(q). The equation of the
    differenced series always has a constant (the drift when d = 1), so a
    model has p + q + 1 parameters."""

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if min(self.p, self.d, self.q) < 0:
            raise InvalidArgumentError("orders p, d, q must be >= 0")

    @property
    def n_params(self) -> int:
        return self.p + self.q + 1


@dataclass(frozen=True)
class ArimaFit:
    spec: ArimaSpec
    constant: float
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    sigma2: float
    log_likelihood: float
    adj_r_squared: float
    residuals: TimeSeries
    converged: bool


def _css_residuals(w: np.ndarray, c: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    """Innovations e_t for t = p..n-1 with zero pre-sample innovations."""
    p = len(ar)
    rhs = w[p:] - c
    for i in range(1, p + 1):
        rhs = rhs - ar[i - 1] * w[p - i : len(w) - i]
    if len(ma):
        from scipy import signal  # deferred: cold start; MA fits only

        return signal.lfilter([1.0], np.concatenate(([1.0], ma)), rhs)
    return rhs


def _unpack(theta: np.ndarray, spec: ArimaSpec) -> tuple[float, np.ndarray, np.ndarray]:
    ar = np.asarray(theta[1 : 1 + spec.p], dtype=float)
    ma = np.asarray(theta[1 + spec.p : 1 + spec.p + spec.q], dtype=float)
    return float(theta[0]), ar, ma


def _css_objective(
    w: np.ndarray, spec: ArimaSpec, burn: int
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The concentrated CSS objective f = n_eff/2 * log(SSR/n_eff) of
    theta = (c, ar, ma), as a callable that returns (f, grad f).

    The residual equation theta(B) e_t = w_t - c - sum phi_i w_{t-i} gives
    de/dc = -theta(B)^-1 1, de/dphi_i = -theta(B)^-1 w_{t-i} and
    de/dtheta_j = -theta(B)^-1 e_{t-j}, the filtered -e shifted by j, all
    with zero pre-sample values. The p + 2 rows are filtered in one call, and
    grad f = n_eff * J'e / SSR over the residuals the SSR sums.
    """
    from scipy import signal  # deferred: cold start; MA fits only

    p, q = spec.p, spec.q
    m = len(w) - p
    n_eff = len(w) - burn
    lo = burn - p  # first residual inside the likelihood
    # Rows 0..p are fixed per fit; row p + 1 receives -e at each call.
    rows = np.empty((p + 2, m))
    rows[0] = -1.0
    for i in range(1, p + 1):
        rows[i] = -w[p - i : p - i + m]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        c, ar, ma = _unpack(theta, spec)
        e = _css_residuals(w, c, ar, ma)
        ssr = float(e[lo:] @ e[lo:])
        if not np.isfinite(ssr) or ssr <= 0.0:
            return 1e300, np.zeros(p + q + 1)
        rows[-1] = -e
        jac = signal.lfilter([1.0], np.concatenate(([1.0], ma)), rows, axis=1)
        grad = np.empty(p + q + 1)
        grad[: p + 1] = jac[: p + 1, lo:] @ e[lo:]
        for j in range(1, q + 1):
            start = max(lo, j)  # the row shifted by j is zero before index j
            grad[p + j] = jac[-1, start - j : m - j] @ e[start:]
        return 0.5 * n_eff * np.log(ssr / n_eff), (n_eff / ssr) * grad

    return objective


def _ar_stationary(ar: np.ndarray) -> bool:
    if len(ar) == 0:
        return True
    roots = np.roots(np.concatenate(([1.0], -ar))[::-1])
    return bool(np.all(np.abs(roots) > 1.0))


def _reflect_ma(ma: np.ndarray) -> np.ndarray:
    """Reflect MA roots inside the unit circle to their invertible mirrors."""
    if len(ma) == 0:
        return ma
    roots = np.roots(np.concatenate(([1.0], ma))[::-1])
    if np.all(np.abs(roots) >= 1.0):
        return ma
    fixed = np.where(np.abs(roots) < 1.0, 1.0 / np.conj(roots), roots)
    poly = np.array([1.0])
    for r in fixed:
        poly = np.convolve(poly, np.array([1.0, -1.0 / r]))
    return np.real(poly[1:])


def _ar_lstsq(w: np.ndarray, spec: ArimaSpec, burn: int) -> np.ndarray:
    """Least-squares constant and AR coefficients of w[burn:] on its p lags."""
    n = len(w)
    cols = [np.ones(n - burn)] + [w[burn - i : n - i] for i in range(1, spec.p + 1)]
    beta, *_ = np.linalg.lstsq(np.column_stack(cols), w[burn:], rcond=None)
    return beta


def _ar_init(w: np.ndarray, spec: ArimaSpec) -> np.ndarray:
    """Least-squares AR start values; MA terms start at zero."""
    head = _ar_lstsq(w, spec, spec.p) if spec.p else [w.mean()]
    return np.concatenate([head, np.zeros(spec.q)])


def _gaussian_loglik(ssr: float, n: int) -> tuple[float, float]:
    """(sigma2_ml, log-likelihood) of n Gaussian residuals whose squares sum
    to ssr; sigma2_ml is floored at the smallest normal double."""
    sigma2 = max(ssr / n, np.finfo(float).tiny)
    return sigma2, -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)


def _adjusted_r2(r2: float, n: int, k_total: int) -> float:
    if n - k_total <= 0:
        return float("nan")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k_total)


def fit_arima(series: TimeSeries, spec: ArimaSpec, _burn: int | None = None) -> ArimaFit:
    """Estimate an ARIMA model by conditional sum of squares.

    Reports the Gaussian log-likelihood, sigma^2 = SSR/n_eff, and an adjusted
    R^2 of the one-step fitted values on the undifferenced scale measured
    against the lag-1 naive forecast. Non-convergence is reported through the
    `converged` flag, never silently.
    """
    y = series.to_array()
    if np.isnan(y).any():
        raise InvalidArgumentError(f"series {series.name!r} has missing values")
    w = np.diff(y, n=spec.d) if spec.d else y
    n = len(w)
    if n < spec.p + spec.q + 5:
        raise InvalidArgumentError(
            f"need at least p + q + 5 = {spec.p + spec.q + 5} observations after differencing, got {n}"
        )
    burn = spec.p if _burn is None else max(_burn, spec.p)
    n_eff = n - burn

    converged = True
    if spec.p == 0 and spec.q == 0:
        c = float(w[burn:].mean())
        ar = np.empty(0)
        ma = np.empty(0)
    elif spec.q == 0:
        # Pure AR: the conditional sum of squares is exactly linear least
        # squares on the lagged values, so the LS solution is the optimum.
        c, ar, ma = _unpack(_ar_lstsq(w, spec, burn), spec)
        if not _ar_stationary(ar):
            converged = False
    else:
        from scipy import optimize  # deferred: cold start; MA fits only

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize.minimize(
                _css_objective(w, spec, burn),
                _ar_init(w, spec),
                method="BFGS",
                jac=True,
                options={"gtol": _GRAD_TOL, "maxiter": _MAX_ITER},
            )
        c, ar, ma = _unpack(res.x, spec)
        grad_tol = 1e-4 * max(1.0, abs(float(res.fun)))
        grad_ok = np.isfinite(res.jac).all() and float(np.max(np.abs(res.jac))) < grad_tol
        converged = bool(np.isfinite(res.x).all() and (res.success or grad_ok))
        reflected = _reflect_ma(ma)
        if not np.allclose(reflected, ma):
            ma = reflected
        if not _ar_stationary(ar):
            converged = False

    e = _css_residuals(w, c, ar, ma)[burn - spec.p :]
    ssr = float(e @ e)
    if ssr <= 0.0:
        raise DegenerateInputError("residuals have zero variance")
    sigma2, log_likelihood = _gaussian_loglik(ssr, n_eff)

    # One-step fitted values on the level scale: y_hat_t = y_t - e_t, compared
    # against the lag-1 naive forecast y_{t-1} (needs t >= 1).
    offset = spec.d + burn  # level index of the first residual
    lo = max(offset, 1)
    naive_err = y[lo:] - y[lo - 1 : -1]
    naive_ss = float(naive_err @ naive_err)
    model_err = e[lo - offset :]
    if naive_ss > 0.0 and len(model_err):
        r2 = 1.0 - float(model_err @ model_err) / naive_ss
        adj_r2 = _adjusted_r2(r2, len(model_err), spec.n_params)
    else:
        adj_r2 = float("nan")

    residuals = TimeSeries(series.name + "_residuals", series.start + offset, tuple(e))
    return ArimaFit(
        spec=spec,
        constant=c,
        ar_coeffs=tuple(float(a) for a in ar),
        ma_coeffs=tuple(float(m) for m in ma),
        sigma2=sigma2,
        log_likelihood=log_likelihood,
        adj_r_squared=adj_r2,
        residuals=residuals,
        converged=converged,
    )


def fit_summary(fit: ArimaFit) -> dict:
    """JSON-ready summary of a fitted model (orders, coefficients, variance,
    likelihood, adjusted R^2, convergence)."""
    return {
        "order": [fit.spec.p, fit.spec.d, fit.spec.q],
        "include_constant": True,  # every ArimaSpec has a constant
        "constant": fit.constant,
        "ar_coeffs": list(fit.ar_coeffs),
        "ma_coeffs": list(fit.ma_coeffs),
        "sigma2": fit.sigma2,
        "log_likelihood": fit.log_likelihood,
        "adj_r_squared": fit.adj_r_squared,
        "n_residuals": len(fit.residuals),
        "converged": fit.converged,
    }


def suggest_orders_acf(series: TimeSeries, max_p: int, max_q: int) -> tuple[int, int]:
    """ACF/PACF cutoff heuristic: the last lag outside the 1.96/sqrt(n) band."""
    n = len(series)
    max_lag = max(max_p, max_q, 1)
    if n <= max_lag:
        return 0, 0
    band = 1.96 / np.sqrt(n)
    r = acf(series, max_lag)
    phi = pacf(series, max_lag)
    p_sugg = max([k for k in range(1, max_p + 1) if abs(phi[k]) > band], default=0)
    q_sugg = max([k for k in range(1, max_q + 1) if abs(r[k]) > band], default=0)
    return p_sugg, q_sugg


def select_orders(series: TimeSeries, max_p: int, max_q: int) -> ArimaSpec:
    """Grid-search (p, q) on a stationary series by AIC = -2 loglik + 2(p+q+1).

    All candidates are conditioned on the same initial max_p observations so
    their likelihoods are comparable. Candidates within a small AIC distance
    of the minimum count as ties and are resolved toward smaller p+q, then
    smaller p.
    """
    if not 0 <= max_p <= MAX_GRID_ORDER or not 0 <= max_q <= MAX_GRID_ORDER:
        raise InvalidArgumentError(f"max_p and max_q must be in 0..{MAX_GRID_ORDER}")
    if max_p == 0 and max_q == 0:
        return ArimaSpec(0, 0, 0)

    scored: list[tuple[float, int, int]] = []
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            spec = ArimaSpec(p, 0, q)
            try:
                fit = fit_arima(series, spec, _burn=max_p)
            except (InvalidArgumentError, DegenerateInputError):
                continue
            if not fit.converged:
                continue
            aic = -2.0 * fit.log_likelihood + 2.0 * (p + q + 1)
            scored.append((aic, p, q))
    if not scored:
        raise DegenerateInputError("no candidate order could be estimated")
    best_aic = min(a for a, _, _ in scored)
    tied = [(p + q, p, q) for a, p, q in scored if a <= best_aic + _AIC_TIE_TOL]
    _, p_sel, q_sel = min(tied)
    heuristic = suggest_orders_acf(series, max_p, max_q)
    logger.info(
        "order selection: AIC grid chose (%d,%d); ACF/PACF cutoff heuristic suggests %s",
        p_sel,
        q_sel,
        heuristic,
    )
    return ArimaSpec(p_sel, 0, q_sel)


def _integrate_step(tails: list[float], w_value: float) -> float:
    """Undo one step of d-fold differencing given the running level tails."""
    v = w_value
    for k in range(len(tails) - 1, -1, -1):
        v = tails[k] + v
        tails[k] = v
    return tails[0]


def forecast_arima(fit: ArimaFit, history: TimeSeries, horizon: int) -> np.ndarray:
    """The `horizon` dynamic forecasts past the end of `history`.

    Predictions feed back as lagged values with future innovations at zero;
    differences are integrated back to the level scale.
    """
    if horizon < 1:
        raise InvalidArgumentError(f"horizon must be >= 1, got {horizon}")
    spec = fit.spec
    y = history.to_array()
    if np.isnan(y).any():
        raise InvalidArgumentError("history has missing values")
    if len(y) < spec.d + spec.p + 1:
        raise InvalidArgumentError("history too short to seed the forecast recursion")
    ar = np.asarray(fit.ar_coeffs)
    ma = np.asarray(fit.ma_coeffs)

    w = np.diff(y, n=spec.d) if spec.d else y
    e_hist = _css_residuals(w, fit.constant, ar, ma)
    w_ext = list(w)
    e_ext = [0.0] * spec.p + list(e_hist)
    tails = [float(np.diff(y, n=k)[-1]) for k in range(spec.d)]
    preds: list[float] = []
    for _ in range(horizon):
        t = len(w_ext)
        wt = fit.constant
        for i in range(1, spec.p + 1):
            wt += ar[i - 1] * w_ext[t - i]
        for j in range(1, spec.q + 1):
            wt += ma[j - 1] * e_ext[t - j]
        w_ext.append(wt)
        e_ext.append(0.0)
        preds.append(_integrate_step(tails, wt) if spec.d else wt)
    return np.array(preds, dtype=float)
