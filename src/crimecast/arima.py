"""ARIMA(p,d,q) estimation by conditional sum of squares, AIC order
selection, and dynamic forecasting.

Estimation conditions on the first p observations of the differenced series
with pre-sample innovations set to zero. A pure AR model is then linear
least squares. With MA terms the conditional sum of squares (CSS) is a
nonlinear least-squares problem, fitted as Box and Jenkins fit it
(*Time Series Analysis*, ch. 7) by Marquardt's damped Gauss-Newton method
(Marquardt 1963, *SIAM J. Appl. Math.* 11:431-441), from least-squares AR
start values. The residual Jacobian comes from one MA filter pass over the
stacked derivative rows.

The solver moves in unconstrained coordinates u. Each u_k maps to a partial
autocorrelation r_k = tanh(u_k) in (-1, 1), and the Durbin-Levinson
recursion maps r to the coefficients of a stationary AR polynomial (Monahan
1984, *Biometrika* 71:403-404; Jones 1980, *Technometrics* 22:389-395). The
AR coefficients are this transform of u_ar and the MA coefficients minus
the transform of u_ma, so every iterate is stationary and invertible.

`_Css.residuals` is the one CSS residual routine: the AR part on lagged
views of the series, then one MA filter pass. The solver calls it at each
trial point, with the coefficients but not their derivative
(`_pacf_coefficients`), and a fit keeps the residuals of its last point.
Only a taken step builds the next Jacobian and takes that derivative
(`_pacf_transform`); a refused step reuses the normal matrix. Both
transforms do the same floating-point operations, so they agree bit for bit.

A CSS optimum on the unit circle drives some |r_k| towards 1. Once one
reaches 1 - 1e-4 the fit stops there, on the boundary. An MA boundary fit
is reported as converged with `ma_boundary` set; an AR boundary fit, a unit
root in a model fitted as stationary, has not converged, and neither has a
pure AR fit whose least-squares coefficients reach it. `select_orders`
drops both kinds of candidates.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys

import numpy as np

from .exceptions import DegenerateInputError, InvalidArgumentError
from .record import Record
from .series import _defined_values, acf, pacf

logger = logging.getLogger(__name__)

# Solver steps (each a linear solve and a residual pass) before a fit gives up.
_MAX_ITER = 100
# A taken step that lowers the SSR by less than this share of it ends a fit.
_SSR_RTOL = 1e-12
# A fit whose partial autocorrelation reaches this size is on the boundary.
_BOUNDARY = 1.0 - 1e-4
# Candidates within this AIC distance of the minimum are treated as tied and
# resolved toward the more parsimonious order. Exact AIC ties have measure
# zero, so the tie-break rule needs a band; 6 units is past the
# "considerably less support" threshold of the AIC-difference literature.
_AIC_TIE_TOL = 6.0
# Largest p or q that `select_orders` searches.
MAX_GRID_ORDER = 5


class ArimaSpec(Record):
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


class ArimaFit(Record):
    spec: ArimaSpec
    constant: float
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    sigma2: float
    log_likelihood: float
    adj_r_squared: float
    residuals: np.ndarray
    converged: bool
    ma_boundary: bool = False  # the MA polynomial stopped on the unit circle


def _pacf_transform(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients phi of the stationary polynomial 1 - sum phi_k z^k
    whose partial autocorrelations are r = tanh(u), and d phi / d u.

    Durbin-Levinson: phi^(k) = (phi^(k-1) - r_k reversed(phi^(k-1)), r_k),
    differentiated along the way (Monahan 1984). The orders are small, so
    the recursion runs on Python floats, which beat numpy at this size.
    """
    phi: list[float] = []
    dphi: list[list[float]] = []  # dphi[j][i] = d phi_j / d u_i
    for i, x in enumerate(u):
        r = math.tanh(x)
        dr = 1.0 - r * r
        rev = phi[::-1]
        dphi = [
            [a - r * b for a, b in zip(row, mirror)] + [-back * dr]
            for row, mirror, back in zip(dphi, dphi[::-1], rev)
        ] + [[0.0] * i + [dr]]
        phi = [a - r * b for a, b in zip(phi, rev)] + [r]
    k = len(phi)
    return np.array(phi), np.array(dphi).reshape(k, k)


def _pacf_coefficients(u: np.ndarray) -> list[float]:
    """The phi of `_pacf_transform(u)` alone, by the same operations in the
    same order, so that the two agree bit for bit."""
    phi: list[float] = []
    for x in u:
        r = math.tanh(x)
        phi = [a - r * b for a, b in zip(phi, phi[::-1])] + [r]
    return phi


def _pacf_inverse(phi: np.ndarray) -> np.ndarray | None:
    """The u of `_pacf_transform` that gives phi, by the step-down recursion;
    None when a partial autocorrelation is not inside the boundary."""
    phi = np.array(phi, dtype=float)
    r = np.empty(len(phi))
    for i in range(len(phi) - 1, -1, -1):
        r[i] = phi[i]
        if not abs(r[i]) < _BOUNDARY:
            return None
        phi[:i] = (phi[:i] + r[i] * phi[:i][::-1]) / (1.0 - r[i] * r[i])
    return np.arctanh(r)


@functools.cache
def _dtbtrs():
    """LAPACK's banded triangular solve, loaded once per process: from scipy's
    extension file `scipy/linalg/_flapack*` alone, registered under its module
    name so that a later `import scipy.linalg` reuses it; or from
    `scipy.linalg.lapack` (all of scipy.linalg, 26 MB more) when scipy.linalg
    is loaded already or no such file exists, as it is scipy's private layout."""
    import scipy  # deferred: cold start; MA fits only

    if "scipy.linalg" not in sys.modules:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy.__path__[0], "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.dtbtrs
    from scipy.linalg import lapack

    return lapack.dtbtrs


class _Css:
    """The CSS residuals e_t, t = p..n-1, of the series w at orders p and q,
    with zero pre-sample innovations; with MA terms also their Jacobian from
    index `lo` (t = burn) in the solver's coordinates x = (c, u_ar, u_ma): the
    AR coefficients `_pacf_transform(u_ar)`, the MA ones minus that of u_ma.

    It owns its buffers: the AR-lag views of w and, when q > 0, the Jacobian's
    stacked rows and one Fortran-order MA band, which every filter call
    refills and hands to LAPACK's banded solver (`_dtbtrs`) without a copy."""

    def __init__(self, w: np.ndarray, p: int, q: int, lo: int = 0) -> None:
        self.p, self.q, self.lo = p, q, lo
        m = len(w) - p
        self.head = w[p:]
        self.lags = [w[p - i : p - i + m] for i in range(1, p + 1)]
        if not q:
            return
        # Rows 0..p are fixed per fit; row p + 1 receives -e at each call.
        self.rows = np.empty((p + 2, m))
        self.rows[0] = -1.0
        for i, lag in enumerate(self.lags, start=1):
            self.rows[i] = -lag
        # Row j holds theta_j; row 0, the unit diagonal, is unread. LAPACK reads
        # only the first m - j entries of row j, so a refill may write whole rows.
        self.band = np.zeros((q + 1, m), order="F")
        self.dtbtrs = _dtbtrs()

    def _filter(self, ma: np.ndarray, b: np.ndarray, overwrite: bool) -> np.ndarray:
        """theta(B)^-1 of each column of the Fortran-order b, with zero
        pre-sample values, by forward substitution in the banded system
        theta(B) e = b; with `overwrite` LAPACK may write e into b."""
        self.band[1:] = ma[:, None]
        e, _ = self.dtbtrs(self.band, b, uplo="L", diag="U", overwrite_b=overwrite)
        return e

    def residuals(self, c: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
        """e_t = w_t - c - sum phi_i w_{t-i} - sum theta_j e_{t-j}."""
        rhs = self.head - c
        for phi, lag in zip(ar, self.lags):
            rhs -= phi * lag
        return self._filter(ma, rhs[:, None], True)[:, 0] if self.q else rhs

    def jacobian(self, x: np.ndarray, e: np.ndarray) -> np.ndarray:
        """d e[lo:] / dx as a (p + q + 1) x n_eff array, at x with residuals e.

        theta(B) e_t = w_t - c - sum phi_i w_{t-i} gives de/dc = -theta(B)^-1 1,
        de/dphi_i = -theta(B)^-1 w_{t-i} and de/dtheta_j = -theta(B)^-1 e_{t-j},
        the filtered -e shifted by j, all with zero pre-sample values; one
        filter call covers the p + 2 rows. The chain rule through
        `_pacf_transform` takes the phi and theta rows to u.
        """
        p, q = self.p, self.q
        ma, dma = _pacf_transform(x[1 + p :])
        self.rows[-1] = -e
        filtered = self._filter(-ma, self.rows.T, False).T
        m = len(e)
        n_eff = m - self.lo
        shifted = np.zeros((q, n_eff))
        for j in range(1, q + 1):
            start = max(self.lo, j)  # the row shifted by j is zero before index j
            shifted[j - 1, start - self.lo :] = filtered[-1, start - j : m - j]
        jac = np.empty((1 + p + q, n_eff))
        jac[0] = filtered[0, self.lo :]
        if p:
            jac[1 : 1 + p] = _pacf_transform(x[1 : 1 + p])[1].T @ filtered[1 : 1 + p, self.lo :]
        jac[1 + p :] = -dma.T @ shifted
        return jac


def _css_lm(w: np.ndarray, p: int, q: int, burn: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, bool, bool]:
    """Minimize the CSS by Marquardt's damped Gauss-Newton method over
    x = (c, u_ar, u_ma); returns (c, ar, ma, e, converged, ma_boundary), e the
    residuals at (c, ar, ma).

    Each step solves (J J' + lam diag(J J')) dx = -J e. A step that lowers
    the SSR is taken and lam shrinks by the gain ratio; one that does not is
    refused and lam grows (Madsen, Nielsen & Tingleff 2004, sec. 3.2). The
    fit converges when a taken step lowers the SSR by less than _SSR_RTOL of
    it, or when a refused step's predicted decrease is below that: no descent
    step is left. It stops on the boundary when a partial autocorrelation
    reaches _BOUNDARY in size; an AR boundary fit has not converged.
    """
    # Least-squares AR start values, projected to zero AR when they are not
    # stationary; the MA terms start at zero.
    head = _ar_lstsq(w, p, p)
    u_ar = _pacf_inverse(head[1:])
    if u_ar is None:
        head, u_ar = np.array([w.mean()]), np.zeros(p)
    lo = burn - p
    css = _Css(w, p, q, lo)

    def at(x: np.ndarray) -> tuple[tuple[float, np.ndarray, np.ndarray], np.ndarray]:
        """The coefficients of x, without their derivative, and their residuals."""
        coeffs = float(x[0]), np.array(_pacf_coefficients(x[1 : 1 + p])), -np.array(_pacf_coefficients(x[1 + p :]))
        return coeffs, css.residuals(*coeffs)

    x = np.concatenate([head[:1], u_ar, np.zeros(q)])
    coeffs, e = at(x)
    ssr = float(e[lo:] @ e[lo:])
    converged = False
    lam, nu = 1e-3, 2.0
    jac = css.jacobian(x, e)
    jtj, g = jac @ jac.T, jac @ e[lo:]  # kept through refused steps, where x does not move
    for _ in range(_MAX_ITER):
        scale = jtj.diagonal()
        a = jtj.copy()
        a.flat[:: len(a) + 1] += lam * scale
        try:
            step = np.linalg.solve(a, -g)
        except np.linalg.LinAlgError:
            break
        predicted = float(lam * (step * scale) @ step - step @ g)
        trial = x + step
        coeffs_trial, e_trial = at(trial)
        ssr_trial = float(e_trial[lo:] @ e_trial[lo:])
        if not ssr_trial < ssr:
            if predicted <= _SSR_RTOL * ssr:
                converged = True
                break
            lam *= nu
            nu *= 2.0
            continue
        decrease = ssr - ssr_trial
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * decrease / predicted - 1.0) ** 3)
        nu = 2.0
        small = decrease < _SSR_RTOL * ssr
        x, coeffs, e, ssr = trial, coeffs_trial, e_trial, ssr_trial
        if small or (np.abs(np.tanh(x[1:])) >= _BOUNDARY).any():
            converged = True
            break
        jac = css.jacobian(x, e)
        jtj, g = jac @ jac.T, jac @ e[lo:]
    r = np.abs(np.tanh(x[1:]))
    ma_boundary = bool(np.any(r[p:] >= _BOUNDARY))
    return *coeffs, e, converged and not np.any(r[:p] >= _BOUNDARY), ma_boundary


def _ar_lstsq(w: np.ndarray, p: int, burn: int) -> np.ndarray:
    """Least-squares constant and AR coefficients of w[burn:] on its p lags;
    the mean alone when p = 0."""
    if not p:
        return np.array([w[burn:].mean()])
    n = len(w)
    cols = [np.ones(n - burn)] + [w[burn - i : n - i] for i in range(1, p + 1)]
    beta, *_ = np.linalg.lstsq(np.column_stack(cols), w[burn:], rcond=None)
    return beta


def _gaussian_loglik(ssr: float, n: int) -> tuple[float, float]:
    """(sigma2_ml, log-likelihood) of n Gaussian residuals whose squares sum
    to ssr; sigma2_ml is floored at the smallest normal double."""
    sigma2 = max(ssr / n, np.finfo(float).tiny)
    return sigma2, -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)


def _adjusted_r2(r2: float, n: int, k_total: int) -> float:
    if n - k_total <= 0:
        return float("nan")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k_total)


def fit_arima(series: np.ndarray, spec: ArimaSpec, _burn: int | None = None) -> ArimaFit:
    """Estimate an ARIMA model by conditional sum of squares.

    Reports the Gaussian log-likelihood, sigma^2 = SSR/n_eff, and an adjusted
    R^2 of the one-step fitted values on the undifferenced scale measured
    against the lag-1 naive forecast. Non-convergence is reported through the
    `converged` flag, never silently, and a fit that stopped with an MA root
    on the unit circle through `ma_boundary`.
    """
    y = _defined_values(series)
    w = np.diff(y, n=spec.d) if spec.d else y
    n = len(w)
    if n < spec.p + spec.q + 5:
        raise InvalidArgumentError(
            f"need at least p + q + 5 = {spec.p + spec.q + 5} observations after differencing, got {n}"
        )
    burn = spec.p if _burn is None else max(_burn, spec.p)

    if spec.q == 0:
        # The CSS is exactly linear least squares on the lagged values, so the
        # LS solution is the optimum; on the AR boundary it has not converged.
        beta = _ar_lstsq(w, spec.p, burn)
        c, ar, ma = float(beta[0]), beta[1:], np.empty(0)
        converged, ma_boundary = _pacf_inverse(ar) is not None, False
        e = _Css(w, spec.p, 0).residuals(c, ar, ma)
    else:
        c, ar, ma, e, converged, ma_boundary = _css_lm(w, spec.p, spec.q, burn)
    e = e[burn - spec.p :]
    ssr = float(e @ e)
    if ssr <= 0.0:
        raise DegenerateInputError("residuals have zero variance")
    sigma2, log_likelihood = _gaussian_loglik(ssr, len(e))

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

    return ArimaFit(
        spec=spec,
        constant=c,
        ar_coeffs=tuple(float(a) for a in ar),
        ma_coeffs=tuple(float(m) for m in ma),
        sigma2=sigma2,
        log_likelihood=log_likelihood,
        adj_r_squared=adj_r2,
        residuals=e,
        converged=converged,
        ma_boundary=ma_boundary,
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
        "ma_boundary": fit.ma_boundary,
    }


def suggest_orders_acf(series: np.ndarray, max_p: int, max_q: int) -> tuple[int, int]:
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


def select_orders(series: np.ndarray, max_p: int, max_q: int) -> ArimaSpec:
    """Grid-search (p, q) on a stationary series by AIC = -2 loglik + 2(p+q+1).

    All candidates are conditioned on the same initial max_p observations so
    their likelihoods are comparable. Unconverged candidates and those whose
    MA polynomial stopped on the unit circle are dropped: a boundary fit's
    CSS is not a likelihood optimum, and its AIC undercuts the interior fits.
    Candidates within a small AIC distance of the minimum count as ties and
    are resolved toward smaller p+q, then smaller p.
    """
    if not 0 <= max_p <= MAX_GRID_ORDER or not 0 <= max_q <= MAX_GRID_ORDER:
        raise InvalidArgumentError(f"max_p and max_q must be in 0..{MAX_GRID_ORDER}")
    if max_p == 0 and max_q == 0:
        return ArimaSpec(0, 0, 0)

    scored: list[tuple[float, int, int]] = []
    unconverged = boundary = 0
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            spec = ArimaSpec(p, 0, q)
            try:
                fit = fit_arima(series, spec, _burn=max_p)
            except (InvalidArgumentError, DegenerateInputError):
                continue
            if not fit.converged:
                unconverged += 1
            elif fit.ma_boundary:
                boundary += 1
            else:
                aic = -2.0 * fit.log_likelihood + 2.0 * (p + q + 1)
                scored.append((aic, p, q))
    if not scored:
        raise DegenerateInputError("no candidate order could be estimated")
    best_aic = min(a for a, _, _ in scored)
    tied = [(p + q, p, q) for a, p, q in scored if a <= best_aic + _AIC_TIE_TOL]
    _, p_sel, q_sel = min(tied)
    heuristic = suggest_orders_acf(series, max_p, max_q)
    logger.info(
        "order selection: AIC grid chose (%d,%d) after dropping %d MA boundary and %d unconverged "
        "candidates; ACF/PACF cutoff heuristic suggests %s",
        p_sel,
        q_sel,
        boundary,
        unconverged,
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


def forecast_arima(fit: ArimaFit, history: np.ndarray, horizon: int) -> np.ndarray:
    """The `horizon` dynamic forecasts past the end of `history`.

    Predictions feed back as lagged values with future innovations at zero;
    differences are integrated back to the level scale.
    """
    if horizon < 1:
        raise InvalidArgumentError(f"horizon must be >= 1, got {horizon}")
    spec = fit.spec
    y = _defined_values(history)
    if len(y) < spec.d + spec.p + 1:
        raise InvalidArgumentError("history too short to seed the forecast recursion")
    ar, ma = np.asarray(fit.ar_coeffs), np.asarray(fit.ma_coeffs)
    w = np.diff(y, n=spec.d) if spec.d else y
    e_hist = _Css(w, spec.p, spec.q).residuals(fit.constant, ar, ma)
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
