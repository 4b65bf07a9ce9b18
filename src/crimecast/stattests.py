"""Hypothesis tests and diagnostics: ADF, Ljung-Box, Durbin-Watson, Hausman,
Levene, paired t, and Cohen's kappa.

All functions are pure. The test statistics and their p-values are computed
here with numpy and `math`; no scipy is loaded. The chi-square tail of an
integer degree of freedom is a finite sum (Abramowitz and Stegun 1964,
26.4.4-5). The t and F(1, nu) tails are one regularized incomplete beta
function, evaluated by its continued fraction (Press et al., Numerical
Recipes, 6.4).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import DegenerateInputError, InvalidArgumentError
from .record import Record
from .series import _defined_values, acf


class TestResult(Record):
    """A test statistic with its p-value, degrees of freedom (or lag count),
    and a short free-text detail such as the critical-value rows used."""

    statistic: float
    p_value: float
    dof_or_lags: int
    detail: str = ""

    __test__ = False  # keep pytest from collecting this record

    def __post_init__(self) -> None:
        if not np.isfinite(self.statistic):
            raise InvalidArgumentError("test statistic must be finite")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidArgumentError(f"p-value {self.p_value} outside [0,1]")


# Finite-sample Dickey-Fuller critical values (Fuller 1976; Banerjee et al.
# 1993) of the t-ratio on the lagged level, regression with a constant. Rows
# are sample sizes, columns the cumulative probabilities in _ADF_PROBS.
_ADF_PROBS = np.array([0.01, 0.025, 0.05, 0.10, 0.90, 0.95, 0.975, 0.99])
_ADF_NS = np.array([25, 50, 100, 250, 500, 100000])
_ADF_TABLE = np.array(
    [
        [-3.75, -3.33, -3.00, -2.63, -0.37, 0.00, 0.34, 0.72],
        [-3.58, -3.22, -2.93, -2.60, -0.40, -0.03, 0.29, 0.66],
        [-3.51, -3.17, -2.89, -2.58, -0.42, -0.05, 0.26, 0.63],
        [-3.46, -3.14, -2.88, -2.57, -0.42, -0.06, 0.24, 0.62],
        [-3.44, -3.13, -2.87, -2.57, -0.43, -0.07, 0.24, 0.61],
        [-3.43, -3.12, -2.86, -2.57, -0.44, -0.07, 0.23, 0.60],
    ]
)


def _chi2_sf(k: int, x: float) -> float:
    """P(chi2_k > x) for an integer k >= 1 (Abramowitz and Stegun 26.4.4-5).

    With lam = x / 2 it is erfc(sqrt(lam)) for odd k, plus exp(-lam) times
    the sum of lam^s / Gamma(s + 1) over s = k/2 - 1, k/2 - 2, ... >= 0.
    Every term is positive, so the relative error stays at a few ulps. From
    x = 2,800 on, exp(-x/4) underflows and each term is taken in logs, at
    about x * 1e-16 relative; only a k near x leaves such a tail above 0.
    """
    if not x > 0.0:
        return 1.0
    lam = 0.5 * x
    s = 0.5 * (k % 2)
    p = math.erfc(math.sqrt(lam)) if s else 0.0
    if lam < 1400.0:
        # exp(-lam / 2) is a normal double, and so is each term times it.
        half = math.exp(-0.5 * lam)
        term, total = half * (2.0 * math.sqrt(lam / math.pi) if s else 1.0), 0.0
        while s < 0.5 * k:
            total += term
            s += 1.0
            term *= lam / s
        return min(p + total * half, 1.0)
    log_lam = math.log(lam)
    while s < 0.5 * k:
        p += math.exp(s * log_lam - lam - math.lgamma(s + 1.0))
        s += 1.0
    return min(p, 1.0)


def _expansion_coefficients(b: float, n: int) -> tuple[float, ...]:
    """p_0..p_{n-1} of the large-a expansion of I_x(a, b) (DiDonato and
    Morris 1992, eq. 9.3)."""
    p = [1.0]
    for j in range(1, n):
        s = sum((m * b - j) * p[j - m] / math.factorial(2 * m + 1) for m in range(1, j))
        p.append(s / j + (b - 1.0) / math.factorial(2 * j + 1))
    return tuple(p)


_HALF_EXPANSION = _expansion_coefficients(0.5, 16)  # its domain below needs at most 10


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction cf of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * cf,
    by the modified Lentz method (Numerical Recipes 6.4). It converges fast
    for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    h = d = 1.0 / d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t2_sf(nu: int, t2: float) -> float:
    """P(T^2 > t2) for T ~ t(nu), which is also P(F(1, nu) > t2).

    It is I_x(a, 1/2) with a = nu/2 and x = nu / (nu + t2), and log x is
    -log1p(t2/nu). 1/B(a, 1/2) comes from the recurrence
    1/B(a+1, 1/2) = 1/B(a, 1/2) (2a+1)/(2a), from 1/pi at a = 1/2 or 1/2 at
    a = 1: a difference of lgamma values near nu = 6,000 would cost 1e-11
    relative. When x is near 1 the continued fraction loses about nu/t2
    ulps to cancellation, so for nu >= 30 and 1 - x <= 0.3 the tail comes
    from the expansion in 1/a of DiDonato and Morris (1992, section 9),
    which at b = 1/2 starts from erfc. For nu < 30 and a small t2 it is the
    complement of I_{1-x}(1/2, a), which is then at least 0.08.
    """
    if not t2 > 0.0:
        return 1.0
    a = 0.5 * nu
    inv_beta = 0.5 if nu % 2 == 0 else 1.0 / math.pi
    for m in range(2 - nu % 2, nu, 2):
        inv_beta *= (m + 1.0) / m
    log_x = -math.log1p(t2 / nu)
    y = 1.0 / (1.0 + nu / t2)  # 1 - x, also for a t2 of any size
    if nu >= 30 and y <= 0.3:
        # Sum p_n J_n with J_0 = Q(1/2, u) = erfc(sqrt(u)) and J_n from J_{n-1}
        # (their eq. 9.6), each J_n scaled by u^(1/2) e^-u / Gamma(1/2).
        a_eff = a - 0.25
        u = -a_eff * log_x
        h = math.sqrt(u / math.pi) * math.exp(-u)
        j = math.erfc(math.sqrt(u))
        total, lxp, b2n = j, 1.0, 0.5
        for p_n in _HALF_EXPANSION[1:]:
            j = (b2n * (b2n + 1.0) * j + (u + b2n + 1.0) * lxp * h) / (4.0 * a_eff * a_eff)
            lxp *= 0.25 * log_x * log_x
            b2n += 2.0
            total += p_n * j
            if abs(p_n * j) <= 1e-17 * total:
                break
        return min(math.sqrt(math.pi / a_eff) * inv_beta * total, 1.0)
    front = math.exp(a * log_x) * math.sqrt(y) * inv_beta
    if t2 * (nu + 2.0) > 3.0 * nu:  # x < (a + 1) / (a + 3/2): the tail itself
        return min(front * _beta_cf(a, 0.5, nu / (nu + t2)) / a, 1.0)
    return 1.0 - front * _beta_cf(0.5, a, y) / 0.5


def _ols_lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares fit returning (coefficients, residuals, ssr)."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return beta, resid, float(resid @ resid)


def _adf_pvalue(stat: float, nobs: int) -> tuple[float, str]:
    """Interpolate the DF table.

    Critical values are first interpolated across the sample-size rows, then
    the p-value is interpolated linearly across the tabulated probabilities
    and clamped to [0.01, 0.99].
    """
    n = float(np.clip(nobs, _ADF_NS[0], _ADF_NS[-1]))
    hi = int(np.searchsorted(_ADF_NS, n))
    if _ADF_NS[hi] == n:
        crit = _ADF_TABLE[hi]
        rows = f"n={_ADF_NS[hi]}"
    else:
        lo = hi - 1
        w = (n - _ADF_NS[lo]) / (_ADF_NS[hi] - _ADF_NS[lo])
        crit = (1 - w) * _ADF_TABLE[lo] + w * _ADF_TABLE[hi]
        rows = f"n={_ADF_NS[lo]},{_ADF_NS[hi]}"
    if stat <= crit[0]:
        return float(_ADF_PROBS[0]), rows + "; p clamped at lower table bound"
    if stat >= crit[-1]:
        return float(_ADF_PROBS[-1]), rows + "; p clamped at upper table bound"
    p = float(np.interp(stat, crit, _ADF_PROBS))
    return p, rows


def adf_test(series: np.ndarray, max_lag: int) -> TestResult:
    """Augmented Dickey-Fuller unit-root test with a constant.

    Regresses the first difference on a constant, the lagged level and
    lagged differences (count chosen by minimum AIC up to max_lag on a common
    sample). The statistic is the t-ratio on the lagged level; its p-value is
    interpolated from the embedded finite-sample table of the constant case.
    """
    if max_lag < 0:
        raise InvalidArgumentError("max_lag must be >= 0")
    y = _defined_values(series)
    if len(y) < max_lag + 10:
        raise InvalidArgumentError(
            f"series length {len(y)} below required max_lag + 10 = {max_lag + 10}"
        )
    if np.ptp(y) == 0.0:
        raise DegenerateInputError("series is constant")

    dy = np.diff(y)

    def build(j: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
        # Rows are t = offset..len(dy)-1 in difference coordinates; the
        # columns are the constant, the lagged level and j lagged differences.
        lags = [dy[offset - i : len(dy) - i] for i in range(1, j + 1)]
        return np.column_stack([np.ones(len(dy) - offset), y[offset : len(y) - 1], *lags]), dy[offset:]

    # Lag selection by AIC on the common sample (all candidates start at max_lag).
    best_j, best_aic = 0, np.inf
    for j in range(max_lag + 1):
        X, resp = build(j, max_lag)
        _, _, ssr = _ols_lstsq(X, resp)
        nr = len(resp)
        aic = nr * np.log(max(ssr, 1e-300) / nr) + 2 * X.shape[1]
        if aic < best_aic:
            best_aic, best_j = aic, j

    X, resp = build(best_j, best_j)
    beta, resid, ssr = _ols_lstsq(X, resp)
    nr, k = X.shape
    degenerate = ""
    if nr <= k or ssr <= 1e-12 * max(float(resp @ resp), 1e-300):
        stat = 0.0
        degenerate = "; degenerate regression (zero residual variance)"
    else:
        s2 = ssr / (nr - k)
        xtx_inv = np.linalg.pinv(X.T @ X)
        se = float(np.sqrt(max(s2 * xtx_inv[1, 1], 0.0)))
        if se == 0.0 or not np.isfinite(se):
            stat = 0.0
            degenerate = "; degenerate regression (zero standard error)"
        else:
            stat = float(beta[1] / se)
    p, rows = _adf_pvalue(stat, nr)
    detail = f"deterministic=constant; lags={best_j}; table rows {rows}{degenerate}"
    return TestResult(statistic=stat, p_value=p, dof_or_lags=best_j, detail=detail)


def ljung_box(series: np.ndarray, lags: int) -> TestResult:
    """Ljung-Box portmanteau test: Q = n(n+2) sum_k acf(k)^2/(n-k)."""
    if lags < 1:
        raise InvalidArgumentError(f"lags must be >= 1, got {lags}")
    n = len(series)
    if n <= lags + 1:
        raise InvalidArgumentError(f"series length {n} too short for {lags} lags")
    r = acf(series, lags)
    q = 0.0
    for k in range(1, lags + 1):
        q += r[k] ** 2 / (n - k)
    q *= n * (n + 2)
    return TestResult(statistic=float(q), p_value=_chi2_sf(lags, q), dof_or_lags=lags, detail=f"chi2({lags})")


def durbin_watson(residuals: Sequence[float]) -> float:
    """Durbin-Watson statistic, in [0, 4]."""
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1 or len(e) < 2:
        raise InvalidArgumentError("residuals must be a 1-d sequence of length >= 2")
    denom = float(e @ e)
    if denom == 0.0:
        raise DegenerateInputError("all residuals are zero")
    return float(np.sum(np.diff(e) ** 2) / denom)


def hausman_test(
    fe_coeffs: Sequence[float],
    fe_cov: np.ndarray,
    re_coeffs: Sequence[float],
    re_cov: np.ndarray,
) -> TestResult:
    """Hausman specification test comparing fixed- and random-effects slopes.

    H = d'(V_FE - V_RE)^{-1} d over the common regressors (intercept and unit
    effects excluded). When the variance difference is not positive definite
    the Moore-Penrose pseudo-inverse is used and the rank is reported.
    """
    b_fe = np.asarray(fe_coeffs, dtype=float)
    b_re = np.asarray(re_coeffs, dtype=float)
    v_fe = np.asarray(fe_cov, dtype=float)
    v_re = np.asarray(re_cov, dtype=float)
    k = len(b_fe)
    if len(b_re) != k:
        raise InvalidArgumentError("coefficient vectors must have equal length")
    if v_fe.shape != (k, k) or v_re.shape != (k, k):
        raise InvalidArgumentError("covariance matrices must be k x k")
    d = b_fe - b_re
    v = v_fe - v_re
    eigvals = np.linalg.eigvalsh((v + v.T) / 2.0)
    if eigvals.min() > 1e-12 * max(eigvals.max(), 1.0):
        h = float(d @ np.linalg.solve(v, d))
        detail = f"chi2({k})"
    else:
        rank = int(np.linalg.matrix_rank(v))
        h = float(d @ np.linalg.pinv(v) @ d)
        detail = f"chi2({k}); variance difference not positive definite, pseudo-inverse used (rank {rank})"
    # The pseudo-inverse can give a small negative H; its p-value is 1, as
    # for any statistic at or below the chi-square support.
    return TestResult(statistic=h, p_value=_chi2_sf(k, h), dof_or_lags=k, detail=detail)


def levene_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-group Levene test for equal variances with group-mean centering."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if len(xa) < 2 or len(xb) < 2:
        raise InvalidArgumentError("each group must have length >= 2")
    za = np.abs(xa - xa.mean())
    zb = np.abs(xb - xb.mean())
    n = len(za) + len(zb)
    dof = n - 2
    if za.mean() == zb.mean():
        return TestResult(0.0, 1.0, dof, detail=f"F(1,{dof}), mean-centered")
    zbar = (za.sum() + zb.sum()) / n
    num = (n - 2) * (len(za) * (za.mean() - zbar) ** 2 + len(zb) * (zb.mean() - zbar) ** 2)
    den = float(np.sum((za - za.mean()) ** 2) + np.sum((zb - zb.mean()) ** 2))
    if den == 0.0:
        raise DegenerateInputError("zero within-group spread in both groups")
    w = float(num / den)
    # An F(1, nu) variable is the square of a t(nu) one.
    return TestResult(w, _t2_sf(dof, w), dof, detail=f"F(1,{dof}), mean-centered")


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided paired-samples t test on the mean of a - b."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if len(xa) != len(xb):
        raise InvalidArgumentError("paired samples must have equal length")
    n = len(xa)
    if n < 2:
        raise InvalidArgumentError("need at least 2 pairs")
    d = xa - xb
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("differences have zero variance")
    t = float(d.mean() / (sd / np.sqrt(n)))
    return TestResult(t, _t2_sf(n - 1, t * t), n - 1, detail=f"t({n - 1}), two-sided")


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement between two label sequences."""
    if len(labels_a) != len(labels_b):
        raise InvalidArgumentError("label sequences must have equal length")
    n = len(labels_a)
    if n == 0:
        raise InvalidArgumentError("label sequences must be nonempty")
    p_o = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    labels = set(labels_a) | set(labels_b)
    p_e = 0.0
    for lab in labels:
        p_e += (sum(1 for x in labels_a if x == lab) / n) * (
            sum(1 for y in labels_b if y == lab) / n
        )
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)
