import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from crimecast import stattests
from crimecast.exceptions import DegenerateInputError, InvalidArgumentError
from crimecast.series import acf
from crimecast.stattests import (
    TestResult,
    adf_test,
    cohens_kappa,
    durbin_watson,
    hausman_test,
    levene_test,
    ljung_box,
    paired_t_test,
)

from conftest import ar1, series


class TestAdf:
    def test_random_walk_keeps_unit_root(self):
        rw = np.cumsum(np.random.default_rng(7).normal(0, 1, 500))
        result = adf_test(series(rw), 8)
        assert result.p_value > 0.10

    def test_iid_rejects_unit_root(self):
        iid = np.random.default_rng(7).normal(0, 1, 500)
        result = adf_test(series(iid), 8)
        assert result.p_value < 0.05

    def test_exact_ramp_finite(self):
        result = adf_test(series(np.arange(1.0, 61.0)), 4)
        assert np.isfinite(result.statistic)
        assert 0.0 <= result.p_value <= 1.0

    def test_detail_names_table_rows(self):
        iid = np.random.default_rng(1).normal(0, 1, 120)
        result = adf_test(series(iid), 4)
        assert "table rows" in result.detail
        assert result.dof_or_lags <= 4

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            adf_test(series(np.arange(10.0)), 8)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateInputError):
            adf_test(series([2.0] * 40), 2)


class TestLjungBox:
    def test_white_noise_not_rejected(self):
        ts = series(np.random.default_rng(5).normal(0, 1, 1000))
        assert ljung_box(ts, 10).p_value > 0.05

    def test_ar1_rejected(self):
        ts = series(ar1(0.8, 1000, seed=9))
        assert ljung_box(ts, 10).p_value < 0.01

    def test_two_point_boundary(self):
        with pytest.raises(InvalidArgumentError):
            ljung_box(series([1.0, 2.0]), 1)

    def test_q_nonnegative_nondecreasing(self, rng):
        ts = series(rng.normal(size=300))
        qs = [ljung_box(ts, lags).statistic for lags in range(1, 12)]
        assert all(q >= 0 for q in qs)
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_matches_direct_formula(self, rng):
        values = rng.normal(size=120)
        ts = series(values)
        lags = 6
        r = acf(ts, lags)
        n = len(values)
        q = n * (n + 2) * sum(r[k] ** 2 / (n - k) for k in range(1, lags + 1))
        assert ljung_box(ts, lags).statistic == pytest.approx(q, abs=1e-12)


class TestDurbinWatson:
    def test_constant_residuals(self):
        assert durbin_watson([1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_alternating_hand_value(self):
        assert durbin_watson([1.0, -1.0, 1.0, -1.0]) == 3.0

    def test_iid_near_two(self):
        e = np.random.default_rng(11).normal(0, 1, 500)
        assert 1.7 <= durbin_watson(e) <= 2.3

    def test_relation_to_acf1(self, rng):
        e = rng.normal(size=400)
        dw = durbin_watson(e)
        r1 = acf(series(e), 1)[1]
        assert abs(dw - 2 * (1 - r1)) < 0.05

    def test_zero_residuals_degenerate(self):
        with pytest.raises(DegenerateInputError):
            durbin_watson([0.0, 0.0, 0.0])

    def test_bounds(self, rng):
        for _ in range(10):
            dw = durbin_watson(rng.normal(size=50))
            assert 0.0 <= dw <= 4.0


class TestHausman:
    def test_identical_coefficients(self):
        r = hausman_test([1.0, 2.0], np.eye(2) * 2, [1.0, 2.0], np.eye(2))
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_scalar_hand_formula(self):
        r = hausman_test([1.0], [[2.0]], [0.5], [[1.0]])
        assert r.statistic == pytest.approx(0.5**2 / (2.0 - 1.0), abs=1e-12)

    def test_reorder_invariance(self, rng):
        k = 4
        b_fe = rng.normal(size=k)
        b_re = rng.normal(size=k)
        a = rng.normal(size=(k, k))
        v_re = a @ a.T
        v_fe = v_re + np.eye(k)
        perm = rng.permutation(k)
        r1 = hausman_test(b_fe, v_fe, b_re, v_re)
        r2 = hausman_test(b_fe[perm], v_fe[np.ix_(perm, perm)], b_re[perm], v_re[np.ix_(perm, perm)])
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)

    def test_pseudo_inverse_fallback_reports_rank(self):
        v = np.diag([1.0, 0.0])
        r = hausman_test([1.0, 2.0], v, [0.9, 2.0], np.zeros((2, 2)))
        assert "pseudo-inverse" in r.detail
        assert "rank 1" in r.detail

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            hausman_test([1.0, 2.0], np.eye(2), [1.0], np.eye(1))


class TestLevene:
    def test_identical_sequences(self, rng):
        a = rng.normal(size=30)
        r = levene_test(a, a)
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_unequal_variances_detected(self):
        rng = np.random.default_rng(17)
        a = rng.normal(0, 1, 200)
        b = rng.normal(0, 3, 200)
        assert levene_test(a, b).p_value < 0.01

    def test_two_point_symmetry(self):
        assert levene_test([1.0, 2.0], [1.0, 2.0]).statistic == 0.0

    def test_matches_scipy_mean_centered(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(0.5, 2, 55)
        ours = levene_test(a, b)
        w_ref, p_ref = scipy.stats.levene(a, b, center="mean")
        assert ours.statistic == pytest.approx(w_ref, rel=1e-12)
        assert ours.p_value == pytest.approx(p_ref, rel=1e-12)

    def test_short_group_rejected(self):
        with pytest.raises(InvalidArgumentError):
            levene_test([1.0], [1.0, 2.0])


class TestPairedT:
    def test_zero_variance_degenerate(self):
        a = np.arange(10.0)
        with pytest.raises(DegenerateInputError):
            paired_t_test(a, a)

    def test_constant_shift_with_jitter(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=50)
        a = b + 1.0 + rng.normal(0, 1e-9, 50)
        r = paired_t_test(a, b)
        assert r.statistic > 1e6
        assert r.p_value < 1e-12

    def test_independent_normals_not_significant(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        assert paired_t_test(a, b).p_value > 0.05

    def test_matches_scipy(self, rng):
        a = rng.normal(size=60)
        b = rng.normal(0.3, 1.2, size=60)
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            paired_t_test([1.0, 2.0], [1.0])


_NUS = [*range(1, 61), 80, 199, 200, 999, 10_000]
_T_GRID = [1e-8, 0.01, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 50.0, 1e3, 1e5, 1e8]


def _bound(nu: int) -> float:
    return 1e-13 if nu <= 1_000 else 5e-13


def _assert_close(p: float, exact, bound: float = 1e-13) -> None:
    """p is within `bound` relative of its exact value when that is at least
    1e-300; below that p must be as small."""
    exact = mpmath.mpf(exact)
    if exact < 1e-300:
        assert 0.0 <= p <= 1e-300
    else:
        assert abs(p - exact) <= bound * exact, (p, exact)


def _chi2_oracle(k: int, x: float):
    if x <= 0.0:
        return mpmath.mpf(1)
    return mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def _t2_oracle(nu: int, t2):
    """P(T^2 > t2) for T ~ t(nu), at the exact value of t2 (an mpf or float)."""
    nu, t2 = mpmath.mpf(nu), mpmath.mpf(t2)
    if t2 <= 0:
        return mpmath.mpf(1)
    return mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t2), regularized=True)


class TestPValueAccuracy:
    """Each p-value is its distribution's tail at the test's own statistic to
    within 1e-13 relative (5e-13 above nu = 1,000), against mpmath at 50
    digits or a closed form, over statistics from 0 to very large."""

    @pytest.fixture(autouse=True)
    def _fifty_digits(self):
        with mpmath.workdps(50):
            yield

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("h", [0.0, 1e-9, 0.5, 3.0, 40.0, 1e3, 1e12])
    def test_hausman(self, h, k):
        result = hausman_test(np.full(k, np.sqrt(h / k)), 2.0 * np.eye(k), np.zeros(k), np.eye(k))
        _assert_close(result.p_value, _chi2_oracle(k, result.statistic))

    def test_hausman_negative_statistic_has_p_one(self):
        result = hausman_test([1.0, 0.0], np.diag([1.0, 0.0]), [0.0, 0.0], np.diag([2.0, 0.0]))
        assert result.statistic == -1.0
        assert result.p_value == 1.0

    def test_hausman_overflows_to_zero(self):
        assert hausman_test([1e6], [[2.0]], [0.0], [[1.0]]).p_value == 0.0

    def test_ljung_box_zero_statistic(self):
        result = ljung_box(series([1.0, 0.0, -1.0, 0.0]), 1)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    @pytest.mark.parametrize("lags", [1, 4, 10])
    @pytest.mark.parametrize("n", [12, 60, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
    def test_ljung_box(self, alpha, n, lags):
        result = ljung_box(series(ar1(alpha, n, seed=n + lags)), lags)
        _assert_close(result.p_value, _chi2_oracle(lags, result.statistic))

    @pytest.mark.parametrize("k", [*range(1, 13), 20, 41])
    def test_chi2_over_the_support(self, k):
        for x in (1e-12, 0.1, 1.0, k - 1.0, k + 0.5, 3.0 * k, 100.0, 1e3, 1_399.0, 1_401.0, 2_900.0):
            if x > 0.0:
                _assert_close(stattests._chi2_sf(k, x), _chi2_oracle(k, x))

    def test_chi2_two_closed_form(self):
        for x in (1e-12, 0.3, 1.0, 2.0, 7.5, 60.0, 700.0, 1_300.0):
            _assert_close(stattests._chi2_sf(2, x), mpmath.exp(-mpmath.mpf(x) / 2))

    @pytest.mark.parametrize("sizes", [(2, 3), (5, 9), (30, 30), (200, 150)])
    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e6])
    def test_levene(self, rng, sizes, scale):
        result = levene_test(rng.normal(size=sizes[0]), scale * rng.normal(size=sizes[1]))
        nu = result.dof_or_lags
        _assert_close(result.p_value, _t2_oracle(nu, result.statistic), _bound(nu))

    def test_paired_t_zero_statistic(self):
        result = paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    @pytest.mark.parametrize("n", [2, 5, 40, 1000])
    @pytest.mark.parametrize("shift", [0.1, 1.0, 1e6])
    def test_paired_t(self, rng, n, shift):
        b = rng.normal(size=n)
        result = paired_t_test(b + shift + rng.normal(size=n), b)
        _assert_close(result.p_value, _t2_oracle(n - 1, mpmath.mpf(result.statistic) ** 2), _bound(n - 1))

    def test_paired_t_overflows_to_zero(self):
        b = np.random.default_rng(3).normal(size=1000)
        result = paired_t_test(b + 1e6 + np.random.default_rng(4).normal(size=1000), b)
        assert result.p_value == 0.0

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_tail_over_the_support(self, nu):
        assert stattests._t2_sf(nu, 0.0) == 1.0
        for t in _T_GRID:
            _assert_close(stattests._t2_sf(nu, t * t), _t2_oracle(nu, mpmath.mpf(t * t)), _bound(nu))
        # Either side of the switch to the large-nu expansion, at 1 - x = 0.3.
        for t2 in (0.99 * 3 * nu / 7, 3 * nu / 7, 1.01 * 3 * nu / 7):
            _assert_close(stattests._t2_sf(nu, t2), _t2_oracle(nu, t2), _bound(nu))

    @pytest.mark.parametrize("nu", _NUS)
    def test_t_tail_at_the_largest_statistics(self, nu):
        # Below 1e-300 from nu = 3 on; t(1) and t(2) have tails of 1e-150 and 1e-300.
        _assert_close(stattests._t2_sf(nu, 1e300), _t2_oracle(nu, 1e300), _bound(nu))
        assert stattests._t2_sf(nu, math.inf) == 0.0

    def test_t_one_and_two_closed_forms(self):
        for t in (1e-8, 0.01, 0.5, 1.0, 3.0, 40.0, 1e4, 1e10, 1e150):
            mt = mpmath.mpf(t * t) ** 0.5
            # Two-sided: 1 - (2/pi) atan|t| for t(1), and for t(2)
            # 1 - |t| / r = 2 / (r (r + |t|)) with r = sqrt(2 + t^2).
            _assert_close(stattests._t2_sf(1, t * t), 2 / mpmath.pi * mpmath.atan(1 / mt))
            r = mpmath.sqrt(2 + mt**2)
            _assert_close(stattests._t2_sf(2, t * t), 2 / (r * (r + mt)))


class TestKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_hand_zero(self):
        assert cohens_kappa([1, 1, 0, 0], [1, 0, 0, 1]) == 0.0

    def test_perfect_disagreement(self):
        assert cohens_kappa([1, 0, 1, 0], [0, 1, 0, 1]) == -1.0

    def test_single_shared_label(self):
        assert cohens_kappa(["x", "x"], ["x", "x"]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cohens_kappa([], [])

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_self_agreement_property(self, labels):
        if len(set(labels)) >= 2:
            assert cohens_kappa(labels, labels) == 1.0

    @given(
        st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=30),
        st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=30),
    )
    @settings(max_examples=60)
    def test_bounds_property(self, x, y):
        n = min(len(x), len(y))
        k = cohens_kappa(x[:n], y[:n])
        assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12


class TestResultInvariants:
    def test_p_value_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TestResult(statistic=1.0, p_value=1.5, dof_or_lags=1)

    def test_statistic_finite_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TestResult(statistic=float("inf"), p_value=0.5, dof_or_lags=1)
