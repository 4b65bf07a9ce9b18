import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPValueParity:
    """Each p-value equals scipy.stats' survival function at the test's own
    statistic, bit for bit, over statistics from 0 to very large."""

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("h", [0.0, 1e-9, 0.5, 3.0, 40.0, 1e3, 1e12])
    def test_hausman(self, h, k):
        result = hausman_test(np.full(k, np.sqrt(h / k)), 2.0 * np.eye(k), np.zeros(k), np.eye(k))
        assert result.p_value == scipy.stats.chi2.sf(result.statistic, k)

    def test_hausman_negative_statistic_has_p_one(self):
        result = hausman_test([1.0, 0.0], np.diag([1.0, 0.0]), [0.0, 0.0], np.diag([2.0, 0.0]))
        assert result.statistic == -1.0
        assert result.p_value == 1.0 == scipy.stats.chi2.sf(-1.0, 2)

    def test_ljung_box_zero_statistic(self):
        result = ljung_box(series([1.0, 0.0, -1.0, 0.0]), 1)
        assert result.statistic == 0.0
        assert result.p_value == 1.0 == scipy.stats.chi2.sf(0.0, 1)

    @pytest.mark.parametrize("lags", [1, 4, 10])
    @pytest.mark.parametrize("n", [12, 60, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
    def test_ljung_box(self, alpha, n, lags):
        result = ljung_box(series(ar1(alpha, n, seed=n + lags)), lags)
        assert result.p_value == scipy.stats.chi2.sf(result.statistic, lags)

    @pytest.mark.parametrize("sizes", [(2, 3), (5, 9), (30, 30), (200, 150)])
    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e6])
    def test_levene(self, rng, sizes, scale):
        result = levene_test(rng.normal(size=sizes[0]), scale * rng.normal(size=sizes[1]))
        assert result.p_value == scipy.stats.f.sf(result.statistic, 1, result.dof_or_lags)

    def test_paired_t_zero_statistic(self):
        result = paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0 == 2.0 * scipy.stats.t.sf(0.0, 3)

    @pytest.mark.parametrize("n", [2, 5, 40, 1000])
    @pytest.mark.parametrize("shift", [0.1, 1.0, 1e6])
    def test_paired_t(self, rng, n, shift):
        b = rng.normal(size=n)
        result = paired_t_test(b + shift + rng.normal(size=n), b)
        assert result.p_value == 2.0 * scipy.stats.t.sf(abs(result.statistic), n - 1)


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
