import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crimecast.evaluation import (
    compare_models,
    compare_predictions,
    hausman_decision,
    mape,
    rmse,
    score_model,
)
from crimecast.exceptions import InvalidArgumentError
from crimecast.series import Quarter
from crimecast.stattests import levene_test, paired_t_test



class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert rmse([1, 2, 3], [2, 3, 4]) == 1.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(2.5 * math.sqrt(2), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            rmse([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_nonnegative_zero_iff_equal(self, values):
        assert rmse(values, values) == 0.0
        shifted = [v + 1.0 for v in values]
        assert rmse(values, shifted) > 0.0

    def test_shift_invariance(self, rng):
        a = rng.normal(size=12)
        p = rng.normal(size=12)
        assert rmse(a, p) == pytest.approx(rmse(a + 5.0, p + 5.0), rel=1e-12)


class TestMape:
    def test_identical(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_percentage_units(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_actual_named(self):
        with pytest.raises(InvalidArgumentError, match="index 1"):
            mape([1.0, 0.0], [1.0, 1.0])

    def test_not_shift_invariant(self):
        a = np.array([10.0, 20.0])
        p = np.array([11.0, 21.0])
        assert mape(a, p) != pytest.approx(mape(a + 100.0, p + 100.0))


Q1 = Quarter(2019, 1)  # the first holdout quarter


def entry(name, values, actual, r2=0.5, ll=-100.0):
    return score_model(name, r2, ll, actual, values)


class TestCompareModels:
    def test_single_perfect_model(self):
        actual = (10.0, 11.0, 12.0, 13.0)
        report = compare_models([entry("Model 1", [10.0, 11.0, 12.0, 13.0], actual)], Q1, actual)
        assert report.rows[0].rmse == 0.0
        assert report.rows[0].mape == 0.0

    def test_noisier_model_has_higher_rmse(self, rng):
        actual = rng.uniform(50, 60, 4)
        base = actual + rng.normal(0, 0.5, 4)
        noisy = base + rng.normal(0, 5.0, 4)
        report = compare_models(
            [entry("clean", base, actual), entry("noisy", noisy, actual)], Q1, actual
        )
        assert report.rows[1].rmse >= report.rows[0].rmse

    def test_row_count_and_column_order(self, tmp_path):
        actual = (10.0, 11.0)
        entries = [entry(f"Model {k}", [10.0, 11.0], actual) for k in (1, 2, 3)]
        report = compare_models(entries, Q1, actual)
        payload = report.to_dict()
        assert len(payload["models"]) == 3
        assert list(payload["models"][0]) == ["Models", "R-Squared", "Log Likelihood", "RMSE", "MAPE"]

    def test_misaligned_holdout_rejected(self):
        # Predictions for three quarters against a two-quarter holdout.
        actual = (10.0, 11.0)
        with pytest.raises(InvalidArgumentError):
            compare_models([entry("m", [10.0, 11.0, 12.0], actual)], Q1, actual)

    def test_long_csv_shape(self, tmp_path):
        actual = (10.0, 11.0)
        report = compare_models(
            [entry("Model 1", [9.0, 12.0], actual), entry("Model 2", [10.5, 10.5], actual)], Q1, actual
        )
        path = tmp_path / "long.csv"
        report.write_long_csv(path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["year", "quarter", "model", "predicted", "actual"]
        assert len(rows) == 1 + 2 * 2
        assert rows[1][:3] == ["2019", "1", "Model 1"]

    def test_empty_rejected(self):
        actual = (10.0,)
        with pytest.raises(InvalidArgumentError):
            compare_models([], Q1, actual)


class TestPanelStatistics:
    def test_row_spelling(self):
        row = score_model("Model 6", 0.5, -10.0, [10.0, 20.0], [11.0, 19.0])
        assert row.to_dict() == {
            "Models": "Model 6",
            "R-Squared": 0.5,
            "Log Likelihood": -10.0,
            "RMSE": pytest.approx(1.0),
            "MAPE": pytest.approx(7.5),
        }
        assert row.predictions == (11.0, 19.0)

    def test_compare_predictions(self):
        actual = [10.0, 20.0, 30.0, 40.0]
        a = score_model("Model 6", 0.5, -10.0, actual, [11.0, 19.0, 33.0, 38.0])
        b = score_model("Model 7", 0.6, -9.0, actual, [10.5, 20.5, 29.0, 41.0])
        payload = compare_predictions(a, b, actual)
        assert list(payload) == ["levene", "paired_t", "means"]
        assert payload["levene"] == levene_test(a.predictions, b.predictions)._asdict()
        assert payload["paired_t"] == paired_t_test(a.predictions, b.predictions)._asdict()
        assert payload["means"] == {"actual": 25.0, "Model 6": 25.25, "Model 7": 25.25}

    @pytest.mark.parametrize("gap, decision", [(5.0, "fixed"), (0.1, "random")])
    def test_hausman_decision_at_5_percent(self, gap, decision):
        fe = SimpleNamespace(slopes=(1.0 + gap, 2.0), slope_cov=2.0 * np.eye(2))
        re = SimpleNamespace(slopes=(1.0, 2.0), slope_cov=np.eye(2), sigma2_u=0.5, theta=0.25, sigma2_u_truncated=False)
        result = hausman_decision(fe, re)
        assert result["statistic"] == pytest.approx(gap**2)
        assert result["dof_or_lags"] == 2
        assert result["decision"] == decision
        assert (result["sigma2_u"], result["theta"], result["sigma2_u_truncated"]) == (0.5, 0.25, False)
