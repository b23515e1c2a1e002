import math

import numpy as np
import pytest

from coverlab import stats


def test_proportion_has_a_floored_standard_error_and_is_nan_for_no_trials():
    p, se = stats.proportion(30, 120)
    assert p == 0.25 and se == pytest.approx(math.sqrt(0.25 * 0.75 / 120), rel=1e-15)
    # p = 0 and p = 1 keep a positive standard error
    assert stats.proportion(0, 100) == (0.0, math.sqrt(1e-12 / 100))
    assert stats.proportion(100, 100) == (1.0, math.sqrt(1e-12 / 100))
    assert all(math.isnan(v) for v in stats.proportion(0, 0))


def test_summaries_of_an_empty_or_short_sample_are_nan(recwarn):
    empty = stats.summarize_mean([])
    assert empty.count == 0 and math.isnan(empty.mean) and math.isnan(empty.se)
    one = stats.summarize_mean([4.0])
    assert one.mean == 4.0 and math.isnan(one.var) and math.isnan(one.se)
    assert math.isnan(stats.variance_se([])) and math.isnan(stats.variance_se([1.0]))
    assert math.isnan(float(stats.quantile(np.array([]), 0.5)))
    assert np.isnan(stats.quantile([], [0.1, 0.9])).all()
    assert stats.quantile([], [0.1, 0.9]).shape == (2,)
    assert not recwarn.list  # no empty-slice warnings


def test_summaries_of_a_sample_match_numpy():
    vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    summ = stats.summarize_mean(vals)
    assert (summ.count, summ.mean, summ.var) == (8, vals.mean(), vals.var(ddof=1))
    assert summ.se == math.sqrt(vals.var(ddof=1) / 8)
    assert list(stats.quantile(vals, [0.1, 0.5])) == list(np.quantile(vals, [0.1, 0.5]))
    assert stats.variance_se(vals) > 0
