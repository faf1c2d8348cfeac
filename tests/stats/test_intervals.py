"""Unit and property tests for binomial interval estimators."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.stats import (
    agresti_coull_interval,
    clopper_pearson_interval,
    wald_interval,
    wilson_interval,
)

ALL_METHODS = [
    wilson_interval,
    agresti_coull_interval,
    clopper_pearson_interval,
    wald_interval,
]


class TestWilson:
    def test_half_is_symmetric(self):
        ci = wilson_interval(50, 100)
        assert ci.estimate == pytest.approx(0.5)
        assert ci.low == pytest.approx(1.0 - ci.high, abs=1e-12)

    def test_known_value(self):
        # Canonical check: 10/100 at 95% gives approx [0.0552, 0.1744].
        ci = wilson_interval(10, 100)
        assert ci.low == pytest.approx(0.0552, abs=2e-3)
        assert ci.high == pytest.approx(0.1744, abs=2e-3)

    def test_zero_successes_has_zero_lower(self):
        ci = wilson_interval(0, 20)
        assert ci.low == 0.0
        assert ci.high > 0.0

    def test_all_successes_has_one_upper(self):
        ci = wilson_interval(20, 20)
        assert ci.high == 1.0
        assert ci.low < 1.0

    def test_narrower_with_more_data(self):
        small = wilson_interval(5, 10)
        large = wilson_interval(500, 1000)
        assert large.width < small.width

    def test_higher_confidence_is_wider(self):
        narrow = wilson_interval(30, 100, confidence=0.90)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert wide.width > narrow.width


class TestValidationErrors:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rejects_zero_trials(self, method):
        with pytest.raises(ValueError):
            method(0, 0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rejects_successes_above_trials(self, method):
        with pytest.raises(ValueError):
            method(11, 10)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rejects_bad_confidence(self, method):
        with pytest.raises(ValueError):
            method(1, 10, confidence=1.0)
        with pytest.raises(ValueError):
            method(1, 10, confidence=0.0)


class TestCrossMethod:
    def test_clopper_pearson_is_most_conservative(self):
        # Exact interval should contain the Wilson interval here.
        cp = clopper_pearson_interval(7, 25)
        w = wilson_interval(7, 25)
        assert cp.low <= w.low + 1e-9
        assert cp.high >= w.high - 1e-9

    def test_wald_degenerate_at_extremes(self):
        ci = wald_interval(0, 30)
        assert ci.low == 0.0 and ci.high == 0.0  # the known Wald pathology

    def test_methods_agree_for_large_n(self):
        results = [m(400, 1000) for m in ALL_METHODS]
        lows = [r.low for r in results]
        highs = [r.high for r in results]
        assert max(lows) - min(lows) < 0.01
        assert max(highs) - min(highs) < 0.01

    def test_interval_helpers(self):
        ci = wilson_interval(3, 12)
        assert ci.contains(ci.estimate)
        est, lo, hi = ci.as_tuple()
        assert lo <= est <= hi


@given(
    trials=st.integers(min_value=1, max_value=500),
    data=st.data(),
    confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
def test_property_interval_sane(trials, data, confidence):
    """All estimators produce ordered intervals containing the estimate (except
    Wald at extremes, which may exclude via clipping but stays ordered)."""
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    for method in (wilson_interval, agresti_coull_interval, clopper_pearson_interval):
        ci = method(successes, trials, confidence)
        assert 0.0 <= ci.low <= ci.high <= 1.0
        assert ci.low <= successes / trials <= ci.high


@given(
    trials=st.integers(min_value=2, max_value=300),
    data=st.data(),
)
def test_property_wilson_monotone_in_successes(trials, data):
    s = data.draw(st.integers(min_value=0, max_value=trials - 1))
    a = wilson_interval(s, trials)
    b = wilson_interval(s + 1, trials)
    assert b.low >= a.low - 1e-12
    assert b.high >= a.high - 1e-12


@given(trials=st.integers(min_value=1, max_value=200), data=st.data())
def test_property_clopper_pearson_coverage_is_exactish(trials, data):
    """CP interval at x successes always contains x/n."""
    s = data.draw(st.integers(min_value=0, max_value=trials))
    ci = clopper_pearson_interval(s, trials)
    assert ci.contains(s / trials)
    assert not math.isnan(ci.low) and not math.isnan(ci.high)


class TestZValue:
    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_equals_the_normal_quantile(self, confidence):
        from scipy.stats import norm

        from repro.stats.intervals import _z_value

        expected = float(norm.ppf(0.5 + confidence / 2))
        assert _z_value(confidence) == expected
