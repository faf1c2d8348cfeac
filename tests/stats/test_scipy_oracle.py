"""``repro.stats`` equals ``scipy.stats`` bit for bit.

The library calls the ``scipy.special`` kernels that ``scipy.stats``
wraps, and repeats SciPy's rank arithmetic step for step, so it never has
to import ``scipy.stats``. These properties keep ``scipy.stats`` as the
reference and assert ``==``, never a tolerance, on small samples full of
ties, where rank statistics and their corrections are most fragile.
"""

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from repro.stats import (
    agresti_coull_interval,
    chi_square_test,
    clopper_pearson_interval,
    g_test,
    kruskal_wallis_test,
    mann_whitney_u,
    mcnemar_test,
    rankdata,
    spearman_test,
    two_proportion_power,
    two_proportion_z_test,
    wald_interval,
    wilson_interval,
)
from repro.stats import intervals, power

ORACLE = settings(max_examples=300, deadline=None)

#: Few distinct values, so most samples carry ties; some arbitrary floats.
values = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7.25]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32).map(float),
)
samples = st.lists(values, min_size=1, max_size=20)
confidences = st.one_of(
    st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.999]),
    st.floats(min_value=0.01, max_value=0.999),
)


def _same(ours: float, reference) -> bool:
    reference = float(reference)
    return ours == reference or (math.isnan(ours) and math.isnan(reference))


@ORACLE
@given(samples)
@example([2.0, 2.0, 2.0])
def test_rankdata(data):
    ours = rankdata(data)
    reference = sps.rankdata(data)
    assert ours.dtype == reference.dtype
    assert np.array_equal(ours, reference)


pairs = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(values, min_size=n, max_size=n), st.lists(values, min_size=n, max_size=n)
    )
)


@ORACLE
@given(pairs)
@example(([1.0, 1.0, 1.0], [0.0, 3.0, 2.0]))  # a constant sample
@example(([1.0], [2.0]))
@example(([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]))  # rho = -1
def test_spearman_test(pair):
    a, b = pair
    n = len(a)
    ours = spearman_test(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input, n = 2
        reference = sps.spearmanr(a, b)
    assert (ours.name, ours.dof) == ("spearman", n - 2)
    assert _same(ours.statistic, reference.statistic)
    assert _same(ours.p_value, reference.pvalue)


@ORACLE
@given(st.lists(samples, min_size=2, max_size=5))
@example([[1.0, 1.0], [1.0]])
def test_kruskal_wallis_test(groups):
    ours = kruskal_wallis_test(*groups)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # every value tied
        reference = sps.kruskal(*groups)
    assert (ours.name, ours.dof) == ("kruskal", len(groups) - 1)
    assert _same(ours.statistic, reference.statistic)
    assert _same(ours.p_value, reference.pvalue)


@ORACLE
@given(samples, samples)
def test_mann_whitney_u(a, b):
    ours = mann_whitney_u(a, b)
    ranks = sps.rankdata(np.concatenate([a, b]))
    assert ours.statistic == float(ranks[: len(a)].sum()) - len(a) * (len(a) + 1) / 2.0
    if "z" in ours.details:
        z = ours.details["z"]
        assert ours.p_value == float(min(1.0, 2.0 * sps.norm.sf(abs(z))))
    else:
        assert ours.p_value == 1.0


tables = st.integers(min_value=2, max_value=4).flatmap(
    lambda rows: st.lists(
        st.lists(st.integers(min_value=0, max_value=25), min_size=3, max_size=3),
        min_size=rows,
        max_size=rows,
    )
).filter(lambda table: sum(map(sum, table)) > 0)


@ORACLE
@given(tables)
@example([[10, 20, 0], [30, 60, 0]])  # proportional rows: G = 0
@example([[0.01, 0.03, 0.13], [0.02, 0.06, 0.26]])  # weighted: G rounds to -2e-16
def test_chi_square_and_g_test_p_values(table):
    for test in (chi_square_test, g_test):
        ours = test(table)
        if ours.dof == 0:
            assert ours.p_value == 1.0
        else:
            assert ours.p_value == float(sps.chi2.sf(ours.statistic, ours.dof))


@ORACLE
@given(st.data())
def test_two_proportion_z_test(data):
    trials_a = data.draw(st.integers(min_value=1, max_value=400))
    trials_b = data.draw(st.integers(min_value=1, max_value=400))
    successes_a = data.draw(st.integers(min_value=0, max_value=trials_a))
    successes_b = data.draw(st.integers(min_value=0, max_value=trials_b))
    ours = two_proportion_z_test(successes_a, trials_a, successes_b, trials_b)
    assert ours.p_value == float(2.0 * sps.norm.sf(abs(ours.statistic)))


@ORACLE
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_asymptotic_mcnemar_test(n01, n10):
    ours = mcnemar_test(n01, n10, exact=False)
    if n01 + n10 == 0:
        assert ours.p_value == 1.0
    else:
        assert ours.p_value == float(sps.chi2.sf(ours.statistic, 1))


def _scipy_z(confidence: float) -> float:
    return float(sps.norm.ppf(0.5 + confidence / 2.0))


@ORACLE
@given(st.data(), confidences)
def test_normal_interval_endpoints(data, confidence):
    trials = data.draw(st.integers(min_value=1, max_value=400))
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    methods = (wilson_interval, agresti_coull_interval, wald_interval)
    ours = [m(successes, trials, confidence) for m in methods]
    with mock.patch.object(intervals, "_z_value", _scipy_z):
        reference = [m(successes, trials, confidence) for m in methods]
    assert [ci.as_tuple() for ci in ours] == [ci.as_tuple() for ci in reference]


@ORACLE
@given(st.data(), confidences)
def test_clopper_pearson_endpoints(data, confidence):
    trials = data.draw(st.integers(min_value=1, max_value=400))
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    ours = clopper_pearson_interval(successes, trials, confidence)
    alpha = 1.0 - confidence
    low = (
        0.0
        if successes == 0
        else float(sps.beta.ppf(alpha / 2.0, successes, trials - successes + 1))
    )
    high = (
        1.0
        if successes == trials
        else float(sps.beta.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    )
    assert (ours.low, ours.high) == (low, high)


@ORACLE
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=2000),
    st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.2]),
)
def test_two_proportion_power(p1, p2, n1, n2, alpha):
    ours = two_proportion_power(p1, p2, n1, n2, alpha)
    scipy_norm = SimpleNamespace(ndtri=sps.norm.ppf, ndtr=sps.norm.cdf)
    with mock.patch.object(power, "_special", scipy_norm):
        reference = two_proportion_power(p1, p2, n1, n2, alpha)
    assert ours == reference
