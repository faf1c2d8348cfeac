"""Hypothesis tests used by the study's significance reporting.

All tests return a :class:`TestResult` so the report layer can render a
uniform "statistic / dof / p" column regardless of which test a table used.

p-values come from the ``scipy.special`` kernels that ``scipy.stats``
itself calls (``ndtr`` for the normal, ``chdtrc`` for chi-square,
``stdtr`` for Student's t), and the rank statistics repeat SciPy's
arithmetic step for step, so every result equals SciPy's bit for bit
while no report, serve or CLI path imports ``scipy.stats`` (0.5–1 s of
start-up). Only :func:`fisher_exact_2x2` and the exact branch of
:func:`mcnemar_test` import it, inside the function: SciPy's Boost
hypergeometric and binomial kernels have no ``scipy.special`` twin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

__all__ = [
    "TestResult",
    "chi_square_test",
    "g_test",
    "fisher_exact_2x2",
    "two_proportion_z_test",
    "mann_whitney_u",
    "mcnemar_test",
    "rankdata",
    "spearman_test",
    "kruskal_wallis_test",
]


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of a hypothesis test.

    Attributes
    ----------
    name:
        Short identifier of the test ("chi2", "g", "fisher", "2prop-z", "mwu").
    statistic:
        The test statistic (U for Mann-Whitney, odds ratio for Fisher).
    p_value:
        Two-sided p-value.
    dof:
        Degrees of freedom where defined, else 0.
    details:
        Test-specific extras (expected counts, z value, ...).
    """

    name: str
    statistic: float
    p_value: float
    dof: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0 or math.isnan(self.p_value)):
            raise ValueError(f"p-value out of range: {self.p_value}")

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the test rejects at level ``alpha``."""
        return bool(self.p_value < alpha)


def _as_table(table) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"contingency table must be 2-D, got shape {arr.shape}")
    if arr.size == 0 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"contingency table must be at least 2x2, got {arr.shape}")
    if (arr < 0).any():
        raise ValueError("contingency table contains negative counts")
    if arr.sum() == 0:
        raise ValueError("contingency table is all zeros")
    return arr


def _chi2_sf(stat: float, dof: int) -> float:
    # scipy.stats.chi2.sf: 1 at or below the support's lower end, where
    # chdtrc itself returns NaN for a rounding-negative G statistic.
    return 1.0 if stat <= 0.0 else float(_special.chdtrc(dof, stat))


def _expected_counts(obs: np.ndarray) -> np.ndarray:
    total = obs.sum()
    return np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total


def chi_square_test(table) -> TestResult:
    """Pearson chi-square test of independence on an r x c count table.

    Rows/columns whose marginal total is zero are dropped before testing,
    since they carry no information and would make expected counts zero.
    """
    obs = _as_table(table)
    obs = obs[obs.sum(axis=1) > 0][:, obs.sum(axis=0) > 0]
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        # Degenerate after dropping empty margins: no association testable.
        return TestResult(name="chi2", statistic=0.0, p_value=1.0, dof=0)
    exp = _expected_counts(obs)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = _chi2_sf(stat, dof)
    return TestResult(
        name="chi2",
        statistic=stat,
        p_value=p,
        dof=dof,
        details={"expected": exp, "min_expected": float(exp.min())},
    )


def g_test(table) -> TestResult:
    """Log-likelihood ratio (G) test of independence.

    Asymptotically equivalent to chi-square; preferred when some expected
    counts are moderate and counts come from a multinomial sampling scheme.
    """
    obs = _as_table(table)
    obs = obs[obs.sum(axis=1) > 0][:, obs.sum(axis=0) > 0]
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        return TestResult(name="g", statistic=0.0, p_value=1.0, dof=0)
    exp = _expected_counts(obs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(obs > 0, obs * np.log(obs / exp), 0.0)
    stat = float(2.0 * terms.sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = _chi2_sf(stat, dof)
    return TestResult(name="g", statistic=stat, p_value=p, dof=dof)


def fisher_exact_2x2(table) -> TestResult:
    """Fisher's exact test for a 2x2 table (two-sided).

    Used wherever a per-field breakdown leaves expected cell counts under 5,
    where the chi-square approximation is unreliable.
    """
    from scipy import stats as _sps

    obs = _as_table(table)
    if obs.shape != (2, 2):
        raise ValueError(f"fisher_exact_2x2 requires a 2x2 table, got {obs.shape}")
    oddsratio, p = _sps.fisher_exact(obs, alternative="two-sided")
    return TestResult(
        name="fisher",
        statistic=float(oddsratio),
        p_value=float(p),
        dof=0,
        details={"odds_ratio": float(oddsratio)},
    )


def two_proportion_z_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> TestResult:
    """Pooled two-sample z-test for equality of proportions.

    This is the workhorse of the 2011-vs-2024 trend tables: "did the share of
    respondents using X change between cohorts?"
    """
    for s, n, label in (
        (successes_a, trials_a, "a"),
        (successes_b, trials_b, "b"),
    ):
        if n <= 0:
            raise ValueError(f"trials_{label} must be positive")
        if not 0 <= s <= n:
            raise ValueError(f"successes_{label} outside [0, trials_{label}]")
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    var = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if var == 0.0:
        # Both proportions identical at 0 or 1: no evidence of difference.
        return TestResult(name="2prop-z", statistic=0.0, p_value=1.0)
    z = (p_a - p_b) / math.sqrt(var)
    p = float(2.0 * _special.ndtr(-abs(z)))
    return TestResult(
        name="2prop-z",
        statistic=float(z),
        p_value=p,
        details={"p_a": p_a, "p_b": p_b, "pooled": pooled},
    )


def mcnemar_test(n01: int, n10: int, exact: bool | None = None) -> TestResult:
    """McNemar's test for paired yes/no answers (panel respondents).

    Parameters
    ----------
    n01:
        Discordant pairs that flipped no -> yes between waves.
    n10:
        Discordant pairs that flipped yes -> no.
    exact:
        Force the exact binomial version (default: exact when the
        discordant total is under 25, the usual guideline).

    Concordant pairs carry no information about change and are not needed.
    """
    if n01 < 0 or n10 < 0:
        raise ValueError("discordant counts must be non-negative")
    total = n01 + n10
    if total == 0:
        return TestResult(name="mcnemar", statistic=0.0, p_value=1.0)
    if exact is None:
        exact = total < 25
    if exact:
        # special.bdtr is not binom.cdf bit for bit; keep SciPy's kernel.
        from scipy import stats as _sps

        k = min(n01, n10)
        p = float(min(1.0, 2.0 * _sps.binom.cdf(k, total, 0.5)))
        return TestResult(
            name="mcnemar",
            statistic=float(k),
            p_value=p,
            details={"exact": True, "n01": n01, "n10": n10},
        )
    # Edwards continuity-corrected chi-square version.
    stat = (abs(n01 - n10) - 1.0) ** 2 / total
    p = _chi2_sf(stat, 1)
    return TestResult(
        name="mcnemar",
        statistic=float(stat),
        p_value=p,
        dof=1,
        details={"exact": False, "n01": n01, "n10": n10},
    )


def mann_whitney_u(sample_a, sample_b) -> TestResult:
    """Mann-Whitney U test with normal approximation and tie correction.

    Used for ordinal outcomes (Likert expertise ratings, storage-scale
    categories) where a t-test's interval assumptions don't hold.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = a.size, b.size
    combined = np.concatenate([a, b])
    ranks = rankdata(combined)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = min(u1, u2)
    mean_u = n1 * n2 / 2.0
    # Tie correction for the variance.
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts**3 - counts).sum())
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        # All values identical: the samples cannot differ in rank.
        return TestResult(name="mwu", statistic=u, p_value=1.0)
    z = (u - mean_u + 0.5) / math.sqrt(var_u)  # continuity correction
    p = float(min(1.0, 2.0 * _special.ndtr(-abs(z))))
    return TestResult(
        name="mwu",
        statistic=float(u1),
        p_value=p,
        details={"u1": float(u1), "u2": float(u2), "z": float(z)},
    )


def _ranks_and_ties(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # SciPy's _rankdata(x, "average", return_ties=True) on a 1-D array:
    # average ranks in input order, plus each tie group's size placed at
    # the group's first sorted position (zeros elsewhere).
    n = x.size
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.concatenate([np.ones(1, dtype=bool), ordered[:-1] != ordered[1:]])
    starts = np.arange(n)[first]
    counts = np.diff(starts, append=np.asarray([n], dtype=starts.dtype))
    ordinal = np.arange(1, n + 1, dtype=np.float64)
    group_ranks = ordinal[first] + (np.asarray(counts, dtype=np.float64) - 1) / 2
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_ranks, counts)
    ties = np.zeros(n, dtype=np.float64)
    ties[first] = counts
    return ranks, ties


def rankdata(values) -> np.ndarray:
    """Average ranks (1-based) of ``values``, flattened; ties share a rank.

    Equal to ``scipy.stats.rankdata(values)`` bit for bit, NaN handling
    included: any NaN makes every rank NaN.
    """
    x = np.ravel(np.asarray(values))
    if x.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.issubdtype(x.dtype, np.inexact) and np.isnan(x).any():
        return np.full(x.size, np.nan)
    return _ranks_and_ties(x)[0]


def spearman_test(sample_a, sample_b) -> TestResult:
    """Spearman rank correlation with its two-sided t-approximation p-value.

    Equal to ``scipy.stats.spearmanr(sample_a, sample_b)`` bit for bit:
    the Pearson correlation of the average ranks, then
    ``t = rho * sqrt(dof / ((rho + 1)(1 - rho)))`` on ``dof = n - 2`` and
    ``p = 2 * stdtr(dof, -|t|)``. A constant sample, a NaN, or fewer than
    two pairs gives a NaN statistic and p-value, as in SciPy.
    """
    data = np.column_stack((np.asarray(sample_a), np.asarray(sample_b)))
    n = data.shape[0]
    dof = n - 2
    undefined = TestResult(name="spearman", statistic=math.nan, p_value=math.nan, dof=dof)
    if n <= 1:
        return undefined
    if (data[:, 0][0] == data[:, 0]).all() or (data[:, 1][0] == data[:, 1]).all():
        return undefined
    ranked = np.column_stack((rankdata(data[:, 0]), rankdata(data[:, 1])))
    rho = np.corrcoef(ranked, rowvar=False)[1, 0]
    # rho can be exactly +-1; clip the tiny negatives rounding can leave.
    with np.errstate(divide="ignore"):
        t = rho * np.sqrt((dof / ((rho + 1.0) * (1.0 - rho))).clip(0))
    p = 2 * _special.stdtr(dof, -np.abs(t))
    return TestResult(name="spearman", statistic=float(rho), p_value=float(p), dof=dof)


def kruskal_wallis_test(*groups) -> TestResult:
    """Kruskal-Wallis H test (tie-corrected) that k groups share a location.

    Equal to ``scipy.stats.kruskal(*groups)`` bit for bit: the group rank
    sums are taken in SciPy's order and ``p = chdtrc(k - 1, H)``. A NaN in
    any group gives a NaN statistic and p-value, as in SciPy. Fewer than
    two groups, or an empty one, raises ``ValueError``.
    """
    samples = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    k = len(samples)
    if k < 2:
        raise ValueError("kruskal_wallis_test needs at least two groups")
    if any(s.size == 0 for s in samples):
        raise ValueError("every group must be non-empty")
    sizes = [s.size for s in samples]
    total = sum(sizes)
    pooled = np.concatenate(samples)
    if np.isnan(pooled).any():
        return TestResult(name="kruskal", statistic=math.nan, p_value=math.nan, dof=k - 1)
    ranked, ties = _ranks_and_ties(pooled)
    correction = 1 - np.sum(ties**3 - ties) / (total**3 - total)
    bounds = list(itertools.accumulate(sizes, initial=0))
    ssbn = sum(
        np.sum(ranked[bounds[i] : bounds[i + 1]]) ** 2 / sizes[i] for i in range(k)
    )
    h = 12.0 / (total * (total + 1)) * ssbn - 3 * (total + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Every value tied: the correction is 0 and H is not finite, as in SciPy.
        h /= correction
    p = _special.chdtrc(np.float64(k - 1), h)
    return TestResult(name="kruskal", statistic=float(h), p_value=float(p), dof=k - 1)
