"""Binomial confidence intervals for survey proportions.

The study reports nearly every number as "proportion of respondents who ...",
so interval quality matters. Wilson is the default everywhere in the library:
it has near-nominal coverage at the small per-field sample sizes (n of 10-40)
the survey produces, where the Wald interval badly undercovers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import stats as _sps

__all__ = [
    "BinomialInterval",
    "wilson_interval",
    "agresti_coull_interval",
    "clopper_pearson_interval",
    "wald_interval",
]


@dataclass(frozen=True, slots=True)
class BinomialInterval:
    """A point estimate with a two-sided confidence interval.

    Attributes
    ----------
    estimate:
        The point estimate of the proportion (successes / trials).
    low, high:
        Interval endpoints, clipped to [0, 1].
    confidence:
        The nominal two-sided confidence level, e.g. ``0.95``.
    method:
        Name of the estimator that produced the interval.
    """

    estimate: float
    low: float
    high: float
    confidence: float
    method: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.low <= self.high <= 1.0):
            raise ValueError(
                f"invalid interval [{self.low}, {self.high}] for method {self.method}"
            )

    @property
    def width(self) -> float:
        """Total width of the interval."""
        return self.high - self.low

    def contains(self, p: float) -> bool:
        """Whether ``p`` lies inside the closed interval."""
        return self.low <= p <= self.high

    def as_tuple(self) -> tuple[float, float, float]:
        """``(estimate, low, high)`` for table rendering."""
        return (self.estimate, self.low, self.high)


def _validate(successes: int, trials: int, confidence: float) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


@functools.lru_cache(maxsize=16)
def _z_value(confidence: float) -> float:
    # SciPy's ppf costs ~75 us a call and every interval asks for it;
    # studies use a handful of confidence levels.
    return float(_sps.norm.ppf(0.5 + confidence / 2.0))


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> BinomialInterval:
    """Wilson score interval.

    Solves the score equation for p, giving an interval centred on a
    shrunk estimate. Behaves well for small n and extreme proportions,
    which is exactly the regime of per-field survey breakdowns.
    """
    _validate(successes, trials, confidence)
    z = _z_value(confidence)
    n = float(trials)
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    # At the boundaries the analytic endpoints are exactly 0/1; clamp so FP
    # rounding never leaves the estimate microscopically outside the interval.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return BinomialInterval(
        estimate=p_hat,
        low=low,
        high=high,
        confidence=confidence,
        method="wilson",
    )


def agresti_coull_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> BinomialInterval:
    """Agresti-Coull "add z^2/2 successes and failures" interval."""
    _validate(successes, trials, confidence)
    z = _z_value(confidence)
    z2 = z * z
    n_tilde = trials + z2
    p_tilde = (successes + z2 / 2.0) / n_tilde
    margin = z * math.sqrt(p_tilde * (1.0 - p_tilde) / n_tilde)
    low = max(0.0, p_tilde - margin)
    high = min(1.0, p_tilde + margin)
    # Keep the (possibly boundary) point estimate inside the interval.
    p_hat = successes / trials
    return BinomialInterval(
        estimate=p_hat,
        low=min(low, p_hat),
        high=max(high, p_hat),
        confidence=confidence,
        method="agresti-coull",
    )


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> BinomialInterval:
    """Exact (conservative) Clopper-Pearson interval from beta quantiles."""
    _validate(successes, trials, confidence)
    alpha = 1.0 - confidence
    if successes == 0:
        low = 0.0
    else:
        low = float(_sps.beta.ppf(alpha / 2.0, successes, trials - successes + 1))
    if successes == trials:
        high = 1.0
    else:
        high = float(_sps.beta.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return BinomialInterval(
        estimate=successes / trials,
        low=low,
        high=high,
        confidence=confidence,
        method="clopper-pearson",
    )


def wald_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> BinomialInterval:
    """Plain normal-approximation interval.

    Included for the CI-method ablation bench only; known to undercover for
    small n. Library code should prefer :func:`wilson_interval`.
    """
    _validate(successes, trials, confidence)
    z = _z_value(confidence)
    p_hat = successes / trials
    margin = z * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return BinomialInterval(
        estimate=p_hat,
        low=max(0.0, p_hat - margin),
        high=min(1.0, p_hat + margin),
        confidence=confidence,
        method="wald",
    )
