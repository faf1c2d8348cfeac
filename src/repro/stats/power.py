"""Power analysis for two-proportion comparisons.

The study design question: "how many 2024 respondents do we need to detect
the changes we expect against the 2011 baseline?" Standard normal-
approximation power for the pooled two-proportion z-test, plus the inverse
(required n per group). Normal quantiles and probabilities come from
``scipy.special.ndtri``/``ndtr``, the kernels behind ``scipy.stats.norm``.
"""

from __future__ import annotations

import math

from scipy import special as _special

__all__ = ["two_proportion_power", "required_n_per_group", "minimum_detectable_delta"]


def _validate_proportions(p1: float, p2: float) -> None:
    for p in (p1, p2):
        if not 0.0 < p < 1.0:
            raise ValueError(f"proportions must be in (0, 1), got {p}")


def two_proportion_power(
    p1: float, p2: float, n1: int, n2: int, alpha: float = 0.05
) -> float:
    """Power of the two-sided two-proportion z-test at the given sizes.

    Uses the unpooled-variance normal approximation for the alternative and
    pooled variance under the null (matching the test actually run).
    """
    _validate_proportions(p1, p2)
    if n1 < 1 or n2 < 1:
        raise ValueError("group sizes must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if p1 == p2:
        return alpha  # power equals the size of the test under H0
    z_alpha = _special.ndtri(1.0 - alpha / 2.0)
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    sd0 = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    sd1 = math.sqrt(p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2)
    delta = abs(p1 - p2)
    # Two-sided: the wrong-direction rejection region contributes ~0.
    z = (delta - z_alpha * sd0) / sd1
    return float(_special.ndtr(z))


def required_n_per_group(
    p1: float, p2: float, power: float = 0.8, alpha: float = 0.05
) -> int:
    """Smallest equal group size giving at least the requested power."""
    _validate_proportions(p1, p2)
    if not 0.0 < power < 1.0:
        raise ValueError("power must be in (0, 1)")
    if p1 == p2:
        raise ValueError("cannot power a null effect")
    lo, hi = 2, 2
    while two_proportion_power(p1, p2, hi, hi, alpha) < power:
        hi *= 2
        if hi > 10_000_000:
            raise RuntimeError("required n exceeds 10M; effect too small")
    while lo < hi:
        mid = (lo + hi) // 2
        if two_proportion_power(p1, p2, mid, mid, alpha) >= power:
            hi = mid
        else:
            lo = mid + 1
    return lo


def minimum_detectable_delta(
    baseline: float, n1: int, n2: int, power: float = 0.8, alpha: float = 0.05
) -> float:
    """Smallest upward change from ``baseline`` detectable at the given sizes.

    Solved by bisection on the alternative proportion.
    """
    if not 0.0 < baseline < 1.0:
        raise ValueError("baseline must be in (0, 1)")
    lo, hi = baseline + 1e-6, 1.0 - 1e-9
    if two_proportion_power(baseline, hi, n1, n2, alpha) < power:
        raise ValueError("no detectable delta below 1.0 at these sizes")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if two_proportion_power(baseline, mid, n1, n2, alpha) >= power:
            hi = mid
        else:
            lo = mid
    return hi - baseline
