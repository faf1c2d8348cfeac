"""F8: survey-vs-telemetry concordance.

The study's cross-validation check: fields whose respondents *say* they use
GPUs should be the fields whose groups *burn* GPU-hours. This joins the
2024 survey's per-field GPU adoption with the telemetry's per-field
GPU-hour shares and reports a rank correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.parallelism import gpu_adoption_by_field
from repro.core.study import Study
from repro.stats.tests import spearman_test

__all__ = ["ConcordanceResult", "gpu_concordance"]


@dataclass(frozen=True)
class ConcordanceResult:
    """F8 contents.

    Attributes
    ----------
    fields:
        Fields present in both sources, sorted alphabetically.
    survey_share:
        Per-field share of respondents reporting GPU use.
    telemetry_share:
        Per-field share of total GPU-hours.
    spearman_rho, p_value:
        Rank correlation between the two vectors.
    """

    fields: tuple[str, ...]
    survey_share: np.ndarray
    telemetry_share: np.ndarray
    spearman_rho: float
    p_value: float


def gpu_concordance(study: Study, min_n: int = 5) -> ConcordanceResult:
    """Compute F8 for a study."""
    adoption = gpu_adoption_by_field(
        study.responses, cohort=study.current_cohort, min_n=min_n
    )
    survey = {a.field: a.interval.estimate for a in adoption}

    gpu_jobs = study.telemetry.gpu_jobs()
    if len(gpu_jobs) == 0:
        raise ValueError("no GPU jobs in telemetry")
    hours = gpu_jobs.gpu_hours
    total = float(hours.sum())
    # One bincount over the field dictionary codes replaces a mask pass
    # per field; categories are sorted, matching the old fields() order.
    block = gpu_jobs.cat("field")
    per_field = np.bincount(block.codes, weights=hours, minlength=len(block.categories))
    telemetry = {
        field_name: float(per_field[code] / total)
        for code, field_name in enumerate(block.categories)
    }

    common = tuple(sorted(set(survey) & set(telemetry)))
    if len(common) < 3:
        raise ValueError(
            f"need >= 3 fields present in both sources, got {len(common)}"
        )
    survey_vec = np.array([survey[f] for f in common])
    telemetry_vec = np.array([telemetry[f] for f in common])
    test = spearman_test(survey_vec, telemetry_vec)
    return ConcordanceResult(
        fields=common,
        survey_share=survey_vec,
        telemetry_share=telemetry_vec,
        spearman_rho=test.statistic,
        p_value=test.p_value,
    )
