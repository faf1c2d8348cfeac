"""Survey data-quality analysis: nonresponse structure.

Before trusting the trend tables, the study characterizes who skipped what:
per-item nonresponse by cohort, the completion-rate distribution, and
whether missingness correlates with demographics (differential nonresponse,
which weighting cannot fully fix and the limitations section must report).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.intervals import BinomialInterval, wilson_interval
from repro.stats.tests import TestResult, kruskal_wallis_test
from repro.survey.responses import ResponseSet

__all__ = ["ItemNonresponse", "QualityReport", "quality_report"]


@dataclass(frozen=True, slots=True)
class ItemNonresponse:
    """Nonresponse for one item in one cohort.

    ``n_applicable`` counts respondents the skip logic showed the item to;
    the rate's denominator is applicability, not the whole cohort, so gated
    follow-ups aren't spuriously flagged.
    """

    key: str
    cohort: str
    n_applicable: int
    n_missing: int
    rate: BinomialInterval


@dataclass(frozen=True)
class QualityReport:
    """Cohort-level data-quality summary.

    Attributes
    ----------
    item_nonresponse:
        Per (item, cohort) nonresponse rows, worst first.
    completion_quartiles:
        Per-cohort (q25, median, q75) of per-respondent completion.
    field_missingness_test:
        Kruskal-Wallis test of per-respondent completion rates across
        fields for the pooled set — significant means differential
        nonresponse by field (a limitation weighting cannot fix).
    """

    item_nonresponse: tuple[ItemNonresponse, ...]
    completion_quartiles: dict[str, tuple[float, float, float]]
    field_missingness_test: TestResult

    def worst_items(self, k: int = 5) -> tuple[ItemNonresponse, ...]:
        return self.item_nonresponse[:k]


def _completion_rates(subset: ResponseSet) -> np.ndarray:
    rates = []
    questionnaire = subset.questionnaire
    for response in subset:
        applicable = questionnaire.applicable_keys(response.answers)
        if not applicable:
            rates.append(1.0)
            continue
        answered = sum(1 for key in applicable if response.answered(key))
        rates.append(answered / len(applicable))
    return np.array(rates, dtype=float)


def quality_report(responses: ResponseSet) -> QualityReport:
    """Build the quality report over a multi-cohort response set."""
    if len(responses) == 0:
        raise ValueError("empty response set")
    questionnaire = responses.questionnaire

    rows: list[ItemNonresponse] = []
    for cohort, subset in responses.split_cohorts().items():
        applicable_count = {key: 0 for key in questionnaire.keys}
        missing_count = {key: 0 for key in questionnaire.keys}
        for response in subset:
            for key in questionnaire.applicable_keys(response.answers):
                applicable_count[key] += 1
                if not response.answered(key):
                    missing_count[key] += 1
        for key in questionnaire.keys:
            n_app = applicable_count[key]
            if n_app == 0:
                continue
            rows.append(
                ItemNonresponse(
                    key=key,
                    cohort=cohort,
                    n_applicable=n_app,
                    n_missing=missing_count[key],
                    rate=wilson_interval(missing_count[key], n_app),
                )
            )
    rows.sort(key=lambda r: -r.rate.estimate)

    quartiles: dict[str, tuple[float, float, float]] = {}
    for cohort, subset in responses.split_cohorts().items():
        if len(subset) == 0:
            continue
        rates = _completion_rates(subset)
        q25, q50, q75 = np.quantile(rates, [0.25, 0.5, 0.75])
        quartiles[cohort] = (float(q25), float(q50), float(q75))

    # Differential nonresponse: do completion rates depend on field?
    per_field: dict[str, list[float]] = {}
    for response in responses:
        field = response.get("field", None)
        if field is None:
            continue
        applicable = questionnaire.applicable_keys(response.answers)
        if not applicable:
            continue
        answered = sum(1 for key in applicable if response.answered(key))
        per_field.setdefault(str(field), []).append(answered / len(applicable))
    groups = [np.array(v) for v in per_field.values() if len(v) >= 2]
    pooled = np.concatenate(groups) if groups else np.array([])
    if len(groups) >= 2 and np.unique(pooled).size > 1:
        test = kruskal_wallis_test(*groups)
    else:
        test = TestResult(name="kruskal", statistic=0.0, p_value=1.0, dof=0)

    return QualityReport(
        item_nonresponse=tuple(rows),
        completion_quartiles=quartiles,
        field_missingness_test=test,
    )
