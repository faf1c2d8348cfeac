"""Statistics substrate for the practice study.

Everything the analysis layer needs to attach uncertainty and significance to
survey proportions and telemetry aggregates:

* binomial interval estimators (Wilson, Agresti-Coull, Clopper-Pearson, Wald);
* contingency-table tests (chi-square, G-test, Fisher exact for 2x2);
* proportion comparisons (two-sample z, risk difference / ratio, odds ratio);
* rank tests (Mann-Whitney U, Kruskal-Wallis H, Spearman's rho) and
  average ranks for ordinal Likert data;
* effect sizes (Cramér's V, Cohen's h/w, rank-biserial);
* nonparametric bootstrap with seeded, vectorized resampling;
* multiple-comparison corrections (Holm, Bonferroni, Benjamini-Hochberg);
* post-stratification weighting for survey raking.

All functions are pure, operate on plain floats / numpy arrays, and accept an
optional ``numpy.random.Generator`` wherever randomness is involved so results
are reproducible end to end. Distribution functions come from
``scipy.special``, the kernels ``scipy.stats`` wraps, so results equal
SciPy's bit for bit while importing the package skips ``scipy.stats``.
"""

from repro.stats.intervals import (
    BinomialInterval,
    agresti_coull_interval,
    clopper_pearson_interval,
    wald_interval,
    wilson_interval,
)
from repro.stats.tests import (
    TestResult,
    chi_square_test,
    fisher_exact_2x2,
    g_test,
    kruskal_wallis_test,
    mann_whitney_u,
    mcnemar_test,
    rankdata,
    spearman_test,
    two_proportion_z_test,
)
from repro.stats.effects import (
    cohens_h,
    cohens_w,
    cramers_v,
    odds_ratio,
    rank_biserial,
    risk_difference,
    risk_ratio,
)
from repro.stats.bootstrap import (
    BootstrapResult,
    bootstrap_ci,
    bootstrap_diff_ci,
    percentile_ci,
)
from repro.stats.corrections import (
    benjamini_hochberg,
    bonferroni,
    holm_bonferroni,
)
from repro.stats.weights import (
    PostStratificationError,
    effective_sample_size,
    post_stratify,
    rake_weights,
    weighted_mean,
    weighted_proportion,
)
from repro.stats.agreement import (
    cohens_kappa,
    multilabel_kappa,
    percent_agreement,
)
from repro.stats.power import (
    minimum_detectable_delta,
    required_n_per_group,
    two_proportion_power,
)
from repro.stats.descriptive import (
    ecdf,
    geometric_mean,
    gini_coefficient,
    quantiles,
    summarize,
    trimmed_mean,
)

__all__ = [
    "BinomialInterval",
    "wilson_interval",
    "agresti_coull_interval",
    "clopper_pearson_interval",
    "wald_interval",
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
    "cramers_v",
    "cohens_h",
    "cohens_w",
    "odds_ratio",
    "risk_difference",
    "risk_ratio",
    "rank_biserial",
    "BootstrapResult",
    "bootstrap_ci",
    "bootstrap_diff_ci",
    "percentile_ci",
    "holm_bonferroni",
    "bonferroni",
    "benjamini_hochberg",
    "post_stratify",
    "rake_weights",
    "weighted_mean",
    "weighted_proportion",
    "effective_sample_size",
    "PostStratificationError",
    "two_proportion_power",
    "required_n_per_group",
    "minimum_detectable_delta",
    "cohens_kappa",
    "percent_agreement",
    "multilabel_kappa",
    "ecdf",
    "quantiles",
    "summarize",
    "geometric_mean",
    "trimmed_mean",
    "gini_coefficient",
]
