"""The experiment registry: every table and figure, regenerable by id.

Each experiment is a pure function ``Study -> Table | FigureSeries`` that
declares which study parts it reads (``Experiment.reads``). The registry
powers the examples, the benchmark harness (one bench per entry), and
EXPERIMENTS.md. Ids follow DESIGN.md: T1-T8 tables, F1-F8 figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from repro.analysis.concordance import gpu_concordance
from repro.analysis.demographics import demographics_table
from repro.analysis.languages import language_shares, language_trend_series
from repro.analysis.ml_adoption import ml_adoption_summary
from repro.analysis.parallelism import (
    gpu_adoption_by_field,
    parallel_mode_trends,
    parallelism_rates,
)
from repro.analysis.practices import practices_trends
from repro.analysis.storage import storage_summary
from repro.analysis.telemetry import (
    cpu_hours_figure,
    gpu_growth_figure,
    job_width_figure,
    queue_wait_table,
    runtime_figure,
)
from repro.analysis.training import training_summary
from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.core.study import Study, study_parts
from repro.core.trends import TrendRow
from repro.report.figures import FigureSeries
from repro.report.tables import Table, fmt_ci, fmt_p, fmt_pct, significance_stars
from repro.text.cooccurrence import build_cooccurrence_graph, cooccurrence_summary
from repro.text.mentions import extract_mentions

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
    "run_all_experiments",
    "report_pipeline",
]

Artifact = Union[Table, FigureSeries]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    Attributes
    ----------
    id:
        Stable identifier (``T1``..``T8``, ``F1``..``F8``).
    title:
        Human title used in the rendered artifact.
    kind:
        ``"table"`` or ``"figure"``.
    fn:
        ``Study -> Table | FigureSeries``.
    description:
        One-line summary used in EXPERIMENTS.md.
    reads:
        The study parts ``fn`` reads: a non-empty subset of
        ``("responses", "telemetry")``, kept in that order. The durable
        pipelines hand ``fn`` a view carrying only these parts, and its
        step depends only on the steps holding them.
    """

    id: str
    title: str
    kind: str
    fn: Callable[[Study], Artifact]
    description: str
    reads: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", study_parts(self.reads))


def _trend_row_cells(row: TrendRow) -> tuple[str, ...]:
    p = row.adjusted_p if row.adjusted_p is not None else row.p_value
    return (
        row.label,
        f"{fmt_pct(row.baseline.estimate)} {fmt_ci(row.baseline.low, row.baseline.high)}",
        f"{fmt_pct(row.current.estimate)} {fmt_ci(row.current.low, row.current.high)}",
        f"{100.0 * row.delta:+.1f}pp",
        f"{fmt_p(p)}{significance_stars(p)}",
    )


_TREND_COLUMNS = ("practice", "2011", "2024", "change", "p (adj)")


# -- T1 ---------------------------------------------------------------------


def t1_demographics(study: Study) -> Table:
    result = demographics_table(study.responses)
    ct = result.field_by_cohort
    shares = ct.row_shares()
    rows = []
    for i, field_name in enumerate(ct.row_labels):
        cells = [field_name]
        for j, cohort in enumerate(ct.col_labels):
            cells.append(f"{int(ct.counts[i, j])} ({fmt_pct(shares[i, j])})")
        rows.append(tuple(cells))
    years = "; ".join(
        f"{cohort}: median {s.median:.0f}y" for cohort, s in sorted(result.years_programming.items())
    )
    return Table(
        title="T1: respondent demographics by field",
        columns=("field", *ct.col_labels),
        rows=tuple(rows),
        notes=(
            f"n = {result.response_counts}",
            f"years programming: {years}",
            f"field x cohort chi2 p = {fmt_p(ct.test.p_value)}",
        ),
    )


# -- T2 / F1 ------------------------------------------------------------------


def t2_languages(study: Study) -> Table:
    shares = language_shares(study.responses)
    cohorts = sorted(shares)
    by_language: dict[str, dict[str, str]] = {}
    for cohort in cohorts:
        for s in shares[cohort]:
            by_language.setdefault(s.language, {})[cohort] = (
                f"{fmt_pct(s.interval.estimate)} {fmt_ci(s.interval.low, s.interval.high)}"
            )
    rows = [
        (language, *[cells.get(c, "-") for c in cohorts])
        for language, cells in by_language.items()
    ]
    # Sort by current-cohort share, descending (how the paper lists them).
    current = cohorts[-1]
    current_share = {
        s.language: s.interval.estimate for s in shares[current]
    }
    rows.sort(key=lambda r: -current_share.get(r[0], 0.0))
    return Table(
        title="T2: programming language use by cohort (multi-select)",
        columns=("language", *cohorts),
        rows=tuple(rows),
        notes=("shares of respondents answering the languages item; Wilson 95% CIs",),
    )


def f1_language_trend(study: Study) -> FigureSeries:
    table = language_trend_series(study.responses)
    labels = [row.label for row in table]
    x = np.arange(len(labels), dtype=float)
    series = {
        "2011": (x, np.array([row.baseline.estimate for row in table])),
        "2024": (x, np.array([row.current.estimate for row in table])),
    }
    return FigureSeries(
        title="F1: language popularity, 2011 vs 2024",
        x_label="language (sorted by |change|): " + ", ".join(labels),
        y_label="share of respondents",
        series=series,
        kind="bar",
        notes=("Holm-corrected two-proportion tests; see T2 for CIs",),
    )


# -- T3 / F2 ---------------------------------------------------------------------


def t3_parallelism(study: Study) -> Table:
    headline = parallelism_rates(study.responses)
    modes = parallel_mode_trends(study.responses)
    rows = [
        _trend_row_cells(headline.uses_parallelism),
        _trend_row_cells(headline.uses_cluster),
        _trend_row_cells(headline.uses_gpu),
    ]
    rows.extend(_trend_row_cells(row) for row in modes.sorted_by_delta())
    return Table(
        title="T3: parallelism modality use by cohort",
        columns=_TREND_COLUMNS,
        rows=tuple(rows),
        notes=(
            "headline rows over all respondents; modality rows over parallel users",
            "modality family Holm-corrected",
        ),
    )


def f2_gpu_by_field(study: Study) -> FigureSeries:
    adoption = gpu_adoption_by_field(study.responses, cohort=study.current_cohort)
    if not adoption:
        raise ValueError("no field passes the minimum-n filter for F2")
    x = np.arange(len(adoption), dtype=float)
    estimates = np.array([a.interval.estimate for a in adoption])
    lows = np.array([a.interval.low for a in adoption])
    highs = np.array([a.interval.high for a in adoption])
    return FigureSeries(
        title="F2: GPU adoption by field (2024 cohort)",
        x_label="field: " + ", ".join(a.field for a in adoption),
        y_label="share reporting GPU use",
        series={"estimate": (x, estimates), "ci_low": (x, lows), "ci_high": (x, highs)},
        kind="bar",
        notes=(f"fields with n >= 5 answerers; Wilson 95% CIs",),
    )


# -- T4 -----------------------------------------------------------------------


def t4_ml_frameworks(study: Study) -> Table:
    summary = ml_adoption_summary(study.responses)
    rows = [_trend_row_cells(summary.adoption)]
    framework_rows = sorted(
        summary.framework_shares.items(), key=lambda kv: -kv[1].estimate
    )
    for framework, interval in framework_rows:
        rows.append(
            (
                f"  {framework}",
                "-",
                f"{fmt_pct(interval.estimate)} {fmt_ci(interval.low, interval.high)}",
                "-",
                "-",
            )
        )
    return Table(
        title="T4: machine-learning adoption and frameworks",
        columns=_TREND_COLUMNS,
        rows=tuple(rows),
        notes=(
            f"framework shares among the {summary.n_ml_users} 2024 ML users "
            "who listed frameworks",
        ),
    )


# -- T6 / T7 / T8 -----------------------------------------------------------------


def t6_practices(study: Study) -> Table:
    table = practices_trends(study.responses)
    return Table(
        title="T6: software-engineering practice adoption",
        columns=_TREND_COLUMNS,
        rows=tuple(_trend_row_cells(row) for row in table),
        notes=("family Holm-corrected",),
    )


def t7_training(study: Study) -> Table:
    summary = training_summary(study.responses)
    ct = summary.training_by_cohort
    shares = ct.row_shares()
    rows = []
    for i, label in enumerate(ct.row_labels):
        cells = [label]
        for j in range(len(ct.col_labels)):
            cells.append(f"{int(ct.counts[i, j])} ({fmt_pct(shares[i, j])})")
        rows.append(tuple(cells))
    means = "; ".join(f"{c}: {m:.2f}/5" for c, m in sorted(summary.expertise_means.items()))
    return Table(
        title="T7: training background and self-rated expertise",
        columns=("training", *ct.col_labels),
        rows=tuple(rows),
        notes=(
            f"mean expertise {means}",
            f"Mann-Whitney p = {fmt_p(summary.expertise_test.p_value)}, "
            f"rank-biserial = {summary.expertise_effect:+.2f}",
        ),
    )


def t8_storage(study: Study) -> Table:
    summary = storage_summary(study.responses)
    ct = summary.scale_by_cohort
    shares = ct.row_shares()
    rows = []
    for i, label in enumerate(ct.row_labels):
        cells = [label]
        for j in range(len(ct.col_labels)):
            cells.append(f"{int(ct.counts[i, j])} ({fmt_pct(shares[i, j])})")
        rows.append(tuple(cells))
    return Table(
        title="T8: typical project data scale by cohort",
        columns=("data scale", *ct.col_labels),
        rows=tuple(rows),
        notes=(
            f"ordinal shift: Mann-Whitney p = {fmt_p(summary.scale_shift_test.p_value)}, "
            f"rank-biserial = {summary.scale_shift_effect:+.2f}",
            "storage-location trends reported in the locations panel",
        ),
    )


# -- telemetry figures --------------------------------------------------------------


def f3_cpu_hours(study: Study) -> FigureSeries:
    per_field = cpu_hours_figure(study)
    total = per_field.pop("__total__")
    months = np.arange(total.size, dtype=float)
    series = {name: (months, hours) for name, hours in per_field.items()}
    series["total"] = (months, total)
    return FigureSeries(
        title="F3: monthly CPU-hours by field",
        x_label="month of study window",
        y_label="CPU-hours",
        series=series,
        kind="line",
    )


def f4_job_width_cdf(study: Study) -> FigureSeries:
    dists = job_width_figure(study)
    series = {name: (dist.widths, dist.cdf) for name, dist in dists.items()}
    notes = []
    for name, dist in dists.items():
        biggest = max(dist.weighted_share.items(), key=lambda kv: kv[1])
        notes.append(
            f"{name}: width class {biggest[0]} holds {fmt_pct(biggest[1])} of core-hours"
        )
    return FigureSeries(
        title="F4: job width CDF, CPU vs GPU jobs",
        x_label="cores per job",
        y_label="fraction of jobs <= width",
        series=series,
        kind="cdf",
        notes=tuple(notes),
    )


def t5_queue_wait(study: Study) -> Table:
    stats = queue_wait_table(study)
    columns = ("partition", "n", "median (h)", "mean (h)", "p95 (h)")
    rows = []
    for partition in sorted(stats):
        s = stats[partition]
        rows.append(
            (
                partition,
                f"{int(s['n'])}",
                f"{s['median_h']:.2f}",
                f"{s['mean_h']:.2f}",
                f"{s['p95_h']:.2f}",
            )
        )
    width_notes = []
    for partition in sorted(stats):
        per_width = {
            k.removeprefix("median_h["). removesuffix("]"): v
            for k, v in stats[partition].items()
            if k.startswith("median_h[")
        }
        if per_width:
            rendered = ", ".join(f"{w}: {v:.2f}h" for w, v in per_width.items())
            width_notes.append(f"{partition} median by width: {rendered}")
    return Table(
        title="T5: queue wait by partition",
        columns=columns,
        rows=tuple(rows),
        notes=tuple(width_notes),
    )


def f5_gpu_growth(study: Study) -> FigureSeries:
    result = gpu_growth_figure(study)
    months = np.arange(result.monthly_gpu_hours.size, dtype=float)
    fit = result.monthly_gpu_hours[0] * (1.0 + result.growth_per_month) ** months
    return FigureSeries(
        title="F5: monthly GPU-hours growth",
        x_label="month of study window",
        y_label="GPU-hours",
        series={
            "gpu_hours": (months, result.monthly_gpu_hours),
            "exponential_fit": (months, fit),
        },
        kind="line",
        notes=(
            f"fitted growth {100 * result.growth_per_month:+.1f}%/month "
            f"(95% bootstrap CI [{100 * result.growth_ci.low:+.1f}, "
            f"{100 * result.growth_ci.high:+.1f}])",
        ),
    )


def f7_runtime_dist(study: Study) -> FigureSeries:
    hist = runtime_figure(study)
    bins = hist.pop("__bins__")
    centers = (bins[:-1] + bins[1:]) / 2.0
    series = {name: (centers, counts.astype(float)) for name, counts in hist.items()}
    return FigureSeries(
        title="F7: job runtime distribution by field",
        x_label="log10(runtime hours)",
        y_label="jobs",
        series=series,
        kind="histogram",
    )


# -- text / concordance ------------------------------------------------------------


def f6_tool_network(study: Study) -> Table:
    mentions = extract_mentions(study.current, "stack_description")
    graph = build_cooccurrence_graph(mentions)
    summary = cooccurrence_summary(graph)
    rows = [
        (a, b, str(w)) for a, b, w in summary.top_pairs
    ]
    communities = "; ".join(
        "{" + ", ".join(sorted(c)[:6]) + ("...}" if len(c) > 6 else "}")
        for c in summary.communities[:4]
    )
    return Table(
        title="F6: strongest tool co-mentions (2024 stack descriptions)",
        columns=("tool a", "tool b", "co-mentions"),
        rows=tuple(rows),
        notes=(
            f"{summary.n_tools} tools, {summary.n_edges} edges over "
            f"{mentions.n_documents} answers",
            f"communities: {communities}",
        ),
    )


def f8_concordance(study: Study) -> FigureSeries:
    result = gpu_concordance(study)
    return FigureSeries(
        title="F8: survey-reported GPU use vs telemetry GPU-hours share",
        x_label="survey share reporting GPU use (field): "
        + ", ".join(result.fields),
        y_label="share of GPU-hours",
        series={"fields": (result.survey_share, result.telemetry_share)},
        kind="scatter",
        notes=(
            f"Spearman rho = {result.spearman_rho:+.2f} (p = {fmt_p(result.p_value)})",
        ),
    )


# -- registry ----------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("T1", "Respondent demographics", "table", t1_demographics,
                   "Field and career-stage composition per cohort.",
                   reads=("responses",)),
        Experiment("T2", "Language use", "table", t2_languages,
                   "Multi-select language shares with Wilson CIs per cohort.",
                   reads=("responses",)),
        Experiment("F1", "Language trend", "figure", f1_language_trend,
                   "2011-vs-2024 language shares, Holm-corrected.",
                   reads=("responses",)),
        Experiment("T3", "Parallelism modalities", "table", t3_parallelism,
                   "Parallelism/cluster/GPU adoption plus per-modality trends.",
                   reads=("responses",)),
        Experiment("F2", "GPU adoption by field", "figure", f2_gpu_by_field,
                   "Per-field GPU adoption in the 2024 cohort.",
                   reads=("responses",)),
        Experiment("T4", "ML frameworks", "table", t4_ml_frameworks,
                   "ML adoption trend and framework shares among ML users.",
                   reads=("responses",)),
        Experiment("T5", "Queue waits", "table", t5_queue_wait,
                   "Queue-wait statistics per partition and width class.",
                   reads=("telemetry",)),
        Experiment("T6", "Engineering practices", "table", t6_practices,
                   "VCS/testing/CI/container adoption trends.",
                   reads=("responses",)),
        Experiment("T7", "Training background", "table", t7_training,
                   "How respondents learned to program; expertise comparison.",
                   reads=("responses",)),
        Experiment("T8", "Data scale", "table", t8_storage,
                   "Ordinal data-scale distribution shift between cohorts.",
                   reads=("responses",)),
        Experiment("F3", "CPU-hours by field", "figure", f3_cpu_hours,
                   "Monthly CPU-hours per field over the telemetry window.",
                   reads=("telemetry",)),
        Experiment("F4", "Job width CDF", "figure", f4_job_width_cdf,
                   "Width distributions for CPU vs GPU jobs.",
                   reads=("telemetry",)),
        Experiment("F5", "GPU-hours growth", "figure", f5_gpu_growth,
                   "Monthly GPU-hours with fitted exponential growth.",
                   reads=("telemetry",)),
        Experiment("F6", "Tool co-mention network", "table", f6_tool_network,
                   "Strongest tool co-mentions and communities (rendered as a table).",
                   reads=("responses",)),
        Experiment("F7", "Runtime distributions", "figure", f7_runtime_dist,
                   "Log-runtime histograms by field.",
                   reads=("telemetry",)),
        Experiment("F8", "Survey-telemetry concordance", "figure", f8_concordance,
                   "Reported GPU use vs measured GPU-hours, by field.",
                   reads=("responses", "telemetry")),
    )
}


def run_experiment(experiment_id: str, study: Study) -> Artifact:
    """Regenerate one experiment's artifact."""
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.fn(study)


def run_all_experiments(study: Study) -> dict[str, Artifact]:
    """Regenerate every artifact in this process, keyed by experiment id
    (sorted order).

    The library's one-call loop over :func:`run_experiment`. Parallel,
    durable, traced and fleet builds run the same experiments as steps of
    :func:`report_pipeline` on :meth:`repro.core.pipeline.Pipeline.run`.
    """
    return {eid: run_experiment(eid, study) for eid in sorted(EXPERIMENTS)}


# -- the durable report pipeline ----------------------------------------------


def _experiment_step(context, experiment_id, fn_fingerprint="", **values):
    """Pipeline-step wrapper around one registry entry.

    ``context`` holds one input per part the experiment reads, in
    ``Experiment.reads`` order (the order :func:`_experiment_steps`
    declares them in), and ``values`` carries those parts' params; the
    experiment runs on a :meth:`Study.view` of exactly that.

    ``fn_fingerprint`` exists purely for the cache key: the wrapper is the
    same function for every experiment, so the underlying experiment
    function's code fingerprint must ride along in the params or editing
    an experiment would not invalidate its artifact.
    """
    if experiment_id.startswith("X"):
        # Extension experiments register on import; core ids must not
        # trigger the import (mirrors the CLI, which only knows T*/F*).
        import repro.report.extensions  # noqa: F401
    experiment = EXPERIMENTS[experiment_id]
    parts = dict(zip(experiment.reads, context.values()))
    study = Study.view(experiment.reads, cluster=DEFAULT_CLUSTER, **parts, **values)
    return experiment.fn(study)


def _experiment_steps(
    experiment_ids: Sequence[str] | None,
    inputs: Mapping[str, str],
    *,
    window_seconds: float,
    baseline_cohort: str = "2011",
    current_cohort: str = "2024",
):
    """One ``exp:<id>`` step per experiment, wired to what it reads.

    ``inputs`` names the step holding each study part. A step depends
    only on the input steps of its experiment's ``reads``, and its params
    carry only those parts' values (cohort labels for ``responses``,
    ``window_seconds`` for ``telemetry``), so an edit to one part leaves
    the keys of experiments reading only the other untouched.
    ``experiment_ids=None`` means every registered id, in sorted order.
    """
    from repro.core.pipeline import PipelineStep, fingerprint_callable

    ids = sorted(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    values = {
        "responses": {"baseline_cohort": baseline_cohort, "current_cohort": current_cohort},
        "telemetry": {"window_seconds": float(window_seconds)},
    }
    steps = []
    for eid in ids:
        experiment = EXPERIMENTS[eid]
        params = {"experiment_id": eid, "fn_fingerprint": fingerprint_callable(experiment.fn)}
        for part in experiment.reads:
            params.update(values[part])
        steps.append(
            PipelineStep(
                name=f"exp:{eid}",
                fn=_experiment_step,
                params=params,
                depends_on=tuple(inputs[part] for part in experiment.reads),
            )
        )
    return steps


def report_pipeline(
    cache=None,
    *,
    experiment_ids: Sequence[str] | None = None,
    retry=None,
    timeout: float | None = None,
    **study_kwargs,
):
    """Build the full report pipeline: study stages + experiments.

    Extends :func:`repro.core.study_pipeline.study_pipeline` with one
    ``exp:<id>`` step per registered experiment. ``repro report`` always
    runs this DAG; with ``--durable`` it is journaled against a disk
    cache, and ``--resume`` can recover it after a crash: completed
    experiments replay from the cache, only the in-flight frontier
    re-executes. Each experiment step depends only on the stage holding
    the parts it reads — ``survey`` for responses, ``schedule`` for
    telemetry — so editing ``n_current`` reruns the survey's experiments
    while the telemetry ones stay cached. The ``study`` step still runs
    (the rendered report reads it) but no experiment depends on it.
    """
    from repro.core.pipeline import Pipeline
    from repro.core.study_pipeline import study_pipeline

    base = study_pipeline(cache=cache, retry=retry, timeout=timeout, **study_kwargs)
    study = next(step for step in base.steps if step.name == "study")
    steps = list(base.steps) + _experiment_steps(
        experiment_ids,
        {"responses": "survey", "telemetry": "schedule"},
        window_seconds=study.params["window_seconds"],
    )
    return Pipeline(steps, base.cache, default_retry=retry, default_timeout=timeout)
