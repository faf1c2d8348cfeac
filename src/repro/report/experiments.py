"""The experiment registry: every table and figure, regenerable by id.

Each experiment is a pure function ``Study -> Table | FigureSeries``. The
registry powers the examples, the benchmark harness (one bench per entry),
and EXPERIMENTS.md. Ids follow DESIGN.md: T1-T8 tables, F1-F8 figures.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, Union

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
from repro.core.metrics import ExecutorMetrics
from repro.core.study import Study
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
    "run_all_experiments_with_metrics",
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
    """

    id: str
    title: str
    kind: str
    fn: Callable[[Study], Artifact]
    description: str


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
                   "Field and career-stage composition per cohort."),
        Experiment("T2", "Language use", "table", t2_languages,
                   "Multi-select language shares with Wilson CIs per cohort."),
        Experiment("F1", "Language trend", "figure", f1_language_trend,
                   "2011-vs-2024 language shares, Holm-corrected."),
        Experiment("T3", "Parallelism modalities", "table", t3_parallelism,
                   "Parallelism/cluster/GPU adoption plus per-modality trends."),
        Experiment("F2", "GPU adoption by field", "figure", f2_gpu_by_field,
                   "Per-field GPU adoption in the 2024 cohort."),
        Experiment("T4", "ML frameworks", "table", t4_ml_frameworks,
                   "ML adoption trend and framework shares among ML users."),
        Experiment("T5", "Queue waits", "table", t5_queue_wait,
                   "Queue-wait statistics per partition and width class."),
        Experiment("T6", "Engineering practices", "table", t6_practices,
                   "VCS/testing/CI/container adoption trends."),
        Experiment("T7", "Training background", "table", t7_training,
                   "How respondents learned to program; expertise comparison."),
        Experiment("T8", "Data scale", "table", t8_storage,
                   "Ordinal data-scale distribution shift between cohorts."),
        Experiment("F3", "CPU-hours by field", "figure", f3_cpu_hours,
                   "Monthly CPU-hours per field over the telemetry window."),
        Experiment("F4", "Job width CDF", "figure", f4_job_width_cdf,
                   "Width distributions for CPU vs GPU jobs."),
        Experiment("F5", "GPU-hours growth", "figure", f5_gpu_growth,
                   "Monthly GPU-hours with fitted exponential growth."),
        Experiment("F6", "Tool co-mention network", "table", f6_tool_network,
                   "Strongest tool co-mentions and communities (rendered as a table)."),
        Experiment("F7", "Runtime distributions", "figure", f7_runtime_dist,
                   "Log-runtime histograms by field."),
        Experiment("F8", "Survey-telemetry concordance", "figure", f8_concordance,
                   "Reported GPU use vs measured GPU-hours, by field."),
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


def _run_experiment_chunk(
    ids: tuple[str, ...], study: Study, on_error: str = "raise"
) -> dict[str, tuple[str, object]]:
    """Worker-side body of the process fan-out: run a slice of the registry.

    The study pickles over once per worker (not once per experiment); the
    extensions import re-registers X1..X10 in the fresh interpreter.
    Returns ``{id: ("ok", artifact)}`` entries; with ``on_error=
    "keep_going"`` a failing experiment becomes ``("failed", repr(exc))``
    instead of poisoning the whole chunk.
    """
    import repro.report.extensions  # noqa: F401  (registers X* in the worker)

    out: dict[str, tuple[str, object]] = {}
    for eid in ids:
        if on_error == "keep_going":
            try:
                out[eid] = ("ok", EXPERIMENTS[eid].fn(study))
            except Exception as exc:
                out[eid] = ("failed", repr(exc))
        else:
            out[eid] = ("ok", EXPERIMENTS[eid].fn(study))
    return out


def _resolve_fanout(executor: str, max_workers: int | None, study: Study, n: int) -> tuple[str, int]:
    if executor not in ("auto", "sequential", "thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    workers = min(workers, n)
    if executor == "sequential" or workers <= 1:
        return "sequential", 1
    if executor == "auto":
        try:
            pickle.dumps(study, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return "thread", workers
        return "process", workers
    return executor, workers


def run_all_experiments_with_metrics(
    study: Study,
    max_workers: int | None = None,
    executor: str = "auto",
    on_error: str = "raise",
) -> tuple[dict[str, Artifact], ExecutorMetrics]:
    """Regenerate every artifact plus the executor's timing record.

    Every registered experiment is a pure function of the study, so the
    whole registry fans out over a process pool (``executor="process"`` /
    ``"auto"``), a thread pool (``"thread"``), or runs inline
    (``"sequential"`` or ``max_workers=1``). Output is identical across
    modes — the golden-artifact suite enforces byte-equality — and the
    returned dict is always keyed in sorted-id order.

    ``on_error="keep_going"`` degrades gracefully instead of aborting: a
    failing experiment is dropped from the returned dict and recorded in
    the metrics with ``outcome="failed"`` and the captured error, so
    :func:`repro.report.document.build_report` can render a placeholder
    section for exactly the failed ids.
    """
    if on_error not in ("raise", "keep_going"):
        raise ValueError(f"unknown on_error {on_error!r}")
    ids = sorted(EXPERIMENTS)
    mode, workers = _resolve_fanout(executor, max_workers, study, len(ids))
    metrics = ExecutorMetrics(mode=mode, max_workers=workers)
    t0 = time.perf_counter()
    artifacts: dict[str, Artifact] = {}

    def run_one(eid: str) -> Artifact | None:
        """Run one experiment inline, recording its metric; None on failure."""
        # Every experiment is ready at t0 (they all depend only on the
        # study), so time spent before starting is pure queue wait.
        started = time.perf_counter()
        try:
            artifact = EXPERIMENTS[eid].fn(study)
        except Exception as exc:
            if on_error == "raise":
                raise
            finished = time.perf_counter()
            metrics.record(
                eid, "", False, finished - started,
                outcome="failed", error=repr(exc),
                queue_seconds=started - t0, compute_seconds=finished - started,
            )
            return None
        finished = time.perf_counter()
        metrics.record(
            eid, "", False, finished - started,
            queue_seconds=started - t0, compute_seconds=finished - started,
        )
        return artifact

    if mode == "sequential":
        for eid in ids:
            artifact = run_one(eid)
            if artifact is not None:
                artifacts[eid] = artifact
    elif mode == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            artifacts = {
                eid: artifact
                for eid, artifact in zip(ids, pool.map(run_one, ids))
                if artifact is not None
            }
    else:
        # Round-robin chunks balance the slow table/figure mix across
        # workers while shipping the study to each worker exactly once.
        chunks = [tuple(ids[i::workers]) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            started = time.perf_counter()
            for chunk, result in zip(
                chunks,
                pool.map(
                    _run_experiment_chunk,
                    chunks,
                    [study] * len(chunks),
                    [on_error] * len(chunks),
                ),
            ):
                finished = time.perf_counter()
                share = (finished - started) / max(len(chunk), 1)
                for eid in chunk:
                    status, payload = result[eid]
                    if status == "ok":
                        artifacts[eid] = payload
                        metrics.record(eid, "", False, share)
                    else:
                        metrics.record(
                            eid, "", False, share, outcome="failed", error=str(payload)
                        )
        artifacts = {eid: artifacts[eid] for eid in ids if eid in artifacts}
    metrics.wall_seconds = time.perf_counter() - t0
    return artifacts, metrics


def run_all_experiments(
    study: Study,
    max_workers: int | None = None,
    executor: str = "auto",
    on_error: str = "raise",
) -> dict[str, Artifact]:
    """Regenerate every artifact, keyed by experiment id (sorted order)."""
    artifacts, _ = run_all_experiments_with_metrics(
        study, max_workers=max_workers, executor=executor, on_error=on_error
    )
    return artifacts


# -- the durable report pipeline ----------------------------------------------


def _experiment_step(context, experiment_id, fn_fingerprint=""):
    """Pipeline-step wrapper around one registry entry.

    ``fn_fingerprint`` exists purely for the cache key: the wrapper is the
    same function for every experiment, so the underlying experiment
    function's code fingerprint must ride along in the params or editing
    an experiment would not invalidate its artifact.
    """
    if experiment_id.startswith("X"):
        # Extension experiments register on import; core ids must not
        # trigger the import (mirrors the CLI, which only knows T*/F*).
        import repro.report.extensions  # noqa: F401
    return EXPERIMENTS[experiment_id].fn(context["study"])


def report_pipeline(
    cache=None,
    *,
    experiment_ids: Sequence[str] | None = None,
    retry=None,
    timeout: float | None = None,
    **study_kwargs,
):
    """Build the full durable report pipeline: study stages + experiments.

    Extends :func:`repro.core.study_pipeline.study_pipeline` with one
    ``exp:<id>`` step per registered experiment (``depends_on=
    ("study",)``), so ``repro report --durable`` can run the entire report
    as a journaled, cache-addressed DAG and ``--resume`` can recover it
    after a crash: completed experiments replay from the cache, only the
    in-flight frontier re-executes.
    """
    from repro.core.pipeline import Pipeline, PipelineStep, fingerprint_callable
    from repro.core.study_pipeline import study_pipeline

    base = study_pipeline(cache=cache, retry=retry, timeout=timeout, **study_kwargs)
    ids = sorted(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    steps = list(base.steps)
    for eid in ids:
        steps.append(
            PipelineStep(
                name=f"exp:{eid}",
                fn=_experiment_step,
                params={
                    "experiment_id": eid,
                    "fn_fingerprint": fingerprint_callable(EXPERIMENTS[eid].fn),
                },
                depends_on=("study",),
            )
        )
    return Pipeline(steps, base.cache, default_retry=retry, default_timeout=timeout)
