"""Extension experiments (X1-X5): analyses beyond the paper's core set.

These cover the optional/extension analyses DESIGN.md calls out: the
queueing curve, within-person (panel) adoption, weighted-vs-raw estimates,
submission rhythm, and walltime-request accuracy. They register into the
same registry as T1-T8/F1-F8 and get the same per-experiment benches.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.balance import cohort_balance
from repro.analysis.environment import environment_summary
from repro.analysis.panel import paired_multi_change, paired_yes_no_change
from repro.cluster.capacity import gpu_capacity_outlook
from repro.cluster.health import failure_rates_by, waste_summary
from repro.text.topics import code_challenges
from repro.cluster.usage import arrival_profile, monthly_wait_and_load, walltime_accuracy
from repro.core.calibration import population_field_shares, profile_2011, profile_2024
from repro.core.study import Study
from repro.core.trends import TrendEngine
from repro.core.weighting import WeightedTrendEngine
from repro.report.experiments import EXPERIMENTS, Experiment
from repro.report.figures import FigureSeries
from repro.report.tables import Table, fmt_p, fmt_pct, significance_stars

__all__ = ["register_extensions"]


def x1_wait_vs_load(study: Study) -> FigureSeries:
    """X1: the queueing curve — monthly median wait against offered load."""
    series = {}
    for name in ("cpu", "gpu"):
        if name not in study.cluster:
            continue
        part = study.cluster[name]
        data = monthly_wait_and_load(study.telemetry, name, part.total_cores)
        series[name] = (data["load"], data["median_wait_h"])
    if not series:
        raise ValueError("no cpu/gpu partitions in telemetry")
    return FigureSeries(
        title="X1: median queue wait vs offered load, by month",
        x_label="offered load (fraction of partition core-capacity)",
        y_label="median wait (h)",
        series=series,
        kind="scatter",
        notes=("each point is one month of one partition",),
    )


_PANEL_SIZE = 150


def _panel_for(study: Study):
    # The panel is an auxiliary synthesized sample (the real study links
    # repeat respondents by email hash); seeded independently of the study
    # so panel size changes never perturb the main cohorts.
    from repro.synth.panel import generate_panel

    return generate_panel(
        profile_2011(),
        profile_2024(),
        study.responses.questionnaire,
        _PANEL_SIZE,
        np.random.default_rng(20112024),
    )


def x2_panel_adoption(study: Study) -> Table:
    """X2: within-person adoption among panel respondents (McNemar)."""
    panel = _panel_for(study)
    changes = [
        paired_yes_no_change(panel, "uses_ml", label="machine learning"),
        paired_yes_no_change(panel, "uses_gpu", label="GPU use"),
        paired_yes_no_change(panel, "uses_containers", label="containers"),
        paired_multi_change(panel, "languages", "python", label="python"),
        paired_multi_change(panel, "languages", "fortran", label="fortran"),
    ]
    rows = []
    for change in changes:
        p = change.test.p_value
        rows.append(
            (
                change.label,
                str(change.n_pairs),
                str(change.adopters),
                str(change.abandoners),
                f"{change.net_change:+.1%}" if change.n_pairs else "-",
                f"{fmt_p(p)}{significance_stars(p)}",
            )
        )
    return Table(
        title="X2: within-person practice changes (panel respondents)",
        columns=("practice", "pairs", "adopted", "abandoned", "net", "McNemar p"),
        rows=tuple(rows),
        notes=(f"panel of {_PANEL_SIZE} respondents answering both waves",),
    )


def x3_weighted_vs_raw(study: Study) -> Table:
    """X3: post-stratified vs raw headline estimates."""
    targets = {"field": population_field_shares()}
    raw = TrendEngine(study.responses, study.baseline_cohort, study.current_cohort)
    weighted = WeightedTrendEngine(
        study.responses, targets, study.baseline_cohort, study.current_cohort
    )
    rows = []
    for key in ("uses_parallelism", "uses_cluster", "uses_gpu", "uses_ml", "uses_containers"):
        raw_row = raw.yes_no_trend(key)
        w_row = weighted.yes_no_trend(key)
        rows.append(
            (
                key,
                fmt_pct(raw_row.current.estimate),
                fmt_pct(w_row.current.estimate),
                f"{100 * (w_row.current.estimate - raw_row.current.estimate):+.1f}pp",
                str(w_row.n_current),
            )
        )
    return Table(
        title="X3: raw vs post-stratified 2024 estimates",
        columns=("practice", "raw", "weighted", "design shift", "effective n"),
        rows=tuple(rows),
        notes=("raking margin: field of research to campus population shares",),
    )


def x4_arrival_rhythm(study: Study) -> FigureSeries:
    """X4: submission rhythm — hour-of-day and day-of-week profiles."""
    profile = arrival_profile(study.telemetry)
    hourly = profile["hourly"].astype(float)
    weekly = profile["weekly"].astype(float)
    return FigureSeries(
        title="X4: submission rhythm",
        x_label="hour of day (hourly series) / day of week (weekly series, 0=Mon)",
        y_label="submissions",
        series={
            "hourly": (np.arange(24, dtype=float), hourly),
            "weekly": (np.arange(7, dtype=float), weekly),
        },
        kind="bar",
        notes=(
            f"peak hour {int(hourly.argmax())}:00 at "
            f"{hourly.max() / max(hourly.min(), 1):.1f}x the trough",
        ),
    )


def x5_walltime_accuracy(study: Study) -> Table:
    """X5: walltime-request accuracy over completed jobs."""
    overall = walltime_accuracy(study.telemetry)
    rows = [
        (
            "all partitions",
            str(int(overall["n"])),
            f"{overall['q25']:.2f}",
            f"{overall['median']:.2f}",
            f"{overall['q75']:.2f}",
            fmt_pct(overall["near_miss_share"]),
        )
    ]
    for name in study.telemetry.partitions():
        part = study.telemetry.by_partition(name)
        try:
            acc = walltime_accuracy(part)
        except ValueError:
            continue
        rows.append(
            (
                name,
                str(int(acc["n"])),
                f"{acc['q25']:.2f}",
                f"{acc['median']:.2f}",
                f"{acc['q75']:.2f}",
                fmt_pct(acc["near_miss_share"]),
            )
        )
    return Table(
        title="X5: walltime-request accuracy (runtime / requested)",
        columns=("partition", "n", "q25", "median", "q75", "near-miss (>0.9)"),
        rows=tuple(rows),
        notes=("completed jobs with a recorded time limit",),
    )


def x6_work_environment(study: Study) -> Table:
    """X6: OS, editors, weekly hours, training, and open-source trends."""
    summary = environment_summary(
        study.responses, study.baseline_cohort, study.current_cohort
    )
    rows = []
    ct = summary.os_by_cohort
    shares = ct.row_shares()
    for i, os_name in enumerate(ct.row_labels):
        rendered = " / ".join(
            f"{cohort}: {fmt_pct(shares[i, j])}"
            for j, cohort in enumerate(ct.col_labels)
        )
        rows.append((f"os: {os_name}", rendered))
    for row in summary.editor_trends.sorted_by_delta():
        p = row.adjusted_p if row.adjusted_p is not None else row.p_value
        rows.append(
            (
                f"editor: {row.label}",
                f"{fmt_pct(row.baseline.estimate)} -> {fmt_pct(row.current.estimate)} "
                f"({fmt_p(p)}{significance_stars(p)})",
            )
        )
    for cohort, s in sorted(summary.hours_per_week.items()):
        rows.append((f"hours/week ({cohort})", f"median {s.median:.0f}, q75 {s.q75:.0f}"))
    for trend in (summary.hpc_training, summary.open_source):
        p = trend.p_value
        rows.append(
            (
                trend.label,
                f"{fmt_pct(trend.baseline.estimate)} -> {fmt_pct(trend.current.estimate)} "
                f"({fmt_p(p)}{significance_stars(p)})",
            )
        )
    return Table(
        title="X6: work environment",
        columns=("item", "value"),
        rows=tuple(rows),
        notes=("editor family Holm-corrected; HPC training among cluster users",),
    )


def x7_challenge_topics(study: Study) -> Table:
    """X7: coded "biggest challenge" topics by cohort."""
    rows = []
    per_cohort = {
        cohort: code_challenges(subset)
        for cohort, subset in study.responses.split_cohorts().items()
    }
    cohorts = sorted(per_cohort)
    # Tie-break equal counts by name: a bare count sort would fall back to
    # set iteration order, which is hash-seed-dependent (caught by the
    # golden-artifact suite).
    all_topics = sorted(
        {topic for coded in per_cohort.values() for topic in coded.counts},
        key=lambda t: (-sum(per_cohort[c].counts.get(t, 0) for c in cohorts), t),
    )
    for topic in all_topics:
        cells = [topic]
        for cohort in cohorts:
            coded = per_cohort[cohort]
            if coded.n_documents:
                cells.append(
                    f"{coded.counts.get(topic, 0)} ({fmt_pct(coded.share(topic))})"
                )
            else:
                cells.append("-")
        rows.append(tuple(cells))
    notes = tuple(
        f"{cohort}: {per_cohort[cohort].n_documents} answers coded, "
        f"{per_cohort[cohort].n_uncoded} uncoded"
        for cohort in cohorts
    )
    return Table(
        title="X7: biggest-challenge topics by cohort (multi-label coding)",
        columns=("topic", *cohorts),
        rows=tuple(rows),
        notes=notes,
    )


def x8_waste_and_failures(study: Study) -> Table:
    """X8: wasted core-hours and failure rates by partition."""
    waste = waste_summary(study.telemetry)
    rows = [
        (
            "wasted core-hours (all states)",
            f"{sum(waste.wasted_core_hours.values()):,.0f} of "
            f"{waste.total_core_hours:,.0f} ({fmt_pct(waste.waste_fraction)})",
        )
    ]
    for state, hours in sorted(waste.wasted_core_hours.items()):
        rows.append((f"  {state.lower()}", f"{hours:,.0f} core-hours"))
    for partition, interval in failure_rates_by(study.telemetry, "partition").items():
        rows.append(
            (
                f"failure rate: {partition}",
                f"{fmt_pct(interval.estimate)} "
                f"[{fmt_pct(interval.low)}, {fmt_pct(interval.high)}]",
            )
        )
    return Table(
        title="X8: wasted capacity and failure rates",
        columns=("quantity", "value"),
        rows=tuple(rows),
        notes=("failure rate counts FAILED + TIMEOUT terminal states",),
    )


def x9_capacity_outlook(study: Study) -> Table:
    """X9: GPU capacity projection from the fitted demand growth."""
    outlook = gpu_capacity_outlook(study.telemetry, study.cluster["gpu"])
    util_now = (
        outlook.current_monthly_gpu_hours / outlook.capacity_monthly_gpu_hours
    )
    saturation = (
        f"{outlook.months_to_saturation:.0f} months"
        if np.isfinite(outlook.months_to_saturation)
        else "never (no growth)"
    )
    doubling = (
        f"{outlook.months_bought_by_doubling:.0f} months"
        if np.isfinite(outlook.months_bought_by_doubling)
        else "-"
    )
    rows = (
        ("current demand", f"{outlook.current_monthly_gpu_hours:,.0f} GPU-h/month"),
        ("capacity", f"{outlook.capacity_monthly_gpu_hours:,.0f} GPU-h/month"),
        ("current load", fmt_pct(util_now)),
        ("fitted growth", f"{100 * outlook.growth_per_month:+.1f}%/month"),
        ("projected saturation", saturation),
        ("time bought by doubling capacity", doubling),
    )
    return Table(
        title="X9: GPU capacity outlook",
        columns=("quantity", "value"),
        rows=rows,
        notes=(
            "exponential projection from the telemetry window; "
            "a capacity doubling buys log2/log(1+g) months regardless of size",
        ),
    )


def x10_cohort_balance(study: Study) -> Table:
    """X10: covariate balance between the waves (methods companion to T1)."""
    report = cohort_balance(
        study.responses, study.baseline_cohort, study.current_cohort
    )
    rows = []
    for row in report.rows:
        rows.append(
            (
                row.covariate,
                f"{row.mean_a:.2f}",
                f"{row.mean_b:.2f}",
                f"{row.std_diff:+.2f}",
                "ok" if row.balanced else "IMBALANCED",
            )
        )
    return Table(
        title="X10: cohort covariate balance",
        columns=(
            "covariate",
            report.cohort_a,
            report.cohort_b,
            "std diff",
            "|d|<0.1",
        ),
        rows=tuple(rows),
        notes=(
            f"max |standardized difference| = {report.max_abs_std_diff:.2f}; "
            "category rows are indicator means",
        ),
    )


_EXTENSIONS = (
    Experiment("X1", "Wait vs load", "figure", x1_wait_vs_load,
               "Queueing curve: monthly median wait against offered load.",
               reads=("telemetry",)),
    Experiment("X2", "Panel adoption", "table", x2_panel_adoption,
               "Within-person adoption among panel respondents (McNemar).",
               reads=("responses",)),
    Experiment("X3", "Weighted vs raw", "table", x3_weighted_vs_raw,
               "Post-stratified vs raw headline estimates.",
               reads=("responses",)),
    Experiment("X4", "Submission rhythm", "figure", x4_arrival_rhythm,
               "Hour-of-day / day-of-week submission profiles.",
               reads=("telemetry",)),
    Experiment("X5", "Walltime accuracy", "table", x5_walltime_accuracy,
               "Requested-vs-actual runtime accuracy.",
               reads=("telemetry",)),
    Experiment("X6", "Work environment", "table", x6_work_environment,
               "OS, editors, weekly hours, training, open-source trends.",
               reads=("responses",)),
    Experiment("X7", "Challenge topics", "table", x7_challenge_topics,
               "Coded biggest-challenge topics per cohort.",
               reads=("responses",)),
    Experiment("X8", "Waste and failures", "table", x8_waste_and_failures,
               "Wasted core-hours and failure rates by partition.",
               reads=("telemetry",)),
    Experiment("X9", "Capacity outlook", "table", x9_capacity_outlook,
               "GPU saturation projection from fitted demand growth.",
               reads=("telemetry",)),
    Experiment("X10", "Cohort balance", "table", x10_cohort_balance,
               "Standardized demographic differences between waves.",
               reads=("responses",)),
)


def register_extensions() -> None:
    """Idempotently add X1-X5 to the experiment registry."""
    for experiment in _EXTENSIONS:
        EXPERIMENTS.setdefault(experiment.id, experiment)


register_extensions()
