"""Whole-report assembly: every artifact in one markdown document.

``build_report(study)`` renders the complete study report — front matter,
methodology summary, every table and figure in registry order, and a data-
quality appendix — as GitHub-flavored markdown, the format the repository's
EXPERIMENTS.md workflow consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.quality import quality_report
from repro.core.study import Study
from repro.report.experiments import EXPERIMENTS, run_all_experiments
from repro.report.figures import FigureSeries
from repro.report.tables import Table, fmt_p, fmt_pct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit imports report)
    from repro.audit.concordance import ConcordanceReport

__all__ = ["build_report", "render_report", "render_report_card"]

_ORDER = (
    "T1", "T2", "F1", "T3", "F2", "T4", "T6", "T7", "T8",
    "F3", "F4", "T5", "F5", "F7", "F6", "F8",
    # extension experiments, when registered
    "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10",
)


def _front_matter(study: Study) -> list[str]:
    report = study.validation_report()
    months = study.window_seconds / (30.0 * 86400.0)
    return [
        "# Computation for Research: Practices and Trends — study report",
        "",
        "## Study overview",
        "",
        f"* baseline cohort ({study.baseline_cohort}): {len(study.baseline)} respondents",
        f"* current cohort ({study.current_cohort}): {len(study.current)} respondents",
        f"* survey completion rate: {fmt_pct(study.responses.completion_rate())}",
        f"* response validation: {'clean ingest' if report.ok else 'FATAL ISSUES'} "
        f"({len(report.issues)} quality flags)",
        f"* telemetry: {len(study.telemetry)} jobs over {months:.0f} months on "
        f"cluster '{study.cluster.name}' "
        f"({study.cluster.total_cores} cores, {study.cluster.total_gpus} GPUs)",
        "",
    ]


def _figure_block(figure: FigureSeries) -> list[str]:
    lines = [f"### {figure.title}", ""]
    lines.append("```")
    lines.append(figure.render_ascii(width=64, height=10))
    lines.append("```")
    lines.append("")
    for note in figure.notes:
        lines.append(f"_{note}_")
    if figure.notes:
        lines.append("")
    return lines


def _quality_appendix(study: Study) -> list[str]:
    quality = quality_report(study.responses)
    lines = ["## Appendix: data quality", ""]
    lines.append("Worst item nonresponse (rate of applicable respondents skipping):")
    lines.append("")
    for row in quality.worst_items(5):
        lines.append(
            f"* `{row.key}` ({row.cohort}): {fmt_pct(row.rate.estimate)} "
            f"of {row.n_applicable}"
        )
    lines.append("")
    for cohort, (q25, q50, q75) in sorted(quality.completion_quartiles.items()):
        lines.append(
            f"* completion quartiles {cohort}: "
            f"{fmt_pct(q25)} / {fmt_pct(q50)} / {fmt_pct(q75)}"
        )
    lines.append("")
    test = quality.field_missingness_test
    verdict = "differs" if test.significant() else "does not significantly differ"
    lines.append(
        f"Completion {verdict} across fields "
        f"(Kruskal-Wallis p = {fmt_p(test.p_value)})."
    )
    lines.append("")
    return lines


def _placeholder_block(eid: str, error: str) -> list[str]:
    """Clearly-marked stand-in for an experiment that failed to regenerate.

    The section keeps its slot in the document (same id comment, same
    position in ``_ORDER``) so a degraded report diffs cleanly against a
    healthy one: everything is identical except the failed sections.
    """
    experiment = EXPERIMENTS[eid]
    return [
        f"### {eid}: {experiment.title} — UNAVAILABLE",
        "",
        "> **This experiment failed to regenerate and was skipped.**",
        f"> error: `{error}`",
        ">",
        "> Every other section of this report is unaffected. Re-run without",
        "> `--keep-going` to abort on the first failure instead.",
        "",
    ]


def build_report(study: Study, include_quality_appendix: bool = True) -> str:
    """Render the full study report as markdown.

    Runs every experiment in this process (:func:`run_all_experiments`)
    and assembles the document in registry order.
    """
    return render_report(
        study, run_all_experiments(study),
        include_quality_appendix=include_quality_appendix,
    )


def render_report(
    study: Study,
    artifacts: dict,
    failures: dict[str, str] | None = None,
    *,
    include_quality_appendix: bool = True,
) -> str:
    """Assemble the markdown document from already-produced artifacts.

    The rendering half of :func:`build_report`. ``repro report`` renders
    the outputs of :func:`repro.report.experiments.report_pipeline` with
    it — including artifacts replayed from journal + cache on
    ``--resume``. ``failures`` maps an experiment id to its captured
    error; each renders as a placeholder section under a ``DEGRADED
    REPORT`` banner (``repro report --keep-going``).
    """
    failures = failures or {}
    lines = _front_matter(study)
    if failures:
        failed_ids = ", ".join(sorted(failures))
        lines.append(
            f"> **DEGRADED REPORT** — {len(failures)} experiment(s) failed to "
            f"regenerate ({failed_ids}); their sections below are placeholders."
        )
        lines.append("")
    lines.append("## Results")
    lines.append("")
    for eid in _ORDER:
        artifact = artifacts.get(eid)
        if artifact is None:
            if eid in failures:
                lines.append(f"<!-- experiment {eid}: {EXPERIMENTS[eid].description} -->")
                lines.extend(_placeholder_block(eid, failures[eid]))
            continue
        lines.append(f"<!-- experiment {eid}: {EXPERIMENTS[eid].description} -->")
        if isinstance(artifact, Table):
            lines.append(artifact.render_markdown())
            lines.append("")
        else:
            lines.extend(_figure_block(artifact))
    if include_quality_appendix:
        lines.extend(_quality_appendix(study))
    return "\n".join(lines)


# -- reproducibility report card ----------------------------------------------

_VERDICT_HEADLINE = {
    "concordant": "CONCORDANT — every artifact byte-identical across all runs",
    "drift": "EXPECTED DRIFT — all divergence attributed to the declared scenario",
    "divergent": "DIVERGENT — unexplained byte drift detected",
}


def _card_matrix(report: "ConcordanceReport", normalize: bool) -> list[str]:
    lines = ["## Audit matrix", ""]
    if normalize:
        # Executor/worker labels are stripped like PR-5's normalized
        # Perfetto export (`_TIMING_ARGS`), so the same audit rendered
        # from any executor mode emits identical bytes.
        header = "| run | perturbation |"
        rule = "| --- | --- |"
    else:
        header = "| run | executor | perturbation | wall (s) | outcomes | run id |"
        rule = "| --- | --- | --- | --- | --- | --- |"
    lines += [header, rule]
    for record in report.runs:
        leg = record.perturbation
        flags = []
        if leg.warm_cache:
            flags.append("warm cache")
        if leg.crash_resume:
            flags.append(
                f"SIGKILL+resume ({record.resumed_steps} steps replayed)"
                if not normalize
                else "SIGKILL+resume"
            )
        if leg.fault_steps:
            flags.append(f"transient faults: {', '.join(leg.fault_steps)}")
        if leg.drift:
            flags.append(f"drift: {leg.drift}")
        perturbation = "; ".join(flags) if flags else "none (baseline conditions)"
        if normalize:
            lines.append(f"| {record.name} | {perturbation} |")
        else:
            outcomes = ", ".join(
                f"{k}={v}" for k, v in sorted(record.outcome_counts.items())
            )
            lines.append(
                f"| {record.name} | {leg.executor} | {perturbation} "
                f"| {record.wall_seconds:.2f} | {outcomes} | {record.run_id} |"
            )
    lines.append("")
    return lines


def _card_concordance(report: "ConcordanceReport") -> list[str]:
    legs = [r.name for r in report.runs[1:]]
    lines = ["## Concordance matrix", ""]
    lines.append(
        "Baseline digest per step; other runs show `=` on byte-identity or "
        "their own digest on divergence."
    )
    lines.append("")
    header = "| step | baseline | " + " | ".join(legs) + " | status |"
    rule = "| --- | --- | " + " | ".join("---" for _ in legs) + " | --- |"
    lines += [header, rule]
    for step in report.steps:
        cells = []
        for leg in legs:
            digest = step.digests.get(leg, "")
            if digest == step.baseline_digest:
                cells.append("=")
            else:
                cells.append(f"`{digest or 'missing'}`")
        if step.concordant:
            status = "ok"
        elif step.expected:
            status = "expected"
        else:
            status = "**UNEXPLAINED**"
        lines.append(
            f"| {step.step} | `{step.baseline_digest}` | "
            + " | ".join(cells)
            + f" | {status} |"
        )
    lines.append("")
    return lines


def _card_experiments(report: "ConcordanceReport") -> list[str]:
    lines = ["## Experiment sections", ""]
    for step in report.steps:
        if not step.step.startswith("exp:"):
            continue
        eid = step.step.removeprefix("exp:")
        title = EXPERIMENTS[eid].title if eid in EXPERIMENTS else eid
        if step.concordant:
            lines.append(f"* **PASS** — {step.step}: {title}")
        elif step.expected:
            lines.append(
                f"* **DRIFT** — {step.step}: {title} "
                f"(diverged on {', '.join(step.divergent_runs)}; "
                f"attributed to declared drift)"
            )
        else:
            lines.append(
                f"* **FAIL** — {step.step}: {title} "
                f"(unexplained divergence on {', '.join(step.divergent_runs)})"
            )
    lines.append("")
    return lines


def _card_divergence(report: "ConcordanceReport") -> list[str]:
    if report.concordant:
        return []
    lines = ["## Divergence localization", ""]
    lines.append(f"* first divergent step: `{report.first_divergence}`")
    subtree = report.affected_subtree()
    lines.append(f"* affected subtree: {' → '.join(f'`{s}`' for s in subtree)}")
    lines.append(
        "* localized: yes (single root cause)"
        if report.localized()
        else "* localized: NO — divergence outside the first step's subtree "
        "(at least two independent causes)"
    )
    if report.drift:
        lines.append("")
        lines.append(f"### Drift attribution: `{report.drift}`")
        lines.append("")
        lines.append(f"{report.drift_description}")
        lines.append("")
        origin = ", ".join(f"`{s}`" for s in report.drift_origin)
        lines.append(f"* declared entry point: {origin}")
        expected = ", ".join(f"`{s}`" for s in report.expected_steps) or "none"
        lines.append(f"* attributed (key-changed) steps: {expected}")
    unexplained = report.unexplained_steps
    if unexplained:
        lines.append(
            f"* **unexplained steps: {', '.join(f'`{s}`' for s in unexplained)}** "
            "— same cache key, different bytes; no declared cause"
        )
    lines.append("")
    return lines


def _card_timings(report: "ConcordanceReport") -> list[str]:
    if not report.timings:
        return []
    lines = ["## Timing deltas (trace-derived compute, seconds)", ""]
    legs = [r.name for r in report.runs[1:]]
    header = "| step | baseline | " + " | ".join(legs) + " |"
    rule = "| --- | --- | " + " | ".join("---" for _ in legs) + " |"
    lines += [header, rule]
    for delta in report.timings:
        cells = []
        for leg in legs:
            value = delta.seconds.get(leg)
            if value is None:
                cells.append("—")
                continue
            ratio = delta.ratio(leg)
            cells.append(
                f"{value:.3f}" + (f" ({ratio:.1f}x)" if ratio is not None else "")
            )
        lines.append(
            f"| {delta.step} | {delta.baseline_seconds:.3f} | "
            + " | ".join(cells)
            + " |"
        )
    lines.append("")
    return lines


def render_report_card(
    report: "ConcordanceReport", *, normalize: bool = False
) -> str:
    """Render a :class:`~repro.audit.concordance.ConcordanceReport` as the
    per-run reproducibility report card (markdown).

    ``normalize=True`` mirrors the PR-5 Perfetto contract: every timing-,
    host- and run-dependent field (wall seconds, run ids, executor and
    worker labels, the timing-delta section) is stripped, so a fixed
    seed/matrix renders byte-identically no matter which executor modes
    produced it — the audit determinism suite diffs exactly this output.
    """
    lines = [
        "# Reproducibility report card",
        "",
        f"**Verdict: {_VERDICT_HEADLINE[report.verdict]}**",
        "",
        f"* runs compared: {len(report.runs)} "
        f"(baseline: {report.baseline.name})",
        f"* steps audited: {len(report.steps)} "
        f"({sum(1 for s in report.steps if s.step.startswith('exp:'))} experiments)",
        f"* divergent steps: {len(report.divergent_steps)}",
        "",
    ]
    lines += _card_matrix(report, normalize)
    lines += _card_concordance(report)
    lines += _card_experiments(report)
    lines += _card_divergence(report)
    if not normalize:
        lines += _card_timings(report)
    text = "\n".join(lines)
    return text if text.endswith("\n") else text + "\n"
