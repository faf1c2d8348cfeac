"""The audit harness: run one study under a perturbation matrix.

:func:`run_audit` re-runs the full report pipeline (study stages +
experiments) once per :class:`~repro.audit.concordance.Perturbation` leg,
each leg in its own cache/journal sandbox, digests every step's artifact
(:mod:`repro.audit.digests`), and assembles the per-step digest matrix
into a :class:`~repro.audit.concordance.ConcordanceReport`.

The default matrix covers the failure modes the repo's chaos suites test
individually — executor mode (sequential/thread/process), SIGKILL +
journal resume, injected transient faults with retries, and a warm-cache
replay — because each of those layers carries a byte-identity promise,
and the audit is the one place that checks the promises *jointly* against
the same baseline.

A declared drift scenario (``drift=...``) perturbs every non-baseline
leg's cohort profiles; the baseline always runs undrifted, so the audit
measures the drift's artifact footprint and attributes it via the cache
keys (see :mod:`repro.audit.concordance`).
"""

from __future__ import annotations

import signal
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.audit.concordance import (
    ConcordanceReport,
    Perturbation,
    RunRecord,
    build_concordance_report,
)
from repro.audit.digests import artifact_digest, blob_digest, structural_digest
from repro.core.faults import CrashPoint, FaultPlan, resume_after_crash, run_until_crash
from repro.core.journal import RunJournal
from repro.core.pipeline import ArtifactCache, Pipeline, RetryPolicy
from repro.core.trace import Tracer

__all__ = ["QUICK_SCALE", "FULL_SCALE", "default_matrix", "select_matrix", "run_audit"]

#: Study scale for ``repro audit --quick`` and CI smoke runs (mirrors
#: ``repro trace``'s quick profile); small enough that a six-leg audit
#: finishes in tens of seconds.
QUICK_SCALE: dict[str, Any] = {
    "seed": 2024,
    "n_baseline": 40,
    "n_current": 60,
    "months": 3,
    "jobs_per_day": 60.0,
}

#: The shipped study's default scale (``study_pipeline`` defaults).
FULL_SCALE: dict[str, Any] = {
    "seed": 2024,
    "n_baseline": 120,
    "n_current": 200,
    "months": 6,
    "jobs_per_day": 200.0,
}

#: Crash coordinate for the crash-resume leg: kill before the study
#: assembly starts, so the resumed run replays the three generation
#: stages from the journal+cache and computes study + experiments fresh.
_CRASH_POINT = CrashPoint("journal", "step_start", step="study", mode="before")

#: Retry policy for the injected-faults leg (fast backoff — the faults
#: are deterministic, waiting teaches us nothing).
_FAULT_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0)


def default_matrix() -> tuple[Perturbation, ...]:
    """The standard six-leg audit matrix. Baseline first, by convention."""
    return (
        Perturbation("baseline", executor="sequential"),
        Perturbation("thread", executor="thread", max_workers=4),
        Perturbation("process", executor="process", max_workers=2),
        Perturbation("crash-resume", executor="sequential", crash_resume=True),
        Perturbation(
            "faults", executor="sequential", fault_steps=("survey", "schedule")
        ),
        Perturbation("warm-cache", executor="sequential", warm_cache=True),
    )


def select_matrix(names: Sequence[str]) -> tuple[Perturbation, ...]:
    """Subset of :func:`default_matrix` by leg name, baseline always included.

    A digest matrix without its baseline row has nothing to compare
    against, so ``"baseline"`` is prepended when omitted.
    """
    catalog = {leg.name: leg for leg in default_matrix()}
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise ValueError(
            f"unknown audit legs {unknown}; known: {sorted(catalog)}"
        )
    selected = list(dict.fromkeys(names))  # dedupe, keep order
    if "baseline" not in selected:
        selected.insert(0, "baseline")
    else:
        selected.insert(0, selected.pop(selected.index("baseline")))
    return tuple(catalog[n] for n in selected)


def _build_pipeline(
    cache: ArtifactCache,
    leg: Perturbation,
    experiment_ids: Sequence[str] | None,
    study_kwargs: Mapping[str, Any],
) -> Pipeline:
    from repro.report.experiments import report_pipeline

    kwargs = dict(study_kwargs)
    if leg.drift:
        kwargs["drift"] = leg.drift
    retry = _FAULT_RETRY if leg.fault_steps else None
    return report_pipeline(
        cache, experiment_ids=experiment_ids, retry=retry, **kwargs
    )


def _leg_digests(pipeline: Pipeline, results: Mapping[str, Any]) -> dict[str, str]:
    """Digest every step the leg produced.

    Experiment steps digest by rendered text (the user-facing byte
    contract); study stages digest the run's value structurally. The
    value *is* the persisted artifact — cached and replayed steps load
    it from the cache blob, and ``structural_digest(value)`` equals
    ``blob_digest(blob)`` by construction (the memo-free stream erases
    the only difference a pickle round-trip can introduce) — so hashing
    the in-memory value observes the same bytes a separate process would
    unpickle without paying a disk read + unpickle + re-pickle per step.
    The stored blob is the fallback when a step has no value in
    ``results`` (e.g. it completed before a crash leg's resume window).
    """
    keys = pipeline.keys()
    digests: dict[str, str] = {}
    for step in pipeline.steps:
        name = step.name
        value = results.get(name)
        if name.startswith("exp:"):
            if value is not None:
                digests[name] = artifact_digest(value)
            continue
        if value is not None:
            digests[name] = structural_digest(value)
            continue
        blob = pipeline.cache.entry_bytes(keys[name])
        if blob is not None:
            try:
                digests[name] = blob_digest(blob)
            except Exception:  # corrupt entry: nothing to compare
                pass
    return digests


def _leg_compute(tracer: Tracer | None) -> dict[str, float]:
    """Per-step compute seconds from the leg's trace spans."""
    seconds: dict[str, float] = {}
    if tracer is None:
        return seconds
    for span in tracer.spans:
        if span.cat != "step":
            continue
        step = str(span.args.get("step", span.name.removeprefix("step:")))
        compute = span.args.get("compute")
        if compute is None:
            end = span.end if span.end is not None else span.start
            compute = max(end - span.start, 0.0)
        seconds[step] = float(compute)
    return seconds


def _run_leg(
    leg: Perturbation,
    leg_dir: Path,
    experiment_ids: Sequence[str] | None,
    study_kwargs: Mapping[str, Any],
    *,
    reuse: bool,
    trace_dir: Path | None,
    normalize_traces: bool,
) -> tuple[RunRecord, dict[str, str], dict[str, str], dict[str, float]]:
    cache_dir = leg_dir / "cache"
    journal_dir = leg_dir / "journals"
    journal_dir.mkdir(parents=True, exist_ok=True)
    cache = ArtifactCache(cache_dir)
    if not reuse:
        cache.clear()

    run_kwargs: dict[str, Any] = {"executor": leg.executor}
    if leg.max_workers is not None:
        run_kwargs["max_workers"] = leg.max_workers

    crash_exitcode: int | None = None
    resumed_steps = 0
    tracer = Tracer()

    if leg.crash_resume:
        # Leg half 1: SIGKILL a child run at the crash coordinate...
        def factory() -> Pipeline:
            return _build_pipeline(
                ArtifactCache(cache_dir), leg, experiment_ids, study_kwargs
            )

        run_id, crash_exitcode = run_until_crash(
            factory, journal_dir, _CRASH_POINT, run_kwargs=dict(run_kwargs)
        )
        if crash_exitcode != -signal.SIGKILL:
            # A kill that never fired would pass the leg as a plain
            # warm-cache replay: the audit harness is broken, not the study.
            raise RuntimeError(
                f"crash-resume leg {leg.name!r}: the child was not killed at "
                f"{_CRASH_POINT} (exit code {crash_exitcode}, expected "
                f"{-signal.SIGKILL})"
            )
        # ...half 2: resume it in-process from the journal. The audited
        # artifacts are the *resumed* run's — that is the whole point.
        pipeline = _build_pipeline(cache, leg, experiment_ids, study_kwargs)
        results = resume_after_crash(
            pipeline, journal_dir, run_id, run_kwargs={**run_kwargs, "trace": tracer}
        )
        report = pipeline.last_report
        if report is not None:
            resumed_steps = sum(
                1 for o in report.outcomes if o.status == "replayed"
            )
    else:
        pipeline = _build_pipeline(cache, leg, experiment_ids, study_kwargs)
        if leg.warm_cache:
            pipeline.run(**run_kwargs)  # warm-up pass, untimed, untraced
        fault_plan = (
            FaultPlan.transient_errors(list(leg.fault_steps))
            if leg.fault_steps
            else None
        )
        journal = RunJournal.open(journal_dir)
        run_id = journal.run_id
        try:
            results = pipeline.run(
                journal=journal, fault_plan=fault_plan, trace=tracer, **run_kwargs
            )
        finally:
            journal.close()

    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_perfetto(
            trace_dir / f"{leg.name}.json", normalize=normalize_traces
        )

    metrics = pipeline.last_metrics
    report = pipeline.last_report
    record = RunRecord(
        perturbation=leg,
        run_id=run_id,
        wall_seconds=metrics.wall_seconds if metrics is not None else 0.0,
        outcome_counts=report.counts() if report is not None else {},
        crash_exitcode=crash_exitcode,
        resumed_steps=resumed_steps,
    )
    return record, pipeline.keys(), _leg_digests(pipeline, results), _leg_compute(tracer)


def run_audit(
    *,
    root: str | Path | None = None,
    matrix: Sequence[Perturbation] | None = None,
    experiment_ids: Sequence[str] | None = None,
    drift: str = "",
    study_kwargs: Mapping[str, Any] | None = None,
    reuse: bool = False,
    trace_dir: str | Path | None = None,
    normalize_traces: bool = False,
) -> ConcordanceReport:
    """Run the full audit matrix and build the concordance report.

    Parameters
    ----------
    root:
        Directory that holds one ``<leg>/{cache,journals}`` sandbox per
        matrix leg. None uses a temporary directory (discarded after the
        audit); pass a real path (``repro audit --durable``) to keep the
        per-leg artifacts for inspection, and ``reuse=True``
        (``--resume``) to replay a prior audit's caches instead of
        recomputing.
    matrix:
        Perturbation legs, baseline first. Defaults to
        :func:`default_matrix`.
    drift:
        Declared :data:`~repro.synth.scenario.DRIFT_SCENARIOS` name,
        applied to every non-baseline leg that does not already declare
        its own drift. The baseline leg always runs undrifted.
    study_kwargs:
        Study-scale parameters (:data:`QUICK_SCALE` / :data:`FULL_SCALE`
        or any ``study_pipeline`` kwargs). Defaults to the shipped
        study's scale.
    trace_dir:
        When set, each leg's Perfetto trace is written there as
        ``<leg>.json`` (``normalize_traces`` mirrors the PR-5
        ``normalize=True`` determinism contract).

    Raises :class:`RuntimeError` when a crash-resume leg's child was not
    SIGKILLed at its crash coordinate: such a leg never tested recovery.
    """
    legs = list(matrix if matrix is not None else default_matrix())
    if not legs:
        raise ValueError("audit matrix is empty")
    names = [leg.name for leg in legs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate leg names in matrix: {names}")
    if drift:
        from repro.synth.scenario import get_drift_scenario

        scenario = get_drift_scenario(drift)  # validate before spending compute
        legs = [legs[0]] + [
            leg if leg.drift else replace(leg, drift=drift) for leg in legs[1:]
        ]
    else:
        scenario = None
    kwargs = dict(FULL_SCALE if study_kwargs is None else study_kwargs)

    tmp: tempfile.TemporaryDirectory | None = None
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-audit-")
        root_dir = Path(tmp.name)
    else:
        root_dir = Path(root)
    trace_root = Path(trace_dir) if trace_dir is not None else None

    try:
        runs: list[RunRecord] = []
        keys_by_run: dict[str, dict[str, str]] = {}
        digests_by_run: dict[str, dict[str, str]] = {}
        compute_by_run: dict[str, dict[str, float]] = {}
        step_order: list[str] = []
        dependents: dict[str, tuple[str, ...]] = {}
        for leg in legs:
            record, keys, digests, compute = _run_leg(
                leg,
                root_dir / leg.name,
                experiment_ids,
                kwargs,
                reuse=reuse,
                trace_dir=trace_root,
                normalize_traces=normalize_traces,
            )
            runs.append(record)
            keys_by_run[leg.name] = keys
            digests_by_run[leg.name] = digests
            compute_by_run[leg.name] = compute
            if leg.name == legs[0].name:
                # Baseline defines the DAG shape every leg shares (drift
                # changes keys, never the step graph).
                pipeline = _build_pipeline(
                    ArtifactCache(), leg, experiment_ids, kwargs
                )
                step_order = [s.name for s in pipeline.steps]
                dependents = {
                    s.name: tuple(
                        d.name for d in pipeline.steps if s.name in d.depends_on
                    )
                    for s in pipeline.steps
                }
    finally:
        if tmp is not None:
            tmp.cleanup()

    return build_concordance_report(
        runs=runs,
        step_order=step_order,
        keys_by_run=keys_by_run,
        digests_by_run=digests_by_run,
        dependents=dependents,
        drift=drift,
        drift_description=scenario.description if scenario is not None else "",
        drift_origin=scenario.origin if scenario is not None else (),
        compute_by_run=compute_by_run,
    )
