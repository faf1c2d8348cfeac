"""The canonical cached study pipeline.

Wires generation → scheduling → study assembly through the caching
:class:`~repro.core.pipeline.Pipeline`, so iterating on analysis parameters
never re-runs the expensive simulation stages. Its seeding — survey
``seed``, workload ``seed + 1``, schedule ``seed + 2`` — is the only one:
every command, the goldens and :func:`build_default_study` build here, so
one seed names one study everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.scheduler import simulate_schedule
from repro.cluster.workload import WorkloadModel, WorkloadParams
from repro.core.calibration import profile_2011, profile_2024
from repro.core.instrument import build_instrument
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep, RetryPolicy
from repro.core.study import Study, StudyError

__all__ = ["study_pipeline", "run_cached_study", "build_default_study"]


def _survey_step(context, seed, n_baseline, n_current, drift=""):
    from repro.synth.generator import generate_study
    from repro.synth.scenario import apply_drift

    profiles = {
        "2011": (apply_drift(drift, "2011", profile_2011()), n_baseline),
        "2024": (apply_drift(drift, "2024", profile_2024()), n_current),
    }
    return generate_study(profiles, build_instrument(), seed=seed)


def _workload_step(context, seed, months, jobs_per_day, diurnal):
    params = WorkloadParams(months=months, jobs_per_day=jobs_per_day, diurnal=diurnal)
    jobs = WorkloadModel(params, DEFAULT_CLUSTER).generate(np.random.default_rng(seed))
    return {"jobs": jobs, "window_seconds": params.window_seconds}


def _schedule_step(context, seed, backfill):
    workload = context["workload"]
    result = simulate_schedule(
        workload["jobs"],
        DEFAULT_CLUSTER,
        rng=np.random.default_rng(seed),
        backfill=backfill,
    )
    return result.table


def _study_step(context, window_seconds):
    return Study(
        responses=context["survey"],
        telemetry=context["schedule"],
        cluster=DEFAULT_CLUSTER,
        window_seconds=window_seconds,
    )


def study_pipeline(
    seed: int = 2024,
    n_baseline: int = 120,
    n_current: int = 200,
    months: int = 6,
    jobs_per_day: float = 200.0,
    backfill: bool = True,
    diurnal: bool = True,
    drift: str = "",
    cache: ArtifactCache | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> Pipeline:
    """Build the cached generate→schedule→study pipeline.

    Step/param layout is the cache contract: changing ``n_current`` reruns
    only the survey stage; changing ``backfill`` reruns only scheduling;
    changing ``months`` reruns workload + scheduling (its dependent).
    ``study`` depends on ``survey`` and ``schedule`` and takes the
    telemetry window as its ``window_seconds`` param, computed here from
    the workload params, so it never decodes the workload's job list.
    ``drift`` names a declared :data:`~repro.synth.scenario.DRIFT_SCENARIOS`
    entry applied to the cohort profiles; it is a survey-step *param*, so a
    drifted run gets a new survey cache key (and, by key folding, new keys
    for the whole downstream subtree) — that key change is how the
    reproducibility audit attributes divergence to the declared scenario.
    ``retry``/``timeout`` become the pipeline's step defaults; neither
    enters any cache key, so enabling fault tolerance on site data never
    invalidates existing artifacts.
    """
    survey_params = {"seed": seed, "n_baseline": n_baseline, "n_current": n_current}
    workload = WorkloadParams(months=months, jobs_per_day=jobs_per_day, diurnal=diurnal)
    if drift:
        survey_params["drift"] = drift
    steps = [
        PipelineStep(
            name="survey",
            fn=_survey_step,
            params=survey_params,
        ),
        PipelineStep(
            name="workload",
            fn=_workload_step,
            params={
                "seed": seed + 1,
                "months": months,
                "jobs_per_day": jobs_per_day,
                "diurnal": diurnal,
            },
        ),
        PipelineStep(
            name="schedule",
            fn=_schedule_step,
            params={"seed": seed + 2, "backfill": backfill},
            depends_on=("workload",),
        ),
        PipelineStep(
            name="study",
            fn=_study_step,
            params={"window_seconds": workload.window_seconds},
            depends_on=("survey", "schedule"),
        ),
    ]
    return Pipeline(steps, cache, default_retry=retry, default_timeout=timeout)


def run_cached_study(
    cache: ArtifactCache | None = None,
    max_workers: int | None = None,
    executor: str = "auto",
    **kwargs,
) -> Study:
    """Convenience: build and run the pipeline, returning the Study.

    The survey and workload stages are independent, so on a multi-core
    machine a cold run overlaps cohort generation with the workload
    simulation; ``max_workers``/``executor`` forward to
    :meth:`~repro.core.pipeline.Pipeline.run`.
    """
    pipeline = study_pipeline(cache=cache, **kwargs)
    return pipeline.run(max_workers=max_workers, executor=executor)["study"]


def build_default_study(
    seed: int = 2024,
    n_baseline: int = 120,
    n_current: int = 200,
    months: int = 6,
    jobs_per_day: float = 200.0,
) -> Study:
    """The study :func:`study_pipeline` names, built in this process.

    Equal to :func:`run_cached_study` at the same arguments. The survey,
    workload and schedule draw from ``seed``, ``seed + 1`` and ``seed + 2``,
    so e.g. enlarging the survey never changes the telemetry.
    """
    if n_baseline < 1 or n_current < 1:
        raise StudyError("cohort sizes must be >= 1")
    return run_cached_study(
        max_workers=1,
        seed=seed,
        n_baseline=n_baseline,
        n_current=n_current,
        months=months,
        jobs_per_day=jobs_per_day,
    )
