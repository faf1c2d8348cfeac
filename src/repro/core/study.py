"""The Study object: instrument + responses + telemetry in one place.

A :class:`Study` is what every experiment in the report registry consumes.
:func:`build_default_study` materializes the full reconstructed study —
both survey cohorts plus a simulated telemetry window — from a single seed.

A study joins two independently arriving halves, its *parts*
(:data:`STUDY_PARTS`): the survey waves and the scheduler accounting
window. :meth:`Study.view` builds a study that carries only some of
them, which is how an experiment that declares what it reads is kept to
exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.cluster.partitions import ClusterConfig, DEFAULT_CLUSTER
from repro.cluster.records import JobTable
from repro.cluster.scheduler import simulate_schedule
from repro.cluster.workload import WorkloadModel, WorkloadParams
from repro.core.calibration import profile_2011, profile_2024
from repro.core.instrument import build_instrument
from repro.survey.responses import ResponseSet
from repro.survey.validation import validate_response_set

__all__ = ["STUDY_PARTS", "StudyError", "Study", "build_default_study", "study_parts"]


class StudyError(ValueError):
    """Raised when study components are inconsistent."""


#: The parts of a study and the fields each one carries.
STUDY_PARTS: Mapping[str, tuple[str, ...]] = {
    "responses": ("responses", "baseline_cohort", "current_cohort"),
    "telemetry": ("telemetry", "cluster", "window_seconds"),
}


def study_parts(reads: Iterable[str]) -> tuple[str, ...]:
    """``reads`` in :data:`STUDY_PARTS` order; ValueError if empty or unknown."""
    wanted = set(reads)
    unknown = sorted(wanted - STUDY_PARTS.keys())
    if not wanted or unknown:
        raise ValueError(
            f"reads must be a non-empty subset of {tuple(STUDY_PARTS)}, "
            f"got {sorted(wanted)}"
        )
    return tuple(part for part in STUDY_PARTS if part in wanted)


class _Absent:
    """The value a view holds for each field of a part it does not carry."""

    def __init__(self, part: str) -> None:
        self.part = part


@dataclass(frozen=True)
class Study:
    """One complete practice study.

    Attributes
    ----------
    responses:
        Multi-cohort survey responses (cohorts "2011" and "2024" for the
        default study).
    telemetry:
        Cluster accounting records for the 2024-era window.
    cluster:
        Capacity model the telemetry was produced on (used for utilization).
    window_seconds:
        Telemetry window length.
    baseline_cohort, current_cohort:
        Labels of the two waves trend analysis compares.

    A view (:meth:`view`) carries only some parts; reading a field of
    any other part raises :class:`StudyError` naming that part.
    """

    responses: ResponseSet
    telemetry: JobTable
    cluster: ClusterConfig
    window_seconds: float
    baseline_cohort: str = "2011"
    current_cohort: str = "2024"

    def __post_init__(self) -> None:
        parts = self.parts
        if "responses" in parts:
            cohorts = set(self.responses.cohorts)
            for label in (self.baseline_cohort, self.current_cohort):
                if label not in cohorts:
                    raise StudyError(
                        f"cohort {label!r} absent from responses (have {sorted(cohorts)})"
                    )
        if "telemetry" in parts and not (
            math.isfinite(self.window_seconds) and self.window_seconds > 0
        ):
            raise StudyError(
                f"window_seconds must be finite and positive, got {self.window_seconds!r}"
            )

    def __getattribute__(self, name: str) -> Any:
        value = object.__getattribute__(self, name)
        if type(value) is _Absent:
            raise StudyError(
                f"this study view does not carry the {value.part!r} part "
                f"(field {name!r} read)"
            )
        return value

    @classmethod
    def view(cls, reads: Iterable[str], **fields: Any) -> "Study":
        """A study carrying only the ``reads`` parts of ``fields``.

        ``fields`` are :class:`Study` fields; those of other parts are
        left out, and reading one on the view raises :class:`StudyError`.
        Validation covers only the carried parts, so a telemetry-only
        view never checks the survey cohorts.
        """
        parts = study_parts(reads)
        for part, names in STUDY_PARTS.items():
            if part not in parts:
                fields.update(dict.fromkeys(names, _Absent(part)))
        return cls(**fields)

    @property
    def parts(self) -> tuple[str, ...]:
        """The parts this study carries: both, unless it is a view."""
        values = vars(self)
        return tuple(
            part
            for part, names in STUDY_PARTS.items()
            if type(values[names[0]]) is not _Absent
        )

    @property
    def baseline(self) -> ResponseSet:
        return self.responses.by_cohort(self.baseline_cohort)

    @property
    def current(self) -> ResponseSet:
        return self.responses.by_cohort(self.current_cohort)

    def validation_report(self):
        """QA report over all responses."""
        return validate_response_set(self.responses)


def build_default_study(
    seed: int = 2024,
    n_baseline: int = 120,
    n_current: int = 160,
    months: int = 24,
    jobs_per_day: float = 300.0,
    cluster: ClusterConfig | None = None,
    backfill: bool = True,
    diurnal: bool = True,
) -> Study:
    """Generate the full reconstructed study from one seed.

    Survey cohorts, workload, and scheduling each draw from independent
    child streams of ``seed``, so e.g. enlarging the survey never changes
    the telemetry.
    """
    from repro.synth.generator import generate_study  # local: avoid cycle at import

    if n_baseline < 1 or n_current < 1:
        raise StudyError("cohort sizes must be >= 1")
    cluster = cluster or DEFAULT_CLUSTER
    master = np.random.default_rng(seed)
    survey_rng_seed, workload_rng, sched_rng = (
        master.integers(2**31),
        master.spawn(1)[0],
        master.spawn(1)[0],
    )

    questionnaire = build_instrument()
    responses = generate_study(
        {
            "2011": (profile_2011(), n_baseline),
            "2024": (profile_2024(), n_current),
        },
        questionnaire,
        seed=int(survey_rng_seed),
    )

    params = WorkloadParams(months=months, jobs_per_day=jobs_per_day, diurnal=diurnal)
    jobs = WorkloadModel(params, cluster).generate(workload_rng)
    result = simulate_schedule(jobs, cluster, rng=sched_rng, backfill=backfill)

    return Study(
        responses=responses,
        telemetry=result.table,
        cluster=cluster,
        window_seconds=params.window_seconds,
    )
