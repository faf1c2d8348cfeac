"""The Study object: instrument + responses + telemetry in one place.

A :class:`Study` is what every experiment in the report registry consumes.
:func:`~repro.core.study_pipeline.build_default_study` materializes the
full reconstructed study — both survey cohorts plus a simulated telemetry
window — from a single seed.

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

from repro.cluster.partitions import ClusterConfig
from repro.cluster.records import JobTable
from repro.survey.responses import ResponseSet
from repro.survey.validation import validate_response_set

__all__ = ["STUDY_PARTS", "StudyError", "Study", "study_parts"]


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
