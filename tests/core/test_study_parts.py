"""Study parts and views: a study may carry only the halves a reader needs."""

import math

import pytest

from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.core import Study, StudyError, build_default_study
from repro.core.study import STUDY_PARTS


@pytest.fixture(scope="module")
def study():
    return build_default_study(seed=3, n_baseline=20, n_current=20, months=1, jobs_per_day=30)


class TestWindow:
    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_window_rejected(self, study, window):
        with pytest.raises(StudyError, match="window_seconds"):
            Study(
                responses=study.responses,
                telemetry=study.telemetry,
                cluster=DEFAULT_CLUSTER,
                window_seconds=window,
            )

    def test_telemetry_view_checks_its_window(self, study):
        with pytest.raises(StudyError, match="window_seconds"):
            Study.view(("telemetry",), **dict(vars(study), window_seconds=math.nan))


class TestViews:
    def test_full_study_carries_both_parts(self, study):
        assert study.parts == tuple(STUDY_PARTS) == ("responses", "telemetry")

    @pytest.mark.parametrize("part", sorted(STUDY_PARTS))
    def test_view_keeps_its_part_and_refuses_the_other(self, study, part):
        view = Study.view((part,), **vars(study))
        assert view.parts == (part,)
        for name in STUDY_PARTS[part]:
            assert getattr(view, name) is getattr(study, name)
        (other,) = set(STUDY_PARTS) - {part}
        for name in STUDY_PARTS[other]:
            with pytest.raises(StudyError, match=f"'{other}' part"):
                getattr(view, name)

    def test_derived_reads_go_through_the_parts(self, study):
        view = Study.view(("telemetry",), **vars(study))
        for read in (lambda: view.baseline, lambda: view.current, view.validation_report):
            with pytest.raises(StudyError, match="'responses' part"):
                read()

    def test_validation_covers_only_carried_parts(self, study):
        # A survey without the 2011 wave is invalid for a responses reader,
        # but does not concern a telemetry-only view.
        only_2024 = study.responses.by_cohort("2024")
        fields = dict(vars(study), responses=only_2024)
        with pytest.raises(StudyError, match="cohort '2011'"):
            Study.view(("responses",), **fields)
        assert Study.view(("telemetry",), **fields).parts == ("telemetry",)

    def test_view_needs_the_fields_of_its_parts(self, study):
        with pytest.raises(TypeError):
            Study.view(("telemetry",), telemetry=study.telemetry, cluster=DEFAULT_CLUSTER)

    @pytest.mark.parametrize("reads", [(), ("survey",)])
    def test_view_rejects_empty_or_unknown_parts(self, study, reads):
        with pytest.raises(ValueError, match="reads"):
            Study.view(reads, **vars(study))
