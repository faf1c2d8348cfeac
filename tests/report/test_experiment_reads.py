"""``Experiment.reads`` is exact, and the durable DAG is wired from it.

Every experiment declares which study parts it reads. The declaration is
*sufficient* when the artifact built from a view carrying only those
parts is byte-identical to the one built from the full study, and
*necessary* when a view missing any one of them raises ``StudyError``
naming it. The report pipeline then depends each ``exp:*`` step on the
stage holding those parts only, which pins what an edit recomputes.
"""

import pytest

from repro.audit import run_audit, select_matrix
from repro.audit.digests import render_artifact
from repro.core import ArtifactCache, StudyError, build_default_study
from repro.core.study import STUDY_PARTS, Study
from repro.report import EXPERIMENTS
from repro.report.experiments import Experiment, report_pipeline

RESPONSES_ONLY = {
    "T1", "T2", "T3", "T4", "T6", "T7", "T8",
    "F1", "F2", "F6", "X2", "X3", "X6", "X7", "X10",
}
TELEMETRY_ONLY = {"T5", "F3", "F4", "F5", "F7", "X1", "X4", "X5", "X8", "X9"}

SEEDS = (11, 12)
SIZE = dict(n_baseline=100, n_current=120, months=3, jobs_per_day=60)


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def full_study(request):
    return build_default_study(seed=request.param, **SIZE)


def _view(study: Study, parts) -> Study:
    return Study.view(parts, **vars(study))


def test_declarations_match_the_registry():
    assert {e for e, x in EXPERIMENTS.items() if x.reads == ("responses",)} == RESPONSES_ONLY
    assert {e for e, x in EXPERIMENTS.items() if x.reads == ("telemetry",)} == TELEMETRY_ONLY
    assert EXPERIMENTS["F8"].reads == ("responses", "telemetry")
    assert len(EXPERIMENTS) == len(RESPONSES_ONLY) + len(TELEMETRY_ONLY) + 1


@pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
def test_declared_parts_suffice(full_study, eid):
    experiment = EXPERIMENTS[eid]
    expected = render_artifact(experiment.fn(full_study))
    assert render_artifact(experiment.fn(_view(full_study, experiment.reads))) == expected


@pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
def test_every_declared_part_is_read(full_study, eid):
    experiment = EXPERIMENTS[eid]
    for part in experiment.reads:
        others = [p for p in STUDY_PARTS if p != part]
        with pytest.raises(StudyError, match=f"'{part}' part"):
            experiment.fn(_view(full_study, others))


class TestDeclarationValidation:
    def make(self, reads):
        return Experiment("Z1", "t", "table", lambda study: None, "d", reads)

    @pytest.mark.parametrize("reads", [(), ("survey",), ("responses", "jobs")])
    def test_empty_or_unknown_reads_rejected(self, reads):
        with pytest.raises(ValueError, match="reads"):
            self.make(reads)

    def test_reads_kept_in_part_order(self):
        assert self.make(["telemetry", "responses"]).reads == ("responses", "telemetry")
        assert self.make({"telemetry"}).reads == ("telemetry",)

    def test_reads_has_no_default(self):
        with pytest.raises(TypeError, match="reads"):
            Experiment("Z1", "t", "table", lambda study: None, "d")


class TestDurableFootprint:
    """An ``n_current`` edit reruns the survey subtree only: 18 of 30."""

    KW = dict(seed=5, n_baseline=60, n_current=80, months=3, jobs_per_day=30.0)

    def test_wiring(self):
        steps = {s.name: s for s in report_pipeline(None, **self.KW).steps}
        assert steps["study"].depends_on == ("survey", "schedule")
        assert set(steps["study"].params) == {"window_seconds"}
        assert not any("study" in s.depends_on for s in steps.values())
        for eid, experiment in EXPERIMENTS.items():
            step = steps[f"exp:{eid}"]
            inputs = {"responses": "survey", "telemetry": "schedule"}
            assert step.depends_on == tuple(inputs[p] for p in experiment.reads)
            carried = {"experiment_id", "fn_fingerprint"}
            if "responses" in experiment.reads:
                carried |= {"baseline_cohort", "current_cohort"}
            if "telemetry" in experiment.reads:
                carried.add("window_seconds")
            assert set(step.params) == carried, eid

    @pytest.mark.parametrize("executor", ["sequential", "thread", "process"])
    def test_n_current_edit_recomputes_18_of_30(self, tmp_path, executor):
        cache = ArtifactCache(tmp_path)
        report_pipeline(cache, **self.KW).run(executor=executor, max_workers=2)
        edited = dict(self.KW, n_current=self.KW["n_current"] + 1)
        pipeline = report_pipeline(cache, **edited)
        pipeline.run(executor=executor, max_workers=2)
        statuses = {o.name: o.status for o in pipeline.last_report.outcomes}
        assert pipeline.last_report.counts() == {"ok": 18, "cached": 12}
        cached = {name for name, status in statuses.items() if status == "cached"}
        assert cached == {"workload", "schedule"} | {f"exp:{e}" for e in TELEMETRY_ONLY}


def test_survey_drift_subtree_leaves_telemetry_experiments_out():
    report = run_audit(
        matrix=select_matrix(["thread"]),
        experiment_ids=["T1", "X4"],
        study_kwargs=dict(seed=2024, n_baseline=24, n_current=30, months=1, jobs_per_day=40.0),
        drift="planted_yes_rate",
    )
    assert report.divergent_steps == ("survey", "study", "exp:T1")
    assert report.affected_subtree() == ("survey", "study", "exp:T1")
