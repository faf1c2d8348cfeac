"""Chaos-style audit-matrix suite.

Runs real audits (real pipelines, real SIGKILL, real injected faults) at
a tiny study scale and asserts the headline guarantees:

* a clean study is concordant across every perturbation leg — all
  executor modes, SIGKILL+resume, transient faults, warm cache;
* a planted ``with_yes_rate`` scenario diverges and is localized to
  exactly the survey's downstream DAG subtree;
* every cataloged drift scenario is *attributed* (never flagged
  unexplained);
* the normalized report card is byte-identical no matter which executor
  mode produced the runs (the PR-5 ``normalize=True`` guarantee, lifted
  to the audit layer).
"""

import signal

import pytest

from repro.audit import (
    QUICK_SCALE,
    Perturbation,
    default_matrix,
    run_audit,
    select_matrix,
)
from repro.core.faults import CrashPoint
from repro.report.document import render_report_card
from repro.synth.scenario import DRIFT_SCENARIOS

TINY = {"seed": 2024, "n_baseline": 24, "n_current": 30, "months": 1, "jobs_per_day": 40.0}
IDS = ["T1", "T3"]

SURVEY_SUBTREE = ("survey", "study", "exp:T1", "exp:T3")


@pytest.fixture(scope="module")
def clean_report():
    """One full six-leg audit of a clean study, shared by the module."""
    return run_audit(matrix=default_matrix(), experiment_ids=IDS, study_kwargs=TINY)


class TestCleanStudyConcordance:
    def test_concordant_across_full_matrix(self, clean_report):
        assert clean_report.concordant, clean_report.divergent_steps
        assert clean_report.verdict == "concordant"

    def test_all_six_legs_ran(self, clean_report):
        assert [r.name for r in clean_report.runs] == [
            "baseline", "thread", "process", "crash-resume", "faults", "warm-cache",
        ]

    def test_crash_leg_really_crashed_and_resumed(self, clean_report):
        crash = next(r for r in clean_report.runs if r.name == "crash-resume")
        assert crash.crash_exitcode == -signal.SIGKILL
        assert crash.resumed_steps > 0
        assert crash.outcome_counts.get("replayed", 0) == crash.resumed_steps

    def test_fault_leg_really_retried(self, clean_report):
        faults = next(r for r in clean_report.runs if r.name == "faults")
        assert faults.outcome_counts.get("retried", 0) == 2  # survey + schedule

    def test_warm_leg_fully_cached(self, clean_report):
        warm = next(r for r in clean_report.runs if r.name == "warm-cache")
        assert warm.outcome_counts == {"cached": len(clean_report.steps)}

    def test_every_step_has_a_digest_in_every_leg(self, clean_report):
        for step in clean_report.steps:
            assert set(step.digests) == {r.name for r in clean_report.runs}
            assert all(step.digests.values()), step.step

    def test_timing_deltas_cover_every_step(self, clean_report):
        assert {t.step for t in clean_report.timings} == {
            s.step for s in clean_report.steps
        }


class TestCrashLegMustCrash:
    def test_unfired_kill_raises(self, monkeypatch):
        # A coordinate that never matches lets the child finish (exit 0);
        # the leg must not pass that off as a crash it recovered from.
        import repro.audit.runner as runner

        monkeypatch.setattr(
            runner,
            "_CRASH_POINT",
            CrashPoint("journal", "step_start", step="no-such-step", mode="before"),
        )
        with pytest.raises(RuntimeError, match=r"no-such-step.*exit code 0"):
            run_audit(
                matrix=select_matrix(["crash-resume"]),
                experiment_ids=["T1"],
                study_kwargs=QUICK_SCALE,
            )


class TestPlantedDriftLocalization:
    @pytest.fixture(scope="class")
    def drifted(self):
        return run_audit(
            matrix=select_matrix(["thread"]),
            experiment_ids=IDS,
            study_kwargs=TINY,
            drift="planted_yes_rate",
        )

    def test_diverges(self, drifted):
        assert drifted.divergent
        assert drifted.verdict == "drift"

    def test_localized_to_exactly_the_survey_subtree(self, drifted):
        # The planted effect enters through the survey step: the survey
        # and everything downstream must diverge; workload and schedule
        # are independent of it and must stay byte-identical.
        assert drifted.divergent_steps == SURVEY_SUBTREE
        assert drifted.first_divergence == "survey"
        assert drifted.affected_subtree() == SURVEY_SUBTREE
        assert drifted.localized()

    def test_all_divergence_attributed(self, drifted):
        assert drifted.expected_steps == SURVEY_SUBTREE
        assert drifted.unexplained_steps == ()

    def test_keys_changed_only_in_subtree(self, drifted):
        for step in drifted.steps:
            key_changed = len(set(step.keys.values())) > 1
            assert key_changed == (step.step in SURVEY_SUBTREE), step.step

    def test_baseline_leg_stays_undrifted(self, drifted):
        assert drifted.baseline.perturbation.drift == ""
        assert all(r.perturbation.drift == "planted_yes_rate" for r in drifted.runs[1:])


class TestDriftScenarioCatalogAttribution:
    @pytest.mark.parametrize("scenario", sorted(DRIFT_SCENARIOS))
    def test_scenario_attributed_not_unexplained(self, scenario):
        report = run_audit(
            matrix=(Perturbation("baseline"), Perturbation("drifted")),
            experiment_ids=["T1"],
            study_kwargs=TINY,
            drift=scenario,
        )
        # Every cataloged scenario perturbs the 2024 wave's profile, so it
        # must (1) actually move bytes, (2) be fully attributed via the
        # survey-step key change, and (3) start at the declared origin.
        assert report.divergent, f"{scenario} produced no divergence"
        assert report.verdict == "drift"
        assert report.unexplained_steps == ()
        assert report.first_divergence in report.drift_origin
        assert report.drift_description

    def test_unknown_scenario_rejected_before_any_compute(self):
        with pytest.raises(KeyError, match="unknown drift scenario"):
            run_audit(
                matrix=(Perturbation("baseline"), Perturbation("other")),
                experiment_ids=["T1"],
                study_kwargs=TINY,
                drift="not_a_scenario",
            )


class TestReportCardDeterminism:
    @pytest.mark.parametrize("executor", ["sequential", "thread", "process"])
    def test_normalized_card_byte_identical_across_executors(self, executor):
        # Matches the PR-5 Perfetto guarantee: same seed + same matrix
        # shape, any executor mode → byte-identical normalized output.
        # The card embeds the per-step digests, so this also re-proves
        # that artifact bytes are executor-invariant.
        matrix = (
            Perturbation("baseline", executor=executor, max_workers=2),
            Perturbation("rerun", executor=executor, max_workers=2),
        )
        report = run_audit(matrix=matrix, experiment_ids=IDS, study_kwargs=TINY)
        assert report.concordant
        card = render_report_card(report, normalize=True)
        if not hasattr(TestReportCardDeterminism, "_reference_card"):
            TestReportCardDeterminism._reference_card = card
        assert card == TestReportCardDeterminism._reference_card

    def test_normalized_card_strips_run_dependent_fields(self):
        report = run_audit(
            matrix=select_matrix(["thread"]), experiment_ids=["T1"], study_kwargs=TINY
        )
        card = render_report_card(report, normalize=True)
        assert report.runs[0].run_id not in card
        assert "wall (s)" not in card
        assert "Timing deltas" not in card
        full = render_report_card(report)
        assert report.runs[0].run_id in full
        assert "Timing deltas" in full


class TestMatrixSelection:
    def test_baseline_always_included(self):
        legs = select_matrix(["process"])
        assert [p.name for p in legs] == ["baseline", "process"]

    def test_baseline_moved_to_front(self):
        legs = select_matrix(["thread", "baseline"])
        assert [p.name for p in legs] == ["baseline", "thread"]

    def test_unknown_leg_rejected(self):
        with pytest.raises(ValueError, match="unknown audit legs"):
            select_matrix(["thread", "quantum"])

    def test_duplicate_leg_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_audit(
                matrix=(Perturbation("a"), Perturbation("a")),
                experiment_ids=["T1"],
                study_kwargs=TINY,
            )
