"""Graceful degradation of the report when experiments fail.

Process-mode workers re-import the registry, so these tests sabotage
experiments via monkeypatch and run the sequential/thread executors, where
the patched registry is visible.
"""

import io

import pytest

from repro.cli import EXIT_PARTIAL, main
from repro.report.document import build_report
from repro.report.experiments import (
    EXPERIMENTS,
    Experiment,
    run_all_experiments_with_metrics,
)


def _broken(study):
    raise RuntimeError("synthetic experiment failure")


@pytest.fixture()
def broken_t8(monkeypatch):
    original = EXPERIMENTS["T8"]
    monkeypatch.setitem(
        EXPERIMENTS,
        "T8",
        Experiment(
            "T8", original.title, original.kind, _broken, original.description,
            original.reads,
        ),
    )
    return original


class TestRunAllKeepGoing:
    def test_failed_experiment_dropped_and_recorded(self, study, broken_t8):
        artifacts, metrics = run_all_experiments_with_metrics(
            study, executor="sequential", on_error="keep_going"
        )
        assert "T8" not in artifacts
        assert "T1" in artifacts and "F8" in artifacts
        assert metrics.steps_failed == 1
        (failed,) = [m for m in metrics.steps if m.outcome == "failed"]
        assert failed.name == "T8"
        assert "synthetic experiment failure" in failed.error

    def test_thread_mode_matches(self, study, broken_t8):
        artifacts, metrics = run_all_experiments_with_metrics(
            study, executor="thread", max_workers=2, on_error="keep_going"
        )
        assert "T8" not in artifacts
        assert metrics.steps_failed == 1

    def test_raise_mode_propagates(self, study, broken_t8):
        with pytest.raises(RuntimeError, match="synthetic"):
            run_all_experiments_with_metrics(
                study, executor="sequential", on_error="raise"
            )

    def test_unknown_on_error_rejected(self, study):
        with pytest.raises(ValueError, match="on_error"):
            run_all_experiments_with_metrics(study, on_error="ignore")


class TestDegradedDocument:
    def test_placeholder_section_rendered(self, study, broken_t8):
        sink = []
        text = build_report(
            study, executor="sequential", on_error="keep_going", metrics_out=sink
        )
        assert "DEGRADED REPORT" in text
        assert "1 experiment(s) failed to regenerate (T8)" in text
        assert f"### T8: {broken_t8.title} — UNAVAILABLE" in text
        assert "synthetic experiment failure" in text
        # The failed section keeps its slot; every other section renders.
        assert "<!-- experiment T8:" in text
        assert "T7: training background" in text
        assert "Appendix: data quality" in text
        assert sink[0].steps_failed == 1

    def test_clean_report_has_no_placeholder(self, study):
        text = build_report(study, executor="sequential", on_error="keep_going")
        assert "DEGRADED REPORT" not in text
        assert "UNAVAILABLE" not in text


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCliKeepGoing:
    # Large enough that every experiment regenerates cleanly (a 1-month
    # telemetry window genuinely fails the growth-fit experiments, which
    # would make exit codes here ambiguous).
    SMALL = ("--seed", "3", "--baseline", "30", "--current", "40",
             "--months", "3", "--jobs-per-day", "40")

    def test_partial_report_exits_3(self, broken_t8):
        code, text = run_cli(
            "report", *self.SMALL, "--executor", "sequential", "--keep-going",
            "--timings",
        )
        assert code == EXIT_PARTIAL == 3
        assert "UNAVAILABLE" in text
        assert "warning: report degraded" in text and "T8" in text
        # --timings surfaces the structured outcome record.
        assert "run report:" in text and "T8: failed" in text

    def test_without_keep_going_failure_aborts(self, broken_t8):
        with pytest.raises(RuntimeError, match="synthetic"):
            run_cli("report", *self.SMALL, "--executor", "sequential")

    def test_clean_run_exits_0(self):
        code, text = run_cli(
            "report", *self.SMALL, "--executor", "sequential", "--keep-going"
        )
        assert code == 0
        assert "UNAVAILABLE" not in text
