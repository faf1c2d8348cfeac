"""Graceful degradation of the report when experiments fail.

The tests sabotage an experiment via monkeypatch and run the report DAG
(directly, or through ``repro report`` at its default ``--jobs 1``) with
every step in this process, where the patched registry is visible.
"""

import io

import pytest

from repro.cli import EXIT_PARTIAL, main
from repro.core.pipeline import ArtifactCache
from repro.report.document import render_report
from repro.report.experiments import EXPERIMENTS, Experiment, report_pipeline


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


# Large enough that every experiment regenerates cleanly: F5 needs >= 3
# telemetry months, and at seed 3 F8 needs more than 40 jobs/day to find
# >= 3 fields present in both sources.
SMALL_STUDY = dict(seed=3, n_baseline=60, n_current=80, months=3, jobs_per_day=60)


def render_keep_going():
    """Run the report DAG with keep-going and render what it produced."""
    results, run = report_pipeline(ArtifactCache(), **SMALL_STUDY).run_with_report(
        on_error="keep_going"
    )
    artifacts = {
        name.removeprefix("exp:"): value
        for name, value in results.items()
        if name.startswith("exp:")
    }
    failures = {
        o.name.removeprefix("exp:"): o.error
        for o in run.outcomes
        if o.name.startswith("exp:") and not o.succeeded
    }
    return render_report(results["study"], artifacts, failures), run


class TestDegradedDocument:
    def test_placeholder_section_rendered(self, broken_t8):
        text, run = render_keep_going()
        assert "DEGRADED REPORT" in text
        assert "1 experiment(s) failed to regenerate (T8)" in text
        assert f"### T8: {broken_t8.title} — UNAVAILABLE" in text
        assert "synthetic experiment failure" in text
        # The failed section keeps its slot; every other section renders.
        assert "<!-- experiment T8:" in text
        assert "T7: training background" in text
        assert "Appendix: data quality" in text
        assert run.failed == ("exp:T8",)

    def test_clean_report_has_no_placeholder(self):
        text, run = render_keep_going()
        assert "DEGRADED REPORT" not in text
        assert "UNAVAILABLE" not in text
        assert run.ok


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCliKeepGoing:
    # SMALL_STUDY as flags, which keeps the exit codes here unambiguous.
    SMALL = ("--seed", "3", "--baseline", "60", "--current", "80",
             "--months", "3", "--jobs-per-day", "60")

    def test_partial_report_exits_3(self, broken_t8, tmp_path):
        report_path = tmp_path / "report.md"
        code, output = run_cli(
            "report", *self.SMALL, "--keep-going", "--timings",
            "--out", str(report_path),
        )
        assert code == EXIT_PARTIAL == 3
        assert "warning: report degraded" in output and "T8" in output
        # --timings surfaces the structured outcome record.
        assert "run report:" in output and "T8: failed" in output
        text = report_path.read_text()
        assert "DEGRADED REPORT" in text
        assert "1 experiment(s) failed to regenerate (T8)" in text
        assert f"### T8: {broken_t8.title} — UNAVAILABLE" in text
        assert "synthetic experiment failure" in text
        # The failed section keeps its slot; every other section renders.
        assert "<!-- experiment T8:" in text
        assert "T7: training background" in text
        assert "Appendix: data quality" in text

    def test_without_keep_going_failure_aborts(self, broken_t8):
        with pytest.raises(RuntimeError, match="synthetic"):
            run_cli("report", *self.SMALL)

    def test_clean_run_exits_0(self):
        code, text = run_cli("report", *self.SMALL, "--keep-going")
        assert code == 0
        assert "DEGRADED REPORT" not in text
        assert "UNAVAILABLE" not in text
