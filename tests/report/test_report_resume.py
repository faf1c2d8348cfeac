"""CLI durability: ``repro report --durable``, ``--resume``, and interrupts.

The durable path renders the full report while leaving behind a journal +
cache that ``--resume`` recovers byte-for-byte — and a Ctrl-C must exit 130
with a usable resume hint, never a traceback.
"""

import io

import pytest

from repro.cli import EXIT_INTERRUPTED, main

# Smallest parameter set the *staged* study pipeline renders fully at
# (its stages draw from per-step seed streams, not build_default_study's).
SMALL = (
    "--seed", "3", "--baseline", "60", "--current", "80",
    "--months", "3", "--jobs-per-day", "60",
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDurableReport:
    @pytest.fixture(scope="class")
    def durable_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("durable")
        report_path = root / "report.md"
        code, text = run_cli(
            "report", *SMALL,
            "--durable", str(root / "state"),
            "--out", str(report_path),
        )
        return root, report_path, code, text

    def test_exit_clean(self, durable_run):
        _, _, code, _ = durable_run
        assert code == 0

    def test_renders_full_document(self, durable_run):
        _, report_path, _, _ = durable_run
        text = report_path.read_text()
        assert "## Results" in text
        for eid in ("T1", "T8", "F1", "F8"):
            assert f"experiment {eid}:" in text

    def test_resume_latest_is_byte_identical(self, durable_run):
        root, report_path, _, _ = durable_run
        first = report_path.read_bytes()
        resumed_path = root / "resumed.md"
        code, text = run_cli(
            "report", *SMALL,
            "--durable", str(root / "state"),
            "--resume",  # bare flag means "latest"
            "--out", str(resumed_path),
            "--timings",
        )
        assert code == 0
        assert resumed_path.read_bytes() == first
        # --timings surfaces the durability telemetry: every step replayed
        # from the finished run's journal + cache, zero recomputed.
        assert "replayed" in text
        assert "resumed from" in text

    def test_journal_segment_exists(self, durable_run):
        root, _, _, _ = durable_run
        assert list((root / "state" / "journals").glob("*.journal"))


class TestResumeValidation:
    def test_resume_requires_durable(self):
        code, text = run_cli("report", *SMALL, "--resume", "some-run")
        assert code == 2
        assert "--resume requires --durable" in text

    def test_resume_latest_with_no_journals(self, tmp_path):
        code, text = run_cli(
            "report", *SMALL, "--durable", str(tmp_path / "state"), "--resume"
        )
        assert code == 2
        assert "no journals to resume" in text

    def test_resume_unknown_run_id(self, tmp_path):
        code, text = run_cli(
            "report", *SMALL,
            "--durable", str(tmp_path / "state"),
            "--resume", "not-a-run",
        )
        assert code == 2
        assert "error" in text


class TestKeyboardInterrupt:
    @pytest.fixture()
    def interrupted_pipeline(self, monkeypatch):
        """``report_pipeline`` returns a pipeline whose run is Ctrl-C'd."""
        import repro.report.experiments as experiments

        class InterruptedPipeline:
            def run_with_report(self, **kwargs):
                raise KeyboardInterrupt

        monkeypatch.setattr(
            experiments, "report_pipeline", lambda *a, **k: InterruptedPipeline()
        )

    def test_durable_report_flushes_and_hints(self, tmp_path, interrupted_pipeline):
        code, text = run_cli(
            "report", *SMALL, "--durable", str(tmp_path / "state")
        )
        assert code == EXIT_INTERRUPTED == 130
        assert "interrupted — resume with --resume" in text

    def test_plain_report_exits_130(self, interrupted_pipeline):
        code, text = run_cli("report", *SMALL)
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in text
        assert "--resume" not in text  # nothing journaled to resume

    def test_bench_exits_130(self, monkeypatch):
        import repro.core.bench as bench

        def interrupted(*a, **k):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_benchmarks", interrupted)
        code, text = run_cli("bench", "--scale", "quick")
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in text
