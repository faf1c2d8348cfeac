"""CLI surface of the tracing layer: ``repro trace`` and ``report --trace``."""

import io
import json

import pytest

from repro.cli import main
from repro.core import ArtifactCache, Pipeline, PipelineStep
from repro.core.trace import Tracer, validate_perfetto
from repro.obs.promfmt import validate_prometheus


def _one(inputs):
    return 1


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# Smallest parameter set the study pipeline renders every experiment at.
SMALL = ("--seed", "3", "--baseline", "60", "--current", "80",
         "--months", "3", "--jobs-per-day", "60")


class TestTraceCommand:
    def test_traced_build_prints_critical_path(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, text = run_cli(
            "trace", *SMALL, "--executor", "thread", "--jobs", "2",
            "--out", str(trace_path), "--check-schema",
        )
        assert code == 0
        assert "trace schema ok" in text
        assert "critical path:" in text
        assert "parallel efficiency" in text
        assert "slack" in text
        data = json.loads(trace_path.read_text())
        assert validate_perfetto(data) == []
        cats = {e.get("cat") for e in data["traceEvents"]}
        assert {"run", "step"} <= cats

    def test_metrics_out_writes_prometheus(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code, text = run_cli(
            "trace", *SMALL, "--executor", "sequential",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        body = metrics_path.read_text()
        assert validate_prometheus(body) == []
        assert "# TYPE repro_steps_total counter" in body
        assert 'repro_steps_total{outcome="ok"}' in body
        assert "# TYPE repro_step_wall_seconds histogram" in body
        assert 'repro_events_total{event="cache.miss"}' in body

    def test_load_analyzes_existing_trace(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        run_cli("trace", *SMALL, "--executor", "sequential", "--out", str(trace_path))
        code, text = run_cli(
            "trace", "--load", str(trace_path), "--check-schema", "--top", "3"
        )
        assert code == 0
        assert "trace schema ok" in text
        assert "critical path:" in text

    @pytest.mark.parametrize(
        "flags",
        [["--out", "again.json"], ["--metrics-out", "m.prom"], ["--resources"],
         ["--jobs", "2"]],
        ids=lambda flags: flags[0],
    )
    def test_load_refuses_run_only_flags(self, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        tracer = Tracer()
        Pipeline([PipelineStep("a", _one)], ArtifactCache()).run(trace=tracer)
        tracer.write_perfetto("trace.json")
        code, text = run_cli("trace", "--load", "trace.json", *flags)
        assert code == 2
        assert f"error: {flags[0]} " in text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

    def test_load_missing_file_is_usage_error(self, tmp_path):
        code, text = run_cli("trace", "--load", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in text

    def test_load_invalid_trace_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        code, text = run_cli("trace", "--load", str(bad))
        assert code == 2
        assert "error:" in text

    def test_bad_jobs_rejected(self):
        code, text = run_cli("trace", *SMALL, "--jobs", "0")
        assert code == 2


class TestReportTrace:
    def test_report_trace_exports_and_summarizes(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.md"
        code, text = run_cli(
            "report", *SMALL, "--executor", "thread", "--jobs", "2",
            "--trace", str(trace_path), "--out", str(report_path),
        )
        assert code == 0
        assert f"wrote Perfetto trace to {trace_path}" in text
        assert "critical path:" in text
        assert report_path.exists()
        assert validate_perfetto(json.loads(trace_path.read_text())) == []

    def test_report_trace_composes_with_durable(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, text = run_cli(
            "report", *SMALL, "--executor", "sequential",
            "--durable", str(tmp_path / "state"),
            "--trace", str(trace_path),
            "--out", str(tmp_path / "report.md"),
        )
        assert code == 0
        data = json.loads(trace_path.read_text())
        (run,) = [e for e in data["traceEvents"] if e.get("cat") == "run"]
        # Traced durable runs correlate the root span with the journal id.
        assert run["args"]["run_id"]


class TestVerbosityFlags:
    def test_every_subcommand_accepts_verbosity(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["codebook", "-vv"])
        assert args.verbose == 2 and args.quiet == 0
        args = parser.parse_args(["power", "--p1", "0.1", "--p2", "0.2", "-q"])
        assert args.quiet == 1

    def test_verbose_report_logs_run_lifecycle_to_stderr(self, tmp_path, capsys):
        code, _ = run_cli(
            "report", *SMALL, "-v", "--executor", "sequential",
            "--trace", str(tmp_path / "t.json"),
            "--out", str(tmp_path / "r.md"),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "run.start" in err and "run.end" in err
        assert "INFO" in err

    def test_bench_parser_has_trace_gate_flag(self):
        # The trace gate's limit lives in the gate table, not in a flag.
        from repro.cli import build_parser
        from repro.core.bench import GATES

        (row,) = [g for g in GATES if g.benchmark == "trace_overhead"]
        assert (row.kind, row.limit) == ("ratio", 0.03)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--max-trace-overhead", "0.05"])
