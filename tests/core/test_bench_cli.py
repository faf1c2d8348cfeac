"""``repro bench --check``: the gate path of the CLI, with canned records.

The runners are replaced by stubs that record their calls, so these tests
time nothing and can assert that a bad trajectory file stops the command
before any benchmark runs.
"""

import io
import json
from pathlib import Path

import pytest

import repro.core.bench as bench
from repro.cli import main

from tests.core.test_bench_gates import (
    dist_entry,
    latency_entry,
    metrics_entry,
    overhead_entry,
    record,
    serve_entry,
    sim,
    sweep_point,
    sweep_record,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(["bench", "--scale", "quick", *argv], out=out)
    return code, out.getvalue()


def battery(simulate=1.0, audit_wrapper=0.0006):
    return record(
        simulate_schedule=sim(simulate),
        retry_overhead=overhead_entry(plain=0.02, wrapper=0.0001),
        journal_overhead=overhead_entry(plain=0.02, wrapper=0.0001),
        trace_overhead=overhead_entry(plain=0.02, wrapper=0.0001),
        audit_overhead=overhead_entry(plain=0.02, wrapper=audit_wrapper),
        dist_overhead=dist_entry(0.003, 0.057),
        serve_ingest_overhead=serve_entry(0.002, 0.004, refresh=0.4),
        metrics_overhead=metrics_entry(0.1, 0.001),
        serve_latency=latency_entry(0.0001, 0.0005, 0.002),
    )


def sweep(total_exponent):
    points = [sweep_point(1, 0.2, 100_000), sweep_point(10, 2.2, 300_000)]
    return sweep_record(points, {"total_exponent": total_exponent, "rss_exponent": 0.5})


@pytest.fixture
def runners(monkeypatch):
    """Stub both runners; each call is logged and returns the canned record."""
    calls = []
    canned = {"battery": battery(), "sweep": sweep(1.0)}

    def fake(kind):
        def runner(**kwargs):
            calls.append(kind)
            return canned[kind]

        return runner

    monkeypatch.setattr(bench, "run_benchmarks", fake("battery"))
    monkeypatch.setattr(bench, "run_scale_sweep", fake("sweep"))
    return calls, canned


def trajectory(tmp_path, *records):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"schema": 1, "runs": list(records)}))
    return path


def verdicts(text):
    return [line for line in text.splitlines() if line.startswith(("ok: ", "REGRESSION: "))]


class TestCheck:
    def test_one_line_per_row_and_exit_zero_when_all_pass(self, runners, tmp_path):
        calls, _ = runners
        code, text = run_cli("--check", str(trajectory(tmp_path, battery())))
        assert code == 0 and calls == ["battery"]
        lines = verdicts(text)
        rows = [g for g in bench.GATES if g.benchmark != "scale_sweep"]
        assert len(lines) == len(rows)
        for line, gate in zip(lines, rows):
            assert line.startswith(f"ok: {gate.benchmark}:")

    def test_failing_row_exits_one(self, runners, tmp_path):
        calls, canned = runners
        canned["battery"] = battery(simulate=1.3, audit_wrapper=0.002)
        code, text = run_cli("--check", str(trajectory(tmp_path, battery())))
        assert code == 1
        failed = [line for line in verdicts(text) if line.startswith("REGRESSION")]
        assert [line.split(":")[1].strip() for line in failed] == [
            "simulate_schedule",
            "audit_overhead",
        ]
        assert "130% of baseline" in failed[0] and "+10.0% overhead" in failed[1]

    def test_scale_sweep_gates_fresh_and_committed_sweep(self, runners, tmp_path):
        calls, _ = runners
        path = trajectory(tmp_path, battery(), sweep(1.48), battery())
        code, text = run_cli("--scale-sweep", "--check", str(path))
        assert code == 1 and calls == ["sweep"]
        lines = verdicts(text)
        assert len(lines) == 4
        assert all(line.startswith("ok: scale_sweep:") for line in lines[:2])
        committed = f"committed ({path}): scale_sweep:"
        assert lines[2].startswith(f"REGRESSION: {committed}")
        assert "total_exponent 1.480" in lines[2]
        assert lines[3].startswith(f"ok: {committed}")

    def test_without_check_nothing_is_gated(self, runners):
        code, text = run_cli()
        assert code == 0 and verdicts(text) == []

    def test_help_lists_no_limit_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        text = capsys.readouterr().out
        assert "--check" in text
        assert "--max-" not in text and "--check-scale-sweep" not in text


class TestBadTrajectoryFile:
    @pytest.mark.parametrize("mode", [(), ("--scale-sweep",)])
    @pytest.mark.parametrize(
        "text", [None, "{not json", '{"runs": "garbage"}', '{"runs": [1, 2]}']
    )
    def test_usage_error_before_any_timing(self, runners, tmp_path, mode, text):
        calls, _ = runners
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        code, output = run_cli(*mode, "--check", str(path))
        assert code == 2
        assert "bad.json" in output
        assert calls == []


class TestCommittedRecords:
    def test_every_committed_record_renders(self):
        runs = bench.load_runs(Path(__file__).resolve().parents[2] / "BENCH_2.json")
        for run in runs:
            if "scale_sweep" in run["benchmarks"]:
                assert "fitted exponents" in bench.render_scale_sweep(run)
            else:
                text = bench.render_record(run)
                assert all(name in text for name in run["benchmarks"])
        # Records from before the end-to-end row was dropped still render it.
        assert any("end_to_end_report" in run["benchmarks"] for run in runs)

    def test_no_end_to_end_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "end-to-end" not in capsys.readouterr().out

