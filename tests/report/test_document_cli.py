"""Tests for the report document generator and the CLI."""

import io
import re

import pytest

from repro.cli import main
from repro.report.document import build_report


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report_text(self, study):
        return build_report(study)

    def test_front_matter(self, report_text, study):
        assert report_text.startswith("# Computation for Research")
        assert f"{len(study.baseline)} respondents" in report_text
        assert str(len(study.telemetry)) in report_text

    def test_every_experiment_included(self, report_text):
        for eid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
                    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"):
            assert f"experiment {eid}:" in report_text

    def test_tables_render_markdown(self, report_text):
        assert "| practice | 2011 | 2024 | change | p (adj) |" in report_text

    def test_quality_appendix(self, report_text):
        assert "Appendix: data quality" in report_text
        assert "Kruskal-Wallis" in report_text

    def test_appendix_optional(self, study):
        without = build_report(study, include_quality_appendix=False)
        assert "Appendix: data quality" not in without


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# The smallest study every experiment renders at under these seeds.
REPORT_SMALL = ("--seed", "3", "--baseline", "60", "--current", "80",
                "--months", "3", "--jobs-per-day", "60")


class TestCli:
    SMALL = ("--seed", "3", "--baseline", "30", "--current", "40",
             "--months", "1", "--jobs-per-day", "40")

    def test_codebook(self):
        code, text = run_cli("codebook")
        assert code == 0
        assert "languages" in text and "Codebook" in text

    def test_experiment(self):
        code, text = run_cli("experiment", "t2", *self.SMALL)
        assert code == 0
        assert "T2: programming language use" in text

    def test_experiment_unknown(self):
        code, text = run_cli("experiment", "T99", *self.SMALL)
        assert code == 2
        assert "unknown experiment" in text

    def test_generate_and_validate(self, tmp_path):
        code, text = run_cli("generate", *self.SMALL, "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "responses.jsonl").exists()
        assert (tmp_path / "accounting.sacct").exists()

        code, text = run_cli("validate", str(tmp_path / "responses.jsonl"))
        assert code == 0
        assert "ingest ok" in text

    def test_validate_missing_file(self, tmp_path):
        code, text = run_cli("validate", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error" in text

    def test_validate_fatal_issues(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"respondent_id": "r1", "cohort": "2024", '
            '"answers": {"expertise": 99}}\n'
        )
        code, text = run_cli("validate", str(path))
        assert code == 1
        assert "FATAL" in text

    def test_report_to_file(self, tmp_path):
        out_path = tmp_path / "report.md"
        # F5 (GPU growth) needs at least 3 telemetry months, and F8 at
        # least 3 fields present in both sources.
        code, text = run_cli("report", *REPORT_SMALL, "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert "## Results" in out_path.read_text()

    def test_power_forward(self):
        code, text = run_cli("power", "--p1", "0.5", "--p2", "0.65",
                             "--n1", "170", "--n2", "170")
        assert code == 0
        assert "power" in text and "8" in text

    def test_power_required_n(self):
        code, text = run_cli("power", "--p1", "0.5", "--p2", "0.65")
        assert code == 0
        assert "need n=" in text

    def test_power_error(self):
        code, text = run_cli("power", "--p1", "0.5", "--p2", "0.5")
        assert code == 2

    def test_sacct_round_trip_via_files(self, tmp_path):
        from repro.cluster import parse_sacct

        run_cli("generate", *self.SMALL, "--out", str(tmp_path))
        table = parse_sacct(tmp_path / "accounting.sacct")
        assert len(table) > 100


class TestOneSeedOneReport:
    """A seed names one study, whatever runs or records the build."""

    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("plain") / "report.md"
        code, _ = run_cli("report", *REPORT_SMALL, "--out", str(path))
        assert code == 0
        return path.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--trace", "{tmp}/trace.json"),
            ("--durable", "{tmp}/state"),
            ("--executor", "process", "--jobs", "2"),
            ("--executor", "thread", "--jobs", "2"),
        ],
        ids=["trace", "durable", "process", "thread"],
    )
    def test_report_byte_identical(self, plain, tmp_path, flags):
        path = tmp_path / "report.md"
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        code, _ = run_cli("report", *REPORT_SMALL, *flags, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == plain

    def test_generate_writes_the_reported_study(self, plain, tmp_path):
        code, text = run_cli("generate", *REPORT_SMALL, "--out", str(tmp_path))
        assert code == 0
        (jobs,) = re.findall(r"wrote (\d+) job records", text)
        assert f"* telemetry: {jobs} jobs over 3 months" in plain.decode()


class TestExperimentsListing:
    def test_lists_all_ids(self):
        code, text = run_cli("experiments")
        assert code == 0
        for eid in ("T1", "F8", "X1", "X10"):
            assert eid in text
        # Sorted numerically within each prefix: T2 before T10-style ids.
        lines = [l.split()[0] for l in text.strip().splitlines()]
        f_ids = [l for l in lines if l.startswith("F")]
        assert f_ids == sorted(f_ids, key=lambda s: int(s[1:]))


class TestRobustnessCli:
    def test_sweep_output(self):
        code, text = run_cli(
            "robustness", "--seeds", "2", "--baseline", "60", "--current", "80"
        )
        assert code == 0
        assert "python use rises" in text
        assert "direction 2/2" in text
        assert "weakest claim" in text
