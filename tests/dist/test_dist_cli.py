"""CLI surface of fleet mode: the ``repro worker`` join command,
``repro report --executor dist``, and exit-code conventions."""

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main

from tests.dist.conftest import (
    FAST,
    artifact_bytes,
    assert_no_residue,
    make_pipeline,
)


def _run_cli(*argv):
    import io

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestWorkerCommand:
    def test_missing_spec_exits_2(self, tmp_path):
        code, output = _run_cli(
            "worker",
            "--dir", str(tmp_path / "no-such-run"),
            "--id", "w0",
            "--join-timeout", "0.2",
        )
        assert code == 2
        assert "no run spec" in output

    def test_external_worker_joins_and_drains_the_run(
        self, tmp_path, sequential_artifacts
    ):
        """A coordinator with ``spawn_workers=False`` forks nothing; a
        ``repro worker`` subprocess — the multi-host join path — must
        execute the whole DAG through the shared run directory."""
        opts = dict(FAST)
        opts.update(
            workers=1,
            spawn_workers=False,
            # Generous ttl: the external worker pays interpreter startup
            # before its first heartbeat, and must not be declared dead
            # meanwhile.
            lease_ttl=10.0,
            heartbeat_interval=0.05,
        )
        pipeline = make_pipeline(tmp_path / "fleet")
        box = {}

        def coordinate():
            try:
                box["results"] = pipeline.run(executor="dist", backend_options=opts)
            except BaseException as exc:  # surfaced in the main thread
                box["error"] = exc

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            dist_root = tmp_path / "fleet" / "cache" / ".dist"
            deadline = time.monotonic() + 10.0
            run_dir = None
            while time.monotonic() < deadline:
                run_dirs = list(dist_root.glob("*")) if dist_root.exists() else []
                if run_dirs:
                    run_dir = run_dirs[0]
                    break
                time.sleep(0.02)
            assert run_dir is not None, "coordinator never published a run dir"

            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--dir", str(run_dir),
                    "--id", "w0",
                    "--join-timeout", "10",
                ],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=str(tmp_path),
                env=_pythonpath_env(),
            )
            assert proc.returncode == 0, proc.stderr
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive(), "coordinator hung"
        assert "error" not in box, box.get("error")
        assert artifact_bytes(box["results"]) == sequential_artifacts
        assert_no_residue(tmp_path / "fleet")


def _pythonpath_env():
    import os

    env = dict(os.environ)
    repo = Path(__file__).resolve().parents[2]
    # src for the repro package; the repo root so the worker can unpickle
    # this suite's step functions (they live in tests.dist.conftest).
    extra = [str(repo / "src"), str(repo)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env


class TestReportFlags:
    def test_workers_must_be_positive(self):
        code, output = _run_cli("report", "--executor", "dist", "--jobs", "0")
        assert code == 2
        assert "--jobs" in output

    def test_bench_exposes_dist_overhead_gate(self):
        # The dist gate's limit lives in the gate table, not in a flag.
        from repro.cli import build_parser
        from repro.core.bench import GATES

        (row,) = [g for g in GATES if g.benchmark == "dist_overhead"]
        assert (row.kind, row.limit) == ("seconds", pytest.approx(0.25))
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--max-dist-overhead", "0.25"])
