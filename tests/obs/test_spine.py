"""The cross-process trace/metrics spine: segments, merge, determinism.

Covers the tentpole's acceptance shape: a 4-worker fleet with one
externally joined ``repro worker`` produces ONE merged Perfetto timeline
containing spans from every worker pid, and the *normalized* exports and
registry renderings stay byte-identical across repeated runs and across
executor modes.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.trace import Tracer
from repro.obs.registry import MetricsRegistry, registry_from_metrics
from repro.obs.spine import WorkerObs, load_segments, merge_segments, obs_dir

# Import the dist fixtures by their *package* path: the run spec pickles
# this suite's step functions, and an externally joined `repro worker`
# interpreter must be able to resolve their __module__.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.dist.conftest import (  # noqa: E402
    FAST,
    assert_no_residue,
    make_pipeline,
)

#: FAST, minus the aggressive lease/heartbeat timings: spine tests assert
#: exact task counts, so a slow CI box must not trigger spurious
#: reassignments (each of which re-executes a task on another worker).
CALM = dict(
    FAST, lease_ttl=5.0, heartbeat_interval=0.05, poll_interval=0.005
)


class TestWorkerObs:
    def test_flush_writes_cumulative_segment(self, tmp_path):
        obs_dir(tmp_path).mkdir()
        obs = WorkerObs(tmp_path, "w0")
        obs.record_task("gen", 1, "ok", 1, 10.0, 10.5)
        assert obs.flush()
        obs.record_task("double", 1, "retried", 2, 10.5, 11.0)
        assert obs.flush()
        segments = load_segments(tmp_path)
        assert len(segments) == 1
        seg = segments[0]
        assert seg["worker"] == "w0"
        assert seg["pid"] > 0
        names = [s["name"] for s in seg["spans"]]
        assert names == ["task:gen", "task:double", "worker:w0"]
        reg = MetricsRegistry.from_snapshot(seg["registry"])
        assert reg.value("repro_steps_total", outcome="ok") == 1
        assert reg.value("repro_steps_total", outcome="retried") == 1
        assert reg.histogram_count("repro_step_wall_seconds") == 2

    def test_flush_fails_open_when_run_dir_gone(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        obs_dir(run_dir).mkdir()
        obs = WorkerObs(run_dir, "w0")
        import shutil

        shutil.rmtree(run_dir)
        assert not obs.flush()  # degraded, never raised
        assert not run_dir.exists()  # and never resurrected the run dir

    def test_flush_racing_the_run_dir_sweep_leaves_no_residue(self, tmp_path, monkeypatch):
        """A straggler's last flush lands after the coordinator's rmtree
        has emptied ``obs/``: it must fail open, not survive the sweep."""
        import os

        from repro.dist.leases import cleanup_run_dir

        run_dir = tmp_path / "cache" / ".dist" / "run1"
        run_dir.mkdir(parents=True)
        obs = WorkerObs(run_dir, "w1")
        assert obs.flush()
        real_rmdir, late = os.rmdir, []

        def rmdir(*args, **kwargs):  # rmtree's first rmdir is the emptied obs/
            if not late:
                late.append(obs.flush())
            return real_rmdir(*args, **kwargs)

        monkeypatch.setattr(os, "rmdir", rmdir)
        cleanup_run_dir(run_dir)
        assert late == [False]  # the straggler's flush failed open
        assert_no_residue(tmp_path)

    def test_torn_segment_skipped(self, tmp_path):
        obs_dir(tmp_path).mkdir()
        obs = WorkerObs(tmp_path, "w0")
        obs.flush()
        (obs_dir(tmp_path) / "w1.segment.json").write_text("{torn", encoding="utf-8")
        segments = load_segments(tmp_path)
        assert [s["worker"] for s in segments] == ["w0"]


class TestMergeSegments:
    def test_spans_land_on_worker_lanes_with_pids(self, tmp_path):
        obs_dir(tmp_path).mkdir()
        tracer = Tracer()
        for wid, step in (("w0", "gen"), ("w1", "double")):
            obs = WorkerObs(tmp_path, wid)
            obs.record_task(step, 1, "ok", 1, tracer.epoch + 0.1, tracer.epoch + 0.2)
            obs.flush()
        stats = merge_segments(tmp_path, tracer=tracer)
        assert set(stats["workers"]) == {"w0", "w1"}
        raw = tracer.to_perfetto()
        lanes = {
            e["tid"]: e["args"]["worker_pid"]
            for e in raw["traceEvents"]
            if e.get("cat") == "wtask"
        }
        assert set(lanes) == {"dist:w0", "dist:w1"}
        assert all(pid > 0 for pid in lanes.values())
        merged = MetricsRegistry.from_snapshot(stats["registry"])
        assert merged.value("repro_steps_total", outcome="ok") == 2

    def test_skewed_clock_clamped_to_run_start(self, tmp_path):
        obs_dir(tmp_path).mkdir()
        tracer = Tracer()
        obs = WorkerObs(tmp_path, "w0")
        obs.record_task("gen", 1, "ok", 1, tracer.epoch - 100.0, tracer.epoch - 99.0)
        obs.flush()
        merge_segments(tmp_path, tracer=tracer)
        span = next(s for s in tracer.spans if s.cat == "wtask")
        assert span.start >= 0.0
        assert span.end >= span.start

    def test_merge_without_tracer_still_folds_registry(self, tmp_path):
        obs_dir(tmp_path).mkdir()
        obs = WorkerObs(tmp_path, "w0")
        obs.record_task("gen", 1, "ok", 1, 1.0, 2.0)
        obs.flush()
        stats = merge_segments(tmp_path)
        assert stats["workers"]["w0"] > 0
        reg = MetricsRegistry.from_snapshot(stats["registry"])
        assert reg.value("repro_steps_total", outcome="ok") == 1


class TestFleetSpine:
    def _run(self, tmp_path, name):
        tracer = Tracer()
        pipeline = make_pipeline(tmp_path / name)
        pipeline.run(executor="dist", backend_options=dict(CALM), trace=tracer)
        return tracer, pipeline.last_metrics

    def test_backend_stats_carries_fleet_registry(self, tmp_path):
        _, metrics = self._run(tmp_path, "a")
        stats = metrics.backend_stats
        assert set(stats["worker_pids"]) == {"w0", "w1", "w2", "w3"}
        reg = MetricsRegistry.from_snapshot(stats["registry"])
        # 4 steps ran exactly once, fleet-wide (CALM timings: no
        # spurious reassignment duplicating work).
        assert reg.value("repro_steps_total", outcome="ok") == 4
        assert reg.histogram_count("repro_step_wall_seconds") == 4
        assert_no_residue(tmp_path / "a")

    def test_every_worker_pid_in_merged_timeline(self, tmp_path):
        tracer, metrics = self._run(tmp_path, "a")
        raw = tracer.to_perfetto()
        lifecycle_pids = {
            e["args"]["worker_pid"]
            for e in raw["traceEvents"]
            if e.get("cat") == "worker"
        }
        # Even a worker that never won an assignment shows up via its
        # lifecycle span, carrying its real pid.
        assert lifecycle_pids == set(metrics.backend_stats["worker_pids"].values())
        assert len(lifecycle_pids) == 4

    def test_registry_render_excluded_from_metrics_render(self, tmp_path):
        _, metrics = self._run(tmp_path, "a")
        text = metrics.render()
        assert "registry" not in text
        assert "worker_pids" not in text

    def test_normalized_export_deterministic_across_runs(self, tmp_path):
        a, _ = self._run(tmp_path, "a")
        b, _ = self._run(tmp_path, "b")
        assert json.dumps(a.to_perfetto(normalize=True), sort_keys=True) == json.dumps(
            b.to_perfetto(normalize=True), sort_keys=True
        )

    def test_normalized_export_drops_spine_spans(self, tmp_path):
        tracer, _ = self._run(tmp_path, "a")
        cats = {e.get("cat") for e in tracer.to_perfetto(normalize=True)["traceEvents"]}
        assert "wtask" not in cats
        assert "worker" not in cats


class TestCrossExecutorDeterminism:
    def test_normalized_registry_rendering_identical_across_modes(self, tmp_path):
        """The PR-5 promise extended to the registry: sequential, thread,
        process, and dist runs of the same DAG produce byte-identical
        *normalized* registry renderings."""
        renderings = {}
        for mode in ("sequential", "thread", "process", "dist"):
            pipeline = make_pipeline(tmp_path / mode)
            if mode == "dist":
                pipeline.run(executor="dist", backend_options=dict(CALM))
                snap = pipeline.last_metrics.backend_stats["registry"]
                registry = MetricsRegistry.from_snapshot(snap)
            else:
                pipeline.run(executor=mode, max_workers=2)
                registry = registry_from_metrics(pipeline.last_metrics)
            renderings[mode] = registry.to_text(normalize=True)
        assert len(set(renderings.values())) == 1, renderings


class TestExternalJoinAcceptance:
    def test_external_worker_spans_in_single_merged_export(self, tmp_path):
        """The acceptance run: 4 workers, three forked by the test, one
        joined via the ``repro worker`` CLI — one merged Perfetto export
        with spans from every worker pid."""
        import multiprocessing

        from repro.dist.worker import worker_main

        opts = dict(CALM)
        opts.update(workers=4, spawn_workers=False, lease_ttl=10.0)
        tracer = Tracer()
        pipeline = make_pipeline(tmp_path / "fleet")
        box = {}

        def coordinate():
            try:
                box["results"] = pipeline.run(
                    executor="dist", backend_options=opts, trace=tracer
                )
            except BaseException as exc:
                box["error"] = exc

        thread = threading.Thread(target=coordinate)
        thread.start()
        procs = []
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

            # External worker first: it pays interpreter startup, and the
            # tiny DAG must not drain (ending the run and sweeping the
            # run dir) before it has even joined. Its initial spine flush
            # doubles as the join signal.
            external = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--dir", str(run_dir),
                    "--id", "w3",
                    "--join-timeout", "10",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=str(tmp_path),
                env=_pythonpath_env(),
            )
            segment = run_dir / "obs" / "w3.segment.json"
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not segment.exists():
                time.sleep(0.02)
            assert segment.exists(), "external worker never flushed its segment"

            ctx = multiprocessing.get_context("fork")
            for wid in ("w0", "w1", "w2"):
                proc = ctx.Process(
                    target=worker_main, args=(str(run_dir), wid), daemon=True
                )
                proc.start()
                procs.append(proc)
            _, external_err = external.communicate(timeout=60)
            assert external.returncode == 0, external_err
        finally:
            thread.join(timeout=60)
            for proc in procs:
                proc.join(timeout=10)
        assert not thread.is_alive(), "coordinator hung"
        assert "error" not in box, box.get("error")

        stats = pipeline.last_metrics.backend_stats
        pids = stats["worker_pids"]
        assert set(pids) == {"w0", "w1", "w2", "w3"}
        raw = tracer.to_perfetto()
        lifecycle_pids = {
            e["args"]["worker_pid"]
            for e in raw["traceEvents"]
            if e.get("cat") == "worker"
        }
        assert lifecycle_pids == set(pids.values())
        assert len(lifecycle_pids) == 4  # four distinct real processes
        # The externally joined worker is a distinct pid from the forked
        # three (it came from a whole separate interpreter).
        reg = MetricsRegistry.from_snapshot(stats["registry"])
        assert reg.value("repro_steps_total", outcome="ok") == 4
        assert_no_residue(tmp_path / "fleet")


def _pythonpath_env():
    import os

    env = dict(os.environ)
    repo = Path(__file__).resolve().parents[2]
    extra = [str(repo / "src"), str(repo)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env
