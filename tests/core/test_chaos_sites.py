"""The process-level chaos table: one ``SITES`` row per injection site,
one coordinate type validated against it, one enumerator, and the
fork-and-reap helper every SIGKILL matrix runs through."""

import os
import signal
import time

import pytest

from repro.core.faults import (
    MODES,
    SITES,
    CrashPoint,
    KillSwitch,
    WorkerFaultPlan,
    coordinates,
    crash_in_child,
    run_until_crash,
)
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep
from repro.dist.worker import WORKER_EVENTS
from repro.serve.wal import KINDS

STEPS = ("gen", "double", "stats", "merge")
SERVE_STEPS = ("responses", "telemetry", "study", "exp:X1")


def _sleep(inputs):
    time.sleep(30.0)


class TestSites:
    def test_each_owner_reads_its_events_from_the_table(self):
        assert SITES["worker"] is WORKER_EVENTS
        assert SITES["wal"] == KINDS
        assert SITES["journal"] == ("step_start", "step_done")
        assert set(MODES) == set(SITES)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(site="disk", event="step_done", step="s"), "unknown chaos site"),
            (dict(site="journal", event="run_start", step="s"), "unknown journal event"),
            (dict(site="wal", event="step_done"), "unknown wal event"),
            (dict(site="journal", event="step_done", step="s", mode="kill"), "journal mode"),
            (dict(site="worker", event="task_start", step="s", mode="torn"), "worker mode"),
            (dict(site="journal", event="step_done"), "others need one"),
            (dict(site="wal", event="sacct", step="s"), "takes no step"),
            (dict(site="wal", event="sacct", nth=-1), "nth=-1"),
            (dict(site="worker", event="task_start", step="s", count=0), "count=0"),
            (dict(site="worker", event="task_start", step="s", seconds=-1.0), "seconds=-1.0"),
        ],
    )
    def test_crash_point_is_validated_against_the_table(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CrashPoint(**kwargs)

    def test_mode_defaults_per_site(self):
        assert CrashPoint("journal", "step_done", "s").mode == "after"
        assert CrashPoint("wal", "responses").mode == "after"
        assert CrashPoint("worker", "task_start", "s").mode == "kill"

    def test_hooks_take_only_their_own_sites(self):
        with pytest.raises(ValueError, match="WorkerFaultPlan"):
            KillSwitch(CrashPoint("worker", "task_start", "s"))
        with pytest.raises(ValueError, match="worker points"):
            WorkerFaultPlan([CrashPoint("journal", "step_done", "s")])
        KillSwitch(CrashPoint("wal", "sacct", mode="torn", nth=3))
        WorkerFaultPlan([CrashPoint("worker", "after_result", "s", "hang", seconds=0.1)])


class TestCoordinates:
    def test_matrix_sizes(self):
        assert len(coordinates("journal", STEPS)) == 24  # crash-resume
        assert len(coordinates("journal", SERVE_STEPS)) == 24  # serve recompute
        assert len(coordinates("wal", nths=(0, 3))) == 12  # serve ingest
        assert len(coordinates("worker", STEPS)) == 16  # dist kill matrix

    def test_order_is_step_event_nth_mode(self):
        journal = coordinates("journal", STEPS)
        assert [(p.step, p.event, p.mode) for p in journal[:4]] == [
            ("gen", "step_start", "before"),
            ("gen", "step_start", "torn"),
            ("gen", "step_start", "after"),
            ("gen", "step_done", "before"),
        ]
        wal = coordinates("wal", nths=(0, 3))
        assert [(p.event, p.nth, p.mode) for p in wal[2:5]] == [
            ("responses", 0, "after"),
            ("responses", 3, "before"),
            ("responses", 3, "torn"),
        ]
        worker = coordinates("worker", STEPS)
        assert {p.mode for p in worker} == {"kill"}
        assert [(p.step, p.event) for p in worker[:5]] == [
            ("gen", e) for e in WORKER_EVENTS
        ] + [("double", "task_start")]

    def test_modes_can_be_narrowed(self):
        points = coordinates("worker", ("s",), modes=("hang",))
        assert [p.mode for p in points] == ["hang"] * len(WORKER_EVENTS)


class TestCrashInChild:
    def test_exit_codes_pass_through(self):
        assert crash_in_child(lambda: None) == 0
        killed = crash_in_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert killed == -signal.SIGKILL

    def test_hung_child_is_a_timeout_not_a_crash(self, tmp_path):
        """A child that never reaches its kill switch must not come back
        as -9: every caller reads that as "the crash fired" and resumes."""

        def factory():
            return Pipeline([PipelineStep("slow", _sleep)], ArtifactCache(tmp_path / "c"))

        point = CrashPoint("journal", "step_done", "never")
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="timeout=1.0"):
            run_until_crash(factory, tmp_path / "journals", point, timeout=1.0)
        assert time.monotonic() - t0 < 8.0
