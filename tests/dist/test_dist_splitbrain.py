"""The failure ladder beyond a single kill: split-brain partitions that
lease fencing must win, stragglers rescued by speculative duplicates,
poison steps that chew through workers until quarantined, and the
everyone-died endgame that must degrade instead of hang."""

import pytest

from repro.core.faults import CrashPoint, WorkerFaultPlan
from repro.core.pipeline import PipelineError

from tests.dist.conftest import (
    FAST,
    STEP_NAMES,
    artifact_bytes,
    assert_no_residue,
    assert_single_publishes,
    make_pipeline,
)


class TestSplitBrain:
    def test_partitioned_worker_races_its_replacement(
        self, tmp_path, sequential_artifacts
    ):
        """A worker stops heartbeating but keeps computing. The
        coordinator declares it dead, bumps the epoch, and a replacement
        recomputes the step — while the zombie finishes too and races the
        publish. Fencing must discard exactly one of them: the artifacts
        stay correct and the publish count stays 1."""
        opts = dict(FAST)
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=opts,
            # delay > lease_ttl so the partition is actually declared dead
            # while the zombie still intends to publish.
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "stats", "partition", seconds=0.6)]
            ),
        )
        assert artifact_bytes(results) == sequential_artifacts
        stats = pipeline.last_metrics.backend_stats
        assert len(stats["dead_workers"]) == 1
        assert stats["reassignments"] >= 1
        assert_single_publishes(pipeline.last_metrics)
        assert_no_residue(tmp_path / "fleet")

    def test_partition_on_root_step(self, tmp_path, sequential_artifacts):
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=dict(FAST),
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "gen", "partition", seconds=0.6)]
            ),
        )
        assert artifact_bytes(results) == sequential_artifacts
        assert_single_publishes(pipeline.last_metrics)
        assert_no_residue(tmp_path / "fleet")


class TestSpeculation:
    def test_straggler_rescued_by_speculative_twin(
        self, tmp_path, sequential_artifacts
    ):
        """A hung worker keeps heartbeating, so its lease never expires;
        only the speculation deadline can rescue the step. The twin runs
        under the *same* epoch — both executions are legitimate and
        first-writer-wins via the entry lock + peek."""
        opts = dict(FAST)
        opts["speculate_after"] = 0.15
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=opts,
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "double", "hang", seconds=1.0)]
            ),
        )
        assert artifact_bytes(results) == sequential_artifacts
        stats = pipeline.last_metrics.backend_stats
        assert stats["speculations"] >= 1
        assert stats["dead_workers"] == []
        assert_single_publishes(pipeline.last_metrics)
        assert_no_residue(tmp_path / "fleet")

    def test_no_speculation_when_disabled(self, tmp_path, sequential_artifacts):
        opts = dict(FAST)
        assert "speculate_after" not in opts  # default: disabled
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=opts,
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "double", "hang", seconds=0.4)]
            ),
        )
        assert artifact_bytes(results) == sequential_artifacts
        assert pipeline.last_metrics.backend_stats["speculations"] == 0


class TestPoisonQuarantine:
    def test_poison_step_quarantined_and_subtree_skipped(self, tmp_path):
        """A step that SIGKILLs every worker that touches it must not
        take the whole fleet down: after ``poison_threshold`` distinct
        dead workers it is quarantined exactly like an ``on_error=
        "keep_going"`` failure — downstream skipped, siblings complete."""
        opts = dict(FAST)
        opts["poison_threshold"] = 2
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=opts,
            on_error="keep_going",
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "double", "kill", count=len(STEP_NAMES))]
            ),
        )
        # gen and stats complete; double is poisoned; merge starves.
        assert set(results) == {"gen", "stats"}
        status = {o.name: o.status for o in pipeline.last_report.outcomes}
        assert status["double"] == "failed"
        assert status["merge"] == "skipped_upstream"
        stats = pipeline.last_metrics.backend_stats
        assert stats["quarantined"] == ["double"]
        assert len(stats["dead_workers"]) == opts["poison_threshold"]
        assert_no_residue(tmp_path / "fleet")

    def test_poison_step_raises_under_on_error_raise(self, tmp_path):
        opts = dict(FAST)
        opts["poison_threshold"] = 2
        pipeline = make_pipeline(tmp_path / "fleet")
        with pytest.raises(PipelineError, match="poison"):
            pipeline.run(
                executor="dist",
                backend_options=opts,
                fault_plan=WorkerFaultPlan(
                    [CrashPoint("worker", "task_start", "double", "kill", count=len(STEP_NAMES))]
                ),
            )
        assert_no_residue(tmp_path / "fleet")


class TestAllWorkersLost:
    def test_total_fleet_loss_degrades_instead_of_hanging(self, tmp_path):
        """Killing the whole fleet on the root step must end the run with
        a degraded report — never a hang waiting for heartbeats that will
        not come."""
        opts = dict(FAST)
        opts["workers"] = 2
        opts["poison_threshold"] = 5  # out of reach: exercise all-lost, not poison
        pipeline = make_pipeline(tmp_path / "fleet")
        results = pipeline.run(
            executor="dist",
            backend_options=opts,
            on_error="keep_going",
            fault_plan=WorkerFaultPlan(
                [CrashPoint("worker", "task_start", "gen", "kill", count=2)]
            ),
        )
        assert results == {}
        stats = pipeline.last_metrics.backend_stats
        assert stats["degraded_all_lost"] is True
        assert len(stats["dead_workers"]) == 2
        status = {o.name: o.status for o in pipeline.last_report.outcomes}
        assert status["gen"] == "failed"
        assert set(status.values()) <= {"failed", "skipped_upstream"}
        assert_no_residue(tmp_path / "fleet")
