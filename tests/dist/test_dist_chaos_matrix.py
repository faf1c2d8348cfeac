"""The fleet kill matrix: SIGKILL one worker at every (step, event)
coordinate of the diamond DAG.

For every coordinate the invariants are identical: the run completes, the
artifacts are byte-identical to an uninterrupted sequential run, exactly
one cache publish happened per step fleet-wide, and the run directory
(leases, heartbeats, assignments) plus any stranded publish temp files
are gone afterwards. The kill is detected by the coordinator's same-host
pid probe, the dead worker's lease is expired, and a survivor re-executes
the step under a bumped fencing epoch.
"""

import pytest

from repro.core.faults import CrashPoint, WorkerFaultPlan, coordinates
from repro.dist.worker import WORKER_EVENTS

from tests.dist.conftest import (
    FAST,
    STEP_NAMES,
    artifact_bytes,
    assert_no_residue,
    assert_single_publishes,
    make_pipeline,
)

COORDINATES = coordinates("worker", STEP_NAMES)


def test_matrix_covers_every_coordinate():
    assert len(COORDINATES) == len(STEP_NAMES) * len(WORKER_EVENTS)
    assert {(k.step, k.event) for k in COORDINATES} == {
        (s, e) for s in STEP_NAMES for e in WORKER_EVENTS
    }


@pytest.mark.parametrize(
    "kill", COORDINATES, ids=[f"{k.step}-{k.event}" for k in COORDINATES]
)
def test_kill_one_worker_anywhere(kill, tmp_path, sequential_artifacts):
    pipeline = make_pipeline(tmp_path / "fleet")
    results = pipeline.run(
        executor="dist",
        backend_options=dict(FAST),
        fault_plan=WorkerFaultPlan([kill]),
    )
    assert artifact_bytes(results) == sequential_artifacts

    stats = pipeline.last_metrics.backend_stats
    # A kill at after_result fires once the worker has already reported:
    # the run may complete before the coordinator's next liveness check,
    # so observing that death is optional. Any earlier coordinate leaves
    # the step unreported, which *forces* the coordinator to notice the
    # death and hand the step to a survivor.
    if kill.event == "after_result":
        assert len(stats["dead_workers"]) <= 1
    else:
        assert len(stats["dead_workers"]) == 1
        assert stats["reassignments"] >= 1
    assert stats["quarantined"] == []
    assert stats["degraded_all_lost"] is False

    assert_single_publishes(pipeline.last_metrics)
    assert_no_residue(tmp_path / "fleet")


def test_kill_two_workers_still_recovers(tmp_path, sequential_artifacts):
    """Two distinct workers die on the same step — one short of the
    default poison threshold of... exactly the threshold, so raise it."""
    opts = dict(FAST)
    opts["poison_threshold"] = 3
    pipeline = make_pipeline(tmp_path / "fleet")
    results = pipeline.run(
        executor="dist",
        backend_options=opts,
        fault_plan=WorkerFaultPlan([CrashPoint("worker", "task_start", "double", "kill", count=2)]),
    )
    assert artifact_bytes(results) == sequential_artifacts
    stats = pipeline.last_metrics.backend_stats
    assert len(stats["dead_workers"]) == 2
    assert stats["quarantined"] == []
    assert_single_publishes(pipeline.last_metrics)
    assert_no_residue(tmp_path / "fleet")
