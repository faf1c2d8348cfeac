"""Fleet mode: a fault-tolerant coordinator/worker execution backend.

``Pipeline.run(executor="dist")`` hands the DAG to a coordinator
(:mod:`repro.dist.coordinator`) that schedules frontier steps onto N
independent worker *processes* (:mod:`repro.dist.worker`). The fleet is
multi-host-shaped: every byte of coordination — run spec, assignment
records, lease files, heartbeats, results — lives in a run directory
inside the shared :class:`~repro.core.pipeline.ArtifactCache` filesystem
(:mod:`repro.dist.leases`, :mod:`repro.dist.heartbeats`), never in an
in-memory channel, so ``repro worker`` processes on other machines can
join the same run.

Robustness model: leases expire on missed heartbeats and in-flight steps
are reassigned under a bumped fencing epoch; a step that kills
``poison_threshold`` distinct workers is quarantined as poisoned;
stragglers get speculative duplicates (first-writer-wins); a total fleet
loss degrades the run to a DEGRADED report instead of hanging. Artifact
publishes stay at-most-once throughout via the cache's atomic put,
per-key entry locks, and the pre-publish fence check. Worker-level chaos
(``worker`` points of :class:`~repro.core.faults.CrashPoint` in a
:class:`~repro.core.faults.WorkerFaultPlan`, modes ``kill`` / ``hang`` /
``partition``) injects exactly these failures for the test matrix.
"""

from repro.dist.coordinator import run_coordinator
from repro.dist.heartbeats import FleetMonitor, Heartbeat, HeartbeatWriter, read_heartbeat
from repro.dist.worker import DistConfig, RunSpec, WORKER_EVENTS, load_spec, worker_main

__all__ = [
    "DistConfig",
    "FleetMonitor",
    "Heartbeat",
    "HeartbeatWriter",
    "RunSpec",
    "WORKER_EVENTS",
    "load_spec",
    "read_heartbeat",
    "run_coordinator",
    "worker_main",
]
