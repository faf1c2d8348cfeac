"""The fleet worker loop: poll assignments, execute, fence, publish.

A worker is an independent *process* (forked by the coordinator, or
joined from anywhere via ``repro worker``) that shares nothing with the
coordinator but the run directory and the artifact cache. It learns the
pipeline from ``spec.pkl``, discovers work by polling the assignment
records, and reports through result files — so a worker on another host
behaves identically to one forked locally.

Execution of one task::

    chaos("task_start")                      # kill / hang / partition
    lease = FileLock(leases/<step>.lease)    # crashed holders auto-reclaim
    inputs = cache.peek(key(dep)) ...        # deps are already published
    value = _attempt_loop(step, ...)         # the pipeline's loop, no pool:
                                             # retries + cooperative timeout
    with cache entry lock:                   # per-key single flight
        if cache.peek(key): outcome=cached   # someone already published
        elif not fence_current(): fenced     # our lease expired — discard
        else:
            chaos("before_publish")
            cache.put(key, value)            # atomic; first writer wins
            chaos("after_publish")
    write result file
    chaos("after_result")

The **fence** is what wins split-brain: a partitioned worker (heartbeats
stopped, compute continuing) re-reads the assignment record inside the
entry lock immediately before publishing; if the coordinator has bumped
the epoch and handed the step to a replacement, the stale worker discards
its value. Combined with peek-before-put under the entry lock, every step
is published **at most once** no matter how many replacements and
speculative duplicates raced for it.

Lock acquisition is bounded (``config.lock_timeout``) and degrades to
lockless execution on expiry: values are deterministic and publishes
atomic, so the worst case for a wedged lock holder is one duplicated
compute — never a stall, never a corrupt artifact.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.faults import SITES
from repro.core.pipeline import (
    ArtifactCache,
    PipelineStep,
    RetryPolicy,
    StepTimeout,
    _attempt_loop,
)
from repro.dist.leases import (
    TaskResult,
    assignment_current,
    iter_assignments,
    lease_path,
    log_event,
    stop_requested,
    write_result,
)
from repro.dist.heartbeats import HeartbeatWriter
from repro.io.locks import FileLock, LockTimeout
from repro.obs.spine import WorkerObs

__all__ = ["DistConfig", "RunSpec", "worker_main", "load_spec", "write_spec"]

#: Worker-side chaos coordinates, in execution order: the ``worker`` row of
#: :data:`repro.core.faults.SITES`. The kill matrix in tests/dist
#: parametrizes over (step, event) pairs drawn from these.
WORKER_EVENTS = SITES["worker"]


@dataclass(frozen=True)
class DistConfig:
    """Tunable knobs for the fleet. All coordination-timing only — none of
    these participate in cache keys, so fleet configuration never
    invalidates artifacts (same rule as retry/journal/trace config).

    Attributes
    ----------
    workers:
        Fleet size when the coordinator forks its own workers.
    heartbeat_interval:
        Worker heartbeat period.
    lease_ttl:
        Heartbeat silence after which a worker's leases are expired and
        its in-flight steps reassigned. Must comfortably exceed
        ``heartbeat_interval``.
    poll_interval:
        Worker sleep between assignment scans.
    tick_interval:
        Coordinator sleep between scheduling ticks.
    speculate_after:
        Straggler deadline: an in-flight step on a *live* worker older
        than this gets a speculative duplicate on an idle worker
        (first-writer-wins). ``None`` disables speculation.
    poison_threshold:
        Distinct dead workers a single step may consume before it is
        quarantined as poisoned (terminal failure, downstream skipped).
    lock_timeout:
        Budget for lease / cache-entry lock acquisition before a worker
        proceeds locklessly.
    spawn_workers:
        When False the coordinator forks nothing and waits for external
        ``repro worker`` processes to join the run directory.
    worker_grace:
        Shutdown budget for workers to drain after the stop sentinel
        appears; stragglers are terminated, then killed.
    """

    workers: int = 4
    heartbeat_interval: float = 0.1
    lease_ttl: float = 1.0
    poll_interval: float = 0.02
    tick_interval: float = 0.02
    speculate_after: float | None = None
    poison_threshold: int = 2
    lock_timeout: float = 5.0
    spawn_workers: bool = True
    worker_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.lease_ttl <= self.heartbeat_interval:
            raise ValueError(
                f"lease_ttl ({self.lease_ttl}) must exceed heartbeat_interval "
                f"({self.heartbeat_interval}) or every worker looks dead"
            )
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs, serialized into the run directory.

    Workers never receive in-memory state: the spec is written once by
    the coordinator and loaded from disk by every worker, which keeps the
    protocol honest for workers on other hosts.
    """

    run_id: str
    steps: tuple[PipelineStep, ...]
    keys: Mapping[str, str]
    retries: Mapping[str, RetryPolicy]
    timeouts: Mapping[str, float | None]
    cache_root: str
    cache_locking: bool
    force: bool
    config: DistConfig
    chaos: Any | None = None  # WorkerFaultPlan, bound per worker at start

    def step(self, name: str) -> PipelineStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def write_spec(run_dir: Path, spec: RunSpec) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    tmp = run_dir / f"spec.pkl.{os.getpid()}.tmp"
    tmp.write_bytes(pickle.dumps(spec))
    os.replace(tmp, run_dir / "spec.pkl")


def load_spec(run_dir: Path, timeout: float | None = None) -> RunSpec:
    """Load the run spec, optionally waiting for the coordinator to write it.

    The wait path serves externally-joined ``repro worker`` processes that
    may be started before the coordinator has materialized the run dir.
    """
    path = Path(run_dir) / "spec.pkl"
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            return pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError):
            if deadline is None or time.monotonic() >= deadline:
                raise FileNotFoundError(f"no run spec at {path}")
            time.sleep(0.05)


# -- task execution ------------------------------------------------------------


@dataclass
class _WorkerState:
    run_dir: Path
    worker_id: str
    spec: RunSpec
    cache: ArtifactCache
    heartbeat: HeartbeatWriter
    chaos: Any | None = None
    obs: Any | None = None
    handled: set[tuple[str, int]] = field(default_factory=set)


def _fire_chaos(state: _WorkerState, step: str, event: str) -> None:
    if state.chaos is not None:
        state.chaos.fire(step, event)


def _gather_inputs(state: _WorkerState, step: PipelineStep) -> dict[str, Any] | None:
    """Dependency values from the cache, or None when one is unreadable.

    The coordinator only assigns frontier steps (every dep published), so
    a missing dep means the cache entry vanished or never persisted
    (``cache_unavailable`` upstream) — the worker reports it rather than
    blocking.
    """
    inputs: dict[str, Any] = {}
    for dep in step.depends_on:
        value = state.cache.peek(state.spec.keys[dep])
        if value is None:
            return None
        inputs[dep] = value
    return inputs


def _acquire_bounded(lock: FileLock | None, budget: float) -> bool:
    """Acquire with a budget; False = proceed locklessly (wedged holder)."""
    if lock is None:
        return False
    try:
        lock.acquire(timeout=budget)
        return True
    except LockTimeout:
        return False


def _execute_task(state: _WorkerState, step_name: str, epoch: int) -> None:
    spec, cache, run_dir = state.spec, state.cache, state.run_dir
    worker = state.worker_id
    step = spec.step(step_name)
    key = spec.keys[step_name]
    t0 = time.perf_counter()
    t0_wall = time.time()
    log_event(run_dir, worker, "task_start", step=step_name, epoch=epoch)
    _fire_chaos(state, step_name, "task_start")

    lease = FileLock(lease_path(run_dir, step_name))
    lease_held = _acquire_bounded(lease, spec.config.lock_timeout)
    outcome, attempts, error = "ok", 0, ""
    published = stored = False
    try:
        value = None if spec.force else cache.peek(key)
        if value is not None:
            outcome, stored = "cached", True
        else:
            inputs = _gather_inputs(state, step)
            if inputs is None:
                outcome = "failed"
                error = f"dist worker {worker}: upstream artifact unreadable"
            else:
                # Every timeout here is cooperative: a worker cannot hard-kill
                # part of itself, and a truly wedged step is the
                # coordinator's problem (lease expiry / speculation).
                counter: dict[str, Any] = {}
                try:
                    value = _attempt_loop(
                        step, inputs, spec.retries[step_name],
                        spec.timeouts.get(step_name), counter,
                    )
                except StepTimeout as exc:
                    outcome, error = "timeout", repr(exc)
                except Exception as exc:
                    outcome, error = "failed", repr(exc)
                else:
                    attempts = counter["attempts"]
                    outcome = "retried" if attempts > 1 else "ok"
                    published, stored = _publish(state, step_name, key, epoch, value)
                    if published is None:  # fenced: lease lost mid-compute
                        outcome, published = "fenced", False
    finally:
        if lease_held:
            lease.release()
    wall = time.perf_counter() - t0
    write_result(
        run_dir,
        TaskResult(
            step=step_name, epoch=epoch, worker=worker, outcome=outcome,
            attempts=attempts, published=bool(published), stored=stored,
            wall=wall, error=error,
        ),
    )
    if state.obs is not None:
        state.obs.record_task(step_name, epoch, outcome, attempts, t0_wall, time.time())
        state.obs.flush()
    _fire_chaos(state, step_name, "after_result")


def _publish(
    state: _WorkerState, step_name: str, key: str, epoch: int, value: Any
) -> tuple[bool | None, bool]:
    """Fenced, single-flight publish; returns (published, stored).

    ``published=None`` signals a fence rejection — the computed value was
    discarded because this worker's lease expired while it computed.
    """
    cache, run_dir, worker = state.cache, state.run_dir, state.worker_id
    entry_lock = cache._entry_lock(key)
    locked = _acquire_bounded(entry_lock, state.spec.config.lock_timeout)
    try:
        if not state.spec.force and cache.peek(key) is not None:
            # A speculative twin or prior epoch already published; ours is
            # byte-identical by construction, so simply drop it.
            log_event(run_dir, worker, "publish_skipped", step=step_name, reason="cached")
            return False, True
        if not assignment_current(run_dir, step_name, worker, epoch):
            log_event(run_dir, worker, "fenced", step=step_name, epoch=epoch)
            return None, False
        _fire_chaos(state, step_name, "before_publish")
        stored = cache.put(key, value)
        if stored:
            log_event(run_dir, worker, "publish", step=step_name, key=key)
        _fire_chaos(state, step_name, "after_publish")
        return True, stored
    finally:
        if locked:
            entry_lock.release()


# -- the worker loop -----------------------------------------------------------


def worker_main(
    run_dir: str | Path,
    worker_id: str,
    *,
    join_timeout: float | None = None,
) -> int:
    """Run one fleet worker until the stop sentinel appears; returns exit code.

    Entry point for both coordinator-forked workers and the ``repro
    worker`` CLI. ``KeyboardInterrupt`` drains cleanly: held leases are
    released by the in-flight task's ``finally``, the heartbeat file is
    left for the coordinator to sweep, and the exit code is 130 (the
    PR-4 interrupt convention).
    """
    run_dir = Path(run_dir)
    try:
        spec = load_spec(run_dir, timeout=join_timeout)
    except FileNotFoundError as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    cache = ArtifactCache(spec.cache_root, locking=spec.cache_locking)
    heartbeat = HeartbeatWriter(
        run_dir / "heartbeats" / f"{worker_id}.hb",
        interval=spec.config.heartbeat_interval,
    )
    state = _WorkerState(
        run_dir=run_dir, worker_id=worker_id, spec=spec, cache=cache,
        heartbeat=heartbeat,
    )
    if spec.chaos is not None:
        state.chaos = spec.chaos.bind(run_dir, worker_id, heartbeat)
    state.obs = WorkerObs(run_dir, worker_id)
    state.obs.flush()  # visible in the spine even before the first task
    heartbeat.start()
    try:
        # A vanished run directory is as final as the stop sentinel: the
        # coordinator sweeps the whole dir on its way out, and an external
        # worker polling at its own cadence can miss the brief window in
        # which the sentinel exists.
        while not stop_requested(run_dir) and run_dir.is_dir():
            claimed = False
            for assignment in iter_assignments(run_dir):
                if worker_id not in assignment.workers:
                    continue
                token = (assignment.step, assignment.epoch)
                if token in state.handled:
                    continue
                state.handled.add(token)
                claimed = True
                _execute_task(state, assignment.step, assignment.epoch)
            if not claimed:
                time.sleep(spec.config.poll_interval)
        return 0
    except KeyboardInterrupt:
        return 130
    finally:
        state.obs.flush()
        heartbeat.stop()


def _forked_worker(run_dir: str, worker_id: str) -> None:  # pragma: no cover - child
    """Process target for coordinator-forked workers."""
    raise SystemExit(worker_main(run_dir, worker_id))
