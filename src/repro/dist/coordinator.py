"""The fleet coordinator: schedule DAG frontier steps onto worker processes.

This is the ``executor="dist"`` backend. The coordinator owns the
scheduling state (frontier, leases, poison counts) and the run-level
durability surfaces (journal, tracer, metrics); workers own nothing but
their current task. All coordination flows through the run directory in
the shared cache filesystem — see :mod:`repro.dist.leases` for the file
protocol — so the fleet is multi-host-shaped even when every worker is a
local fork.

Failure handling, in increasing order of severity:

* **Worker death** (SIGKILL, OOM, lost host): detected by the
  :class:`~repro.dist.heartbeats.FleetMonitor` (same-host pid probe or
  heartbeat-counter staleness past ``lease_ttl``). The dead worker's
  in-flight steps are reassigned to surviving idle workers under a bumped
  epoch; the old epoch's publishes are fenced off by the assignment
  record, and at-most-once publish is preserved by the cache entry lock +
  peek-before-put (see :mod:`repro.dist.worker`).
* **Poisoned step**: a step that consumes ``poison_threshold`` distinct
  workers is quarantined — a terminal failure whose dependents are
  skipped exactly like any other failed step's.
* **Straggler**: an in-flight step on a *live* worker older than
  ``speculate_after`` gets a speculative duplicate at the same epoch on
  an idle worker; whichever publishes first wins, the other observes the
  published value and stands down.
* **Total fleet loss**: every in-flight and ready step is marked failed
  ("all workers lost"), which skips everything still blocked behind
  them, and the run returns a DEGRADED
  :class:`~repro.core.metrics.RunReport` (CLI exit 3) instead of hanging.

Every outcome is written through the pipeline's one settle path
(``_Run.settle``), so a fleet run's report, trace and journal agree with
each other and with the in-process executors'.

``KeyboardInterrupt`` propagates after the ``finally`` block has stopped
the fleet and removed the run directory (leases and heartbeats included),
so an interrupted dist run leaves only the journal and cache — exactly
what ``--resume`` needs.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.logging import get_logger, kv
from repro.dist import leases as lease_io
from repro.dist.heartbeats import FleetMonitor
from repro.dist.worker import DistConfig, RunSpec, _forked_worker, write_spec
from repro.obs.spine import merge_segments

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import _Run

_log = get_logger(__name__)

__all__ = ["run_coordinator"]

_mp = multiprocessing.get_context("fork")


@dataclass
class _Flight:
    """Coordinator-side view of one in-flight step."""

    step: str
    epoch: int
    workers: set[str]
    assigned_at: float  # perf_counter of the *current* epoch's assignment
    ready_at: float  # when the step's last dependency resolved
    first_assigned_at: float
    trace_start: float  # tracer.now() at first assignment
    speculated: bool = False
    killed_by: set[str] = field(default_factory=set)  # dead workers consumed


def _resolve_config(
    options: Mapping[str, Any] | None, workers: int, requested_workers: int | None
) -> DistConfig:
    loose = dict(options or {})
    config = loose.pop("config", None)
    if config is None:
        loose.setdefault("workers", workers)
        return DistConfig(**loose)
    if loose:
        raise ValueError(
            f"backend_options mixes a DistConfig with loose keys {sorted(loose)}"
        )
    if requested_workers is not None:
        config = replace(config, workers=requested_workers)
    return config


def run_coordinator(
    run: "_Run",
    options: Mapping[str, Any] | None = None,
    requested_workers: int | None = None,
) -> dict[str, Any]:
    """Execute a pipeline run on a worker fleet; the ``dist`` executor body.

    ``options`` is ``Pipeline.run``'s ``backend_options``;
    ``requested_workers`` is its ``max_workers`` exactly as passed (None =
    unspecified), so an explicit request overrides a ``DistConfig``.
    """
    from repro.core.pipeline import PipelineError

    pipeline = run.pipeline
    cache = pipeline.cache
    if cache.root is None:
        raise PipelineError(
            "executor='dist' needs a disk-backed ArtifactCache: workers are "
            "separate processes and the cache directory is the only channel "
            "between them"
        )
    if not pipeline._picklable():
        raise PipelineError(
            "executor='dist' requires every step function and param to pickle "
            "(workers load the pipeline from the run spec)"
        )
    chaos = run.fault_plan
    if chaos is not None and not hasattr(chaos, "bind"):
        raise PipelineError(
            "executor='dist' takes worker-level chaos (repro.core.faults."
            "WorkerFaultPlan); coordinator-side FaultPlan injection has no "
            "worker process to fire in"
        )
    config = _resolve_config(options, run.metrics.max_workers, requested_workers)
    run.metrics.max_workers = config.workers

    run_id = run.journal.run_id if run.journal is not None else None
    if run_id is None:
        from repro.core.journal import new_run_id

        run_id = new_run_id()
    run_dir = lease_io.run_dir_for(cache.root, run_id)
    spec = RunSpec(
        run_id=run_id,
        steps=tuple(pipeline.steps),
        keys=dict(run.keys),
        retries={s.name: pipeline._policy_for(s) for s in pipeline.steps},
        timeouts={s.name: pipeline._timeout_for(s) for s in pipeline.steps},
        cache_root=str(cache.root),
        cache_locking=cache.locking,
        force=run.force,
        config=config,
        chaos=chaos,
    )
    write_spec(run_dir, spec)

    worker_ids = [f"w{i}" for i in range(config.workers)]
    monitor = FleetMonitor(run_dir / "heartbeats", config.lease_ttl)
    for wid in worker_ids:
        monitor.register(wid)
    procs: dict[str, multiprocessing.process.BaseProcess] = {}
    if config.spawn_workers:
        for wid in worker_ids:
            proc = _mp.Process(
                target=_forked_worker, args=(str(run_dir), wid), daemon=True
            )
            proc.start()
            procs[wid] = proc

    sched = _Scheduler(run, config, run_dir, monitor)
    try:
        sched.replay_resumed()
        sched.seed_frontier()
        while not sched.finished():
            sched.tick()
            if sched.pending_raise is not None:
                break
            time.sleep(config.tick_interval)
    finally:
        lease_io.signal_stop(run_dir)
        _stop_workers(procs, config.worker_grace)
        stats = sched.fleet_stats()
        spine = merge_segments(run_dir, tracer=run.tracer)
        stats["worker_pids"] = spine["workers"]
        stats["registry"] = spine["registry"]
        run.metrics.backend_stats = stats
        lease_io.sweep_dead_tmp(cache.root)
        lease_io.cleanup_run_dir(run_dir)
    if sched.pending_raise is not None:
        raise sched.pending_raise
    return sched.collect_values()


def _stop_workers(procs: dict[str, Any], grace: float) -> None:
    deadline = time.monotonic() + grace
    for proc in procs.values():
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in procs.values():
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate() refused
            proc.kill()
            proc.join(timeout=1.0)


class _Scheduler:
    """All coordinator state for one run; one ``tick()`` per scheduling beat."""

    def __init__(
        self, run: "_Run", config: DistConfig, run_dir: Path, monitor: FleetMonitor
    ) -> None:
        self.run = run
        self.cache = run.pipeline.cache
        self.config = config
        self.run_dir = run_dir
        self.monitor = monitor
        self.order = list(run.keys)
        self.done: set[str] = set()
        self.unavailable: set[str] = set()
        self.in_flight: dict[str, _Flight] = {}
        self.ready: list[str] = []
        self.ready_at: dict[str, float] = {}
        self.pending_deps: dict[str, set[str]] = {
            s.name: set(s.depends_on) for s in run.pipeline.steps
        }
        self.dependents: dict[str, list[str]] = {name: [] for name in self.order}
        for s in run.pipeline.steps:
            for dep in s.depends_on:
                self.dependents[dep].append(s.name)
        self.known_dead: set[str] = set()
        self.reassignments = 0
        self.speculations = 0
        self.quarantined: list[str] = []
        self.degraded_all_lost = False
        self.pending_raise: BaseException | None = None

    # -- lifecycle -------------------------------------------------------------

    def finished(self) -> bool:
        return len(self.done) + len(self.unavailable) >= len(self.order)

    def replay_resumed(self) -> None:
        """Serve journal-completed steps straight from the cache (PR-4)."""
        run = self.run
        if run.resume is None or run.force:
            return
        for name in self.order:
            key = run.keys[name]
            if run.resume.completed.get(name) != key:
                continue
            value = self.cache.peek(key)
            if value is None:
                continue  # artifact vanished; the step re-executes normally
            self.cache.hits += 1
            if run.journal is not None:
                run.journal.step_start(name, key)
            self.done.add(name)
            run.settle(name, "replayed", compute=0.0)

    def seed_frontier(self) -> None:
        now = time.perf_counter()
        for name in self.order:
            if name in self.done:
                continue
            self.pending_deps[name] -= self.done
            if not self.pending_deps[name]:
                self.ready.append(name)
                self.ready_at[name] = now

    def tick(self) -> None:
        advanced = self.monitor.observe()
        self._trace_renewals(advanced)
        self.collect_results()
        self.handle_deaths()
        self.maybe_speculate()
        self.assign_ready()
        self.check_all_lost()

    # -- results ---------------------------------------------------------------

    def collect_results(self) -> None:
        for result in lease_io.iter_results(self.run_dir):
            flight = self.in_flight.get(result.step)
            if (
                flight is None
                or result.epoch != flight.epoch
                or result.worker not in flight.workers
                or result.outcome == "fenced"
            ):
                continue  # stale epoch, unknown worker, or fenced — ignore
            if result.outcome not in ("ok", "retried", "cached"):  # failed | timeout
                self._fail(
                    result.step, result.outcome, result.error,
                    result.attempts, result.wall,
                )
            elif not result.stored:
                self._fail(
                    result.step, "failed",
                    f"dist: artifact for {result.step!r} was not stored "
                    "(cache unavailable on the worker)",
                    result.attempts, result.wall, cache_unavailable=True,
                )
            else:
                del self.in_flight[result.step]
                self.done.add(result.step)
                self.run.settle(
                    result.step, result.outcome, result.attempts,
                    wall=result.wall,
                    queue=max(0.0, flight.first_assigned_at - flight.ready_at),
                    compute=result.wall, start=flight.trace_start,
                    tid=f"dist:{result.worker}",
                )
                self._resolve(result.step)

    # -- liveness --------------------------------------------------------------

    def _trace_renewals(self, advanced: set[str]) -> None:
        tracer = self.run.tracer
        if tracer is None or not advanced:
            return
        for flight in self.in_flight.values():
            for wid in sorted(flight.workers & advanced):
                tracer.instant(
                    "lease.renew", "dist", step=flight.step, holder=wid,
                    epoch=flight.epoch,
                )

    def handle_deaths(self) -> None:
        newly_dead = self.monitor.dead_workers() - self.known_dead
        if not newly_dead:
            return
        tracer = self.run.tracer
        for wid in sorted(newly_dead):
            self.known_dead.add(wid)
            gap = self.monitor.heartbeat_gap(wid)
            _log.warning(kv("dist.worker_dead", worker=wid, gap=round(gap, 3)))
            if tracer is not None:
                tracer.instant(
                    "heartbeat.gap", "dist", holder=wid, gap=round(gap, 3)
                )
        for name in list(self.in_flight):
            flight = self.in_flight[name]
            dead_here = flight.workers & newly_dead
            if not dead_here:
                continue
            flight.workers -= dead_here
            flight.killed_by |= dead_here
            if tracer is not None:
                for wid in sorted(dead_here):
                    tracer.instant(
                        "lease.expire", "dist", step=name, holder=wid,
                        epoch=flight.epoch,
                    )
            if len(flight.killed_by) >= self.config.poison_threshold:
                self._quarantine(name, flight)
            elif not flight.workers:
                self._reassign(name, flight)

    def _quarantine(self, name: str, flight: _Flight) -> None:
        self.quarantined.append(name)
        if self.run.tracer is not None:
            self.run.tracer.instant(
                "step.quarantine", "dist", step=name,
                workers_killed=sorted(flight.killed_by),
            )
        _log.warning(
            kv("dist.quarantine", step=name, workers_killed=len(flight.killed_by))
        )
        self._fail(
            name, "failed",
            f"poisoned: step killed {len(flight.killed_by)} distinct workers "
            f"({sorted(flight.killed_by)}); quarantined",
            attempts=0, wall=time.perf_counter() - flight.first_assigned_at,
        )

    def _reassign(self, name: str, flight: _Flight) -> None:
        """Hand a dead worker's step to a survivor under a bumped epoch."""
        replacement = self._pick_idle_worker()
        if replacement is None:
            return  # no idle survivor yet; retried next tick (workers empty)
        flight.epoch += 1
        flight.workers = {replacement}
        flight.assigned_at = time.perf_counter()
        flight.speculated = False
        self.reassignments += 1
        lease_io.write_assignment(
            self.run_dir,
            lease_io.Assignment(step=name, epoch=flight.epoch, workers=(replacement,)),
        )
        if self.run.tracer is not None:
            self.run.tracer.instant(
                "step.reassign", "dist", step=name, holder=replacement,
                epoch=flight.epoch,
            )
        if self.run.journal is not None:
            self.run.journal.step_reassign(
                name, self.run.keys[name], worker=replacement, epoch=flight.epoch
            )
        _log.info(kv("dist.reassign", step=name, worker=replacement, epoch=flight.epoch))

    # -- speculation -----------------------------------------------------------

    def maybe_speculate(self) -> None:
        deadline = self.config.speculate_after
        if deadline is None:
            return
        now = time.perf_counter()
        for name, flight in self.in_flight.items():
            if flight.speculated or not flight.workers:
                continue
            if now - flight.assigned_at <= deadline:
                continue
            twin = self._pick_idle_worker()
            if twin is None:
                continue
            flight.workers.add(twin)
            flight.speculated = True
            self.speculations += 1
            lease_io.write_assignment(
                self.run_dir,
                lease_io.Assignment(
                    step=name, epoch=flight.epoch,
                    workers=tuple(sorted(flight.workers)),
                ),
            )
            if self.run.tracer is not None:
                self.run.tracer.instant(
                    "step.speculate", "dist", step=name, holder=twin,
                    epoch=flight.epoch,
                )
            _log.info(kv("dist.speculate", step=name, worker=twin))

    # -- assignment ------------------------------------------------------------

    def _busy_workers(self) -> set[str]:
        busy: set[str] = set()
        for flight in self.in_flight.values():
            busy |= flight.workers
        return busy

    def _pick_idle_worker(self) -> str | None:
        idle = self.monitor.alive_workers() - self._busy_workers() - self.known_dead
        return min(idle) if idle else None

    def assign_ready(self) -> None:
        if not self.ready:
            # Also drives reassignment retries for steps whose death beat
            # every idle worker (flight.workers empty).
            for name, flight in self.in_flight.items():
                if not flight.workers:
                    self._reassign(name, flight)
            return
        remaining: list[str] = []
        for name in self.ready:
            wid = self._pick_idle_worker()
            if wid is None:
                remaining.append(name)
                continue
            self._assign(name, wid)
        self.ready = remaining
        for name, flight in self.in_flight.items():
            if not flight.workers:
                self._reassign(name, flight)

    def _assign(self, name: str, wid: str) -> None:
        now = time.perf_counter()
        trace_start = self.run.tracer.now() if self.run.tracer is not None else 0.0
        self.in_flight[name] = _Flight(
            step=name, epoch=0, workers={wid}, assigned_at=now,
            ready_at=self.ready_at.get(name, now), first_assigned_at=now,
            trace_start=trace_start,
        )
        lease_io.write_assignment(
            self.run_dir, lease_io.Assignment(step=name, epoch=0, workers=(wid,))
        )
        if self.run.journal is not None:
            self.run.journal.step_start(name, self.run.keys[name])
        if self.run.tracer is not None:
            self.run.tracer.instant(
                "lease.acquire", "dist", step=name, holder=wid, epoch=0
            )

    def _resolve(self, name: str) -> None:
        """``name`` settled. A dependent whose last dependency this was
        becomes ready, or is settled skipped — which in turn resolves its
        own dependents."""
        now = time.perf_counter()
        settled = [name]
        while settled:
            parent = settled.pop()
            for child in self.dependents[parent]:
                deps = self.pending_deps[child]
                deps.discard(parent)
                if deps or child in self.done:  # done: replayed by a resume
                    continue
                if self.run.skip_if_upstream_failed(
                    self.run.steps[child], self.unavailable
                ):
                    settled.append(child)
                else:
                    self.ready.append(child)
                    self.ready_at[child] = now

    # -- degradation -----------------------------------------------------------

    def check_all_lost(self) -> None:
        if self.finished() or self.monitor.alive_workers():
            return
        self.degraded_all_lost = True
        _log.warning(kv("dist.all_workers_lost", remaining=len(self.order) - len(self.done)))
        # Failing every in-flight and ready step resolves the rest: each
        # blocked step is skipped once its last dependency is settled.
        for name in list(self.in_flight) + self.ready:
            self._fail(name, "failed", "all workers lost; run degraded", 0, 0.0)
        self.ready.clear()

    def _fail(
        self,
        name: str,
        outcome: str,
        error: str,
        attempts: int,
        wall: float,
        cache_unavailable: bool = False,
    ) -> None:
        from repro.core.pipeline import PipelineError, StepTimeout

        self.in_flight.pop(name, None)
        self.unavailable.add(name)
        self.run.settle(
            name, outcome, attempts, wall=wall, error=error,
            cache_unavailable=cache_unavailable,
        )
        if self.run.on_error == "raise" and self.pending_raise is None:
            exc_type = StepTimeout if outcome == "timeout" else PipelineError
            self.pending_raise = exc_type(
                f"step {name!r} {outcome} in dist run: {error}"
            )
        self._resolve(name)

    # -- output ----------------------------------------------------------------

    def collect_values(self) -> dict[str, Any]:
        """Load every successful step's artifact, in step order."""
        values: dict[str, Any] = {}
        for name in self.order:
            if name not in self.done:
                continue
            value = self.cache.peek(self.run.keys[name])
            if value is not None:
                values[name] = value
        return values

    def fleet_stats(self) -> dict[str, Any]:
        publishes: dict[str, int] = {}
        for record in lease_io.collect_worker_logs(self.run_dir):
            if record.get("event") == "publish":
                step = str(record.get("step"))
                publishes[step] = publishes.get(step, 0) + 1
        return {
            "backend": "dist",
            "workers": self.config.workers,
            "dead_workers": sorted(self.known_dead),
            "reassignments": self.reassignments,
            "speculations": self.speculations,
            "quarantined": list(self.quarantined),
            "degraded_all_lost": self.degraded_all_lost,
            "publishes": publishes,
        }
