"""Deterministic fault injection for chaos-testing the pipeline.

A :class:`FaultPlan` is a seeded, declarative description of what should go
wrong during a :meth:`repro.core.Pipeline.run`: which steps raise, which
hang, and whose cache entries get corrupted — keyed by step name and
attempt number, so "fail the first attempt, succeed on retry" is one line.
The plan is pure data plus counters; it never mutates step functions, and
it fires in the coordinating process only (never inside pool workers), so
attempt accounting is exact in every executor mode and the plan needs no
cross-process state.

Determinism is the point: the chaos suite runs the same plan twice and
asserts byte-identical artifacts, and :meth:`FaultPlan.random` derives its
step choices from a seed so a failing chaos run reproduces exactly.

Usage::

    plan = FaultPlan.transient_errors(["survey", "schedule"])   # 1st attempt fails
    pipeline.run(fault_plan=plan)                               # retries recover
    assert pipeline.last_report.retried == ("schedule", "survey")
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.core.journal import RunJournal, new_run_id
from repro.core.trace import instant as trace_instant

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import ArtifactCache, Pipeline

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultEvent",
    "InjectedFault",
    "SITES",
    "MODES",
    "CrashPoint",
    "coordinates",
    "KillSwitch",
    "DiskFull",
    "crash_in_child",
    "run_until_crash",
    "resume_after_crash",
    "WorkerFaultPlan",
    "PoisonRows",
    "SkewedClock",
]

#: Supported fault kinds: raise an exception, stall the attempt, corrupt
#: the step's published cache entry, or fail the entry's cache write with
#: ``ENOSPC`` (disk exhaustion — the value computes but never persists).
FaultKind = ("error", "hang", "corrupt_cache", "enospc")


class InjectedFault(RuntimeError):
    """The exception raised by ``kind="error"`` faults.

    A plain ``Exception`` subclass, so the default
    :class:`~repro.core.pipeline.RetryPolicy` filter retries it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    step:
        Name of the pipeline step to sabotage.
    kind:
        ``"error"`` raises :class:`InjectedFault` before the attempt's
        compute; ``"hang"`` sleeps ``hang_seconds`` before the compute
        (cooperatively capped at the step's remaining deadline, so timeout
        tests finish in ~timeout seconds, not ~hang seconds);
        ``"corrupt_cache"`` overwrites the step's cache entry with garbage
        bytes *after* it is published, so the next reader exercises the
        evict-and-recompute path; ``"enospc"`` arms an injected
        disk-exhaustion failure for the step's cache write (the value
        computes but never persists, and the run continues with a
        ``cache_unavailable`` outcome flag).
    attempts:
        1-based attempt numbers the fault fires on. The default ``(1,)``
        is a transient fault (first attempt only — a retry recovers);
        ``()`` means every attempt (a permanent fault).
    hang_seconds:
        Stall duration for ``kind="hang"``.
    blob:
        Garbage bytes written by ``kind="corrupt_cache"``.
    """

    step: str
    kind: str = "error"
    attempts: tuple[int, ...] = (1,)
    hang_seconds: float = 0.0
    blob: bytes = b"\x80repro-injected-corruption"

    def __post_init__(self) -> None:
        if self.kind not in FaultKind:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FaultKind}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be non-negative, got {self.hang_seconds}")
        if any(a < 1 for a in self.attempts):
            raise ValueError(f"attempt numbers are 1-based, got {self.attempts}")

    def fires_on(self, attempt: int) -> bool:
        return not self.attempts or attempt in self.attempts


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (for chaos-suite assertions)."""

    step: str
    kind: str
    attempt: int


class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s with thread-safe firing.

    Pass an instance as ``Pipeline.run(fault_plan=...)``. The pipeline
    calls :meth:`fire` at the top of every attempt and
    :meth:`corrupt_cache` after every successful compute; both are no-ops
    for steps the plan does not name, so an empty plan is observationally
    identical to no plan (the chaos suite's byte-identity check relies on
    this).
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._events: list[FaultEvent] = []

    # -- construction helpers -------------------------------------------------

    @classmethod
    def transient_errors(
        cls, steps: Sequence[str], failures_per_step: int = 1, seed: int = 0
    ) -> "FaultPlan":
        """Fail the first ``failures_per_step`` attempts of every named step.

        With a :class:`~repro.core.pipeline.RetryPolicy` allowing at least
        ``failures_per_step + 1`` attempts, a run under this plan must
        fully recover.
        """
        if failures_per_step < 1:
            raise ValueError(f"failures_per_step must be >= 1, got {failures_per_step}")
        specs = [
            FaultSpec(step=name, kind="error", attempts=tuple(range(1, failures_per_step + 1)))
            for name in steps
        ]
        return cls(specs, seed=seed)

    @classmethod
    def random(
        cls,
        steps: Sequence[str],
        seed: int,
        rate: float = 0.5,
        kind: str = "error",
        failures_per_step: int = 1,
    ) -> "FaultPlan":
        """Seeded random subset of ``steps`` gets a transient fault.

        The subset is a pure function of ``(steps, seed, rate)``; the same
        seed always sabotages the same steps.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        rng = random.Random(seed)
        specs = [
            FaultSpec(step=name, kind=kind, attempts=tuple(range(1, failures_per_step + 1)))
            for name in steps
            if rng.random() < rate
        ]
        return cls(specs, seed=seed)

    # -- firing ---------------------------------------------------------------

    def _matching(self, step: str, *kinds: str) -> list[FaultSpec]:
        return [s for s in self.specs if s.step == step and s.kind in kinds]

    def _record(self, step: str, kind: str, attempt: int) -> None:
        with self._lock:
            self._events.append(FaultEvent(step, kind, attempt))
        # Every firing (error/hang/corrupt_cache/enospc) goes through here,
        # so the ambient trace sees each injected fault as one instant.
        trace_instant("fault.fired", "fault", step=step, kind=kind, attempt=attempt)

    def fire(self, step: str, attempt: int, remaining: float | None = None) -> None:
        """Inject this attempt's error/hang faults (called by the pipeline).

        ``remaining`` is the seconds left before the step's deadline (None
        when the step has no timeout); hangs sleep slightly past it so the
        deadline check trips without stalling the suite for the full
        configured hang.
        """
        for spec in self._matching(step, "hang"):
            if not spec.fires_on(attempt):
                continue
            sleep_for = spec.hang_seconds
            if remaining is not None:
                sleep_for = min(sleep_for, max(remaining, 0.0) + 0.02)
            self._record(step, "hang", attempt)
            time.sleep(sleep_for)
        for spec in self._matching(step, "error"):
            if not spec.fires_on(attempt):
                continue
            self._record(step, "error", attempt)
            raise InjectedFault(
                f"injected fault in step {step!r} (attempt {attempt})"
            )

    def corrupt_cache(self, cache: "ArtifactCache", step: str, key: str) -> None:
        """Corrupt ``step``'s freshly-published cache entry, if planned.

        Fired once per successful compute of the step; the entry's bytes
        become unpicklable garbage, which the cache treats as a miss and
        evicts on the next read.
        """
        for spec in self._matching(step, "corrupt_cache"):
            fired = self.fired(step, "corrupt_cache")
            if not spec.fires_on(fired + 1):
                continue
            if cache.corrupt_entry(key, spec.blob):
                self._record(step, "corrupt_cache", fired + 1)

    def arm_enospc(
        self,
        cache: "ArtifactCache",
        step: str,
        key: str,
        *,
        will_compute: bool = True,
    ) -> bool:
        """Arm a one-shot disk-full failure for ``step``'s cache write.

        Called by the pipeline just before it resolves a step.
        ``will_compute`` is False when the step is expected to come from
        the cache — an armed failure would then dangle and hit some
        unrelated later write, so nothing is armed. Returns True when a
        failure was armed (the pipeline disarms it if a concurrent flight
        published first).
        """
        if not will_compute:
            return False
        for spec in self._matching(step, "enospc"):
            fired = self.fired(step, "enospc")
            if not spec.fires_on(fired + 1):
                continue
            cache.inject_put_failure(key)
            self._record(step, "enospc", fired + 1)
            return True
        return False

    # -- inspection -----------------------------------------------------------

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every fault that fired, in firing order."""
        with self._lock:
            return tuple(self._events)

    def fired(self, step: str, kind: str | None = None) -> int:
        """How many faults fired for ``step`` (optionally of one kind)."""
        with self._lock:
            return sum(
                1
                for e in self._events
                if e.step == step and (kind is None or e.kind == kind)
            )

    def reset(self) -> None:
        """Forget fired events (counters restart; specs are unchanged)."""
        with self._lock:
            self._events.clear()


# -- process-level chaos: one table of injection sites ------------------------
#
# The FaultPlan above fails *attempts* from the coordinating process. The
# chaos below kills, stalls or cuts off a whole *process* at a point on a
# durable path. Each site is one row of SITES, a CrashPoint names one
# coordinate, and coordinates() enumerates a site's matrix from the table,
# so a new durability site gets its SIGKILL matrix from one row.
#
# The two record sites, RunJournal.record and IngestWAL.append, call their
# ``chaos`` hook as ``chaos(event, step, data, fd)`` just before a record's
# bytes hit the file, with the fd at the record boundary; the WAL passes
# ``(kind, None, data, fd)``. A hook may raise OSError (a failed disk) or
# SIGKILL its own process, mid-record if it likes. The worker site fires
# through a WorkerFaultPlan bound in each worker process.

#: Each injection site's events, in the order its owner reaches them: the
#: journal's step records, the WAL's feed kinds (one record per row), the
#: phases of one worker task.
SITES: dict[str, tuple[str, ...]] = {
    "journal": ("step_start", "step_done"),
    "wal": ("responses", "sacct"),
    "worker": ("task_start", "before_publish", "after_publish", "after_result"),
}

#: What a coordinate does at each site. At a record site, where the SIGKILL
#: lands in the record write: ``before`` (nothing written), ``torn`` (half
#: the bytes — a torn tail the reader must drop) or ``after`` (the record is
#: durable, the caller never learns). At the worker: ``kill`` (SIGKILL),
#: ``hang`` (stall, heartbeats flowing), ``partition`` (stop heartbeating,
#: keep computing).
MODES: dict[str, tuple[str, ...]] = {
    "journal": ("before", "torn", "after"),
    "wal": ("before", "torn", "after"),
    "worker": ("kill", "hang", "partition"),
}


@dataclass(frozen=True)
class CrashPoint:
    """One chaos coordinate: a site, one of its events, and what happens there.

    Attributes
    ----------
    site, event:
        A row of :data:`SITES` and one of its events.
    step:
        The step whose journal record or worker task triggers the point;
        ``None`` at the WAL, whose records belong to no step.
    mode:
        One of ``MODES[site]``; ``None`` means ``"after"`` at the record
        sites and ``"kill"`` at the worker.
    nth:
        0-based index, among the record writes matching ``event`` and
        ``step``, of the one to fire on (the WAL's row index). A journal
        writes each step's event once, so it fires on its first match.
    count:
        Worker firings fleet-wide, claimed through ``O_EXCL`` marker files:
        1 is the kill matrix, ``>= poison_threshold`` drives the step
        through enough distinct workers to quarantine it.
    seconds:
        The worker's stall (``hang``), or its compute delay after its
        heartbeats stop (``partition``; set it above the lease ttl so the
        coordinator declares the worker dead while it still computes).
    """

    site: str
    event: str
    step: str | None = None
    mode: str | None = None
    nth: int = 0
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown chaos site {self.site!r}; expected one of {tuple(SITES)}")
        events, modes = SITES[self.site], MODES[self.site]
        if self.event not in events:
            raise ValueError(f"unknown {self.site} event {self.event!r}; expected one of {events}")
        if self.mode is None:
            object.__setattr__(self, "mode", "kill" if self.site == "worker" else "after")
        if self.mode not in modes:
            raise ValueError(f"unknown {self.site} mode {self.mode!r}; expected one of {modes}")
        if (self.step is None) != (self.site == "wal"):
            raise ValueError(f"step={self.step!r}: a wal point takes no step, the others need one")
        if self.nth < 0 or self.count < 1 or self.seconds < 0:
            raise ValueError(f"need nth >= 0, count >= 1, seconds >= 0; got {self}")


def coordinates(
    site: str,
    steps: Sequence[str | None] = (None,),
    nths: Sequence[int] = (0,),
    modes: Sequence[str] | None = None,
) -> list[CrashPoint]:
    """A site's chaos matrix: every (step, event, nth, mode) coordinate, in
    that nesting order. ``modes`` defaults to all of ``MODES[site]`` at the
    record sites and to ``kill`` at the worker."""
    if modes is None:
        modes = ("kill",) if site == "worker" else MODES[site]
    return [
        CrashPoint(site, event, step, mode, nth)
        for step in steps
        for event in SITES[site]
        for nth in nths
        for mode in modes
    ]


class KillSwitch:
    """A record-site ``chaos`` hook that SIGKILLs at a :class:`CrashPoint`.

    On the ``nth`` record write matching the point's event and step it
    writes zero, half, or all of the record's bytes (per ``mode``), fsyncs
    what it wrote so the file is exactly what a power-lossy crash would
    leave, then delivers ``SIGKILL`` to its own process — no cleanup
    handlers run, exactly like a preemption or OOM kill.
    """

    def __init__(self, point: CrashPoint) -> None:
        if point.site == "worker":
            raise ValueError("worker points go in a WorkerFaultPlan, not a KillSwitch")
        self.point = point
        self.seen = 0

    def __call__(
        self, event: str, step: str | None, data: bytes, fd: int
    ) -> None:  # pragma: no cover - ends in SIGKILL, untraceable by coverage
        p = self.point
        if event != p.event or step != p.step:
            return
        self.seen += 1
        if self.seen <= p.nth:
            return
        if p.mode == "torn":
            os.write(fd, data[: max(1, len(data) // 2)])
            os.fsync(fd)
        elif p.mode == "after":
            os.write(fd, data)
            os.fsync(fd)
        os.kill(os.getpid(), signal.SIGKILL)


class DiskFull:
    """A record-site ``chaos`` hook simulating disk exhaustion.

    Raises an injected ``ENOSPC`` once ``after_records`` records have been
    written. A journal degrades (``unavailable``) and its run continues; the
    WAL disables itself and the service degrades to read-only serving.
    """

    def __init__(self, after_records: int = 0) -> None:
        self.after_records = after_records
        self.seen = 0

    def __call__(self, event: str, step: str | None, data: bytes, fd: int) -> None:
        if self.seen >= self.after_records:
            raise OSError(28, "injected: no space left on device")
        self.seen += 1


def crash_in_child(target: Callable[..., Any], *args: Any, timeout: float = 60.0) -> int:
    """Run ``target(*args)`` in a forked child and return its exit code.

    ``-signal.SIGKILL`` means a kill switch fired. The child runs in its own
    process group, which is swept once it has exited. A child still running
    after ``timeout`` seconds is killed with its group and reported as
    :class:`TimeoutError`, never as a crash: a hang on a durable path must
    not pass for a kill. Uses the ``fork`` start method, so ``target`` may
    be any closure (no pickling).
    """
    def child() -> None:  # pragma: no cover - runs in the fork
        # Own process group, so the sweep below reaches any pool workers
        # the child forks: SIGKILLing the child orphans them mid-task, and
        # an orphaned worker never exits on its own.
        os.setpgrp()
        target(*args)

    proc = multiprocessing.get_context("fork").Process(target=child, daemon=False)
    proc.start()
    # Reap by polling waitpid, not Process.join(): pool workers forked by
    # the child inherit its multiprocessing sentinel pipe, so after the
    # SIGKILL the sentinel stays open (held by orphans) and a sentinel-
    # based join would block for the whole timeout.
    deadline = time.monotonic() + timeout
    while proc.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.01)
    hung = proc.exitcode is None
    try:  # sweep orphaned pool workers (or the hung child) in its group
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    if hung:
        proc.kill()  # in case it had not reached setpgrp yet
        proc.join(5.0)
        raise TimeoutError(f"chaos child still running after timeout={timeout}s; killed")
    return proc.exitcode


def run_until_crash(
    factory: Callable[[], "Pipeline"],
    journal_dir: str | os.PathLike,
    point: CrashPoint,
    *,
    run_id: str | None = None,
    run_kwargs: Mapping[str, Any] | None = None,
    timeout: float = 60.0,
) -> tuple[str, int]:
    """Run ``factory()``'s pipeline in a child process killed at ``point``.

    The child journals to ``journal_dir`` under ``run_id`` with a
    :class:`KillSwitch` installed, so it SIGKILLs itself at the requested
    journal coordinate. Returns ``(run_id, exitcode)`` — ``-signal.SIGKILL``
    when the crash fired, ``0`` when the coordinate never matched (e.g. the
    step was already cached and its ``step_start`` never happened... which
    still lets the caller resume and assert byte-identity). Raises
    :class:`TimeoutError` when the child outlives ``timeout``
    (:func:`crash_in_child`).

    The caller's test must build process-mode pipelines *inside* the
    factory, not share pools across the fork.
    """
    rid = run_id if run_id is not None else new_run_id()

    def child() -> None:  # pragma: no cover - the child is SIGKILLed mid-run
        pipeline = factory()
        journal = RunJournal.open(journal_dir, rid)
        journal.chaos = KillSwitch(point)
        try:
            pipeline.run(journal=journal, **dict(run_kwargs or {}))
        finally:
            journal.close()

    return rid, crash_in_child(child, timeout=timeout)


def resume_after_crash(
    pipeline: "Pipeline",
    journal_dir: str | os.PathLike,
    run_id: str,
    *,
    run_kwargs: Mapping[str, Any] | None = None,
) -> dict:
    """Resume a crashed (journaled) run in the current process.

    The standard second half of the :func:`run_until_crash` dance: load
    the killed run's resume state, open a fresh journal segment under the
    same run id, and re-run the pipeline with replay enabled. Returns the
    pipeline's results dict. The pair of helpers keeps the crash-resume
    protocol in one place so the chaos tests, the audit runner, and the
    CLI cannot drift apart on journal/run-id plumbing.
    """
    from repro.core.journal import load_resume_state

    resume = load_resume_state(journal_dir, run_id)
    journal = RunJournal.open(journal_dir, run_id)
    try:
        return pipeline.run(journal=journal, resume=resume, **dict(run_kwargs or {}))
    finally:
        journal.close()


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Declarative worker chaos for one dist run: ``worker`` :class:`CrashPoint`\\ s.

    Worker chaos must fire *inside a worker process*, possibly on another
    host, so the plan rides the run directory: it is pickled into the run
    spec by the coordinator and bound per worker process at startup
    (:meth:`bind`). Firing slots are claimed through
    ``chaos/<spec>.<slot>`` marker files created ``O_CREAT|O_EXCL`` in the
    run directory, so each spec fires exactly ``count`` times fleet-wide
    no matter how many workers race for the coordinate — deterministic
    chaos without any cross-process channel beyond the shared filesystem.
    """

    specs: tuple[CrashPoint, ...] = ()

    def __init__(self, specs: Iterable[CrashPoint] = ()) -> None:
        specs = tuple(specs)
        for point in specs:
            if point.site != "worker":
                raise ValueError(f"a WorkerFaultPlan takes worker points, got a {point.site} point")
        object.__setattr__(self, "specs", specs)

    def bind(self, run_dir: Any, worker_id: str, heartbeat: Any = None) -> "BoundWorkerChaos":
        return BoundWorkerChaos(self, run_dir, worker_id, heartbeat)


class BoundWorkerChaos:
    """One worker's live view of a :class:`WorkerFaultPlan`."""

    def __init__(self, plan: WorkerFaultPlan, run_dir: Any, worker_id: str, heartbeat: Any) -> None:
        self.plan = plan
        self.run_dir = run_dir
        self.worker_id = worker_id
        self.heartbeat = heartbeat

    def _claim(self, index: int, count: int) -> bool:
        """Claim one fleet-wide firing slot for spec ``index``; False when
        all ``count`` slots are spent."""
        chaos_dir = os.path.join(str(self.run_dir), "chaos")
        os.makedirs(chaos_dir, exist_ok=True)
        for slot in range(count):
            try:
                fd = os.open(
                    os.path.join(chaos_dir, f"{index}.{slot}"),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                    0o644,
                )
            except FileExistsError:
                continue
            os.write(fd, f"{self.worker_id}\n".encode())
            os.close(fd)
            return True
        return False

    def fire(self, step: str, event: str) -> None:
        for index, point in enumerate(self.plan.specs):
            if point.step != step or point.event != event or not self._claim(index, point.count):
                continue
            trace_instant(
                "fault.fired", "fault", step=step, kind=point.mode, worker=self.worker_id
            )
            if point.mode == "kill":  # pragma: no cover - SIGKILL
                os.kill(os.getpid(), signal.SIGKILL)
            if point.mode == "partition" and self.heartbeat is not None:
                self.heartbeat.pause()
            time.sleep(point.seconds)


# -- serve test inputs: poison rows, clock skew --------------------------------


@dataclass(frozen=True)
class PoisonRows:
    """Deterministic malformed rows for the poison-row coordinate.

    Not a hook — a tiny factory for the garbage the serve chaos tests
    append: syntactically broken (torn JSON / wrong column count) rows
    that the tolerant readers must *skip* (surfacing ``SkippedRow``
    instants), never letting them fail the feed subtree.
    """

    count: int = 3
    seed: int = 0

    def rows(self, kind: str) -> list[str]:
        rng = random.Random(f"{self.seed}:{kind}")
        out = []
        for i in range(self.count):
            if kind == "responses":
                out.append('{"respondent_id": "poison-%d", "truncated' % i)
            else:
                out.append("|".join(str(rng.randrange(10)) for _ in range(3)))
        return out


class SkewedClock:
    """A monotonic-ish clock whose readings jump at chosen call counts.

    ``StudyService`` takes an injectable ``clock`` for exactly this
    coordinate: staleness/uptime numbers must stay finite and
    non-negative, and breaker cooldowns must be unaffected (they count
    refresh *cycles*, not seconds), even when the clock leaps forward or
    *backwards* mid-flight. ``jumps`` maps the 0-based call number to an
    offset (seconds, may be negative) applied from that call on.
    """

    def __init__(
        self,
        base: Callable[[], float] = time.monotonic,
        jumps: Mapping[int, float] | None = None,
    ) -> None:
        self.base = base
        self.jumps = dict(jumps or {})
        self.calls = 0
        self._offset = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            if self.calls in self.jumps:
                self._offset += self.jumps[self.calls]
            self.calls += 1
            return self.base() + self._offset
