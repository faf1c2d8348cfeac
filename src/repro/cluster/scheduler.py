"""FCFS / fairshare + EASY-backfill scheduler simulator.

Turns a submission stream into accounting records with realistic queue-wait
structure: wide jobs wait for drain windows, small jobs backfill around
them, and the contended GPU partition develops long waits as its arrival
rate grows. Partitions schedule independently (as Slurm partitions with
disjoint node sets do).

The simulator is event-driven per partition: events are job submissions and
job completions; at each event the scheduler starts the queue head if it
fits, otherwise reserves the head's start (the "shadow time") and backfills
later jobs that cannot delay that reservation — the EASY discipline.

Options mirror the ablations the study runs:

* ``backfill`` — EASY backfill on/off;
* ``node_granular`` — per-node placement (multi-node jobs need whole free
  nodes) vs pooled partition-wide counters;
* ``priority`` — ``"fifo"`` or ``"fairshare"`` (queue ordered by decayed
  per-user usage, lightest users first).

With node-granular allocation the EASY shadow time is computed on pooled
counts (the standard optimistic approximation); reservations therefore may
start slightly later than estimated, never earlier.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.cluster.allocation import NodeGranularAllocator, PooledAllocator
from repro.cluster.partitions import ClusterConfig, DEFAULT_CLUSTER, Partition
from repro.cluster.records import Categorical, JobState, JobTable
from repro.cluster.workload import SubmissionTable, SubmittedJob

__all__ = ["SchedulerResult", "simulate_schedule"]

_PRIORITIES = ("fifo", "fairshare")

_END_TIME = itemgetter(0)  # bisect key for running-list entries


@dataclass(frozen=True, slots=True)
class SchedulerResult:
    """Outcome of a scheduling simulation.

    Attributes
    ----------
    table:
        Accounting records for every submitted job.
    backfilled:
        Number of jobs started out of queue order by backfill.
    """

    table: JobTable
    backfilled: int


# Queued jobs are flat tuples of what the event loop reads, zipped from
# the submission columns once. Layout:
#   (row, user, submit, cores, gpus, req_walltime, duration)
# where row is the job's index in (submit, job_id) order, user is its code
# in the stream's user block, and duration is the occupancy its terminal
# state decides. A started job is recorded as (row, start) only.
_Q_ROW, _Q_USER, _Q_SUBMIT, _Q_CORES, _Q_GPUS, _Q_WALL, _Q_DURATION = range(7)


class _FairshareLedger:
    """Per-user usage with exponential decay (shared across partitions).

    Users are identified by their codes in the stream's user block; the
    code <-> label mapping is a bijection, so decayed-usage ordering is
    unchanged from the string-keyed form.
    """

    def __init__(self, halflife: float) -> None:
        if halflife <= 0:
            raise ValueError("fairshare halflife must be positive")
        self.halflife = halflife
        self._usage: dict[int, float] = {}
        self._stamp: dict[int, float] = {}

    def usage(self, user: int, now: float) -> float:
        raw = self._usage.get(user, 0.0)
        if raw == 0.0:
            return 0.0
        age = now - self._stamp.get(user, now)
        return raw * 0.5 ** (max(age, 0.0) / self.halflife)

    def charge(self, user: int, core_seconds: float, now: float) -> None:
        current = self.usage(user, now)
        self._usage[user] = current + core_seconds
        self._stamp[user] = now


class _PartitionSim:
    """Event-driven simulation of one partition."""

    def __init__(
        self,
        partition: Partition,
        backfill: bool,
        depth: int,
        node_granular: bool,
        ledger: _FairshareLedger | None,
    ) -> None:
        self.name = partition.name
        if node_granular:
            self.allocator = NodeGranularAllocator(
                partition.nodes, partition.cores_per_node, partition.gpus_per_node
            )
        else:
            self.allocator = PooledAllocator(
                partition.total_cores, partition.total_gpus
            )
        self.backfill = backfill
        self.depth = depth
        self.ledger = ledger
        # Bound methods resolved once; these are called per event/job.
        self._alloc_fits = self.allocator.fits
        self._alloc_allocate = self.allocator.allocate
        self.pending: list[tuple] = []
        # Running jobs as (end_time, seq, cores, gpus, token), kept sorted by
        # (end_time, seq) via insort so the EASY shadow scan never re-sorts.
        self.running: list[tuple[float, int, int, int, object]] = []
        self._seq = 0
        # (row, start) per started job; every other accounting column is
        # gathered from the submission arrays afterwards.
        self.started: list[tuple[int, float]] = []
        self.backfilled = 0
        # Fairshare queue order is dirty after membership or usage changes.
        self._dirty = True

    # -- resource bookkeeping ------------------------------------------------

    def release_until(self, t: float) -> None:
        """Free resources of jobs finishing at or before ``t`` (batched)."""
        running = self.running
        if not running or running[0][0] > t:
            return
        if running[-1][0] <= t:
            cut = len(running)
        elif running[1][0] > t:
            # One completion per event is the overwhelmingly common case;
            # skip both the bisect and the batch-release machinery for it.
            # (running[-1] > t above implies len(running) >= 2 here.)
            self.allocator.release(running[0][4])
            del running[0]
            return
        else:
            cut = bisect_right(running, t, key=_END_TIME)
        if cut == 1:
            self.allocator.release(running[0][4])
        else:
            self.allocator.release_batch([item[4] for item in running[:cut]])
        del running[:cut]

    # -- scheduling ---------------------------------------------------------

    def _order_pending(self, now: float) -> None:
        # FIFO: submission order is already queue order. Fairshare: the
        # decayed-usage ranking is time-invariant between usage updates —
        # usage(u, now) = [raw_u * 2^(stamp_u/h)] * 0.5^(now/h) shares the
        # 0.5^(now/h) factor across users — so the sort only needs to rerun
        # after a charge or a queue append (removals keep the order sorted).
        # Ties go to the earlier (submit, job_id), which is the lower row.
        if self.ledger is None or not self._dirty:
            return
        usage = self.ledger.usage
        self.pending.sort(key=lambda qj: (usage(qj[_Q_USER], now), qj[_Q_ROW]))
        self._dirty = False

    def _shadow(self, head: tuple) -> tuple[float, int, int]:
        """Earliest (pooled-count) time the head could start, plus the spare
        resources remaining free at that moment after reserving the head."""
        cores = self.allocator.free_cores
        gpus = self.allocator.free_gpus
        head_cores = head[_Q_CORES]
        head_gpus = head[_Q_GPUS]
        shadow_time = 0.0
        for end, _, c, g, _ in self.running:  # already sorted by end time
            if cores >= head_cores and gpus >= head_gpus:
                break
            cores += c
            gpus += g
            shadow_time = end
        return shadow_time, cores - head_cores, gpus - head_gpus

    def _start(self, qj: tuple, now: float) -> None:
        """Start ``qj`` now (backfill path; the head path inlines this)."""
        row, user, _, cores, gpus, _, duration = qj
        token = self._alloc_allocate(cores, gpus)
        insort(self.running, (now + duration, self._seq, cores, gpus, token))
        self._seq += 1
        if self.ledger is not None:
            self.ledger.charge(user, cores * duration, now)
            self._dirty = True
        self.started.append((row, now))

    def try_schedule(self, now: float) -> None:
        # Order once per event; usage charged during this event reorders the
        # queue at the next event (how real fairshare schedulers behave).
        ledger = self.ledger
        if ledger is not None:
            self._order_pending(now)
        # Start queue-head jobs in order while they fit. This loop runs for
        # nearly every started job, so _start is inlined into it: one less
        # Python call per start is measurable at workload scale.
        pending = self.pending
        fits = self._alloc_fits
        allocate = self._alloc_allocate
        running = self.running
        started_append = self.started.append
        seq = self._seq
        while pending:
            qj = pending[0]
            cores = qj[_Q_CORES]
            gpus = qj[_Q_GPUS]
            if not fits(cores, gpus):
                break
            del pending[0]
            token = allocate(cores, gpus)
            duration = qj[_Q_DURATION]
            insort(running, (now + duration, seq, cores, gpus, token))
            seq += 1
            if ledger is not None:
                ledger.charge(qj[_Q_USER], cores * duration, now)
                self._dirty = True
            started_append((qj[_Q_ROW], now))
        self._seq = seq
        if not pending or not self.backfill:
            return
        shadow_time, spare_cores, spare_gpus = self._shadow(pending[0])
        # EASY backfill: a later job may start now iff it fits now and either
        # finishes (by its *requested* walltime) before the head's reserved
        # start, or consumes only resources the head leaves spare.
        scanned = 0
        i = 1
        while i < len(pending) and scanned < self.depth:
            qj = pending[i]
            scanned += 1
            cores = qj[_Q_CORES]
            gpus = qj[_Q_GPUS]
            if fits(cores, gpus):
                within_spare = cores <= spare_cores and gpus <= spare_gpus
                if within_spare or now + qj[_Q_WALL] <= shadow_time:
                    del pending[i]
                    self._start(qj, now)
                    self.backfilled += 1
                    if within_spare:
                        spare_cores -= cores
                        spare_gpus -= gpus
                    continue  # same index now holds the next job
            i += 1


# Terminal states as small int codes into a sorted category table: the
# per-job arrays and the result never touch state strings, and the final
# assembly hands the codes straight to a Categorical block.
_STATE_CATEGORIES: tuple[str, ...] = tuple(sorted(s.value for s in JobState))
_CANCELLED = _STATE_CATEGORIES.index(JobState.CANCELLED.value)
_COMPLETED = _STATE_CATEGORIES.index(JobState.COMPLETED.value)
_FAILED = _STATE_CATEGORIES.index(JobState.FAILED.value)
_TIMEOUT = _STATE_CATEGORIES.index(JobState.TIMEOUT.value)

_INF = float("inf")


def _uniform(low: float, high: float, draws: np.ndarray) -> np.ndarray:
    """``Generator.uniform(low, high)`` at each ``next_double`` in ``draws``:
    numpy computes ``low + (high - low) * next_double``."""
    return low + (high - low) * draws


def _terminal_states(
    rng: np.random.Generator,
    runtime: np.ndarray,
    walltime: np.ndarray,
    failure_rate: float,
    cancel_rate: float,
    timeout_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """State codes and occupied durations of ``n`` jobs, in row order.

    The draws are those of a per-job scalar walk over ``rng``: one
    ``rng.random()`` coin per job, then one ``rng.uniform(a, b)`` for a
    failed or cancelled job. Cancelled jobs are modelled as very short runs
    so every record keeps submit <= start <= end. A job takes one or two
    draws, so one block of ``2n`` doubles holds any walk; the walk is
    located in it with array operations, and ``rng`` is then left exactly
    where the scalar walk would leave it.
    """
    n = runtime.size
    saved = rng.bit_generator.state
    block = rng.random(2 * n)
    past_failure = block - failure_rate
    # A coin at position p is followed by a uniform draw iff extra[p].
    extra = (block < failure_rate) | (past_failure < cancel_rate)
    # Position p holds a coin iff p == 0 or not (coin[p-1] and extra[p-1]):
    # after a non-extra position the next is a coin, and along a run of
    # extra positions starting at s, coins sit at s, s+2, s+4, ...
    position = np.arange(2 * n)
    run_start = extra.copy()
    run_start[1:] &= ~extra[:-1]
    start_of = np.maximum.accumulate(np.where(run_start, position, 0))
    coin = np.ones(2 * n, dtype=bool)
    coin[1:] = ~extra[:-1] | ((position[1:] - start_of[:-1]) % 2 == 0)
    coins = np.flatnonzero(coin)[:n]

    u = block[coins]
    rest = past_failure[coins]
    draws = block[coins + 1]  # the uniform's draw, where one follows
    failed = u < failure_rate
    cancelled = ~failed & (rest < cancel_rate)
    timeout = ~failed & ~cancelled & (rest - cancel_rate < timeout_rate)
    state = np.full(n, _COMPLETED, dtype=np.int32)
    state[timeout] = _TIMEOUT
    state[cancelled] = _CANCELLED
    state[failed] = _FAILED
    duration = runtime.copy()
    duration[timeout] = walltime[timeout]
    duration[failed] = np.maximum(
        60.0, runtime[failed] * _uniform(0.05, 0.8, draws[failed])
    )
    duration[cancelled] = np.maximum(
        10.0, runtime[cancelled] * _uniform(0.0, 0.1, draws[cancelled])
    )

    last = coins[-1]
    rng.bit_generator.state = saved
    rng.random(out=block[: last + 1 + extra[last]])
    return state, duration


def simulate_schedule(
    jobs: SubmissionTable | Sequence[SubmittedJob],
    cluster: ClusterConfig | None = None,
    rng: np.random.Generator | None = None,
    backfill: bool = True,
    backfill_depth: int = 64,
    failure_rate: float = 0.06,
    cancel_rate: float = 0.03,
    timeout_rate: float = 0.02,
    node_granular: bool = False,
    priority: str = "fifo",
    fairshare_halflife: float = 7 * 86400.0,
) -> SchedulerResult:
    """Simulate scheduling of ``jobs`` on ``cluster``.

    Parameters
    ----------
    jobs:
        Submission stream (any order; sorted internally by submit time, then
        job id): a :class:`~repro.cluster.workload.SubmissionTable`, or
        :class:`~repro.cluster.workload.SubmittedJob` rows, which are
        turned into one first.
    cluster:
        Capacity model; defaults to :data:`~repro.cluster.partitions.DEFAULT_CLUSTER`.
    rng:
        Seeded generator for terminal-state assignment; defaults to
        ``default_rng(0)``. It is advanced exactly as by one
        ``rng.random()`` per job, in sorted order, plus one
        ``rng.uniform`` for each failed or cancelled job.
    backfill:
        Enable EASY backfill (the ablation bench flips this off).
    backfill_depth:
        Maximum queued jobs scanned per backfill attempt.
    failure_rate, cancel_rate, timeout_rate:
        Terminal-state probabilities: each non-negative, summing to < 1
        (the rest complete).
    node_granular:
        Per-node placement instead of pooled counters (see module docs).
    priority:
        ``"fifo"`` or ``"fairshare"``.
    fairshare_halflife:
        Decay half-life (seconds) of per-user usage for fairshare ordering.

    Raises
    ------
    ValueError
        If a terminal-state rate is negative or the rates sum to >= 1, or a
        job names an unknown partition or can never fit on it (the first
        such job in sorted order is named).
    """
    rates = dict(failure_rate=failure_rate, cancel_rate=cancel_rate, timeout_rate=timeout_rate)
    for name, rate in rates.items():
        if not rate >= 0.0:
            raise ValueError(f"{name} must be non-negative, got {rate!r}")
    if not sum(rates.values()) < 1.0:
        raise ValueError(f"terminal-state rates must sum to < 1, got {rates}")
    cluster = cluster or DEFAULT_CLUSTER
    rng = rng if rng is not None else np.random.default_rng(0)
    if priority not in _PRIORITIES:
        raise ValueError(f"priority must be one of {_PRIORITIES}, got {priority!r}")
    stream = jobs if isinstance(jobs, SubmissionTable) else SubmissionTable.from_jobs(jobs)
    ledger = _FairshareLedger(fairshare_halflife) if priority == "fairshare" else None
    sims = {
        p.name: _PartitionSim(p, backfill, backfill_depth, node_granular, ledger)
        for p in cluster
    }
    n = len(stream)
    if not n:
        return SchedulerResult(table=JobTable.empty(), backfilled=0)

    # Rows in (submit, job_id) order; the key pairs are unique.
    order = np.lexsort((stream.job_id, stream.submit))
    job_id = stream.job_id[order]
    submit = stream.submit[order]
    cores = stream.cores[order]
    gpus = stream.gpus[order]
    walltime = stream.requested_walltime[order]
    part = stream.partition.codes[order]

    names = stream.partition.categories
    # An unknown partition has room for nothing, so its jobs fail the fit;
    # the table's own checks already hold cores >= 1 and gpus >= 0.
    targets = [cluster[name] if name in cluster else None for name in names]
    max_cores = np.array([-1 if p is None else p.total_cores for p in targets], dtype=np.int64)
    max_gpus = np.array([-1 if p is None else p.total_gpus for p in targets], dtype=np.int64)
    fits = (cores <= max_cores[part]) & (gpus <= max_gpus[part])
    if not fits.all():
        i = int(np.argmin(fits))
        name = names[part[i]]
        if name not in cluster:
            raise ValueError(f"job {job_id[i]} targets unknown partition {name!r}")
        raise ValueError(
            f"job {job_id[i]} requests ({cores[i]} cores, {gpus[i]} gpus) "
            f"which can never fit partition {name!r}"
        )
    state, duration = _terminal_states(
        rng, stream.runtime[order], walltime, failure_rate, cancel_rate, timeout_rate
    )

    # Group the queue entries per partition (partitions are independent),
    # keeping sorted order within each.
    by_part = np.argsort(part, kind="stable")
    columns = [
        column[by_part].tolist()
        for column in (
            np.arange(n), stream.user.codes[order], submit, cores, gpus, walltime, duration
        )
    ]
    entries = list(zip(*columns))
    bounds = np.cumsum(np.bincount(part, minlength=len(names))).tolist()
    per_partition = {
        name: (entries[lo:hi], columns[_Q_SUBMIT][lo:hi])
        for name, lo, hi in zip(names, [0, *bounds], bounds)
    }

    track_dirty = ledger is not None
    for name, sim in sims.items():
        if name not in per_partition:
            continue
        queue, submits = per_partition[name]
        pending = sim.pending
        running = sim.running
        release_until = sim.release_until
        release = sim.allocator.release
        try_schedule = sim.try_schedule
        append_pending = pending.append
        submits.append(_INF)  # sentinel: removes idx-bound checks below
        idx = 0
        queued = len(queue)
        # Event loop: events are submissions and completions; ties go to the
        # submission so completions at the same instant free resources first
        # (release_until) and the new arrival schedules against them.
        while True:
            if not pending:
                # Fast-forward: with nothing queued, completions cannot
                # trigger scheduling decisions, so every completion up to
                # the next arrival is released as one batch — and once the
                # stream is exhausted the remaining drain is pure token
                # bookkeeping that affects no accounting row, so stop.
                if idx >= queued:
                    break
                now = submits[idx]
                release_until(now)
                append_pending(queue[idx])
                idx += 1
                while submits[idx] <= now:
                    append_pending(queue[idx])
                    idx += 1
                if track_dirty:
                    sim._dirty = True
            elif running:
                next_done = running[0][0]
                now = submits[idx]
                if now <= next_done:
                    if next_done <= now:  # completions tie with this submit
                        release_until(now)
                    append_pending(queue[idx])
                    idx += 1
                    while submits[idx] <= now:
                        append_pending(queue[idx])
                        idx += 1
                    if track_dirty:
                        sim._dirty = True
                else:
                    now = next_done
                    # Inline single-completion release (the common case);
                    # simultaneous completions fall back to release_until.
                    if len(running) == 1 or running[1][0] > now:
                        release(running[0][4])
                        del running[0]
                    else:
                        release_until(now)
            elif idx < queued:
                now = submits[idx]
                append_pending(queue[idx])
                idx += 1
                while submits[idx] <= now:
                    append_pending(queue[idx])
                    idx += 1
                if track_dirty:
                    sim._dirty = True
            else:
                break
            if pending:
                try_schedule(now)

    # The accounting columns, gathered from the submission arrays: the
    # event loop recorded only each row's start.
    started = [pair for sim in sims.values() for pair in sim.started]
    if len(started) != n:
        raise RuntimeError(f"scheduler lost jobs: {n} submitted, {len(started)} recorded")
    pairs = np.fromiter(chain.from_iterable(started), dtype=float, count=2 * n)
    start = np.empty(n)
    start[pairs[0::2].astype(np.intp)] = pairs[1::2]
    by_id = np.argsort(job_id)
    source = order[by_id]  # result row -> stream row
    table = JobTable(
        job_id=job_id[by_id],
        user=Categorical(
            stream.user.codes[source], stream.user.categories, _trusted_canonical=True
        ),
        field=Categorical(
            stream.field.codes[source], stream.field.categories, _trusted_canonical=True
        ),
        partition=Categorical(part[by_id], names, _trusted_canonical=True),
        submit=submit[by_id],
        start=start[by_id],
        end=(start + duration)[by_id],
        cores=cores[by_id],
        gpus=gpus[by_id],
        state=Categorical(state[by_id], _STATE_CATEGORIES),
        req_walltime=walltime[by_id],
    )
    return SchedulerResult(
        table=table, backfilled=sum(sim.backfilled for sim in sims.values())
    )
