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
from operator import attrgetter, itemgetter
from typing import Sequence

import numpy as np

from repro.cluster.allocation import NodeGranularAllocator, PooledAllocator
from repro.cluster.partitions import ClusterConfig, DEFAULT_CLUSTER, Partition
from repro.cluster.records import Categorical, JobState, JobTable
from repro.cluster.workload import SubmittedJob

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


# Queued jobs are flat tuples: everything the event loop touches, resolved
# once at validation time so the per-event code never chases SubmittedJob
# attributes (or pays a dataclass __init__) again. Layout:
#   (job_id, user, field, submit, cores, gpus, req_walltime, duration, state)
# where user/field are int codes factorized during the validation pass,
# duration is the actual occupancy decided by terminal state, and state is a
# pre-resolved int code into _STATE_CATEGORIES.
_Q_ID, _Q_USER, _Q_SUBMIT, _Q_CORES, _Q_GPUS, _Q_WALL = 0, 1, 3, 4, 5, 6


class _FairshareLedger:
    """Per-user usage with exponential decay (shared across partitions).

    Users are identified by the int codes assigned in the validation pass;
    the code <-> label mapping is a bijection, so decayed-usage ordering is
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
        # Accounting columns, one row per started job (columnar from the
        # start: building JobRecord objects per job dominated the hot path).
        self.rows: list[tuple] = []
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

    def next_completion(self) -> float | None:
        return self.running[0][0] if self.running else None

    # -- scheduling ---------------------------------------------------------

    def _order_pending(self, now: float) -> None:
        # FIFO: submission order is already queue order. Fairshare: the
        # decayed-usage ranking is time-invariant between usage updates —
        # usage(u, now) = [raw_u * 2^(stamp_u/h)] * 0.5^(now/h) shares the
        # 0.5^(now/h) factor across users — so the sort only needs to rerun
        # after a charge or a queue append (removals keep the order sorted).
        if self.ledger is None or not self._dirty:
            return
        usage = self.ledger.usage
        self.pending.sort(
            key=lambda qj: (usage(qj[_Q_USER], now), qj[_Q_SUBMIT], qj[_Q_ID])
        )
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
        job_id, user, field, submit, cores, gpus, req_wall, duration, state = qj
        token = self._alloc_allocate(cores, gpus)
        end = now + duration
        insort(self.running, (end, self._seq, cores, gpus, token))
        self._seq += 1
        if self.ledger is not None:
            self.ledger.charge(user, cores * duration, now)
            self._dirty = True
        self.rows.append(
            (job_id, user, field, submit, now, end, cores, gpus, state, req_wall)
        )

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
        rows_append = self.rows.append
        seq = self._seq
        while pending:
            qj = pending[0]
            cores = qj[_Q_CORES]
            gpus = qj[_Q_GPUS]
            if not fits(cores, gpus):
                break
            del pending[0]
            token = allocate(cores, gpus)
            end = now + qj[7]  # duration
            insort(running, (end, seq, cores, gpus, token))
            seq += 1
            if ledger is not None:
                ledger.charge(qj[_Q_USER], cores * qj[7], now)
                self._dirty = True
            rows_append(
                (qj[0], qj[1], qj[2], qj[3], now, end, cores, gpus, qj[8], qj[6])
            )
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
# per-job loop and the result rows never touch state strings, and the final
# assembly hands the codes straight to a Categorical block.
_STATE_CATEGORIES: tuple[str, ...] = tuple(sorted(s.value for s in JobState))
_CANCELLED = _STATE_CATEGORIES.index(JobState.CANCELLED.value)
_COMPLETED = _STATE_CATEGORIES.index(JobState.COMPLETED.value)
_FAILED = _STATE_CATEGORIES.index(JobState.FAILED.value)
_TIMEOUT = _STATE_CATEGORIES.index(JobState.TIMEOUT.value)

_INF = float("inf")

# Single C-level multi-attrgetter: cheaper than nine LOAD_ATTRs per job in
# the validation/terminal-state pass.
_EXTRACT = attrgetter(
    "partition",
    "cores",
    "gpus",
    "runtime",
    "requested_walltime",
    "job_id",
    "user",
    "field",
    "submit",
)


def simulate_schedule(
    jobs: Sequence[SubmittedJob],
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
        Submission stream (any order; sorted internally by submit time).
    cluster:
        Capacity model; defaults to :data:`~repro.cluster.partitions.DEFAULT_CLUSTER`.
    rng:
        Seeded generator for terminal-state assignment; defaults to
        ``default_rng(0)``.
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
        job names an unknown partition or can never fit on it.
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
    jobs = list(jobs)
    if jobs:
        # lexsort on (submit, job_id) columns beats sorted()+attrgetter at
        # this scale; the key pairs are unique so the order is identical.
        submit_key = np.fromiter((j.submit for j in jobs), dtype=float, count=len(jobs))
        id_key = np.fromiter((j.job_id for j in jobs), dtype=np.int64, count=len(jobs))
        ordered = [jobs[i] for i in np.lexsort((id_key, submit_key))]
    else:
        ordered = []

    ledger = _FairshareLedger(fairshare_halflife) if priority == "fairshare" else None
    sims = {
        p.name: _PartitionSim(p, backfill, backfill_depth, node_granular, ledger)
        for p in cluster
    }
    # (partition capacity, queue-append) triples resolved once; Partition.fits
    # and per-partition dict/method lookups would otherwise run per job.
    per_partition = {p.name: [] for p in cluster}
    capacity = {
        p.name: (p.total_cores, p.total_gpus, per_partition[p.name].append)
        for p in cluster
    }

    # Validate, decide terminal states, and group submissions per partition
    # in one pass (partitions are independent). Terminal-state logic is
    # inlined and the SubmittedJob attributes are pulled through one C-level
    # attrgetter: one decision per job, so even call overhead shows up here.
    # The cancelled branch models queue cancellations as very short runs so
    # every record keeps submit <= start <= end.
    rng_random = rng.random
    rng_uniform = rng.uniform
    # Factorize user/field inline: codes are assigned in first-seen order
    # and remapped to sorted category tables at assembly time. The event
    # loop, fairshare ledger, and result rows only ever touch small ints.
    user_index: dict[str, int] = {}
    field_index: dict[str, int] = {}
    user_setdefault = user_index.setdefault
    field_setdefault = field_index.setdefault
    user_len = user_index.__len__
    field_len = field_index.__len__
    for partition, cores, gpus, runtime, req_wall, job_id, user, field, submit in map(
        _EXTRACT, ordered
    ):
        entry = capacity.get(partition)
        if entry is None:
            raise ValueError(f"job {job_id} targets unknown partition {partition!r}")
        max_cores, max_gpus, append = entry
        if not (1 <= cores <= max_cores and 0 <= gpus <= max_gpus):
            raise ValueError(
                f"job {job_id} requests ({cores} cores, {gpus} gpus) "
                f"which can never fit partition {partition!r}"
            )
        u = rng_random()
        if u < failure_rate:
            state = _FAILED
            duration = max(60.0, runtime * rng_uniform(0.05, 0.8))
        elif (u := u - failure_rate) < cancel_rate:
            state = _CANCELLED
            duration = max(10.0, runtime * rng_uniform(0.0, 0.1))
        elif u - cancel_rate < timeout_rate:
            state = _TIMEOUT
            duration = req_wall
        else:
            state = _COMPLETED
            duration = runtime
        append(
            (
                job_id,
                user_setdefault(user, user_len()),
                field_setdefault(field, field_len()),
                submit,
                cores,
                gpus,
                req_wall,
                duration,
                state,
            )
        )

    track_dirty = ledger is not None
    for name, queue in per_partition.items():
        sim = sims[name]
        pending = sim.pending
        running = sim.running
        release_until = sim.release_until
        release = sim.allocator.release
        try_schedule = sim.try_schedule
        append_pending = pending.append
        submits = [qj[_Q_SUBMIT] for qj in queue]
        submits.append(_INF)  # sentinel: removes idx-bound checks below
        idx = 0
        n = len(queue)
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
                if idx >= n:
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
            elif idx < n:
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

    # Columnar assembly: rows already carry int codes, so the result columns
    # are built as numpy blocks directly — no object arrays, no per-row
    # JobRecord materialization, and the string columns land in JobTable as
    # ready-made Categorical blocks.
    rows: list[tuple] = []
    backfilled = 0
    part_labels = sorted(sims)
    part_code_of = {name: code for code, name in enumerate(part_labels)}
    part_code_chunks: list[np.ndarray] = []
    for name, sim in sims.items():
        rows.extend(sim.rows)
        part_code_chunks.append(
            np.full(len(sim.rows), part_code_of[name], dtype=np.int32)
        )
        backfilled += sim.backfilled
    if len(rows) != len(ordered):
        raise RuntimeError(
            f"scheduler lost jobs: {len(ordered)} submitted, {len(rows)} recorded"
        )
    if not rows:
        return SchedulerResult(table=JobTable.empty(), backfilled=backfilled)
    (job_id, user, field, submit, start, end, cores, gpus, state, req_wall) = zip(*rows)
    id_col = np.array(job_id, dtype=np.int64)
    order = np.argsort(id_col)

    def _remap_sorted(index: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
        # First-seen codes -> codes into the sorted category table.
        labels = list(index)
        rank_order = sorted(range(len(labels)), key=labels.__getitem__)
        lut = np.empty(len(labels), dtype=np.int32)
        for rank, first_seen in enumerate(rank_order):
            lut[first_seen] = rank
        return lut, tuple(labels[i] for i in rank_order)

    user_lut, user_cats = _remap_sorted(user_index)
    field_lut, field_cats = _remap_sorted(field_index)
    user_codes = user_lut[np.array(user, dtype=np.int32)][order]
    field_codes = field_lut[np.array(field, dtype=np.int32)][order]
    part_codes = np.concatenate(part_code_chunks)[order]
    state_codes = np.array(state, dtype=np.int32)[order]
    table = JobTable(
        job_id=id_col[order],
        # Every user/field in the index started a job, so those blocks are
        # canonical by construction; partition/state tables may contain
        # absent labels and get compacted by Categorical.canonical().
        user=Categorical(user_codes, user_cats, _trusted_canonical=True),
        field=Categorical(field_codes, field_cats, _trusted_canonical=True),
        partition=Categorical(part_codes, tuple(part_labels)),
        submit=np.array(submit, dtype=float)[order],
        start=np.array(start, dtype=float)[order],
        end=np.array(end, dtype=float)[order],
        cores=np.array(cores, dtype=np.int64)[order],
        gpus=np.array(gpus, dtype=np.int64)[order],
        state=Categorical(state_codes, _STATE_CATEGORIES),
        req_walltime=np.array(req_wall, dtype=float)[order],
    )
    return SchedulerResult(table=table, backfilled=backfilled)
