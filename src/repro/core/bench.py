"""Wall-clock benchmark harness for the generative substrates.

The pytest-benchmark ablations under ``benchmarks/`` leave no committed
trace. This module produces the repo's *perf trajectory*: small JSON
records (min-of-k wall times plus machine metadata) that each PR appends
to a ``BENCH_<n>.json`` file, so "made it faster" is a checked-in number
instead of a claim in a commit message.

Timed units (perfbench, the benchmark of record, times workload
synthesis, cohort synthesis and each experiment with spread; these are
what it does not price):

* ``simulate_schedule`` — the EASY-backfill scheduler simulator;
* ``retry_overhead``    — the scheduler simulation run through a pipeline
  *with* retry+timeout configured vs a plain pipeline, both fault-free.
  Both variants pay identical cache-pickling costs, so the pair isolates
  the fault-tolerance wrapper itself.
* ``journal_overhead``  — the same simulation run through a *durable*
  pipeline (run journal + cross-process entry locking on a disk cache) vs
  an identical disk-cache pipeline with both switched off. The
  differential isolates the crash-safety wrapper (journal records +
  advisory ``flock`` per computed step).
* ``trace_overhead``    — the same simulation run through a *traced*
  pipeline (``trace=True``: root/step/attempt spans + cache instants) vs
  an identical untraced one. The untraced run IS the tracing-disabled
  path, so the differential proves disabling tracing costs nothing and
  prices what enabling it adds.
* ``audit_overhead``    — a minimal two-leg reproducibility audit
  (baseline + identical sequential rerun) vs a plain double run of the
  same pipeline. The differential prices the audit harness itself —
  sandboxes, journaling, tracing, the digest walk, concordance assembly.
* ``dist_overhead``     — a 5-step diamond DAG of trivial steps on the
  fleet backend vs a sequential run, priced in seconds per step.
* ``serve_ingest_overhead`` — appending both feeds through the durable
  ingest WAL vs a plain flat-file append, as a fraction of one cold
  serve refresh over the same rows.
* ``metrics_overhead``  — the serve observability plane's per-request and
  per-publish instrumentation, timed directly, as a fraction of one
  serve cycle.
* ``serve_latency``     — request p50/p95/p99 from 4 concurrent client
  threads against a dirty service under deadline shedding.

Each of these eight records the value it prices in its ``detail``.
:data:`GATES` is the one table of limits — on those values, on
``simulate_schedule`` against the committed trajectory, and on the scale
sweep's fitted exponents — and :func:`evaluate_gate` checks one row.

Every unit is a pure function of a fixed seed, so run-to-run variance is
scheduler noise only; ``min`` of ``repeats`` runs is the recorded number,
except for ``simulate_schedule``: its gate compares medians against the
committed run's spread, so it records the median of at least
:data:`SCHEDULER_RUNS` runs.
From PR 5 each unit also records memory: ``max_rss_kb`` (the process RSS
high-watermark after the unit ran — monotonic across units, so compare
like units across records, not units within one record) and
``py_peak_kb`` (per-unit Python-heap peak from one extra
:mod:`tracemalloc`-instrumented pass; the min-of-k wall times are never
taken from that pass).

File format (``BENCH_*.json``)::

    {"schema": 1, "runs": [<record>, ...]}

where each record carries ``label``, ``scale``, ``created``, ``machine``,
``repeats`` and a ``benchmarks`` mapping of ``{name: {"seconds": <min>,
"runs": [...]}}``. Records append; history is never rewritten.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BenchScale",
    "SCALES",
    "SCHEDULER_RUNS",
    "SWEEP_FACTORS",
    "run_benchmarks",
    "run_scale_sweep",
    "append_run",
    "load_runs",
    "latest_run",
    "record_scale_factor",
    "fit_scaling_exponent",
    "Gate",
    "GATES",
    "evaluate_gate",
    "render_record",
    "render_scale_sweep",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class BenchScale:
    """One benchmark operating point.

    ``full`` is the tracked trajectory scale (a 3-month workload, the
    n=200 current cohort); ``quick`` is a CI-smoke scale that finishes in
    seconds while exercising the same code paths.
    """

    months: int
    jobs_per_day: float
    cohort_n: int
    repeats: int
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.jobs_per_day <= 0:
            raise ValueError("jobs_per_day must be positive")
        if self.cohort_n < 1:
            raise ValueError("cohort_n must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")


SCALES: dict[str, BenchScale] = {
    "full": BenchScale(
        months=3, jobs_per_day=400.0, cohort_n=200, repeats=3, scale_factor=1.0
    ),
    # quick runs 1/10th of full's nominal job volume (1 month x 120/day vs
    # 3 months x 400/day).
    "quick": BenchScale(
        months=1, jobs_per_day=120.0, cohort_n=60, repeats=2, scale_factor=0.1
    ),
}

#: Fewest runs behind the ``simulate_schedule`` row: its gate reads their
#: median, and the committed run's interquartile range, from them.
SCHEDULER_RUNS = 5

#: Default job-volume multipliers per scale for :func:`run_scale_sweep`.
#: ``full`` covers the tentpole 1x/10x/100x complexity curve; ``quick``
#: stops at 10x so the CI smoke sweep finishes in seconds.
SWEEP_FACTORS: dict[str, tuple[int, ...]] = {
    "full": (1, 10, 100),
    "quick": (1, 10),
}


def _time_min_of_k(fn: Callable[[], object], repeats: int, memory: bool = True) -> dict:
    """Run ``fn`` ``repeats`` times; record every wall time and the min.

    Also records memory: the process RSS high-watermark after the unit
    ran (``max_rss_kb``) and, when ``memory`` is True, the unit's own
    Python-heap peak (``py_peak_kb``) from one *extra*
    tracemalloc-instrumented pass — instrumentation slows allocation, so
    that pass never contributes a wall time and min-of-k is unaffected.
    """
    import tracemalloc

    from repro.core.trace import resource_probe

    runs: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(round(time.perf_counter() - t0, 6))
    result = {"seconds": min(runs), "runs": runs}
    probe = resource_probe()
    if probe is not None:
        result["max_rss_kb"] = probe[1]
    if memory:
        tracemalloc.start()
        try:
            fn()
            result["py_peak_kb"] = tracemalloc.get_traced_memory()[1] // 1024
        finally:
            tracemalloc.stop()
    return result


def _machine_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _per_call(fn: Callable[[], object], calls: int = 200) -> float:
    """Seconds per call of ``fn``: min over 3 blocks of the mean over ``calls``.

    The tiny-step estimator behind the differential benches: the wrappers
    they price cost microseconds per call, below what one timed call can
    resolve, so each block averages many calls and the min of three blocks
    drops blocks a scheduler hiccup landed in.
    """

    def block() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return min(block() for _ in range(3))


def _bench_simulate_schedule(jobs, k: int) -> dict:
    """Time ``simulate_schedule`` on ``jobs``: at least :data:`SCHEDULER_RUNS`
    runs, and ``seconds`` is their median (the value its gate reads)."""
    from repro.cluster import simulate_schedule

    timing = _time_min_of_k(
        lambda: simulate_schedule(jobs, rng=np.random.default_rng(0)),
        max(k, SCHEDULER_RUNS),
    )
    timing["seconds"] = round(float(np.median(timing["runs"])), 6)
    return timing


def _bench_retry_overhead(jobs, k: int) -> dict:
    """Time ``simulate_schedule`` through a plain vs fault-tolerant pipeline.

    Both variants run fault-free, sequentially, with ``force=True`` (so
    every repeat recomputes and republishes through the identical cache
    path); the only difference is the retry/timeout wrapper around each
    attempt. ``detail["overhead"]`` is the fractional slowdown the wrapper
    adds — the number the ``retry_overhead`` row of :data:`GATES` limits.
    """
    from repro.cluster import simulate_schedule
    from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep, RetryPolicy

    def sim(inputs):
        return simulate_schedule(jobs, rng=np.random.default_rng(0))

    def fault_tolerant(steps):
        return Pipeline(
            steps,
            ArtifactCache(),
            default_retry=RetryPolicy(max_attempts=3),
            default_timeout=3600.0,
        )

    # Headline number: the simulation through the fault-tolerant pipeline.
    tolerant_sim = fault_tolerant([PipelineStep("simulate", sim)])
    plain_sim = Pipeline([PipelineStep("simulate", sim)], ArtifactCache())
    plain_t = _time_min_of_k(
        lambda: plain_sim.run(force=True, executor="sequential"), k
    )
    tolerant_t = _time_min_of_k(
        lambda: tolerant_sim.run(force=True, executor="sequential"), k
    )

    # The wrapper costs microseconds against a tens-of-ms simulation, so a
    # ratio of two independently-noisy sim timings cannot resolve it (the
    # noise band is wider than the 2% gate). Instead measure the wrapper's
    # absolute per-run cost differentially on a trivial step — identical
    # pipelines except the retry/timeout config — and normalize by the
    # simulation time. That estimator is stable to ~0.05%.
    def tiny(inputs):
        return {"v": 1}

    plain_tiny = Pipeline([PipelineStep("tiny", tiny)], ArtifactCache())
    tolerant_tiny = fault_tolerant([PipelineStep("tiny", tiny)])
    wrapper_seconds = _per_call(
        lambda: tolerant_tiny.run(force=True, executor="sequential")
    ) - _per_call(lambda: plain_tiny.run(force=True, executor="sequential"))
    overhead = (
        wrapper_seconds / plain_t["seconds"] if plain_t["seconds"] > 0 else 0.0
    )
    return {
        "seconds": tolerant_t["seconds"],
        "runs": tolerant_t["runs"],
        "detail": {
            "plain_seconds": plain_t["seconds"],
            "wrapper_seconds": round(wrapper_seconds, 9),
            "overhead": round(overhead, 6),
        },
    }


def _bench_journal_overhead(jobs, k: int) -> dict:
    """Time ``simulate_schedule`` through a durable vs plain disk pipeline.

    The durable variant journals every step to a
    :class:`~repro.core.journal.RunJournal` (fresh journal per run, as the
    CLI does) and guards each computed entry with a cross-process
    :class:`~repro.io.locks.FileLock`; the baseline uses an identical disk
    cache with ``locking=False`` and no journal. Both pay the same
    pickle + fsync publish cost, so the differential tiny-step estimator
    isolates exactly the crash-safety wrapper. ``detail["overhead"]`` is
    that per-run wrapper cost as a fraction of the plain (in-memory)
    simulation time — the number the ``journal_overhead`` row of
    :data:`GATES` limits.
    """
    import tempfile

    from repro.cluster import simulate_schedule
    from repro.core.journal import RunJournal
    from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep
    from repro.io.locks import FileLock

    def sim(inputs):
        return simulate_schedule(jobs, rng=np.random.default_rng(0))

    def tiny(inputs):
        return {"v": 1}

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmpname:
        tmp = Path(tmpname)
        journal_dir = tmp / "journals"

        plain_sim = Pipeline([PipelineStep("simulate", sim)], ArtifactCache())
        plain_t = _time_min_of_k(
            lambda: plain_sim.run(force=True, executor="sequential"), k
        )

        durable_sim = Pipeline(
            [PipelineStep("simulate", sim)],
            ArtifactCache(tmp / "cache-sim", locking=True),
        )

        def durable_sim_run() -> None:
            with RunJournal.open(journal_dir) as journal:
                durable_sim.run(force=True, executor="sequential", journal=journal)

        durable_t = _time_min_of_k(durable_sim_run, k)

        # As with the retry gate, the wrapper costs microseconds against a
        # tens-of-ms simulation, so the headline ratio cannot resolve it.
        # Nor can a force=True differential: every forced run republishes
        # its artifact, and one publish fsync on this class of filesystem
        # costs ~700µs with ±300µs of state-dependent jitter — wider than
        # the whole 2% budget. Instead measure the two wrapper components
        # where they are actually paid, on fsync-free paths:
        #
        # * the journal's per-run cost, differentially: identical warm-
        #   cache pipelines (cache-hit path — no publish, no fsync, no
        #   lock) with and without a journal. This prices the real per-run
        #   journal traffic: segment open + run_start/step records +
        #   run_end.
        # * the entry lock's per-computed-step cost, as a direct
        #   acquire/release cycle on a warm lock file.
        #
        # The per-writer segment file (see repro.core.journal) is created
        # once per process, not per run, precisely so that no new-inode
        # metadata gets entangled with artifact-publish fsyncs; that one-
        # time cost is deliberately outside this recurring-overhead gate.
        base_tiny = Pipeline(
            [PipelineStep("tiny", tiny)],
            ArtifactCache(tmp / "cache-base", locking=False),
        )
        durable_tiny = Pipeline(
            [PipelineStep("tiny", tiny)],
            ArtifactCache(tmp / "cache-dur", locking=True),
        )
        base_tiny.run(executor="sequential")  # warm: one publish each,
        durable_tiny.run(executor="sequential")  # outside the timed loops

        def durable_run() -> None:
            with RunJournal.open(journal_dir) as journal:
                durable_tiny.run(executor="sequential", journal=journal)

        journal_seconds = max(
            0.0,
            _per_call(durable_run)
            - _per_call(lambda: base_tiny.run(executor="sequential")),
        )

        lock = FileLock(tmp / "probe.lock")
        with lock:
            pass  # warm: create the lock file, record the pid

        def lock_cycle() -> None:
            lock.acquire()
            lock.release()

        lock_seconds = _per_call(lock_cycle, calls=500)
        wrapper_seconds = journal_seconds + lock_seconds
    overhead = (
        wrapper_seconds / plain_t["seconds"] if plain_t["seconds"] > 0 else 0.0
    )
    return {
        "seconds": durable_t["seconds"],
        "runs": durable_t["runs"],
        "detail": {
            "plain_seconds": plain_t["seconds"],
            "journal_seconds": round(journal_seconds, 9),
            "lock_seconds": round(lock_seconds, 9),
            "wrapper_seconds": round(wrapper_seconds, 9),
            "overhead": round(overhead, 6),
        },
    }


def _bench_trace_overhead(jobs, k: int) -> dict:
    """Time ``simulate_schedule`` through a traced vs untraced pipeline.

    The untraced variant is the *tracing-disabled* path every ordinary run
    takes (``trace=None`` — one None test per emit site), so it doubles as
    the gate's baseline: there is no way to measure "disabled vs
    never-built", and any drift in the disabled path itself is caught by
    the ``simulate_schedule`` regression gate. The traced variant opens a
    fresh :class:`~repro.core.trace.Tracer` per run and pays the full span
    bus: root + step + attempt spans, cache instants, ambient activation.

    As with the retry/journal gates, the wrapper costs microseconds
    against a tens-of-ms simulation, so it is measured differentially on a
    trivial step and normalized by the plain simulation time;
    ``detail["overhead"]`` is that fraction, limited by the
    ``trace_overhead`` row of :data:`GATES`.
    """
    from repro.cluster import simulate_schedule
    from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep

    def sim(inputs):
        return simulate_schedule(jobs, rng=np.random.default_rng(0))

    def tiny(inputs):
        return {"v": 1}

    plain_sim = Pipeline([PipelineStep("simulate", sim)], ArtifactCache())
    traced_sim = Pipeline([PipelineStep("simulate", sim)], ArtifactCache())
    plain_t = _time_min_of_k(
        lambda: plain_sim.run(force=True, executor="sequential"), k, memory=False
    )
    traced_t = _time_min_of_k(
        lambda: traced_sim.run(force=True, executor="sequential", trace=True),
        k,
        memory=False,
    )

    plain_tiny = Pipeline([PipelineStep("tiny", tiny)], ArtifactCache())
    traced_tiny = Pipeline([PipelineStep("tiny", tiny)], ArtifactCache())
    wrapper_seconds = _per_call(
        lambda: traced_tiny.run(force=True, executor="sequential", trace=True)
    ) - _per_call(lambda: plain_tiny.run(force=True, executor="sequential"))
    overhead = (
        wrapper_seconds / plain_t["seconds"] if plain_t["seconds"] > 0 else 0.0
    )
    return {
        "seconds": traced_t["seconds"],
        "runs": traced_t["runs"],
        "detail": {
            "plain_seconds": plain_t["seconds"],
            "wrapper_seconds": round(wrapper_seconds, 9),
            "overhead": round(overhead, 6),
        },
    }


def _bench_audit_overhead(sc: "BenchScale", k: int) -> dict:
    """Time a two-leg reproducibility audit vs a plain double pipeline run.

    The minimal audit matrix — baseline plus one identical sequential
    rerun — does exactly the work of running the report pipeline twice,
    plus the harness itself: per-leg cache/journal sandboxes, tracing,
    the digest walk, and concordance assembly. A plain double run of the
    same pipeline is therefore the natural baseline, and
    ``detail["overhead"]`` is the fractional cost of auditing over merely
    re-running — the number the ``audit_overhead`` row of :data:`GATES`
    limits.

    One experiment (T1) rides along so the audit covers an ``exp:`` step
    (text digests) as well as the study stages (structural digests)
    without the bench paying for the whole registry.
    """
    from repro.audit.concordance import Perturbation
    from repro.audit.runner import run_audit
    from repro.core.pipeline import ArtifactCache
    from repro.report.experiments import report_pipeline

    study_kwargs = {
        "seed": 2024,
        "n_baseline": min(sc.cohort_n, 120),
        "n_current": sc.cohort_n,
        "months": sc.months,
        "jobs_per_day": min(sc.jobs_per_day, 200.0),
    }
    ids = ["T1"]

    def plain_double() -> None:
        for _ in range(2):
            report_pipeline(
                ArtifactCache(), experiment_ids=ids, **study_kwargs
            ).run(executor="sequential")

    plain_t = _time_min_of_k(plain_double, k, memory=False)

    matrix = (Perturbation("baseline"), Perturbation("rerun"))

    def audit() -> None:
        run_audit(matrix=matrix, experiment_ids=ids, study_kwargs=study_kwargs)

    audit_t = _time_min_of_k(audit, k, memory=False)
    wrapper_seconds = audit_t["seconds"] - plain_t["seconds"]
    overhead = (
        wrapper_seconds / plain_t["seconds"] if plain_t["seconds"] > 0 else 0.0
    )
    return {
        "seconds": audit_t["seconds"],
        "runs": audit_t["runs"],
        "detail": {
            "plain_seconds": plain_t["seconds"],
            "wrapper_seconds": round(wrapper_seconds, 9),
            "overhead": round(overhead, 6),
        },
    }


# Module level so the dist run spec can pickle them into worker processes.
def _dist_bench_source(inputs):
    return list(range(500))


def _dist_bench_band(inputs):
    return sum(inputs["source"])


def _dist_bench_sink(inputs):
    return inputs["band-0"] + inputs["band-1"] + inputs["band-2"]


def _bench_dist_overhead(k: int) -> dict:
    """Time a small DAG on the dist backend vs a sequential run.

    Fleet mode pays for fork-per-worker, heartbeat threads, lease files
    and assignment polling; on a 5-step diamond of trivial steps that
    coordination cost *is* the wall time, making this the worst case. The
    gate therefore prices it in absolute per-step seconds —
    ``(dist_wall - seq_wall) / steps`` — rather than as a ratio: the
    fleet-spawn cost is fixed, so any ratio against near-zero step
    compute would diverge as steps shrink and say nothing about real
    runs. The ``dist_overhead`` row of :data:`GATES` limits
    ``detail["overhead_per_step"]``.
    """
    import tempfile

    from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep

    steps = [
        PipelineStep("source", _dist_bench_source),
        PipelineStep("band-0", _dist_bench_band, depends_on=("source",)),
        PipelineStep("band-1", _dist_bench_band, depends_on=("source",)),
        PipelineStep("band-2", _dist_bench_band, depends_on=("source",)),
        PipelineStep("sink", _dist_bench_sink, depends_on=("band-0", "band-1", "band-2")),
    ]
    workers = 2
    dist_options = {
        "workers": workers,
        "heartbeat_interval": 0.05,
        "lease_ttl": 1.0,
        "poll_interval": 0.005,
        "tick_interval": 0.005,
    }
    repeats = min(k, 3)  # each dist repeat forks a fresh fleet

    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmpname:
        tmp = Path(tmpname)
        counter = [0]

        def fresh_pipeline() -> Pipeline:
            counter[0] += 1
            return Pipeline(list(steps), ArtifactCache(tmp / f"c{counter[0]}"))

        seq_t = _time_min_of_k(
            lambda: fresh_pipeline().run(executor="sequential"),
            repeats,
            memory=False,
        )
        dist_t = _time_min_of_k(
            lambda: fresh_pipeline().run(
                executor="dist", backend_options=dict(dist_options)
            ),
            repeats,
            memory=False,
        )
    overhead_per_step = max(0.0, dist_t["seconds"] - seq_t["seconds"]) / len(steps)
    return {
        "seconds": dist_t["seconds"],
        "runs": dist_t["runs"],
        "detail": {
            "seq_seconds": seq_t["seconds"],
            "steps": len(steps),
            "workers": workers,
            "overhead_per_step": round(overhead_per_step, 6),
        },
    }


def _bench_serve_ingest_overhead(sc: "BenchScale", k: int) -> dict:
    """Time durable WAL ingestion vs a plain flat-file append.

    The serve loop's write path pays for record framing, batch-dedupe
    bookkeeping, chunk hashing, and an fsync that a bare ``write()`` of
    the same export lines would skip. That durability cost only matters
    relative to the recompute one ingest unlocks, so
    ``detail["overhead"]`` is the *extra* ingest seconds as a fraction of
    one cold serve refresh over the same rows — the number the
    ``serve_ingest_overhead`` row of :data:`GATES` limits.
    """
    import tempfile

    from repro.core.pipeline import ArtifactCache
    from repro.serve.pipeline import serve_pipeline
    from repro.serve.wal import IngestWAL

    responses, sacct = _serve_study_lines(
        seed=2024,
        cohort_n=sc.cohort_n,
        jobs_per_day=min(sc.jobs_per_day, 60.0),
        months=3,  # the registry's F5 growth figure needs >= 3 months
    )
    sacct = sacct[1:]  # WAL rows carry data, not the header
    n_rows = len(responses) + len(sacct)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmpname:
        tmp = Path(tmpname)
        counter = [0]

        # Steady-state append path: the live service keeps its WAL open,
        # so the open/replay cost stays outside the timed region. Fresh
        # batch ids each round keep the dedupe from short-circuiting.
        ingest_wal = IngestWAL(tmp / "ingest-wal")

        def wal_ingest() -> None:
            counter[0] += 1
            ingest_wal.append("responses", responses, batch=f"r{counter[0]}")
            ingest_wal.append("sacct", sacct, batch=f"s{counter[0]}")

        wal_t = _time_min_of_k(wal_ingest, k, memory=False)
        ingest_wal.close()

        plain_fh = open(tmp / "plain.log", "a", encoding="utf-8")

        def plain_append() -> None:
            plain_fh.write("\n".join(responses) + "\n")
            plain_fh.write("\n".join(sacct) + "\n")
            plain_fh.flush()

        plain_t = _time_min_of_k(plain_append, k, memory=False)
        plain_fh.close()

        wal_dir = tmp / "refresh-wal"
        with IngestWAL(wal_dir) as wal:
            wal.append("responses", responses, batch="r0")
            wal.append("sacct", sacct, batch="s0")
            chunks = {
                "responses": wal.chunk("responses"),
                "sacct": wal.chunk("sacct"),
            }

        def cold_refresh() -> None:
            counter[0] += 1
            serve_pipeline(
                wal_dir,
                chunks,
                window_seconds=90.0 * 86400.0,
                experiment_ids=None,  # the default service serves the whole registry
                cache=ArtifactCache(tmp / f"c{counter[0]}"),
            ).run(executor="sequential")

        refresh_t = _time_min_of_k(cold_refresh, min(k, 3), memory=False)

    wrapper_seconds = max(0.0, wal_t["seconds"] - plain_t["seconds"])
    overhead = (
        wrapper_seconds / refresh_t["seconds"] if refresh_t["seconds"] > 0 else 0.0
    )
    return {
        "seconds": wal_t["seconds"],
        "runs": wal_t["runs"],
        "detail": {
            "plain_seconds": plain_t["seconds"],
            "refresh_seconds": refresh_t["seconds"],
            "rows": n_rows,
            "wrapper_seconds": round(wrapper_seconds, 9),
            "overhead": round(overhead, 6),
        },
    }


def _serve_study_lines(
    seed: int, *, cohort_n: int = 10, jobs_per_day: float = 2.0, months: int = 1
) -> tuple[list[str], list[str]]:
    """(response JSONL lines, sacct lines incl. header) for a small study."""
    import io

    from repro.cluster import write_sacct
    from repro.core import build_default_study
    from repro.io import write_responses_jsonl

    study = build_default_study(
        seed=seed,
        n_baseline=min(cohort_n, 120),
        n_current=cohort_n,
        months=months,
        jobs_per_day=jobs_per_day,
    )
    buf = io.StringIO()
    write_responses_jsonl(study.responses, buf)
    responses = buf.getvalue().splitlines()
    buf = io.StringIO()
    write_sacct(study.telemetry, buf)
    return responses, buf.getvalue().splitlines()


def _bench_metrics_overhead(sc: "BenchScale", k: int) -> dict:
    """Cost of the serve observability plane against one serve cycle.

    The plane adds two things to a resident service: registry updates on
    every request (a counter bump + one histogram observation) and a
    per-cycle publish on every status write (staleness/queue gauges, SLO
    load + evaluation, ring snapshot + exposition render + two file
    writes). Both are timed *directly* — they are stable µs-scale
    operations — and priced as a fraction of one measured serve cycle
    (forced refresh + request burst). A subtractive with/without wall
    clock cannot resolve this: the signal is sub-millisecond while a
    refresh carries ms-scale I/O jitter, so the differential would be
    gate noise, not measurement. The ``metrics_overhead`` row of
    :data:`GATES` limits the fraction.
    """
    import tempfile

    from repro.obs.slo import evaluate_slo, load_slo
    from repro.serve.service import ServeConfig, StudyService

    # A realistically sized cycle: the plane's fixed per-cycle cost must
    # amortize against a real refresh, not a toy one.
    responses, sacct = _serve_study_lines(
        seed=11, cohort_n=sc.cohort_n, jobs_per_day=min(sc.jobs_per_day, 60.0)
    )
    requests_per_cycle = 50
    with tempfile.TemporaryDirectory(prefix="repro-bench-metrics-") as tmpname:
        svc = StudyService(
            Path(tmpname),
            ServeConfig(months=1, experiments=("X1",), fsync="never"),
        )
        svc.ingest("responses", responses, batch="r0")
        svc.ingest("sacct", sacct, batch="s0")
        svc.refresh()

        def cycle() -> None:
            # refresh() persists status + ring on its way out — one
            # publish per cycle, the same shape as a --loop cycle.
            svc.refresh(force=True)
            for _ in range(requests_per_cycle):
                svc.request("X1")

        cycle()  # warmup: the first forced refresh pays one-time costs
        cycle_t = _time_min_of_k(cycle, max(k, 3), memory=False)

        registry, ring, root = svc.registry, svc._ring, svc.root
        reps = 1000

        def request_side() -> None:
            # What request() adds per call when the plane is on.
            for _ in range(reps):
                registry.inc("repro_requests_total")
                registry.observe("repro_request_seconds", 1e-3)

        request_t = _time_min_of_k(request_side, max(k, 3), memory=False)
        request_unit = request_t["seconds"] / reps

        def publish_side() -> None:
            # What _write_status() adds per cycle when the plane is on.
            registry.set_gauge("repro_staleness_rows_behind", 0)
            registry.set_gauge("repro_queue_depth", 0)
            policy = load_slo(root)
            if policy is not None:
                evaluate_slo(policy, registry)
            ring.publish(registry.snapshot(), registry.to_text())

        publish_t = _time_min_of_k(
            lambda: [publish_side() for _ in range(20)], max(k, 3), memory=False
        )
        publish_unit = publish_t["seconds"] / 20
        svc.close()

    instrument = requests_per_cycle * request_unit + publish_unit
    overhead = instrument / cycle_t["seconds"] if cycle_t["seconds"] > 0 else 0.0
    return {
        "seconds": cycle_t["seconds"],
        "runs": cycle_t["runs"],
        "detail": {
            "requests": requests_per_cycle,
            "request_us": round(request_unit * 1e6, 3),
            "publish_us": round(publish_unit * 1e6, 3),
            "instrument_seconds": round(instrument, 9),
            "overhead": round(overhead, 6),
        },
    }


def _bench_serve_latency(sc: "BenchScale", k: int) -> dict:
    """Request percentiles under concurrent load with shedding active.

    Drives N client threads, each firing a stream of tiny-deadline
    requests at a warm-but-dirty service: every request must be answered
    from the last-good artifact via deadline shedding (a recompute the
    client will not wait for never starts). p50/p95/p99 come from the
    service's own ``repro_request_seconds`` histogram — the numbers the
    SLO policy would judge — and the ``serve_latency`` row of
    :data:`GATES` limits the p99 absolutely: under load shedding there is
    no slow path left to hide in.
    """
    import tempfile
    import threading

    from repro.serve.service import ServeConfig, StudyService

    responses, sacct = _serve_study_lines(seed=12)
    n_threads, per_thread = 4, 50
    with tempfile.TemporaryDirectory(prefix="repro-bench-latency-") as tmpname:
        svc = StudyService(
            Path(tmpname), ServeConfig(months=1, experiments=("X1",))
        )
        svc.ingest("responses", responses, batch="r0")
        svc.ingest("sacct", sacct, batch="s0")
        svc.refresh()  # warm artifact + refresh-cost estimate
        # Fresh rows leave the service dirty: without a deadline each
        # request would trigger a recompute, with one it must shed.
        svc.ingest("responses", responses, batch="r1")

        def storm() -> None:
            def client() -> None:
                for _ in range(per_thread):
                    svc.request("X1", deadline=1e-4)

            threads = [threading.Thread(target=client) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        timing = _time_min_of_k(storm, min(k, 3), memory=False)
        registry = svc.registry
        pct = registry.percentiles("repro_request_seconds")
        count = registry.histogram_count("repro_request_seconds")
        requests = registry.value("repro_requests_total")
        shed = registry.value("repro_shed_total", reason="deadline") + registry.value(
            "repro_shed_total", reason="queue_full"
        )
        svc.close()
    return {
        "seconds": timing["seconds"],
        "runs": timing["runs"],
        "detail": {
            "threads": n_threads,
            "requests": int(requests),
            "observations": count,
            "p50": None if pct["p50"] is None else round(pct["p50"], 6),
            "p95": None if pct["p95"] is None else round(pct["p95"], 6),
            "p99": None if pct["p99"] is None else round(pct["p99"], 6),
            "shed_rate": round(shed / requests, 6) if requests else 0.0,
        },
    }


def run_benchmarks(
    scale: str = "full",
    label: str = "run",
    repeats: int | None = None,
) -> dict:
    """Time every substrate at ``scale`` and return one trajectory record.

    Parameters
    ----------
    scale:
        A key of :data:`SCALES` (``"full"`` or ``"quick"``).
    label:
        Free-form tag stored on the record (``"baseline"``, ``"after"``,
        ``"ci"``, ...).
    repeats:
        Override the scale's min-of-k repeat count.
    """
    # Imports are deferred so `repro --help` stays fast.
    from repro.cluster import WorkloadModel, WorkloadParams

    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    sc = SCALES[scale]
    k = repeats if repeats is not None else sc.repeats
    if k < 1:
        raise ValueError("repeats must be >= 1")

    params = WorkloadParams(months=sc.months, jobs_per_day=sc.jobs_per_day)
    model = WorkloadModel(params)
    benchmarks: dict[str, dict] = {}

    jobs = model.generate(np.random.default_rng(0))
    benchmarks["simulate_schedule"] = _bench_simulate_schedule(jobs, k)
    benchmarks["simulate_schedule"]["detail"] = {
        "months": sc.months,
        "jobs": len(jobs),
    }

    benchmarks["retry_overhead"] = _bench_retry_overhead(jobs, k)

    benchmarks["journal_overhead"] = _bench_journal_overhead(jobs, k)

    benchmarks["trace_overhead"] = _bench_trace_overhead(jobs, k)

    benchmarks["audit_overhead"] = _bench_audit_overhead(sc, k)

    benchmarks["dist_overhead"] = _bench_dist_overhead(k)

    benchmarks["serve_ingest_overhead"] = _bench_serve_ingest_overhead(sc, k)

    benchmarks["metrics_overhead"] = _bench_metrics_overhead(sc, k)

    benchmarks["serve_latency"] = _bench_serve_latency(sc, k)

    return {
        "label": label,
        "scale": scale,
        "scale_factor": sc.scale_factor,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "machine": _machine_metadata(),
        "repeats": k,
        "benchmarks": benchmarks,
    }


# -- scale sweep --------------------------------------------------------------


def _tiled_jobs(base_jobs, tiles: int, window_seconds: float):
    """Replay the base submission stream ``tiles`` times end to end.

    Volume scaling by trace replay: each tile shifts submit times by one
    whole window and renumbers job ids past the previous tile, so a
    ``tiles``-fold sweep point has *exactly* ``tiles``-times the jobs with
    the same arrival-rate regime, user population, and partition mix.
    Scaling the arrival rate instead would saturate the fixed-capacity
    cluster and measure backlog pathology, not the event core; scaling the
    window length would compound the workload model's monthly GPU growth
    into a qualitatively different (and eventually saturating) workload.
    ``base_jobs`` is a :class:`~repro.cluster.SubmissionTable`; the tiles
    are its columns repeated, with ids shifted by the base's id stride and
    submit times by one window per tile.
    """
    from repro.cluster import SubmissionTable
    from repro.cluster.records import Categorical

    if tiles <= 1:
        return base_jobs
    tile = np.repeat(np.arange(tiles), len(base_jobs))
    id_stride = int(base_jobs.job_id.max()) + 1

    def repeated(block: Categorical) -> Categorical:
        return Categorical(
            np.tile(block.codes, tiles), block.categories, _trusted_canonical=True
        )

    return SubmissionTable(
        job_id=np.tile(base_jobs.job_id, tiles) + tile * id_stride,
        user=repeated(base_jobs.user),
        field=repeated(base_jobs.field),
        partition=repeated(base_jobs.partition),
        submit=np.tile(base_jobs.submit, tiles) + tile * window_seconds,
        cores=np.tile(base_jobs.cores, tiles),
        gpus=np.tile(base_jobs.gpus, tiles),
        runtime=np.tile(base_jobs.runtime, tiles),
        requested_walltime=np.tile(base_jobs.requested_walltime, tiles),
    )


def fit_scaling_exponent(sizes, walls) -> float:
    """Least-squares slope of log(wall) vs log(size).

    1.0 is perfectly linear scaling; 2.0 quadratic. Needs at least two
    points. Wall times are clamped to 1 microsecond so a sub-resolution
    point cannot produce ``log(0)``.
    """
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.maximum(np.asarray(walls, dtype=float), 1e-6))
    if xs.size < 2:
        raise ValueError("fitting a scaling exponent needs >= 2 points")
    if xs.size != ys.size:
        raise ValueError("sizes and walls differ in length")
    return float(np.polyfit(xs, ys, 1)[0])


def run_scale_sweep(
    scale: str = "full",
    label: str = "dev",
    factors: tuple[int, ...] | None = None,
    repeats: int = 1,
) -> dict:
    """Measure simulate+analysis wall and peak RSS across job volumes.

    Runs the scheduler simulation plus the standard aggregation bundle
    (CPU-hours by field/month, GPU-hours, width distribution, wait stats,
    user concentration) at each volume multiple of the scale's base
    workload (see :func:`_tiled_jobs` for how volume is scaled), in
    ascending order so each point's ``max_rss_kb`` RSS high-watermark
    reflects that point. The record's ``detail`` carries one entry per
    point with an explicit ``scale_factor`` plus fitted scaling exponents
    (:func:`fit_scaling_exponent`) for simulate, analysis, total, and RSS
    — the ``scale_sweep`` rows of :data:`GATES` limit the total and RSS
    exponents.
    """
    from repro.cluster import WorkloadModel, WorkloadParams, simulate_schedule
    from repro.cluster.usage import (
        cpu_hours_by_field_month,
        gpu_hours_monthly,
        job_width_distribution,
        user_concentration,
        wait_stats_by_partition,
    )

    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    sc = SCALES[scale]
    chosen = tuple(sorted({int(f) for f in (factors or SWEEP_FACTORS[scale])}))
    if len(chosen) < 2:
        raise ValueError("scale sweep needs >= 2 distinct factors")
    if chosen[0] < 1:
        raise ValueError("sweep factors must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    params = WorkloadParams(months=sc.months, jobs_per_day=sc.jobs_per_day)
    base_jobs = WorkloadModel(params).generate(np.random.default_rng(0))
    window = params.window_seconds

    points: list[dict] = []
    for factor in chosen:
        jobs = _tiled_jobs(base_jobs, factor, window)
        captured: dict[str, object] = {}

        def run_sim() -> None:
            captured["table"] = simulate_schedule(
                jobs, rng=np.random.default_rng(0)
            ).table

        sim = _time_min_of_k(run_sim, repeats, memory=False)
        table = captured["table"]

        def run_analysis() -> None:
            cpu_hours_by_field_month(table)
            gpu_hours_monthly(table)
            job_width_distribution(table)
            wait_stats_by_partition(table)
            user_concentration(table)

        analysis = _time_min_of_k(run_analysis, repeats, memory=False)
        point = {
            "scale_factor": factor,
            "jobs": len(jobs),
            "simulate_seconds": sim["seconds"],
            "analysis_seconds": analysis["seconds"],
            "total_seconds": round(sim["seconds"] + analysis["seconds"], 6),
        }
        # The watermark after the analysis pass covers the whole point
        # (workload columns + simulation + aggregation buffers).
        if "max_rss_kb" in analysis:
            point["max_rss_kb"] = analysis["max_rss_kb"]
        points.append(point)
        del jobs, table, captured

    jobs_counts = [p["jobs"] for p in points]
    fit = {
        "simulate_exponent": round(
            fit_scaling_exponent(jobs_counts, [p["simulate_seconds"] for p in points]), 4
        ),
        "analysis_exponent": round(
            fit_scaling_exponent(jobs_counts, [p["analysis_seconds"] for p in points]), 4
        ),
        "total_exponent": round(
            fit_scaling_exponent(jobs_counts, [p["total_seconds"] for p in points]), 4
        ),
    }
    if all("max_rss_kb" in p for p in points):
        fit["rss_exponent"] = round(
            fit_scaling_exponent(jobs_counts, [p["max_rss_kb"] for p in points]), 4
        )
    totals = [p["total_seconds"] for p in points]
    entry = {
        "seconds": round(sum(totals), 6),
        "runs": totals,
        "detail": {
            "base_months": sc.months,
            "base_jobs_per_day": sc.jobs_per_day,
            "factors": list(chosen),
            "points": points,
            "fit": fit,
        },
    }
    return {
        "label": label,
        "scale": f"{scale}-sweep",
        "scale_factor": sc.scale_factor,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "machine": _machine_metadata(),
        "repeats": repeats,
        "benchmarks": {"scale_sweep": entry},
    }


# -- trajectory files ---------------------------------------------------------


def load_runs(path: Path | str) -> list[dict]:
    """All run records in a ``BENCH_*.json`` file (oldest first).

    Raises ``ValueError`` naming ``path`` unless the file is JSON whose
    ``runs`` is a list of objects.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    runs = data.get("runs") if isinstance(data, dict) else None
    if not isinstance(runs, list) or not all(isinstance(r, dict) for r in runs):
        raise ValueError(
            f"{path}: not a benchmark trajectory file (no 'runs' list of objects)"
        )
    return runs


def append_run(path: Path | str, record: dict) -> None:
    """Append ``record`` to the trajectory at ``path`` (created if missing)."""
    path = Path(path)
    runs = load_runs(path) if path.exists() else []
    runs.append(record)
    path.write_text(
        json.dumps({"schema": SCHEMA_VERSION, "runs": runs}, indent=2) + "\n",
        encoding="utf-8",
    )


def latest_run(runs: Sequence[dict], scale: str, label: str | None = None) -> dict | None:
    """Most recent run at ``scale`` (and ``label``, when given)."""
    for record in reversed(runs):
        if record.get("scale") != scale:
            continue
        if label is not None and record.get("label") != label:
            continue
        return record
    return None


def record_scale_factor(record: dict) -> float:
    """Job-volume scale factor of a record, with back-compat inference.

    Records written from this version on carry an explicit
    ``scale_factor`` field; older records are inferred from their scale
    name via :data:`SCALES` (``full`` -> 1.0, ``quick`` -> 0.1). Unknown
    legacy scales default to 1.0 — the safe reading for trajectory
    analysis, which only needs factors to be comparable *within* a scale.
    """
    value = record.get("scale_factor")
    if value is not None:
        return float(value)
    sc = SCALES.get(str(record.get("scale", "")))
    if sc is not None:
        return sc.scale_factor
    return 1.0


GATE_KINDS = ("baseline", "ratio", "seconds", "exponent")


@dataclass(frozen=True, slots=True)
class Gate:
    """One row of :data:`GATES`: a limit on one value of one benchmark.

    ``value`` is a dotted path into the benchmark's entry (``seconds``,
    ``detail.overhead``, ``detail.fit.total_exponent``). ``kind`` says how
    the value meets ``limit``:

    * ``baseline`` — ``value`` names a list of repeat timings; their
      median may exceed the median of the same list in the latest
      same-scale committed run by at most ``limit`` times that median or
      3 times its interquartile range, whichever is larger (the range
      counts only when that list holds :data:`SCHEDULER_RUNS` or more);
    * ``ratio``    — an overhead fraction measured inside one record is at
      most ``limit``;
    * ``seconds``  — an absolute time is at most ``limit`` seconds;
    * ``exponent`` — a fitted log-log scaling exponent is at most ``limit``.

    ``note`` renders the evidence printed beside the verdict; ``reason``
    says why the limit is what it is.
    """

    benchmark: str
    value: str
    kind: str
    limit: float
    reason: str
    note: Callable[[dict], str]

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"{self.benchmark}: unknown gate kind {self.kind!r}")
        # An absolute time or exponent limit of 0 cannot be met; a ratio
        # or baseline limit of 0 means "no slower than the reference".
        absolute = self.kind in ("seconds", "exponent")
        if self.limit < 0 or (absolute and self.limit == 0):
            bound = "positive" if absolute else "non-negative"
            raise ValueError(
                f"{self.benchmark} limit must be {bound}, got {self.limit}"
            )


def _versus(measured: str, base_key: str, base: str) -> Callable[[dict], str]:
    """Note for a differential bench: its headline time vs its reference's."""
    return lambda e: (
        f"{e['seconds']:.3f}s {measured} vs {e['detail'][base_key]:.3f}s {base}"
    )


def _latency_note(entry: dict) -> str:
    """Percentiles and shedding; the p99 is None only when no request was timed."""
    detail = entry["detail"]
    if detail.get("p99") is None:
        return "recorded no requests"
    return (
        f"p50 {detail['p50'] * 1e3:.2f}ms / p95 {detail['p95'] * 1e3:.2f}ms over "
        f"{detail['requests']} request(s), shed rate {detail['shed_rate']:.0%}"
    )


def _sweep_note(entry: dict) -> str:
    """Wall growth against job growth between the sweep's end points."""
    points = entry["detail"]["points"]
    lo, hi = points[0], points[-1]
    return (
        f"{hi['scale_factor']}x/{lo['scale_factor']}x wall ratio "
        f"{hi['total_seconds'] / max(lo['total_seconds'], 1e-6):.1f}x "
        f"for {hi['jobs'] / max(lo['jobs'], 1):.0f}x jobs"
    )


#: Every limit ``repro bench --check`` enforces, one row each. The only
#: cross-record row is the scheduler's baseline; every other row reads a
#: value measured inside one record, so machine speed cancels out.
GATES: tuple[Gate, ...] = (
    Gate(
        "simulate_schedule", "runs", "baseline", 0.25,
        reason=(
            "The scheduler is the reproduction's hot path. The median of "
            "at least five runs may exceed the committed median by 25%, or "
            "by three interquartile ranges of the committed runs when they "
            "spread wider: a 2x slowdown fails, run-to-run noise does not."
        ),
        note=lambda e: (
            f"median {_median(e['runs']):.4f}s of {len(e['runs'])} run(s)"
        ),
    ),
    Gate(
        "retry_overhead", "detail.overhead", "ratio", 0.02,
        reason=(
            "The retry/timeout wrapper must be near-free on fault-free "
            "runs; it is priced differentially on a trivial step against "
            "the plain simulation time of the same run."
        ),
        note=_versus("tolerant", "plain_seconds", "plain"),
    ),
    Gate(
        "journal_overhead", "detail.overhead", "ratio", 0.02,
        reason=(
            "The crash-safety wrapper (journal records plus one entry-lock "
            "cycle per computed step), priced on fsync-free paths so "
            "filesystem noise cancels."
        ),
        note=_versus("durable", "plain_seconds", "plain"),
    ),
    Gate(
        "trace_overhead", "detail.overhead", "ratio", 0.03,
        reason=(
            "The untraced side of the differential is the tracing-disabled "
            "path itself, so one row proves disabled tracing costs nothing "
            "and bounds what trace=True adds."
        ),
        note=_versus("traced", "plain_seconds", "untraced"),
    ),
    Gate(
        "audit_overhead", "detail.overhead", "ratio", 0.05,
        reason=(
            "The audit harness (sandboxes, journaling, tracing, digest "
            "walk, concordance) over a plain double pipeline run. Its cost "
            "is roughly fixed while the double run shrank, so this row "
            "fails on 2-vCPU hosts."
        ),
        note=_versus("audited", "plain_seconds", "plain double run"),
    ),
    Gate(
        "dist_overhead", "detail.overhead_per_step", "seconds", 0.25,
        reason=(
            "Fleet mode's fork, heartbeat and lease cost is fixed, so it "
            "is priced in seconds per step over a sequential run of the "
            "same trivial DAG; a ratio against near-zero step compute "
            "would say nothing about real runs."
        ),
        note=_versus("fleet", "seq_seconds", "sequential"),
    ),
    Gate(
        "serve_ingest_overhead", "detail.overhead", "ratio", 0.10,
        reason=(
            "The WAL's durability cost (framing, dedupe bookkeeping, chunk "
            "hashing, group-commit fsync) over a plain flat-file append, "
            "as a fraction of the cold serve refresh one ingest unlocks."
        ),
        note=lambda e: (
            f"{e['seconds']:.3f}s WAL ingest vs "
            f"{e['detail']['plain_seconds']:.3f}s plain append, as a fraction "
            f"of refresh {e['detail']['refresh_seconds']:.3f}s"
        ),
    ),
    Gate(
        "metrics_overhead", "detail.overhead", "ratio", 0.03,
        reason=(
            "Registry updates per request plus SLO evaluation and ring "
            "publish per status write, priced against one measured serve "
            "cycle: the same always-on argument as tracing."
        ),
        note=lambda e: (
            f"{float(e['detail']['instrument_seconds']) * 1e3:.2f}ms "
            f"instrumentation per {e['seconds'] * 1e3:.1f}ms serve cycle "
            f"at {e['detail']['request_us']}us/request and "
            f"{e['detail']['publish_us']}us/publish"
        ),
    ),
    Gate(
        "serve_latency", "detail.p99", "seconds", 0.5,
        reason=(
            "Four concurrent request loops under deadline shedding: every "
            "answer must come off the warm fast path, so the p99 is "
            "bounded absolutely, not relative to recompute cost."
        ),
        note=_latency_note,
    ),
    Gate(
        "scale_sweep", "detail.fit.total_exponent", "exponent", 1.35,
        reason=(
            "Simulate + analysis wall time over tiled job volumes: 1.0 is "
            "linear and 2.0 quadratic, so 1.35 demands clearly "
            "sub-quadratic scaling."
        ),
        note=_sweep_note,
    ),
    Gate(
        "scale_sweep", "detail.fit.rss_exponent", "exponent", 1.2,
        reason="Peak RSS must stay near linear in job volume.",
        note=_sweep_note,
    ),
)


def _median(values: Sequence[float]) -> float:
    return float(np.median(values))


def _find(node, path: str):
    """What dotted ``path`` names under ``node`` (``""``: ``node``), or None."""
    for key in path.split(".") if path else ():
        node = node.get(key) if isinstance(node, dict) else None
    return node


def evaluate_gate(
    gate: Gate, record: dict, runs: Sequence[dict] = ()
) -> tuple[bool, str]:
    """``(ok, message)`` for one :data:`GATES` row against ``record``.

    ``runs`` is the committed trajectory (:func:`load_runs`); only
    ``baseline`` rows read it. A row passes vacuously, with a message
    saying so, when its benchmark or value is absent from ``record`` or,
    for a ``baseline`` row, from the latest same-scale run in ``runs`` —
    so no gate blocks the change that introduces a benchmark or a scale.
    """
    name = gate.benchmark
    entry = _find(record, f"benchmarks.{name}")
    container, _, label = gate.value.rpartition(".")
    if not isinstance(_find(entry, container), dict):
        return True, f"{name} benchmark missing from run; skipping gate"
    note = gate.note(entry)
    value = _find(entry, gate.value)
    if value is None:
        return True, f"{name}: {note}; no {label}, skipping gate"
    if gate.kind == "baseline":
        baseline = latest_run(runs, scale=record.get("scale"))
        base_runs = _find(baseline, f"benchmarks.{name}.{gate.value}") or []
        base = _median(base_runs) if base_runs else 0.0
        if base <= 0:
            return True, (
                f"{name}: no baseline at scale {record.get('scale')!r}; "
                "skipping gate"
            )
        # Fewer runs than a fresh row holds give no usable IQR (records
        # written before the row took SCHEDULER_RUNS hold two or three).
        if len(base_runs) >= SCHEDULER_RUNS:
            q1, q3 = np.percentile(base_runs, [25, 75])
            spread = 3.0 * float(q3 - q1) / base
            widened = f"3 IQR = +{spread:.0%}"
        else:
            spread = 0.0
            widened = f"no IQR from {len(base_runs)} runs"
        limit = 1.0 + max(gate.limit, spread)
        ratio = _median(value) / base
        return ratio <= limit, (
            f"{name}: {note} vs baseline median {base:.4f}s of {len(base_runs)} "
            f"({ratio:.0%} of baseline, limit {limit:.0%}: the larger of "
            f"+{gate.limit:.0%} and {widened})"
        )
    value = float(value)
    if gate.kind == "ratio":
        verdict = f"{value:+.1%} {label}, limit {gate.limit:+.0%}"
    elif gate.kind == "seconds":
        verdict = f"{label} {value * 1e3:.2f}ms, limit {gate.limit * 1e3:.0f}ms"
    else:
        verdict = f"{label} {value:.3f}, limit {gate.limit}"
    return value <= gate.limit, f"{name}: {note} ({verdict})"


def render_scale_sweep(record: dict) -> str:
    """Human-readable per-point table for a scale-sweep record."""
    entry = record["benchmarks"]["scale_sweep"]
    detail = entry["detail"]
    lines = [
        f"scale sweep [{record['label']}] scale={record['scale']} "
        f"base={detail['base_months']}mo x {detail['base_jobs_per_day']:g}/day "
        f"({record['machine']['platform']})"
    ]
    for p in detail["points"]:
        rss = f"  rss={p['max_rss_kb'] / 1024:8.1f}MB" if "max_rss_kb" in p else ""
        lines.append(
            f"  {p['scale_factor']:>4}x  jobs={p['jobs']:>9}  "
            f"simulate={p['simulate_seconds']:8.3f}s  "
            f"analysis={p['analysis_seconds']:8.3f}s  "
            f"total={p['total_seconds']:8.3f}s{rss}"
        )
    fit = detail["fit"]
    fitted = "  ".join(f"{k.removesuffix('_exponent')}={v:.3f}" for k, v in fit.items())
    lines.append(f"  fitted exponents: {fitted}")
    return "\n".join(lines)


def render_record(record: dict) -> str:
    """Human-readable one-record timing table."""
    lines = [
        f"bench [{record['label']}] scale={record['scale']} "
        f"repeats={record['repeats']} ({record['machine']['platform']})"
    ]
    width = max(len(name) for name in record["benchmarks"])
    for name, entry in record["benchmarks"].items():
        memory = ""
        if "py_peak_kb" in entry:
            memory = f"  {entry['py_peak_kb'] / 1024:7.1f}MB py-peak"
        detail = entry.get("detail")
        suffix = f"  {detail}" if detail else ""
        lines.append(f"  {name:<{width}}  {entry['seconds']:9.3f}s{memory}{suffix}")
    return "\n".join(lines)
