"""Executor instrumentation for the DAG pipeline and the experiment fan-out.

Every parallel entry point (:meth:`repro.core.Pipeline.run`,
:func:`repro.report.run_all_experiments`) records what actually happened —
which units ran vs came from cache, how long each took, and how busy the
worker pool was — into an :class:`ExecutorMetrics`. The golden-artifact
suite guarantees parallel output is byte-identical to sequential output, so
these metrics are the only observable difference between the two modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "StepMetric",
    "ExecutorMetrics",
    "StepOutcome",
    "RunReport",
    "OUTCOMES",
]

#: Every per-step outcome an executor run can record. ``ok`` and ``cached``
#: are the happy paths; ``retried`` means the step succeeded after at least
#: one failed attempt; ``replayed`` means a resumed run served the step
#: from journal + cache without re-executing it; ``failed``/``timeout``
#: are terminal step failures; ``skipped_upstream`` marks steps never
#: attempted because a dependency failed (only reachable with
#: ``on_error="keep_going"``).
OUTCOMES = (
    "ok", "cached", "retried", "replayed", "failed", "timeout", "skipped_upstream",
)

#: Outcomes that mean the unit's value was produced this run.
SUCCESS_OUTCOMES = frozenset({"ok", "cached", "retried", "replayed"})


@dataclass(frozen=True)
class StepMetric:
    """One executed (or cache-served) unit of work.

    Attributes
    ----------
    name:
        Step name (pipeline) or experiment id (report fan-out).
    key:
        Content-address of the unit's artifact ("" when uncached).
    cached:
        True when the value was served from the artifact cache.
    wall_seconds:
        Wall time spent obtaining the value (cache hit or compute).
    outcome:
        One of :data:`OUTCOMES`.
    attempts:
        Number of attempts made (0 for cached and skipped units).
    error:
        ``repr`` of the final exception for failed/timed-out units, or a
        short reason for skipped units ("" otherwise).
    cache_unavailable:
        True when the unit computed its value but the cache write failed
        (``ENOSPC``/``OSError``) and the run continued uncached.
    queue_seconds:
        Time the unit spent *ready but waiting* — between its last
        dependency resolving (or its submission) and its compute actually
        starting, including process-pool queueing. 0.0 when the executor
        could not measure it.
    compute_seconds:
        Time actually spent obtaining the value once scheduled (wall
        minus in-step pool wait). ``None`` when the executor did not
        split it out, in which case ``wall_seconds`` is the best estimate.
    """

    name: str
    key: str
    cached: bool
    wall_seconds: float
    outcome: str = "ok"
    attempts: int = 1
    error: str = ""
    cache_unavailable: bool = False
    queue_seconds: float = 0.0
    compute_seconds: float | None = None


@dataclass(frozen=True)
class StepOutcome:
    """Per-step verdict of a fault-tolerant run (see :class:`RunReport`)."""

    name: str
    status: str  # one of OUTCOMES
    attempts: int = 1
    error: str = ""
    wall_seconds: float = 0.0
    cache_unavailable: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status in SUCCESS_OUTCOMES


@dataclass(frozen=True)
class RunReport:
    """Structured per-step outcome record of one pipeline run.

    A projection of :attr:`ExecutorMetrics.steps` (see
    :attr:`ExecutorMetrics.run_report`), so the report and the timing
    record of a run cannot disagree. :meth:`repro.core.Pipeline.run`
    exposes it as ``Pipeline.last_report`` regardless of ``on_error``
    mode; with ``on_error="raise"`` a failing run still reports every
    outcome settled by the time the failure propagated.

    ``resumed_from`` carries the prior run's id when this run was started
    with ``Pipeline.run(resume=...)``.
    """

    outcomes: tuple[StepOutcome, ...]
    resumed_from: str | None = None

    @property
    def resumed(self) -> bool:
        """True when this run recovered a prior journaled run."""
        return self.resumed_from is not None

    def outcome(self, name: str) -> StepOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(f"no outcome recorded for step {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(o.name == name for o in self.outcomes)

    @property
    def ok(self) -> bool:
        """True when every recorded step produced its value."""
        return all(o.succeeded for o in self.outcomes)

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of steps that terminally failed (including timeouts)."""
        return tuple(o.name for o in self.outcomes if o.status in ("failed", "timeout"))

    @property
    def skipped(self) -> tuple[str, ...]:
        """Names of steps never attempted because an upstream step failed."""
        return tuple(o.name for o in self.outcomes if o.status == "skipped_upstream")

    @property
    def retried(self) -> tuple[str, ...]:
        """Names of steps that succeeded only after at least one retry."""
        return tuple(o.name for o in self.outcomes if o.status == "retried")

    @property
    def replayed(self) -> tuple[str, ...]:
        """Names of steps served from journal + cache by a resumed run."""
        return tuple(o.name for o in self.outcomes if o.status == "replayed")

    @property
    def replayed_from_journal(self) -> int:
        """How many steps a resumed run recovered without re-executing."""
        return len(self.replayed)

    @property
    def cache_unavailable(self) -> tuple[str, ...]:
        """Names of steps whose value computed but never reached the cache
        (full disk or other cache-write failure; the run continued)."""
        return tuple(o.name for o in self.outcomes if o.cache_unavailable)

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes)

    def counts(self) -> dict[str, int]:
        """``{status: count}`` over every recorded outcome."""
        tally: dict[str, int] = {}
        for o in self.outcomes:
            tally[o.status] = tally.get(o.status, 0) + 1
        return tally

    def render(self) -> str:
        """Human-readable outcome summary (one line per non-ok step)."""
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        headline = f"run report: {len(self.outcomes)} steps ({counts})"
        if self.resumed:
            headline += f" [resumed from {self.resumed_from}]"
        lines = [headline]
        for o in self.outcomes:
            if o.status in ("ok", "cached", "replayed") and not o.cache_unavailable:
                continue
            detail = f" after {o.attempts} attempts" if o.attempts > 1 else ""
            reason = f" — {o.error}" if o.error else ""
            flag = " [cache unavailable]" if o.cache_unavailable else ""
            lines.append(f"  {o.name}: {o.status}{detail}{flag}{reason}")
        return "\n".join(lines)


@dataclass
class ExecutorMetrics:
    """Aggregate record of one executor run.

    ``resumed_from`` / ``journal_path`` / ``journal_unavailable`` surface
    the durability layer: whether the run recovered a prior journal, where
    its own journal lives, and whether journal writes were disabled by an
    I/O failure mid-run.
    """

    mode: str
    max_workers: int
    steps: list[StepMetric] = field(default_factory=list)
    wall_seconds: float = 0.0
    resumed_from: str | None = None
    journal_path: str | None = None
    journal_unavailable: bool = False
    #: Backend-specific counters (dist: reassignments, speculations,
    #: quarantined steps, dead workers, publish audit). None for the
    #: in-process executors.
    backend_stats: dict[str, Any] | None = None

    def record(
        self,
        name: str,
        key: str,
        cached: bool,
        wall_seconds: float,
        outcome: str = "ok",
        attempts: int = 1,
        error: str = "",
        cache_unavailable: bool = False,
        queue_seconds: float = 0.0,
        compute_seconds: float | None = None,
    ) -> None:
        self.steps.append(
            StepMetric(
                name, key, cached, wall_seconds, outcome, attempts, error,
                cache_unavailable, queue_seconds, compute_seconds,
            )
        )

    @property
    def run_report(self) -> RunReport:
        """The run's :class:`RunReport`: one outcome per step, in
        :attr:`steps` order (pipeline order after ``Pipeline.run``)."""
        return RunReport(
            outcomes=tuple(
                StepOutcome(
                    s.name, s.outcome, s.attempts, s.error, s.wall_seconds,
                    s.cache_unavailable,
                )
                for s in self.steps
            ),
            resumed_from=self.resumed_from,
        )

    @property
    def steps_run(self) -> int:
        """Steps whose value was computed this run."""
        return sum(1 for s in self.steps if not s.cached and s.outcome in ("ok", "retried"))

    @property
    def steps_cached(self) -> int:
        """Steps served from the artifact cache."""
        return sum(1 for s in self.steps if s.cached)

    @property
    def steps_failed(self) -> int:
        """Steps that terminally failed or timed out this run."""
        return sum(1 for s in self.steps if s.outcome in ("failed", "timeout"))

    @property
    def steps_skipped(self) -> int:
        """Steps skipped because an upstream dependency failed."""
        return sum(1 for s in self.steps if s.outcome == "skipped_upstream")

    @property
    def steps_replayed(self) -> int:
        """Steps a resumed run served from journal + cache."""
        return sum(1 for s in self.steps if s.outcome == "replayed")

    @property
    def steps_cache_unavailable(self) -> int:
        """Steps that computed but could not persist to the cache."""
        return sum(1 for s in self.steps if s.cache_unavailable)

    @property
    def busy_seconds(self) -> float:
        """Total worker-seconds spent computing (cache hits excluded)."""
        return sum(s.wall_seconds for s in self.steps if not s.cached)

    def worker_utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent computing.

        1.0 means every worker was busy for the whole run; a sequential
        run of pure compute also reports ~1.0 (one worker, always busy).
        """
        capacity = self.wall_seconds * max(self.max_workers, 1)
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def summary(self) -> dict[str, float | int | str]:
        """Flat dict of the headline numbers (for logs and benches)."""
        return {
            "mode": self.mode,
            "max_workers": self.max_workers,
            "steps_run": self.steps_run,
            "steps_cached": self.steps_cached,
            "steps_replayed": self.steps_replayed,
            "wall_seconds": round(self.wall_seconds, 4),
            "busy_seconds": round(self.busy_seconds, 4),
            "worker_utilization": round(self.worker_utilization(), 4),
        }

    @property
    def cache_read_seconds(self) -> float:
        """Total wall time spent serving steps from the artifact cache."""
        return sum(s.wall_seconds for s in self.steps if s.cached)

    def render(self) -> str:
        """Human-readable multi-line timing report.

        A fully-cached run collapses to a single summary line — a table of
        uniformly near-zero cache reads tells the reader nothing, and the
        interesting number there is the total cache-read time.
        """
        degraded = self.steps_failed or self.steps_skipped
        headline = (
            f"executor: {self.mode} (max_workers={self.max_workers}) — "
            f"{self.steps_run} run, {self.steps_cached} cached, "
            f"{self.wall_seconds:.2f}s wall, "
            f"{100.0 * self.worker_utilization():.0f}% utilization"
        )
        if self.steps_replayed:
            headline += f", {self.steps_replayed} replayed from journal"
        if degraded:
            headline += f" [{self.steps_failed} failed, {self.steps_skipped} skipped]"
        lines = [headline]
        if self.resumed_from is not None:
            lines.append(f"  resumed from run {self.resumed_from}")
        if self.journal_unavailable:
            lines.append("  journal unavailable (writes disabled mid-run)")
        if self.backend_stats:
            interesting = {
                k: v
                for k, v in sorted(self.backend_stats.items())
                if v
                and k
                not in ("backend", "workers", "publishes", "worker_pids", "registry")
            }
            if interesting:
                lines.append(
                    "  fleet: "
                    + ", ".join(f"{k}={v}" for k, v in interesting.items())
                )
        if self.steps_cache_unavailable:
            lines.append(
                f"  {self.steps_cache_unavailable} step(s) ran uncached "
                "(cache writes failed — full disk?)"
            )
        if (
            self.steps
            and self.steps_run == 0
            and self.steps_replayed == 0
            and not degraded
        ):
            lines.append(
                f"  all {self.steps_cached} steps cached "
                f"(cache reads took {self.cache_read_seconds:.3f}s)"
            )
            return "\n".join(lines)
        width = max((len(s.name) for s in self.steps), default=0)
        for s in sorted(self.steps, key=lambda m: -m.wall_seconds):
            tag = "cached" if s.cached else ("ran" if s.outcome == "ok" else s.outcome)
            # Compute and queue-wait are separate columns: a step that
            # "took 4s" because it sat 3.9s behind a busy pool is a
            # scheduling problem, not a compute problem.
            compute = s.compute_seconds if s.compute_seconds is not None else s.wall_seconds
            suffix = f"  x{s.attempts}" if s.attempts > 1 else ""
            if s.cache_unavailable:
                suffix += "  [cache unavailable]"
            reason = f"  {s.error}" if s.error and s.outcome != "ok" else ""
            lines.append(
                f"  {s.name:<{width}}  {tag:<16} {compute:8.3f}s"
                f"  +{s.queue_seconds:.3f}s wait{suffix}{reason}"
            )
        return "\n".join(lines)
