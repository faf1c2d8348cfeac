"""``StudyService``: the always-on incremental study server.

One resident process owns a service *root* directory::

    root/
      wal/         append-only ingest log (repro.serve.wal)
      cache/       content-addressed artifact cache (shared machinery)
      journals/    per-refresh run journals (rotated + compacted)
      state.json   committed chunk frontier + breaker ladders (atomic)
      status.json  health/readiness probe snapshot (atomic)

Control flow per public call:

* :meth:`ingest` — WAL-append first (rows are acked only after the
  batch fsync), then mark the feed dirty. Any WAL I/O failure flips the
  service to **read-only serving**: requests keep being answered from
  last-good artifacts (tagged STALE), new rows are refused, the process
  stays up.
* :meth:`refresh` — one incremental recompute cycle: build the serve
  pipeline against the current chunk frontier (quarantined feeds pinned
  to their last-good chunk, quarantined experiments excluded), run it
  journaled + resumable with ``on_error="keep_going"``, feed every step
  outcome to the circuit breaker, commit the chunks of the feeds that
  succeeded, refresh warm artifacts.
* :meth:`request` — admission-controlled serving: clean artifacts are
  answered FRESH from memory; a dirty artifact triggers an inline
  refresh *unless* the request's deadline is shorter than the current
  refresh-cost estimate (shed → STALE) or the bounded wait queue is full
  (shed → STALE).
* :meth:`drain` — SIGTERM path: stop accepting rows, flush WAL +
  journal state, write a final status snapshot; the caller then exits 0.

Crash safety: everything the service *believes* is derivable from disk —
the WAL is the row frontier, the cache holds artifacts, the journal holds
the in-flight run, ``state.json`` only memoizes the committed chunks (and
breaker ladders) so a restart knows what is dirty. SIGKILL at any
instruction loses at most unacked rows and in-flight compute; the next
start replays the WAL, resumes the journaled run, and converges to
artifacts byte-identical to a clean rebuild of the same rows (the
``tests/serve`` chaos matrix sweeps exactly this).

Time discipline: refresh pacing and breaker cooldowns are counted in
*cycles*, never wall-clock, so a skewed or backwards-jumping clock (the
clock-skew chaos coordinate) cannot wedge quarantine or staleness
accounting; the injectable ``clock`` feeds only advisory
``staleness_seconds``/uptime numbers, which are clamped non-negative.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.cluster.sacct import _HEADER as SACCT_HEADER
from repro.core.journal import (
    JournalError,
    RunJournal,
    compact as journal_compact,
    latest_resume_state,
)
from repro.core.metrics import SUCCESS_OUTCOMES, RunReport
from repro.core.pipeline import ArtifactCache
from repro.core.trace import Tracer
from repro.obs.registry import MetricsRegistry, count_instants
from repro.obs.ring import MetricsRing
from repro.obs.slo import evaluate_slo, load_slo
from repro.report.experiments import EXPERIMENTS
from repro.serve.admission import AdmissionController, QueueFull, ServeResult
from repro.serve.breaker import CircuitBreaker
from repro.serve.pipeline import INGEST_STEPS, serve_pipeline
from repro.serve.wal import KINDS, IngestReceipt, IngestWAL, WALUnavailable, parse_chunk

__all__ = [
    "ServeConfig",
    "ServiceReadOnly",
    "ServiceDraining",
    "RefreshResult",
    "StudyService",
    "read_status",
]

STATE_VERSION = 1


class ServiceReadOnly(RuntimeError):
    """Ingestion refused: the service has degraded to read-only serving."""


class ServiceDraining(RuntimeError):
    """Ingestion refused: the service is draining for shutdown."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunable service policy (all cache-key-neutral except the study
    window, which is a real study parameter)."""

    months: int = 3
    experiments: tuple[str, ...] | None = None  # None = every registered id
    executor: str = "sequential"
    queue_size: int = 8
    default_deadline: float | None = None
    breaker_threshold: int = 3
    breaker_cooldown: int = 2
    wal_rotate_bytes: int = 4 << 20
    journal_rotate_bytes: int = 256 << 10
    compact_every: int = 8
    fsync: str = "interval"
    metrics_rotate_bytes: int = 64 << 10
    #: The ``--loop`` refresh cadence, recorded into status.json so the
    #: out-of-process probe can spot a wedged service by mtime age.
    status_interval: float | None = None

    @property
    def window_seconds(self) -> float:
        return self.months * 30.0 * 86400.0

    def experiment_ids(self) -> list[str]:
        if self.experiments is None:
            return sorted(EXPERIMENTS)
        unknown = [e for e in self.experiments if e not in EXPERIMENTS]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
        return sorted(self.experiments)


@dataclass(frozen=True)
class RefreshResult:
    """Outcome of one :meth:`StudyService.refresh` call."""

    ran: bool
    reason: str  # refreshed | clean | waiting_for_data | read_only | draining | quarantined
    seconds: float = 0.0
    report: RunReport | None = None
    failed: tuple[str, ...] = ()
    excluded: tuple[str, ...] = ()
    pinned: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.failed or self.excluded or self.pinned)


@dataclass
class _ArtifactMeta:
    cycle: int
    chunks: dict[str, str] = field(default_factory=dict)


class StudyService:
    """The resident study server (see module docstring)."""

    def __init__(
        self,
        root: str | Path,
        config: ServeConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServeConfig()
        self.config.experiment_ids()  # validate early
        self.wal_dir = self.root / "wal"
        self.cache_dir = self.root / "cache"
        self.journal_dir = self.root / "journals"
        self.state_path = self.root / "state.json"
        self.status_path = self.root / "status.json"
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_dir.mkdir(parents=True, exist_ok=True)

        self._clock = clock
        self._started_at = clock()
        self._lock = threading.RLock()
        self.admission = AdmissionController(self.config.queue_size)
        #: The SLO-facing observability plane: per-request latency
        #: histogram, shed/degraded counters, service events and skipped
        #: rows in a mergeable registry, persisted through the
        #: size-rotated ``metrics/`` ring every status write.
        self.registry = MetricsRegistry()
        self._ring = MetricsRing(
            self.root / "metrics", rotate_bytes=self.config.metrics_rotate_bytes
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        #: Chaos seam: installed as :attr:`RunJournal.chaos` on every
        #: journal a refresh opens (the kill-mid-recompute coordinates).
        self.journal_chaos: Callable[..., None] | None = None
        self.read_only = False
        self.read_only_reason = ""
        self.draining = False
        self.last_report: RunReport | None = None
        self.last_refresh_seconds: float | None = None
        self._last_refresh_at: float | None = None
        self._artifacts: dict[str, Any] = {}
        self._artifact_meta: dict[str, _ArtifactMeta] = {}
        self._committed: dict[str, str] = {}
        self._cycle = 0

        # WAL first: replaying it IS crash recovery for the ingest side.
        self.wal = IngestWAL(
            self.wal_dir, rotate_bytes=self.config.wal_rotate_bytes
        )
        if self.wal.unavailable:
            self._enter_read_only(f"wal: {self.wal.error}")
        self.cache = ArtifactCache(self.cache_dir)
        self._load_state()
        self._write_status()

    # -- durable state ---------------------------------------------------------

    def _load_state(self) -> None:
        try:
            raw = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return  # fresh root, or torn state: everything recomputes from WAL
        if not isinstance(raw, dict):
            return
        committed = raw.get("committed")
        if isinstance(committed, dict):
            self._committed = {
                str(k): str(v) for k, v in committed.items() if k in KINDS
            }
        self._cycle = int(raw.get("cycle", 0))
        self.breaker.load(raw.get("breaker", {}))

    def _save_state(self) -> None:
        payload = {
            "version": STATE_VERSION,
            "committed": dict(self._committed),
            "cycle": self._cycle,
            "breaker": self.breaker.to_dict(),
        }
        self._atomic_write(self.state_path, json.dumps(payload, sort_keys=True) + "\n")

    @staticmethod
    def _atomic_write(path: Path, text: str) -> bool:
        """tmp + fsync + replace; False (never raises) on I/O failure —
        losing a probe/state snapshot must not kill the service."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, text.encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False

    # -- degradation -----------------------------------------------------------

    def _enter_read_only(self, reason: str) -> None:
        if self.read_only:
            return
        self.read_only = True
        self.read_only_reason = reason
        self.registry.inc("repro_events_total", event="serve.read_only")

    # -- ingestion -------------------------------------------------------------

    def ingest(
        self, kind: str, lines: list[str] | tuple[str, ...], batch: str | None = None
    ) -> IngestReceipt:
        """Durably accept rows for one feed (WAL-append + fsync = ack).

        ``sacct`` feeds may include the export header; it is stripped, not
        stored (the parser re-adds it). Raises :class:`ServiceDraining` /
        :class:`ServiceReadOnly` when rows cannot be accepted — the rows
        are then *not* acked and the client should retry elsewhere/later
        (re-sending with the same ``batch`` id is always safe).
        """
        with self._lock:
            if self.draining:
                raise ServiceDraining("service is draining; rows not accepted")
            if self.read_only:
                raise ServiceReadOnly(
                    f"service is read-only ({self.read_only_reason}); rows not accepted"
                )
            if kind == "sacct":
                lines = [l for l in lines if l.rstrip("\r\n") != SACCT_HEADER]
            try:
                receipt = self.wal.append(kind, list(lines), batch=batch)
            except WALUnavailable as exc:
                # The ENOSPC/torn-write ladder: ingestion dies, serving
                # survives. Requests keep answering STALE from last-good.
                self._enter_read_only(f"wal: {exc}")
                self._write_status()
                raise ServiceReadOnly(str(exc)) from exc
            self.registry.inc("repro_events_total", event="serve.ingest")
            self._write_status()
            return receipt

    def ingest_responses(
        self, lines: list[str] | tuple[str, ...], batch: str | None = None
    ) -> IngestReceipt:
        return self.ingest("responses", lines, batch=batch)

    def ingest_sacct(
        self, lines: list[str] | tuple[str, ...], batch: str | None = None
    ) -> IngestReceipt:
        return self.ingest("sacct", lines, batch=batch)

    # -- dirtiness -------------------------------------------------------------

    def _target_chunks(self, cycle: int) -> tuple[dict[str, str], tuple[str, ...]]:
        """The chunk frontier this cycle should build against.

        Quarantined feeds are *pinned* to their last committed chunk —
        stale-but-sane input — so a poisoned feed cannot stop the other
        feed's updates from flowing into the study.
        """
        chunks: dict[str, str] = {}
        pinned: list[str] = []
        for step, kind in INGEST_STEPS.items():
            current = self.wal.chunk(kind)
            if self.breaker.quarantined(step, cycle) and kind in self._committed:
                chunks[kind] = self._committed[kind]
                pinned.append(step)
            else:
                chunks[kind] = current
        return chunks, tuple(pinned)

    def _behind(self, eid: str) -> int:
        """WAL rows accepted after ``eid``'s artifact snapshot (staleness)."""
        meta = self._artifact_meta.get(eid)
        if meta is None:
            return 0
        behind = 0
        for kind in KINDS:
            chunk = meta.chunks.get(kind)
            if chunk is None:
                continue
            built, _ = parse_chunk(chunk)
            behind += max(self.wal.count(kind) - built, 0)
        return behind

    @property
    def dirty(self) -> bool:
        """Whether a refresh would do work (frontier moved, or holes)."""
        with self._lock:
            chunks, _ = self._target_chunks(self._cycle)
            if chunks != self._committed:
                return True
            cycle = self._cycle
            for eid in self.config.experiment_ids():
                if eid in self._artifacts:
                    continue
                if not self.breaker.quarantined(f"exp:{eid}", cycle):
                    return True
            return False

    # -- the refresh cycle -----------------------------------------------------

    def refresh(self, force: bool = False, fault_plan: Any = None) -> RefreshResult:
        """Run one incremental recompute cycle (see module docstring).

        ``fault_plan`` is the chaos seam — forwarded to ``Pipeline.run``
        so tests can fail chosen subtrees deterministically.

        Skipped cycles (clean, waiting for data, read-only, quarantined)
        still persist the status snapshot: a resident but *idle* service
        must keep looking alive to out-of-process probes, whose
        uptime/staleness fields would otherwise freeze at the last real
        refresh. Draining is the one exception — :meth:`drain` wrote the
        final snapshot and the WAL is already closed.
        """
        with self._lock:
            if self.draining:
                return RefreshResult(ran=False, reason="draining")
            if self.read_only:
                # Read-only means *serving only*: recompute would race the
                # failing disk (cache puts, journal writes). Serve last-good.
                self._write_status()
                return RefreshResult(ran=False, reason="read_only")
            if any(self.wal.count(kind) == 0 for kind in KINDS):
                self._write_status()
                return RefreshResult(ran=False, reason="waiting_for_data")
            cycle = self._cycle
            if self.breaker.quarantined("study", cycle) and not force:
                self._write_status()
                return RefreshResult(
                    ran=False, reason="quarantined", excluded=("study",)
                )
            chunks, pinned = self._target_chunks(cycle)
            ids = self.config.experiment_ids()
            excluded = tuple(
                f"exp:{eid}"
                for eid in ids
                if self.breaker.quarantined(f"exp:{eid}", cycle)
            )
            missing = [
                eid
                for eid in ids
                if eid not in self._artifacts and f"exp:{eid}" not in excluded
            ]
            if not force and chunks == self._committed and not missing:
                self._write_status()
                return RefreshResult(ran=False, reason="clean")

            self._cycle = cycle = cycle + 1
            t0 = time.perf_counter()
            pipeline = serve_pipeline(
                self.wal_dir,
                chunks,
                window_seconds=self.config.window_seconds,
                experiment_ids=ids,
                exclude=excluded,
                cache=self.cache,
            )
            resume = None
            try:
                prior = latest_resume_state(self.journal_dir)
                if prior is not None and prior.interrupted:
                    resume = prior  # key-mismatched entries are ignored by run()
            except JournalError:
                resume = None  # unreadable journal: the cache still dedupes
            journal = RunJournal.open(
                self.journal_dir,
                fsync=self.config.fsync,
                rotate_bytes=self.config.journal_rotate_bytes,
            )
            journal.chaos = self.journal_chaos
            tracer = Tracer()
            try:
                results = pipeline.run(
                    force=force,
                    executor=self.config.executor,
                    on_error="keep_going",
                    journal=journal,
                    resume=resume,
                    trace=tracer,
                    fault_plan=fault_plan,
                )
            finally:
                journal.close()
                count_instants(self.registry, tracer)
            seconds = time.perf_counter() - t0
            report = pipeline.last_report
            self.last_report = report
            self.last_refresh_seconds = seconds
            self._last_refresh_at = self._clock()

            failed: list[str] = []
            succeeded: set[str] = set()
            if report is not None:
                for outcome in report.outcomes:
                    if outcome.succeeded:
                        succeeded.add(outcome.name)
                        self.breaker.record_success(outcome.name)
                    elif outcome.status in ("failed", "timeout"):
                        failed.append(outcome.name)
                        opened = self.breaker.record_failure(
                            outcome.name, cycle, error=outcome.error
                        )
                        if opened:
                            self.registry.inc(
                                "repro_events_total", event="serve.quarantine"
                            )
                    # skipped_upstream: neither success nor the step's own fault

            for step, kind in INGEST_STEPS.items():
                if step in succeeded:
                    self._committed[kind] = chunks[kind]
            for eid in ids:
                name = f"exp:{eid}"
                if name in results:
                    self._artifacts[eid] = results[name]
                    self._artifact_meta[eid] = _ArtifactMeta(
                        cycle=cycle, chunks=dict(chunks)
                    )

            self._save_state()
            if self.config.compact_every and cycle % self.config.compact_every == 0:
                # No journal is open here, so compaction is safe; it keeps
                # exactly the latest run's records (the only resumable one).
                journal_compact(self.journal_dir)
            self.registry.inc("repro_events_total", event="serve.refresh")
            self._write_status()
            return RefreshResult(
                ran=True,
                reason="refreshed",
                seconds=seconds,
                report=report,
                failed=tuple(failed),
                excluded=excluded,
                pinned=pinned,
            )

    # -- the request path ------------------------------------------------------

    def _serve_from_memory(self, eid: str, reason: str) -> ServeResult:
        artifact = self._artifacts.get(eid)
        if artifact is None:
            result = ServeResult(
                eid, "unavailable", None, reason=reason or "never_built"
            )
        else:
            behind = self._behind(eid)
            meta = self._artifact_meta.get(eid)
            status = "fresh" if behind == 0 and not reason else "stale"
            result = ServeResult(
                eid,
                status,
                artifact,
                reason=reason if status == "stale" else "",
                refresh_seq=meta.cycle if meta is not None else -1,
                behind=behind,
            )
        self.admission.record_result(result)
        return result

    def request(self, experiment_id: str, deadline: float | None = None) -> ServeResult:
        """Answer one artifact request under admission control.

        ``deadline`` is the client's patience in seconds (defaults to
        ``config.default_deadline``; None = wait for any recompute). The
        answer is always the best available artifact — FRESH when it
        matches the WAL frontier, STALE (with a reason) when load
        shedding, quarantine, or degradation got in the way, UNAVAILABLE
        only when nothing has ever been built.

        Every request is observed end to end (admission decision through
        answer) into ``repro_request_seconds``; sheds and degraded
        answers are counted by reason. That is the data the SLO policy
        judges, so instrumentation wraps the *whole* path, including the
        recompute a FRESH answer may have waited for.
        """
        t0 = time.perf_counter()
        result = self._request(experiment_id, deadline)
        self.registry.inc("repro_requests_total")
        self.registry.observe("repro_request_seconds", time.perf_counter() - t0)
        if result.reason in ("queue_full", "deadline"):
            self.registry.inc("repro_shed_total", reason=result.reason)
        elif result.status != "fresh":
            self.registry.inc(
                "repro_degraded_total", reason=result.reason or result.status
            )
        return result

    def _request(
        self, experiment_id: str, deadline: float | None = None
    ) -> ServeResult:
        if experiment_id not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
            )
        if deadline is None:
            deadline = self.config.default_deadline
        self.admission.count("requests")
        with self._lock:
            eid = experiment_id
            name = f"exp:{eid}"
            fresh_ok = eid in self._artifacts and self._behind(eid) == 0
            if fresh_ok and not self.dirty:
                return self._serve_from_memory(eid, "")
            if self.draining:
                return self._serve_from_memory(eid, "draining")
            if self.read_only:
                return self._serve_from_memory(eid, "read_only")
            if self.breaker.quarantined(name, self._cycle) or self.breaker.quarantined(
                "study", self._cycle
            ):
                return self._serve_from_memory(eid, "quarantined")
            # Deadline-aware shedding: don't start a recompute the client
            # won't wait out. The estimate is the last cycle's cost.
            estimate = self.last_refresh_seconds
            if (
                deadline is not None
                and estimate is not None
                and estimate > deadline
            ):
                return self._serve_from_memory(eid, "deadline")
            try:
                slot = self.admission.admit()
            except QueueFull:
                return self._serve_from_memory(eid, "queue_full")
            with slot:
                outcome = self.refresh()
            if eid in self._artifacts and self._behind(eid) == 0:
                return self._serve_from_memory(eid, "")
            reason = "refresh_failed"
            if not outcome.ran:
                reason = outcome.reason  # read_only / draining / waiting_for_data / ...
            elif f"exp:{eid}" in outcome.excluded:
                reason = "quarantined"
            elif outcome.pinned:
                reason = "pinned_feed"
            return self._serve_from_memory(eid, reason)

    # -- probes ----------------------------------------------------------------

    @property
    def mode(self) -> str:
        if self.draining:
            return "draining"
        if self.read_only:
            return "read_only"
        if not self._artifacts:
            return "empty"
        return "serving"

    def status(self) -> dict[str, Any]:
        """The health/readiness snapshot (also persisted to status.json).

        ``ready`` is the readiness-probe bit: at least one artifact is
        warm, so requests can be answered (possibly STALE). ``mode``
        distinguishes liveness flavors; counters come straight off the
        metrics registry and the admission controller.
        """
        with self._lock:
            now = self._clock()
            staleness = (
                max(now - self._last_refresh_at, 0.0)
                if self._last_refresh_at is not None
                else None
            )
            chunks, pinned = self._target_chunks(self._cycle)
            payload = {
                "mode": self.mode,
                "ready": bool(self._artifacts),
                "read_only_reason": self.read_only_reason,
                "pid": os.getpid(),
                "uptime_seconds": round(max(now - self._started_at, 0.0), 3),
                "cycle": self._cycle,
                "dirty": self.dirty,
                "chunks": chunks,
                "committed": dict(self._committed),
                "pinned_feeds": list(pinned),
                "quarantined": self.breaker.open_steps(self._cycle),
                "breaker": {
                    step: dict(state.to_dict(), phase=state.phase(self._cycle))
                    for step, state in self.breaker.items()
                },
                "artifacts": {
                    eid: {"cycle": meta.cycle, "behind": self._behind(eid)}
                    for eid, meta in sorted(self._artifact_meta.items())
                },
                "last_refresh_seconds": self.last_refresh_seconds,
                "staleness_seconds": staleness,
                "wal": self.wal.stats(),
                "admission": self.admission.stats(),
                "events": self.registry.counts("repro_events_total", "event"),
                "skipped_rows": self.registry.counts(
                    "repro_skipped_rows_total", "reader"
                ),
                "refresh_interval_seconds": self.config.status_interval,
                "slo": None,
            }
            behind = max(
                (int(m["behind"]) for m in payload["artifacts"].values()),
                default=0,
            )
            self.registry.set_gauge("repro_staleness_rows_behind", behind)
            self.registry.set_gauge(
                "repro_queue_depth", payload["admission"]["waiting"]
            )
            # Reloaded on every probe so a redeclared slo.json takes
            # effect without a restart (it's one tiny file).
            policy = load_slo(self.root)
            if policy is not None:
                verdict = evaluate_slo(policy, self.registry)
                payload["slo"] = "ok" if verdict["ok"] else "breached"
                payload["slo_detail"] = verdict["checks"]
            return payload

    def publish_status(self) -> dict[str, Any]:
        """Persist the current probe snapshot + metrics ring; return it.

        The CLI's one-shot path ends here rather than at :meth:`status`
        so that the printed status, the on-disk ``status.json``, and the
        metrics ring all agree — including requests answered *after* the
        last refresh (refresh persists mid-cycle, so without this final
        publish the SLO verdict would never see one-shot request
        latencies).
        """
        return self._write_status()

    def _write_status(self) -> dict[str, Any]:
        payload = self.status()
        self._atomic_write(
            self.status_path, json.dumps(payload, sort_keys=True) + "\n"
        )
        self._ring.publish(self.registry.snapshot(), self.registry.to_text())
        return payload

    # -- shutdown --------------------------------------------------------------

    def drain(self) -> None:
        """Graceful SIGTERM path: flush everything, refuse new rows.

        Idempotent. After drain the service still answers :meth:`request`
        (STALE) and :meth:`status`; the owning process is expected to
        exit 0 once its in-flight work is done.
        """
        with self._lock:
            if self.draining:
                return
            self.draining = True
            self.wal.flush()
            self.wal.close()
            self._save_state()
            self.registry.inc("repro_events_total", event="serve.drain")
            self._write_status()

    def close(self) -> None:
        """Release file handles without draining semantics (tests)."""
        with self._lock:
            self.wal.close()


def read_status(root: str | Path) -> dict[str, Any] | None:
    """Read a service root's probe snapshot (None when absent/torn).

    This is the out-of-process probe used by ``repro serve --status``: it
    never touches the WAL or cache, so probing cannot interfere with a
    live (or crashed) service.
    """
    try:
        raw = json.loads(
            (Path(root) / "status.json").read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    return raw if isinstance(raw, dict) else None
