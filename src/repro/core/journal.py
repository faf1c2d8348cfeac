"""Durable, append-only run journal: crash-safe progress for pipeline runs.

A :class:`RunJournal` records what a :meth:`repro.core.Pipeline.run`
actually accomplished — run id, the step→cache-key map, and one
cache-key-addressed outcome record per step — as newline-delimited JSON.
After a ``kill -9``, node preemption, or full disk,
:func:`load_resume_state` rebuilds the completed frontier from the
journal and ``Pipeline.run(resume=...)`` replays those steps from the
artifact cache, re-executing only what was in flight; the resumed run's
artifacts are byte-identical to an uninterrupted run (the crash-chaos
suite SIGKILLs at every (step, event) coordinate and asserts exactly
that).

File layout: per-writer segments
--------------------------------
Journal bytes live in one append-only *segment file per writer process*
(``w<pid>.journal``), not one file per run; every record is tagged with
its ``run`` id, so readers (:func:`load_resume_state`,
:func:`latest_run_id`) reassemble a run by scanning the directory's
segments. Two reasons:

* Segments are strictly single-writer, so a torn tail can only ever sit
  at the end of a dead writer's segment — concurrent runs (which get
  distinct pids) can never interleave mid-record.
* Creating a file inode *per run* is the single most expensive part of
  journaling on metadata-slow filesystems (measured here: ~100µs for the
  ``open`` plus ~350µs added to the next artifact-publish ``fsync``,
  which must flush the entangled directory update — versus appends to an
  existing segment, which cost nothing at fsync time). Reusing the
  writer's segment across runs amortizes that inode to once per process.

Durability model
----------------
Every record is ``os.write``-appended immediately, so a killed *process*
loses nothing (the page cache survives process death). Against machine
power loss the journal is group-committed: ``fsync="interval"`` (default)
fsyncs at most every ``fsync_interval`` seconds, bounding lost progress to
that window; ``fsync="always"`` fsyncs every record; ``fsync="never"``
leaves durability to the OS (explicit :meth:`flush` still fsyncs). The
journal is *progress metadata, not a write-ahead log*: a lost or torn
record only costs recomputing that step on resume, never correctness, so
bounded-staleness fsync is safe.

Torn tails are expected: a writer killed mid-record (the chaos suite's
torn-write injector does this deliberately) leaves a final line without a
terminator or with broken JSON. Readers drop it and report
``torn_tail=True``.

Failure containment: journal I/O errors (``ENOSPC``, permissions, a
vanished directory) disable the journal and set :attr:`RunJournal.error`;
the run itself continues unjournaled. A run must never die because its
progress log could not be written.

Resident processes: rotation and compaction
-------------------------------------------
A batch run writes a few dozen records and exits; a resident process
(``repro serve``) appends records for every refresh cycle, forever, so
the per-writer segment grows without bound. Two bounded-space tools:

* ``rotate_bytes=`` caps the active segment: when an append would push it
  past the threshold the segment is renamed to ``w<pid>-<n>.journal``
  (still matched by readers' ``*.journal`` glob) and a fresh segment is
  started. Rotation only ever happens on a record boundary, so archived
  segments are never torn mid-record.
* :func:`compact` rewrites a quiescent journal directory down to just the
  records of the latest resumable run — everything older can never be
  resumed again and is dead weight. Must not run concurrently with a live
  writer.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = [
    "JournalError",
    "RunJournal",
    "ResumeState",
    "load_resume_state",
    "latest_resume_state",
    "read_journal",
    "latest_run_id",
    "new_run_id",
    "compact",
]

JOURNAL_SUFFIX = ".journal"
SCHEMA_VERSION = 1

_FSYNC_MODES = ("always", "interval", "never")

#: Step outcomes whose value is in the cache and safe to replay on resume.
#: ``cache_unavailable`` records are excluded separately — their value was
#: computed but never persisted.
_REPLAYABLE = frozenset({"ok", "cached", "retried", "replayed"})


class JournalError(RuntimeError):
    """Raised for unusable journals (missing file, no run_start record)."""


def new_run_id() -> str:
    """Fresh run id: sortable timestamp + pid + random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{secrets.token_hex(3)}"


_START_TS_LOCK = threading.Lock()
_LAST_START_TS = 0.0


def _run_start_ts() -> float:
    """Wall-clock stamp for a ``run_start`` record, strictly increasing
    within this process.

    :func:`latest_run_id` orders runs by this stamp with the run id as
    tie-break — but within one second the run id differs only in its
    *random* suffix, so a ts tie between two runs of one process would
    make "latest" a coin flip (and :func:`compact` would then drop the
    wrong run). Bumping a tied or backwards clock reading by one ulp
    keeps same-process starts totally ordered; cross-process ties remain
    astronomically unlikely at full float resolution.
    """
    global _LAST_START_TS
    with _START_TS_LOCK:
        now = time.time()
        if now <= _LAST_START_TS:
            now = math.nextafter(_LAST_START_TS, math.inf)
        _LAST_START_TS = now
        return now


class RunJournal:
    """Append-only, group-commit-fsync'd journal for one pipeline run.

    Create via :meth:`open` (directory + optional run id). Pass the
    instance as ``Pipeline.run(journal=...)``; the pipeline writes
    ``run_start`` / ``step_start`` / ``step_done`` / ``run_end`` records.
    The caller owns the lifetime — call :meth:`close` (idempotent) when
    the run ends.

    ``chaos`` is the fault-injection seam (the ``journal`` site of
    :data:`repro.core.faults.SITES`): when set, it is invoked as
    ``chaos(event, step, data, fd)`` before each record hits the file and
    may raise ``OSError`` to simulate a failed disk, or SIGKILL the
    process to simulate a crash — including *mid-record*, which is how
    the torn-write injector works.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str,
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.25,
        rotate_bytes: int | None = None,
    ) -> None:
        if fsync not in _FSYNC_MODES:
            raise ValueError(f"unknown fsync mode {fsync!r}; expected one of {_FSYNC_MODES}")
        if fsync_interval < 0:
            raise ValueError(f"fsync_interval must be non-negative, got {fsync_interval}")
        if rotate_bytes is not None and rotate_bytes <= 0:
            raise ValueError(f"rotate_bytes must be positive, got {rotate_bytes}")
        self.path = Path(path)
        self.run_id = run_id
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.rotate_bytes = rotate_bytes
        self.rotations = 0
        self.chaos: Callable[[str, str | None, bytes, int], None] | None = None
        self.error: str | None = None
        self.records_written = 0
        self._lock = threading.Lock()
        self._last_sync = time.monotonic()
        self._size = 0
        self._fd: int | None = None
        try:
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            # Heal a torn tail left by a previous (killed) writer of this
            # segment — pid reuse is rare but, unhealed, the next record
            # would concatenate onto the torn bytes and both lines would
            # be lost to the parser.
            size = os.fstat(self._fd).st_size
            if size and os.pread(self._fd, 1, size - 1) != b"\n":
                os.write(self._fd, b"\n")
                size += 1
            self._size = size
        except OSError as exc:
            self._disable(exc)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        run_id: str | None = None,
        **kwargs: Any,
    ) -> "RunJournal":
        """Open this process's segment ``<directory>/w<pid>.journal``.

        The directory is created as needed; the run (fresh ``run_id``
        unless one is passed) appends its records — each tagged with the
        run id — to the per-writer segment.
        """
        directory = Path(directory)
        rid = run_id if run_id is not None else new_run_id()
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # surface as an unavailable journal, not a crashed run
        return cls(directory / f"w{os.getpid()}{JOURNAL_SUFFIX}", rid, **kwargs)

    @property
    def unavailable(self) -> bool:
        """True once journal writes have been disabled by an I/O error."""
        return self._fd is None

    # -- writing --------------------------------------------------------------

    def _disable(self, exc: BaseException) -> None:
        self.error = repr(exc)
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def _rotate(self) -> None:
        """Archive the active segment and start a fresh one (lock held).

        The full segment becomes ``w<pid>-<n>.journal`` beside the active
        path — the suffix keeps it visible to every reader's
        ``*.journal`` glob, and the rename preserves its mtime so segment
        ordering (oldest-modified first) still reads archives before the
        live tail. Failures disable the journal like any other I/O error.
        """
        assert self._fd is not None
        os.fsync(self._fd)  # archives must be complete before they are renamed
        n = self.rotations + 1
        archive = self.path.with_name(f"{self.path.stem}-{n}{JOURNAL_SUFFIX}")
        while archive.exists():  # pid reuse: never clobber an older archive
            n += 1
            archive = self.path.with_name(f"{self.path.stem}-{n}{JOURNAL_SUFFIX}")
        os.close(self._fd)
        self._fd = None  # _disable must not double-close if rename fails
        os.rename(self.path, archive)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._size = 0
        self.rotations = n

    def record(self, event: str, step: str | None = None, **fields: Any) -> bool:
        """Append one record; returns False when the journal is unavailable.

        Never raises for I/O failures — a full disk degrades the journal
        (:attr:`error` is set, later records no-op) instead of killing the
        run it is supposed to protect.
        """
        payload: dict[str, Any] = {"event": event, "run": self.run_id}
        if step is not None:
            payload["step"] = step
        payload.update(fields)
        data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        with self._lock:
            if self._fd is None:
                return False
            try:
                if (
                    self.rotate_bytes is not None
                    and self._size > 0
                    and self._size + len(data) > self.rotate_bytes
                ):
                    self._rotate()
                if self.chaos is not None:
                    self.chaos(event, step, data, self._fd)
                os.write(self._fd, data)
                self._size += len(data)
                self.records_written += 1
                now = time.monotonic()
                if self.fsync == "always" or (
                    self.fsync == "interval"
                    and now - self._last_sync >= self.fsync_interval
                ):
                    os.fsync(self._fd)
                    self._last_sync = now
            except OSError as exc:
                self._disable(exc)
                return False
        return True

    # -- the pipeline's record vocabulary -------------------------------------

    def run_start(
        self,
        steps: Mapping[str, str],
        *,
        executor: str = "",
        resumed_from: str | None = None,
    ) -> bool:
        """Header record: run id, schema, and the full step→cache-key map."""
        return self.record(
            "run_start",
            schema=SCHEMA_VERSION,
            steps=dict(steps),
            executor=executor,
            resumed_from=resumed_from,
            pid=os.getpid(),
            ts=_run_start_ts(),
        )

    def step_start(self, name: str, key: str) -> bool:
        return self.record("step_start", step=name, key=key)

    def step_done(
        self,
        name: str,
        key: str,
        outcome: str,
        attempts: int,
        *,
        cache_unavailable: bool = False,
        error: str = "",
    ) -> bool:
        rec: dict[str, Any] = {
            "key": key,
            "outcome": outcome,
            "attempts": attempts,
        }
        if cache_unavailable:
            rec["cache_unavailable"] = True
        if error:
            rec["error"] = error
        return self.record("step_done", step=name, **rec)

    def step_reassign(self, name: str, key: str, *, worker: str, epoch: int) -> bool:
        """A dist coordinator moved an in-flight step to a new worker.

        Purely informational for readers (``load_resume_state`` ignores
        unknown events); the record preserves which worker lost the lease
        and the fencing epoch the replacement runs under.
        """
        return self.record("step_reassign", step=name, key=key, worker=worker, epoch=epoch)

    def run_end(self, counts: Mapping[str, int], wall_seconds: float) -> bool:
        return self.record(
            "run_end", counts=dict(counts), wall_seconds=round(wall_seconds, 6)
        )

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Force everything written so far to stable storage (fsync)."""
        with self._lock:
            if self._fd is None:
                return
            try:
                os.fsync(self._fd)
                self._last_sync = time.monotonic()
            except OSError as exc:
                self._disable(exc)

    def close(self, sync: bool | None = None) -> None:
        """Close the journal; idempotent.

        ``sync`` defaults by fsync mode: ``"always"`` fsyncs at close,
        ``"interval"``/``"never"`` leave the tail to the OS (a killed
        process has already lost nothing; only power loss is at stake, and
        group commit bounds that by construction).
        """
        with self._lock:
            if self._fd is None:
                return
            do_sync = sync if sync is not None else self.fsync == "always"
            fd, self._fd = self._fd, None
            try:
                if do_sync:
                    os.fsync(fd)
            except OSError as exc:
                self.error = repr(exc)
            finally:
                try:
                    os.close(fd)
                except OSError:
                    pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- reading ------------------------------------------------------------------


def read_journal(path: str | Path) -> tuple[list[dict], bool]:
    """All parseable records in file order, plus a torn-tail flag.

    A final line without a terminating newline, or any line that is not
    valid JSON, is dropped (torn write from a killed process); the flag
    reports whether anything was dropped.
    """
    raw = Path(path).read_bytes()
    torn = False
    records: list[dict] = []
    chunks = raw.split(b"\n")
    # A well-terminated file ends with b"" after the final newline; any
    # trailing partial line shows up as a non-empty last chunk.
    if chunks and chunks[-1] != b"":
        torn = True
    for chunk in chunks[:-1] if chunks else []:
        if not chunk.strip():
            continue
        try:
            obj = json.loads(chunk)
        except (UnicodeDecodeError, json.JSONDecodeError):
            torn = True
            continue
        if isinstance(obj, dict):
            records.append(obj)
        else:
            torn = True
    return records, torn


@dataclass(frozen=True)
class ResumeState:
    """Recovered progress of one (possibly interrupted) journaled run.

    ``completed`` maps step name → cache key for every step whose value
    both succeeded *and* was persisted to the cache; those are the replay
    candidates. A step whose journal record carried
    ``cache_unavailable=True`` (its cache write hit ``ENOSPC``) is
    deliberately absent — its value never reached disk.
    """

    run_id: str
    path: Path
    completed: dict[str, str] = field(default_factory=dict)
    outcomes: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    step_keys: dict[str, str] = field(default_factory=dict)
    finished: bool = False
    torn_tail: bool = False

    @property
    def interrupted(self) -> bool:
        """True when the journal has no ``run_end`` (the run was cut short)."""
        return not self.finished


def _segments(directory: Path) -> list[Path]:
    """Segment files in ``directory``, oldest-modified first."""
    try:
        return sorted(
            directory.glob(f"*{JOURNAL_SUFFIX}"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
    except OSError:
        return []


def _run_records(
    directory_or_path: str | Path, run_id: str | None
) -> tuple[list[dict], bool, Path]:
    """Records of one run, its torn flag, and the segment holding them.

    Accepts either a single journal/segment file or a journal directory.
    ``run_id=None`` on a file selects the file's most recent run; on a
    directory a run id is required.
    """
    path = Path(directory_or_path)
    if path.is_dir():
        if run_id is None:
            raise JournalError(f"{path} is a directory; pass run_id to select a run")
        candidates = _segments(path)
    else:
        candidates = [path]
    selected: list[dict] = []
    torn = False
    source: Path | None = None
    for segment in candidates:
        try:
            records, seg_torn = read_journal(segment)
        except OSError as exc:
            if path.is_dir():
                continue  # a concurrently-removed segment; others may hold the run
            raise JournalError(f"cannot read journal {segment}: {exc}") from exc
        if run_id is None:
            # Single file, no run id: the file's last run.
            last = next(
                (r for r in reversed(records) if r.get("event") == "run_start"), None
            )
            if last is None:
                raise JournalError(
                    f"{segment}: no run_start record (not a journal, or torn header)"
                )
            run_id = str(last.get("run", ""))
        matched = [r for r in records if r.get("run") == run_id]
        if matched:
            selected.extend(matched)
            torn = torn or seg_torn
            source = segment
    if source is None:
        raise JournalError(f"no journal records for run {run_id!r} under {path}")
    return selected, torn, source


def load_resume_state(
    directory_or_path: str | Path, run_id: str | None = None
) -> ResumeState:
    """Rebuild a :class:`ResumeState` for one journaled run.

    Pass the journal directory plus the ``run_id``, or a single segment
    file (``run_id`` optional there — defaults to the file's most recent
    run). Raises :class:`JournalError` when no records for the run exist
    or the run has no readable ``run_start`` header.
    """
    records, torn, path = _run_records(directory_or_path, run_id)
    header = next((r for r in records if r.get("event") == "run_start"), None)
    if header is None:
        raise JournalError(
            f"{path}: no run_start record for run {run_id!r} (torn header?)"
        )
    completed: dict[str, str] = {}
    outcomes: dict[str, str] = {}
    attempts: dict[str, int] = {}
    for rec in records:
        if rec.get("event") != "step_done":
            continue
        name = rec.get("step")
        key = rec.get("key")
        outcome = rec.get("outcome", "")
        if not isinstance(name, str) or not isinstance(key, str):
            continue
        outcomes[name] = outcome
        attempts[name] = int(rec.get("attempts", 0))
        if outcome in _REPLAYABLE and not rec.get("cache_unavailable", False):
            completed[name] = key
        else:
            completed.pop(name, None)
    return ResumeState(
        run_id=str(header.get("run", "")),
        path=path,
        completed=completed,
        outcomes=outcomes,
        attempts=attempts,
        step_keys=dict(header.get("steps", {})),
        finished=any(r.get("event") == "run_end" for r in records),
        torn_tail=torn,
    )


def latest_run_id(directory: str | Path) -> str | None:
    """Run id of the most recently started run journaled under ``directory``.

    Scans every segment's ``run_start`` records and picks the one with
    the highest start timestamp (ties broken by the sortable run id).
    """
    best: tuple[float, str] | None = None
    for segment in _segments(Path(directory)):
        try:
            records, _ = read_journal(segment)
        except OSError:
            continue
        for rec in records:
            if rec.get("event") != "run_start":
                continue
            rid = rec.get("run")
            if not isinstance(rid, str) or not rid:
                continue
            key = (float(rec.get("ts", 0.0)), rid)
            if best is None or key > best:
                best = key
    return best[1] if best is not None else None


def latest_resume_state(directory: str | Path) -> ResumeState | None:
    """Resume state for the most recent run under ``directory``, or None.

    Convenience wrapper for resume-by-default flows (``repro audit``'s
    crash-resume leg above all): find the latest run id, then load its
    state. Returns None when the directory holds no journaled runs at
    all; a run that exists but is unreadable still raises
    :class:`JournalError` — silent fallback to "no resume" would quietly
    recompute a run the caller believed it was resuming.
    """
    run_id = latest_run_id(directory)
    if run_id is None:
        return None
    return load_resume_state(directory, run_id)


def compact(directory: str | Path, *, keep_run_id: str | None = None) -> dict[str, Any]:
    """Drop journal records for runs older than the latest resumable state.

    Only the most recently started run can ever be resumed
    (:func:`latest_resume_state` resumes exactly that one), so in a
    resident process every older run's records are dead weight that
    rotation alone never reclaims. Each segment is rewritten atomically
    (temp file + ``os.replace``, original mtime preserved so segment
    ordering is stable) keeping only the surviving run's records; segments
    left empty are deleted.

    Must not run concurrently with a live writer — the writer's appends
    would race the rewrite. ``repro serve`` calls it between refresh
    cycles while no journal is open. ``keep_run_id`` overrides which run
    survives (defaults to :func:`latest_run_id`).

    Returns stats: ``{"kept_run", "segments", "removed_segments",
    "dropped_records", "kept_records"}``.
    """
    directory = Path(directory)
    keep = keep_run_id if keep_run_id is not None else latest_run_id(directory)
    stats: dict[str, Any] = {
        "kept_run": keep,
        "segments": 0,
        "removed_segments": 0,
        "dropped_records": 0,
        "kept_records": 0,
    }
    for segment in _segments(directory):
        try:
            records, torn = read_journal(segment)
            st = segment.stat()
        except OSError:
            continue  # vanished or unreadable: nothing to reclaim here
        stats["segments"] += 1
        kept = [r for r in records if keep is not None and r.get("run") == keep]
        stats["kept_records"] += len(kept)
        dropped = len(records) - len(kept)
        if dropped == 0 and not torn:
            continue  # nothing to reclaim; keep the segment byte-identical
        stats["dropped_records"] += dropped
        if not kept:
            try:
                segment.unlink()
                stats["removed_segments"] += 1
            except OSError:
                pass
            continue
        tmp = segment.with_name(segment.name + ".tmp")
        data = b"".join(
            json.dumps(r, separators=(",", ":")).encode() + b"\n" for r in kept
        )
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, segment)
            # Preserve the original mtime: _segments orders by it, and a
            # rewrite must not shuffle archives ahead of the live tail.
            os.utime(segment, (st.st_atime, st.st_mtime))
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
    return stats
