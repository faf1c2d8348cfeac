"""Run-directory protocol for fleet mode: assignments, leases, results.

Everything the coordinator and its workers exchange lives under one run
directory inside the shared cache filesystem::

    <cache_root>/.dist/<run_id>/
        spec.pkl            pickled RunSpec (steps, keys, config, chaos)
        assign/<step>.task  authoritative assignment record (JSON)
        leases/<step>.lease FileLock held by the executing worker
        heartbeats/<w>.hb   fixed-width pid+host+counter records
        results/<step>.<epoch>.<worker>.json
        logs/<w>.log        append-only worker event log (publish audit)
        chaos/              O_CREAT|O_EXCL claim markers for fault firing
        stop                sentinel: workers drain and exit

Assignment records are the **fencing token**. Each carries an ``epoch``
that the coordinator bumps on every reassignment; a worker must re-read
the record and find itself listed *at its own epoch* immediately before
publishing, so a partitioned worker whose lease expired (epoch advanced
under it) aborts instead of racing its replacement. Speculative
duplicates share one epoch — both are legitimate, and first-writer-wins
is enforced by the per-key cache entry lock plus a peek-before-put.

All JSON records are written atomically (temp file + ``os.replace``), so
a reader never parses a half-written assignment or result.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.io.locks import pid_alive

__all__ = [
    "Assignment",
    "TaskResult",
    "run_dir_for",
    "write_assignment",
    "read_assignment",
    "iter_assignments",
    "assignment_current",
    "lease_path",
    "write_result",
    "iter_results",
    "log_event",
    "collect_worker_logs",
    "signal_stop",
    "stop_requested",
    "cleanup_run_dir",
    "sweep_dead_tmp",
]

DIST_DIR = ".dist"


def run_dir_for(cache_root: str | Path, run_id: str) -> Path:
    return Path(cache_root) / DIST_DIR / run_id


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


@dataclass(frozen=True)
class Assignment:
    """Authoritative record of who may execute (and publish) a step."""

    step: str
    epoch: int
    workers: tuple[str, ...]

    def to_payload(self) -> dict:
        return {"step": self.step, "epoch": self.epoch, "workers": list(self.workers)}


def _assign_path(run_dir: Path, step: str) -> Path:
    # Step names may contain ':' (e.g. "exp:T1"); flatten to a filename.
    return run_dir / "assign" / f"{step.replace('/', '_')}.task"


def write_assignment(run_dir: Path, assignment: Assignment) -> None:
    path = _assign_path(run_dir, assignment.step)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_json(path, assignment.to_payload())


def read_assignment(run_dir: Path, step: str) -> Assignment | None:
    try:
        payload = json.loads(_assign_path(run_dir, step).read_text())
    except (OSError, ValueError):
        return None
    return Assignment(
        step=payload["step"],
        epoch=int(payload["epoch"]),
        workers=tuple(payload["workers"]),
    )


def iter_assignments(run_dir: Path) -> Iterator[Assignment]:
    assign_dir = run_dir / "assign"
    try:
        names = sorted(os.listdir(assign_dir))
    except OSError:
        return
    for name in names:
        if not name.endswith(".task"):
            continue
        try:
            payload = json.loads((assign_dir / name).read_text())
        except (OSError, ValueError):
            continue
        yield Assignment(
            step=payload["step"],
            epoch=int(payload["epoch"]),
            workers=tuple(payload["workers"]),
        )


def assignment_current(run_dir: Path, step: str, worker: str, epoch: int) -> bool:
    """The fence: is (worker, epoch) still the authoritative assignment?

    Called by the worker immediately before ``cache.put``. False means the
    coordinator expired this worker's lease and moved on — the computed
    value is discarded, never published.
    """
    current = read_assignment(run_dir, step)
    return current is not None and current.epoch == epoch and worker in current.workers


def lease_path(run_dir: Path, step: str) -> Path:
    path = run_dir / "leases" / f"{step.replace('/', '_')}.lease"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class TaskResult:
    """One worker's verdict on one (step, epoch) execution."""

    step: str
    epoch: int
    worker: str
    outcome: str  # ok | retried | cached | failed | timeout | fenced
    attempts: int
    published: bool  # this execution performed the cache.put
    stored: bool  # the artifact is readable from the cache
    wall: float
    error: str = ""

    def to_payload(self) -> dict:
        return {
            "step": self.step,
            "epoch": self.epoch,
            "worker": self.worker,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "published": self.published,
            "stored": self.stored,
            "wall": self.wall,
            "error": self.error,
        }


def write_result(run_dir: Path, result: TaskResult) -> None:
    path = (
        run_dir
        / "results"
        / f"{result.step.replace('/', '_')}.{result.epoch}.{result.worker}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_json(path, result.to_payload())


def iter_results(run_dir: Path) -> Iterator[TaskResult]:
    results_dir = run_dir / "results"
    try:
        names = sorted(os.listdir(results_dir))
    except OSError:
        return
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            payload = json.loads((results_dir / name).read_text())
        except (OSError, ValueError):
            continue
        yield TaskResult(
            step=payload["step"],
            epoch=int(payload["epoch"]),
            worker=payload["worker"],
            outcome=payload["outcome"],
            attempts=int(payload["attempts"]),
            published=bool(payload["published"]),
            stored=bool(payload["stored"]),
            wall=float(payload["wall"]),
            error=payload.get("error", ""),
        )


# -- worker logs ---------------------------------------------------------------


def log_event(run_dir: Path, worker: str, event: str, **fields: object) -> None:
    """Append one JSON line to the worker's log (publish audit trail).

    Append-only and single-writer per file, so no locking is needed; the
    coordinator folds every log into its fleet stats before cleanup and
    the chaos suite asserts exactly-once publishes from them.
    """
    path = run_dir / "logs" / f"{worker}.log"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps({"event": event, **fields}, sort_keys=True) + "\n")
    except OSError:
        pass  # audit trail only; never fail the task over it


def collect_worker_logs(run_dir: Path) -> list[dict]:
    records: list[dict] = []
    logs_dir = run_dir / "logs"
    try:
        names = sorted(os.listdir(logs_dir))
    except OSError:
        return records
    for name in names:
        try:
            text = (logs_dir / name).read_text()
        except OSError:
            continue
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line from a killed worker
            record["worker"] = name[: -len(".log")]
            records.append(record)
    return records


# -- lifecycle -----------------------------------------------------------------


def signal_stop(run_dir: Path) -> None:
    try:
        (run_dir / "stop").touch()
    except OSError:
        pass


def stop_requested(run_dir: Path) -> bool:
    return (run_dir / "stop").exists()


def cleanup_run_dir(run_dir: Path) -> None:
    """Remove the whole run directory (leases, heartbeats, assignments).

    Called by the coordinator after the fleet has stopped; leaves the
    parent ``.dist/`` behind only if other runs still live there. The
    directory is renamed to a unique sibling before it is removed: a
    straggling worker's last path-based write (its final spine flush)
    then fails open instead of landing in a directory ``rmtree`` has
    already listed, where it would survive the sweep.
    """
    doomed = run_dir.with_name(f".{run_dir.name}.{os.getpid()}.swept")
    try:
        os.rename(run_dir, doomed)
    except OSError:
        doomed = run_dir
    shutil.rmtree(doomed, ignore_errors=True)
    parent = run_dir.parent
    try:
        parent.rmdir()  # only succeeds when no other run dirs remain
    except OSError:
        pass


def sweep_dead_tmp(cache_root: str | Path) -> int:
    """Unlink cache ``*.tmp`` files whose writer pid is dead.

    A SIGKILL'd worker can die between opening its publish temp file and
    the ``finally`` that removes it. Temp names embed the writer's pid
    (``<key>.pkl.<pid>.<tid>.tmp``), so stranded ones are identifiable;
    live pids are left alone — their publish is still in flight.
    """
    removed = 0
    root = Path(cache_root)
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".tmp"):
            continue
        parts = name.split(".")
        # <key>.pkl.<pid>.<tid>.tmp — pid is the third-from-last part.
        if len(parts) < 4 or not parts[-3].isdigit():
            continue
        if pid_alive(int(parts[-3])):
            continue
        try:
            (root / name).unlink()
            removed += 1
        except OSError:
            pass
    return removed
