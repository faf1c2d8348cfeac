"""Worker liveness via heartbeat files in the shared run directory.

Fleet mode has no in-memory channel between the coordinator and its
workers — a worker may be another process on this host or a `repro
worker` on another machine sharing the cache filesystem. Liveness
therefore flows through one file per worker: a fixed-width record holding
the worker's pid, host, and a monotonically increasing counter, rewritten
in place by a background thread every ``interval`` seconds.

The coordinator's :class:`FleetMonitor` judges liveness from two signals:

* **Same-host fast path** — the recorded host is this host, so the pid can
  be probed directly (signal 0). A SIGKILL'd worker is declared dead on
  the next tick, not after a heartbeat timeout.
* **Counter staleness** — the counter has not advanced for ``lease_ttl``
  seconds of the *coordinator's* monotonic clock. This is the only signal
  that works across hosts, and the only one that catches a worker whose
  process is alive but whose heartbeat thread is wedged or partitioned
  away from the shared filesystem (the split-brain case: it may still be
  computing, which is exactly why publishes are fenced — see
  :mod:`repro.dist.worker`).

Records never compare wall clocks across machines: the counter is written
with the worker's clock and judged against the coordinator's, so clock
skew between hosts is irrelevant.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.io.locks import OWNER_RECORD_WIDTH, local_host, owner_record, parse_owner_record

__all__ = [
    "Heartbeat",
    "HeartbeatWriter",
    "FleetMonitor",
    "read_heartbeat",
]

#: owner record (pid + host) followed by a fixed-width counter line.
_COUNTER_WIDTH = 20
HEARTBEAT_RECORD_WIDTH = OWNER_RECORD_WIDTH + _COUNTER_WIDTH


@dataclass(frozen=True)
class Heartbeat:
    """One parsed heartbeat file."""

    pid: int
    host: str
    counter: int


def read_heartbeat(path: Path) -> Heartbeat | None:
    """Parse a heartbeat file, or None when absent/torn (writer mid-pwrite)."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    owner = parse_owner_record(data[:OWNER_RECORD_WIDTH])
    if owner is None:
        return None
    counter_line = data[OWNER_RECORD_WIDTH:HEARTBEAT_RECORD_WIDTH].strip()
    if not counter_line.isdigit():
        return None
    return Heartbeat(pid=owner[0], host=owner[1], counter=int(counter_line))


class HeartbeatWriter:
    """Background thread beating one worker's heartbeat file.

    The record is fixed-width and rewritten with a single ``pwrite`` at
    offset 0, so readers never observe a half-old half-new record longer
    than one syscall's worth of tearing (and a torn read is simply
    retried next tick — :func:`read_heartbeat` returns None).

    :meth:`pause` stops the counter from advancing while leaving the
    process running — the injection point for ``partition`` worker chaos,
    and the exact condition lease expiry is designed to catch.
    """

    def __init__(self, path: str | Path, interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.path = Path(path)
        self.interval = interval
        self.counter = 0
        self._fd: int | None = None
        self._paused = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        """Write one heartbeat record now (counter+1)."""
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        self.counter += 1
        record = owner_record() + f"{self.counter:>{_COUNTER_WIDTH - 1}}\n".encode()
        os.pwrite(self._fd, record, 0)

    def start(self) -> "HeartbeatWriter":
        self.beat()  # visible before the first interval elapses
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stopped.wait(self.interval):
            if not self._paused.is_set():
                try:
                    self.beat()
                except OSError:
                    # Run dir swept by the coordinator (shutdown race) or
                    # the shared filesystem went away; either way the
                    # worker is about to observe the stop sentinel.
                    return

    def pause(self) -> None:
        """Stop advancing the counter (the process keeps running)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


@dataclass
class _WorkerView:
    heartbeat: Heartbeat | None = None
    last_advance: float = field(default_factory=time.monotonic)
    dead: bool = False


class FleetMonitor:
    """Coordinator-side liveness judgement over a directory of heartbeats.

    ``observe()`` returns the set of workers whose counter advanced since
    the previous call (the coordinator turns these into ``lease.renew``
    trace events for in-flight steps) — death is permanent: once declared
    dead a worker stays dead even if its counter later advances, because
    its leases have already been fenced and handed to a replacement.
    """

    def __init__(self, directory: str | Path, lease_ttl: float) -> None:
        self.directory = Path(directory)
        self.lease_ttl = lease_ttl
        self._views: dict[str, _WorkerView] = {}

    def register(self, worker: str) -> None:
        """Start the liveness clock for a worker we expect to appear."""
        self._views.setdefault(worker, _WorkerView())

    def observe(self) -> set[str]:
        """Re-read every heartbeat; returns workers that advanced."""
        advanced: set[str] = set()
        now = time.monotonic()
        for worker, view in self._views.items():
            if view.dead:
                continue
            hb = read_heartbeat(self.directory / f"{worker}.hb")
            if hb is not None and (
                view.heartbeat is None or hb.counter > view.heartbeat.counter
            ):
                view.heartbeat = hb
                view.last_advance = now
                advanced.add(worker)
        return advanced

    def heartbeat_gap(self, worker: str) -> float:
        """Seconds since the worker's counter last advanced."""
        view = self._views.get(worker)
        if view is None:
            return 0.0
        return time.monotonic() - view.last_advance

    def is_dead(self, worker: str) -> bool:
        """Judge one worker now (sticky once True)."""
        view = self._views.get(worker)
        if view is None:
            return False
        if view.dead:
            return True
        hb = view.heartbeat
        if hb is not None and hb.host in ("", local_host()):
            # Same-host fast path: probe the pid directly instead of
            # waiting out the ttl.
            from repro.io.locks import pid_alive

            if not pid_alive(hb.pid):
                view.dead = True
                return True
        if time.monotonic() - view.last_advance > self.lease_ttl:
            view.dead = True
            return True
        return False

    def dead_workers(self) -> set[str]:
        return {w for w in self._views if self.is_dead(w)}

    def alive_workers(self) -> set[str]:
        return {w for w in self._views if not self.is_dead(w)}
