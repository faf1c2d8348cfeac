"""Zero-copy result transport for process-pool workers.

Large step results returned by process-mode workers would otherwise be
copied through the pool's pipe-based result channel in 64KB chunks and
reassembled on the coordinator. This module moves them through POSIX
shared memory instead. It carries bytes and never serializes anything
itself: the worker hands over a value already encoded as the cache's
artifact container, as a list of byte-like *parts* (see
``repro.core.pipeline._artifact_parts``), and :func:`encode_result`
writes the parts one after another into one
``multiprocessing.shared_memory`` segment, without joining them first.
Only a tiny *handle* (segment name + byte count) crosses the pool
channel. The coordinator copies the bytes out and releases the segment.

Handle protocol and ownership rules
-----------------------------------
* The **worker** creates the segment, writes it, closes its mapping and
  *unregisters* it from its ``resource_tracker`` — from that point the
  segment is owned by whoever holds the handle.
* The **coordinator** (the only consumer) attaches via the handle and
  is responsible for ``close()`` + ``unlink()`` — performed in
  :func:`decode_result` under ``finally``, so a failed read cannot leak
  the segment.
* If the handle never arrives (worker SIGKILLed mid-transfer, pool torn
  down), the segment is an orphan. Every segment name is prefixed with
  a per-run token (:func:`run_prefix`), and the run end calls
  :func:`sweep` with that token to remove any survivors; a crashed
  *coordinator* leaves segments for :func:`sweep_stale`, which removes
  segments whose embedded creator pid is dead.

Fallbacks
---------
Payloads below ``SHM_MIN_BYTES`` and environments where segment creation
fails (no ``/dev/shm``, permissions, exhaustion) fall back to an
*inline* envelope carrying the same bytes through the pool channel.
Sequential and thread executors never touch this module: values stay
in-process.
"""

from __future__ import annotations

import os
import uuid
from typing import Any, Sequence

__all__ = [
    "SHM_MIN_BYTES",
    "run_prefix",
    "encode_result",
    "decode_result",
    "sweep",
    "sweep_stale",
]

# Payloads below this size stay inline: a segment + handle round-trip
# costs two syscalls and a mmap, which only pays for itself on payloads
# well past the pipe-chunking regime.
SHM_MIN_BYTES = 1 << 20

_PREFIX_BASE = "repro-shm"
_SHM_DIR = "/dev/shm"

_INLINE = "inline"
_SEGMENT = "shm"


def run_prefix() -> str:
    """A fresh per-run segment-name prefix embedding the creator pid.

    The pid makes :func:`sweep_stale` possible (liveness check); the
    random suffix keeps concurrent runs from the same pid distinct.
    """
    return f"{_PREFIX_BASE}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def encode_result(
    parts: Sequence[Any], prefix: str, threshold: int | None = None
) -> tuple[str, Any]:
    """Worker-side: pick a transport for the bytes ``parts`` spell out.

    Returns an envelope tuple — ``("shm", (name, nbytes))`` for a segment
    named under ``prefix``, or ``("inline", data)`` with the parts joined
    into one ``bytes``. The envelope itself is small and crosses the
    pool's normal result channel.
    """
    from multiprocessing import shared_memory

    limit = SHM_MIN_BYTES if threshold is None else threshold
    views = [memoryview(part).cast("B") for part in parts]
    total = sum(view.nbytes for view in views)
    if total < limit:
        return (_INLINE, b"".join(views))
    name = f"{prefix}-{uuid.uuid4().hex[:8]}"
    try:
        seg = shared_memory.SharedMemory(name=name, create=True, size=total)
    except OSError:
        # No usable shm backend (or it is full): degrade to inline.
        return (_INLINE, b"".join(views))
    try:
        offset = 0
        for view in views:
            seg.buf[offset : offset + view.nbytes] = view
            offset += view.nbytes
    except BaseException:
        seg.close()
        try:
            seg.unlink()
        except OSError:
            pass
        raise
    # Hand ownership to the handle holder: without this, the worker's
    # resource tracker would unlink the segment when the worker exits.
    _untrack(seg.name)
    seg.close()
    return (_SEGMENT, (seg.name, total))


def _untrack(name: str) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def decode_result(envelope: tuple[str, Any] | Any) -> bytes:
    """Coordinator-side: the envelope's bytes; releases its segment."""
    from multiprocessing import shared_memory

    if not (isinstance(envelope, tuple) and envelope and envelope[0] in (_INLINE, _SEGMENT)):
        raise ValueError("malformed shm transport envelope")
    if envelope[0] == _INLINE:
        return envelope[1]
    _, (name, nbytes) = envelope
    seg = shared_memory.SharedMemory(name=name)
    try:
        return bytes(seg.buf[:nbytes])
    finally:
        seg.close()
        try:
            seg.unlink()
        except OSError:
            # Already gone (swept, or a duplicate delivery): releasing is
            # idempotent.
            pass


def _segment_names(glob_prefix: str) -> list[str]:
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - shm dir vanished
        return []
    return sorted(e for e in entries if e.startswith(glob_prefix))


def sweep(prefix: str) -> list[str]:
    """Remove every surviving segment of one run; returns removed names.

    Called at run end: any segment still carrying the run's prefix was
    orphaned by a crashed or killed worker (the coordinator unlinks the
    ones it consumes).
    """
    removed = []
    for name in _segment_names(prefix):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            removed.append(name)
        except OSError:
            pass
    return removed


def sweep_stale() -> list[str]:
    """Remove segments left by *dead* processes (crashed coordinators).

    A segment name embeds its creating pid (``repro-shm-<pid>-…``); a
    segment whose pid no longer exists can never be consumed and is
    removed. Live pids — concurrent runs — are left alone.
    """
    removed = []
    for name in _segment_names(_PREFIX_BASE + "-"):
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        try:
            os.kill(pid, 0)
            alive = True
        except ProcessLookupError:
            alive = False
        except PermissionError:  # pragma: no cover - other-user process
            alive = True
        if alive:
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
            removed.append(name)
        except OSError:
            pass
    return removed
