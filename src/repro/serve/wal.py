"""Durable write-ahead ingest log for ``repro serve``.

Appended survey responses and sacct rows are the service's only source of
truth: a row is *accepted* once its WAL record is written and the append
batch fsync'd, and everything downstream (the serve pipeline, its cached
artifacts) is a pure function of WAL content. Restart-after-SIGKILL
therefore converges by construction — replay the log, recompute whatever
the cache does not already hold.

The file layout reuses the ``repro.core.journal`` patterns: append-only
segments of newline-delimited JSON (``seg-<n>.wal``), single-writer, torn
tails healed on open, group-commit fsync (one ``fsync`` per *batch* of
appended rows, not per row), and size-threshold rotation at record
boundaries. One record per row::

    {"seq": 17, "kind": "responses", "row": "<raw line>"}
    {"seq": 18, "kind": "sacct", "row": "...", "batch": "b7", "off": 3}

``batch``/``off`` implement exactly-once ingestion under at-least-once
delivery: a client that re-sends a batch after a crash (it never saw the
ack) names the same batch id, and the WAL skips the prefix it already
holds. Without batch ids, redelivery can duplicate rows — the contract is
the client's to opt into.

Dirtiness propagation: :meth:`IngestWAL.chunk` summarizes each feed as
``"<row count>:<sha256 prefix>"`` over the accepted rows in seq order.
The serve pipeline places that string in its ingest steps' params, so it
participates in cache keys — appending response rows changes only the
``responses`` chunk, and only that subtree of the DAG recomputes.
:func:`snapshot_rows` is the read side: a step materializes exactly the
first N rows its chunk names (never rows appended after the key was
computed) and verifies the digest, so a cached artifact can never have
been built from different bytes than its key claims.

The read side follows the log instead of re-reading it. An
:class:`IngestWAL` remembers, per segment, its inode and the byte offset
just past the last complete record it absorbed, and one replay routine
serves both an open (every segment from offset 0) and a catch-up (only
the bytes appended since). :func:`snapshot_rows` keeps one read-only
follower per directory per process and catches it up, so a refresh reads
the rows it was sent, not the whole history. Any doubt — a consumed
segment gone, replaced or shorter than its offset, a token naming rows the
follower lacks, a digest mismatch — costs one fresh full replay, and only
a disagreement there is an error. Bytes already read that are overwritten
in place at the same size are therefore noticed by the next full replay
(a restart), not the next refresh; the rows returned still match the
token's digest.

Failure containment mirrors the journal: any ``OSError`` on the write
path (``ENOSPC`` above all) disables the WAL and raises
:class:`WALUnavailable`; the service degrades to read-only serving
instead of dying. ``chaos`` is the fault-injection seam (the ``wal`` site
of :data:`repro.core.faults.SITES`) — invoked as ``chaos(kind, None, data,
fd)`` before each record write, it may raise ``OSError`` or SIGKILL the
process mid-record (the kill-mid-ingest chaos coordinates).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable

__all__ = [
    "WALError",
    "WALUnavailable",
    "IngestReceipt",
    "IngestWAL",
    "KINDS",
    "snapshot_rows",
]

#: The two ingest feeds. Everything else is rejected at the API boundary.
KINDS = ("responses", "sacct")

SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".wal"


class WALError(RuntimeError):
    """Raised for unusable WAL state (bad kind, chunk/content mismatch)."""


class WALUnavailable(WALError):
    """Raised when the WAL has been disabled by an I/O error (ENOSPC...)."""


@dataclass(frozen=True)
class IngestReceipt:
    """Outcome of one :meth:`IngestWAL.append` batch.

    ``accepted`` rows are durable (written + fsync'd) when this returns;
    ``deduped`` rows were already present under the same batch id and were
    skipped. ``first_seq``/``last_seq`` are -1 when nothing was written.
    """

    kind: str
    accepted: int
    deduped: int
    first_seq: int = -1
    last_seq: int = -1


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segments(directory: Path) -> list[Path]:
    """Segment files oldest-first. Zero-padded names make lexical order
    creation order, so replay never depends on mtime resolution."""
    try:
        return sorted(directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))
    except OSError:
        return []


def _feed_bytes(rows: list[str]) -> bytes:
    """What a feed's digest covers: each row and a newline, UTF-8."""
    return "".join(row + "\n" for row in rows).encode("utf-8")


def _parse_segment(
    raw: bytes,
) -> tuple[list[dict], int, int]:
    """Parse one segment's bytes → (records, good_byte_len, bad_lines).

    ``good_byte_len`` is the offset of the last well-formed record
    boundary — everything past it is a torn tail the writer may truncate
    away. Malformed *interior* lines (cannot happen under single-writer
    append, but tolerated as poison) are skipped and counted.
    """
    records: list[dict] = []
    bad = 0
    good_len = 0
    offset = 0
    for chunk in raw.split(b"\n"):
        line_len = len(chunk) + 1  # + the newline
        if offset + len(chunk) >= len(raw):
            # Last piece: either b"" after a clean final newline, or a
            # torn tail with no terminator. Never a valid record.
            if chunk:
                bad += 1
            break
        if chunk.strip():
            try:
                obj = json.loads(chunk)
                if isinstance(obj, dict):
                    records.append(obj)
                    good_len = offset + line_len
                else:
                    bad += 1
            except (UnicodeDecodeError, json.JSONDecodeError):
                bad += 1
        offset += line_len
    return records, good_len, bad


class IngestWAL:
    """The service's durable ingest log (see module docstring).

    Single-writer: exactly one live service process owns the directory.
    Opening replays every segment to rebuild the accepted-row state
    (counts, running digests, batch offsets) and heals a torn tail left by
    a SIGKILLed predecessor. A read-only open creates and heals nothing;
    it raises :class:`WALError` when the directory does not exist.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        rotate_bytes: int = 4 << 20,
        fsync: bool = True,
        read_only: bool = False,
    ) -> None:
        if rotate_bytes <= 0:
            raise ValueError(f"rotate_bytes must be positive, got {rotate_bytes}")
        self.directory = Path(directory)
        self.rotate_bytes = rotate_bytes
        self.do_fsync = bool(fsync)
        self.chaos: Callable[[str, None, bytes, int], None] | None = None
        self.error: str | None = None
        self.healed_bytes = 0
        self.poison_lines = 0
        self._rows: dict[str, list[str]] = {kind: [] for kind in KINDS}
        self._digests = {kind: hashlib.sha256() for kind in KINDS}
        self._batches: dict[tuple[str, str], int] = {}
        self._seq = 0
        self._seg_index = 0
        self._size = 0
        self._fd: int | None = None
        # Per absorbed segment, in order: [name, inode, offset just past
        # its last complete record]. Only a follower's catch-up reads it;
        # a writer's own appends move its state instead.
        self._consumed: list[list] = []
        if read_only:
            if not self.directory.is_dir():
                raise WALError(f"no WAL directory at {self.directory}")
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._replay(heal=not read_only)
        if not read_only:
            try:
                if self._seg_index == 0:
                    self._seg_index = 1
                path = self.directory / _segment_name(self._seg_index)
                self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
                self._size = os.fstat(self._fd).st_size
            except OSError as exc:
                self._disable(exc)

    # -- replay ---------------------------------------------------------------

    def _absorb(self, record: dict) -> None:
        kind = record.get("kind")
        row = record.get("row")
        seq = record.get("seq")
        if kind not in KINDS or not isinstance(row, str) or not isinstance(seq, int):
            self.poison_lines += 1
            return
        self._rows[kind].append(row)
        self._digests[kind].update(_feed_bytes([row]))
        self._seq = max(self._seq, seq + 1)
        batch = record.get("batch")
        if isinstance(batch, str):
            off = record.get("off")
            off = off if isinstance(off, int) else 0
            key = (kind, batch)
            self._batches[key] = max(self._batches.get(key, 0), off + 1)

    def _replay(self, heal: bool) -> bool:
        """Absorb every complete record past the consumed offsets.

        An open has consumed nothing, so it reads every segment from 0;
        a follower's catch-up reads only the bytes appended since its last
        call. A record is absorbed once its newline lands. Returns False,
        with the state no longer trustworthy, when the log is not an
        extension of what was consumed: a consumed segment is gone, has a
        new inode, or is shorter than its offset.
        """
        segments = _segments(self.directory)
        consumed = self._consumed
        n_known = len(consumed)
        if [s.name for s in segments[:n_known]] != [c[0] for c in consumed]:
            return False
        for n, segment in enumerate(segments):
            known = consumed[n] if n < n_known else None
            start = known[2] if known else 0
            try:
                with open(segment, "rb") as fh:
                    st = os.fstat(fh.fileno())
                    if known and (st.st_ino != known[1] or st.st_size < start):
                        return False
                    fh.seek(start)
                    raw = fh.read()
            except OSError:
                if known:
                    return False
                continue
            if not known:
                known = [segment.name, st.st_ino, 0]
                consumed.append(known)
            records, good_len, bad = _parse_segment(raw)
            torn_tail = good_len < len(raw)
            # Only the newest segment can carry a torn tail from the
            # last writer; anything malformed earlier is poison data,
            # not a crash artifact.
            if torn_tail and heal and n == len(segments) - 1:
                try:
                    os.truncate(segment, start + good_len)
                    self.healed_bytes += len(raw) - good_len
                except OSError:
                    bad += 1
            elif torn_tail:
                bad += 1
            self.poison_lines += max(bad - (1 if torn_tail else 0), 0)
            for record in records:
                self._absorb(record)
            known[2] = start + good_len
        if segments:
            last = segments[-1].name
            self._seg_index = int(
                last[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
            )
        return True

    # -- writing --------------------------------------------------------------

    @property
    def unavailable(self) -> bool:
        """True once appends have been disabled by an I/O error."""
        return self._fd is None

    def _disable(self, exc: BaseException) -> None:
        self.error = repr(exc)
        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def _rotate(self) -> None:
        """Start a fresh segment (record boundary only; lock-free — the
        WAL is single-writer by contract)."""
        assert self._fd is not None
        os.fsync(self._fd)  # a sealed segment must be complete on disk
        os.close(self._fd)
        self._fd = None
        self._seg_index += 1
        path = self.directory / _segment_name(self._seg_index)
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._size = 0

    def append(
        self, kind: str, rows: list[str] | tuple[str, ...], batch: str | None = None
    ) -> IngestReceipt:
        """Durably append ``rows`` to one feed; returns the ack receipt.

        Rows are raw text lines (trailing newlines stripped, empty lines
        dropped). With ``batch``, rows the WAL already holds under that
        batch id are skipped — re-sending a whole batch after a crashed
        ack is safe. One fsync covers the whole call (group commit): no
        row in the batch is acked before every row is durable.

        Raises :class:`WALUnavailable` on any I/O failure; the rows of
        this call must then be treated as unacked (some may still have
        reached the log, and some may sit only in this process's memory —
        replay after restart, or batch-id dedupe on re-send, resolves the
        ambiguity either way).
        """
        if kind not in KINDS:
            raise WALError(f"unknown ingest kind {kind!r}; expected one of {KINDS}")
        if self._fd is None:
            raise WALUnavailable(f"ingest WAL is unavailable: {self.error}")
        clean = [r.rstrip("\r\n") for r in rows]
        clean = [r for r in clean if r.strip()]
        start = 0
        if batch is not None:
            start = min(self._batches.get((kind, batch), 0), len(clean))
        fresh = clean[start:]
        # The envelope is assembled by hand: only the row (and batch id)
        # can contain characters needing JSON escaping, and the C string
        # encoder gives json.dumps()'s bytes for a str without its
        # per-call overhead. Replay reads it back with a plain loads().
        batch_json = None if batch is None else _json_str(batch)
        first_seq = seq = self._seq
        accepted: list[str] = []
        next_off = start
        # Group commit: records accumulate here and hit the fd in one
        # write per call. The chaos seam and segment rotation both need
        # the fd caught up to the record boundary, so they drain first.
        pending = bytearray()
        try:
            def _drain() -> None:
                assert self._fd is not None
                if pending:
                    os.write(self._fd, bytes(pending))
                    del pending[:]

            for i, row in enumerate(fresh, start):
                if batch_json is None:
                    text = f'{{"seq":{seq},"kind":"{kind}","row":{_json_str(row)}}}\n'
                else:
                    text = (
                        f'{{"seq":{seq},"kind":"{kind}","row":{_json_str(row)},'
                        f'"batch":{batch_json},"off":{i}}}\n'
                    )
                data = text.encode()
                if self._size > 0 and self._size + len(data) > self.rotate_bytes:
                    _drain()
                    self._rotate()
                assert self._fd is not None
                if self.chaos is not None:
                    _drain()
                    self.chaos(kind, None, data, self._fd)
                pending += data
                self._size += len(data)
                seq += 1
                accepted.append(row)
                next_off = i + 1
            _drain()
            if self.do_fsync and accepted:
                os.fsync(self._fd)
        except OSError as exc:
            self._disable(exc)
            raise WALUnavailable(f"ingest WAL write failed: {exc!r}") from exc
        finally:
            # Fold the rows handed to the log into memory once, even when
            # the batch failed part-way (see the docstring).
            if accepted:
                self._seq = seq
                self._rows[kind].extend(accepted)
                self._digests[kind].update(_feed_bytes(accepted))
                if batch is not None:
                    self._batches[(kind, batch)] = next_off
        return IngestReceipt(
            kind=kind,
            accepted=len(accepted),
            deduped=start,
            first_seq=first_seq if accepted else -1,
            last_seq=seq - 1 if accepted else -1,
        )

    # -- the read side --------------------------------------------------------

    def count(self, kind: str) -> int:
        """Accepted rows of one feed."""
        if kind not in KINDS:
            raise WALError(f"unknown ingest kind {kind!r}; expected one of {KINDS}")
        return len(self._rows[kind])

    def rows(self, kind: str, count: int | None = None) -> list[str]:
        """The first ``count`` accepted rows (all of them by default)."""
        if kind not in KINDS:
            raise WALError(f"unknown ingest kind {kind!r}; expected one of {KINDS}")
        rows = self._rows[kind]
        return list(rows if count is None else rows[:count])

    def chunk(self, kind: str) -> str:
        """The feed's input-chunk token: ``"<count>:<sha256 prefix>"``.

        A pure function of the accepted rows in seq order — this is the
        string the serve pipeline folds into cache keys, so two WALs
        holding the same rows produce the same chunk (and therefore
        byte-identical artifacts) regardless of segmentation, batch ids,
        or crash history.
        """
        if kind not in KINDS:
            raise WALError(f"unknown ingest kind {kind!r}; expected one of {KINDS}")
        digest = self._digests[kind].hexdigest()[:16]
        return f"{len(self._rows[kind])}:{digest}"

    def stats(self) -> dict:
        """Probe-friendly summary (row counts, seq frontier, segments)."""
        try:
            n_segments = len(_segments(self.directory))
            total_bytes = sum(
                p.stat().st_size for p in _segments(self.directory)
            )
        except OSError:
            n_segments, total_bytes = 0, 0
        return {
            "rows": {kind: len(self._rows[kind]) for kind in KINDS},
            "next_seq": self._seq,
            "segments": n_segments,
            "bytes": total_bytes,
            "healed_bytes": self.healed_bytes,
            "poison_lines": self.poison_lines,
            "unavailable": self.unavailable,
            "error": self.error,
        }

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Force everything written so far to stable storage (fsync)."""
        if self._fd is None:
            return
        try:
            os.fsync(self._fd)
        except OSError as exc:
            self._disable(exc)

    def close(self, sync: bool = True) -> None:
        """Flush (by default) and close; idempotent."""
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if sync:
                os.fsync(fd)
        except OSError as exc:
            self.error = repr(exc)
        finally:
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self) -> "IngestWAL":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def parse_chunk(chunk: str) -> tuple[int, str]:
    """Split a chunk token into ``(row count, digest prefix)``."""
    count_s, _, digest = chunk.partition(":")
    try:
        count = int(count_s)
    except ValueError:
        raise WALError(f"malformed chunk token {chunk!r}") from None
    if count < 0 or not digest:
        raise WALError(f"malformed chunk token {chunk!r}")
    return count, digest


#: Read-only followers by absolute WAL directory, least recently used
#: first; at most ``_MAX_FOLLOWERS`` of them, all behind one lock.
_FOLLOWERS: OrderedDict[str, IngestWAL] = OrderedDict()
_FOLLOWERS_LOCK = threading.Lock()
_MAX_FOLLOWERS = 4


def _forget_followers() -> None:
    # A forked child inherits the parent's followers mid-anything: another
    # thread may have held the lock at the fork. Start over instead.
    global _FOLLOWERS, _FOLLOWERS_LOCK
    _FOLLOWERS = OrderedDict()
    _FOLLOWERS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_followers)


def _named_rows(wal: IngestWAL, kind: str, count: int, digest: str) -> list[str] | None:
    """The first ``count`` rows of ``kind`` if they hash to ``digest``."""
    rows = wal._rows[kind]
    if count > len(rows):
        return None
    if count == len(rows):
        h = wal._digests[kind]
    else:
        h = hashlib.sha256(_feed_bytes(rows[:count]))
    return rows[:count] if h.hexdigest()[: len(digest)] == digest else None


def snapshot_rows(directory: str | Path, kind: str, chunk: str) -> list[str]:
    """Materialize exactly the rows a chunk token names, verified.

    Reads through this process's read-only follower of the WAL (no
    healing writes — safe from pipeline workers while the owning service
    lives), caught up to the bytes appended since its last call, takes the
    first N accepted rows of ``kind``, and checks their digest against the
    token. A follower in doubt is replaced by a fresh full replay; if that
    also disagrees, the log no longer contains the bytes the cache key was
    computed from (truncation, corruption, a foreign directory) and it is
    an error, never a silent wrong answer.
    """
    count, digest = parse_chunk(chunk)
    if kind not in KINDS:
        raise WALError(f"unknown ingest kind {kind!r}; expected one of {KINDS}")
    path = os.path.abspath(directory)
    with _FOLLOWERS_LOCK:
        follower = _FOLLOWERS.pop(path, None)
        rows = None
        if follower is not None and follower._replay(heal=False):
            rows = _named_rows(follower, kind, count, digest)
        if rows is None:
            follower = IngestWAL(path, read_only=True)
            rows = _named_rows(follower, kind, count, digest)
        _FOLLOWERS[path] = follower
        while len(_FOLLOWERS) > _MAX_FOLLOWERS:
            _FOLLOWERS.popitem(last=False)
        held = len(follower._rows[kind])
    if rows is not None:
        return rows
    if held < count:
        raise WALError(
            f"WAL {directory} holds {held} {kind} row(s); chunk names {count}"
        )
    raise WALError(
        f"WAL {directory} {kind} rows do not match chunk {chunk!r} "
        "(log truncated or rewritten since the key was computed)"
    )
