"""Reproducible analysis DAG with content-addressed artifact caching.

Regenerating every table from scratch re-runs the scheduler simulator each
time; the pipeline caches each step's output keyed by the step's name, its
function's code fingerprint, its parameters, and the cache keys of
everything upstream, so editing a late analysis step never re-simulates the
cluster. The ablation bench (`bench_ablation_cache`) measures exactly this.

Steps form a dependency DAG and independent steps execute concurrently:
``Pipeline.run`` topologically schedules the graph onto a
``concurrent.futures`` pool (processes when every step function pickles,
threads otherwise; ``max_workers`` defaults to ``os.cpu_count()``). The
parallel schedule is observationally identical to the sequential one — same
context dict, same cache keys, same artifacts — which the golden-artifact
and property-based suites enforce. Cache writes are atomic (temp file +
``os.replace``) and computes are single-flight per key, so concurrent runs
sharing one cache never interleave partial artifacts or duplicate work
within a process.

Execution is fault-tolerant: each step may carry a :class:`RetryPolicy`
(bounded attempts, exponential backoff with seeded deterministic jitter)
and a ``timeout`` (hard process kill in process mode, best-effort
cooperative deadline in thread/sequential mode). ``run(on_error=
"keep_going")`` isolates failures — a terminally-failed step marks only
its downstream subtree ``skipped_upstream`` while independent branches
complete — and every run produces a structured
:class:`~repro.core.metrics.RunReport` (``Pipeline.last_report``). The
retry/timeout wrapper is outside the cache key, so fault-tolerance
settings never invalidate artifacts, and a retried run writes bytes
identical to a fault-free one (the chaos suite enforces this).

Execution is also *crash-safe*: ``run(journal=...)`` appends every step
outcome (cache-key-addressed) to a durable
:class:`~repro.core.journal.RunJournal`, and ``run(resume=...)`` recovers
an interrupted run by replaying journal-completed steps straight from the
cache (outcome ``replayed``) and re-executing only the in-flight frontier
— byte-identical to an uninterrupted run, which the SIGKILL chaos suite
enforces at every (step, event) crash coordinate. Disk caches shared by
*concurrent processes* are guarded by per-entry advisory file locks
(:class:`repro.io.locks.FileLock`), extending the in-process single-flight
across process boundaries, and cache/journal writes degrade gracefully on
``ENOSPC``/``OSError``: the run continues uncached with a
``cache_unavailable`` flag instead of crashing. Journal and locking
configuration stay outside cache keys, like retry/timeout.

Every executor — ``sequential`` (inline in the caller's thread),
``thread`` and ``process`` (the DAG on a pool) and ``dist`` (the fleet in
:mod:`repro.dist.coordinator`) — writes a step's outcome through one
function, ``_Run.settle``: one :class:`~repro.core.metrics.StepMetric`
(``last_report`` is a projection of those), one ``step`` span, one
journal ``step_done`` record. A run's report, trace and journal therefore
cannot disagree. A step behind a failed or skipped dependency is settled
``skipped_upstream`` once its last dependency resolves, and its reason
names every unavailable dependency, so it never depends on timing.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import struct
import threading
import time
import types
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.core import shm
from repro.obs.logging import get_logger, kv, set_run_id
from repro.core.metrics import ExecutorMetrics, RunReport, StepMetric
from repro.core.trace import Tracer, activate as _activate_trace, instant as _trace_instant
from repro.core.trace import resource_probe
from repro.io.locks import FileLock

_log = get_logger(__name__)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.journal import ResumeState, RunJournal

__all__ = [
    "ArtifactCache",
    "PipelineStep",
    "Pipeline",
    "PipelineError",
    "RetryPolicy",
    "StepTimeout",
]

_EXECUTORS = ("auto", "sequential", "thread", "process", "dist")
_ON_ERROR = ("raise", "keep_going")


class PipelineError(RuntimeError):
    """Raised for misconfigured pipelines."""


class StepTimeout(PipelineError):
    """A step exceeded its configured timeout.

    Subclasses :class:`PipelineError` (and therefore ``Exception``), so the
    default retry filter treats timeouts as retryable.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule for a pipeline step.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (1 = no retries).
    backoff_base:
        Sleep before the second attempt, in seconds.
    backoff_factor:
        Multiplier applied per subsequent retry (exponential backoff).
    max_backoff:
        Ceiling on any single sleep.
    jitter:
        Fractional jitter added on top of the backoff (0.1 = up to +10%).
        The jitter is *deterministic*: it is derived by hashing
        ``(seed, step name, attempt)``, so reruns sleep identical amounts
        and chaos tests reproduce bit-for-bit.
    seed:
        Seed folded into the jitter hash.
    retryable:
        Exception types worth retrying; anything else fails immediately.
        Defaults to every ``Exception`` (``StepTimeout`` included).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PipelineError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.max_backoff < 0:
            raise PipelineError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise PipelineError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.jitter < 0:
            raise PipelineError(f"jitter must be non-negative, got {self.jitter}")

    def retries(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt under this policy."""
        return isinstance(exc, self.retryable)

    def delay(self, step_name: str, attempt: int) -> float:
        """Deterministic sleep before retrying ``attempt`` (1-based) of a step."""
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1), self.max_backoff
        )
        if self.jitter <= 0 or base <= 0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{step_name}|{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter * frac)


#: Policy used when a step declares none: a single attempt, no sleeps.
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0)


def _const_repr(const: Any) -> str:
    """``repr(const)``, except that frozensets list their members sorted.

    A ``frozenset`` constant (``x in {"a", "b"}`` compiles to one) reprs
    in hash order, which follows ``PYTHONHASHSEED``. Any other constant,
    and any tuple with no frozenset inside, gives exactly its ``repr``.
    """
    if isinstance(const, frozenset):
        return f"frozenset({{{', '.join(sorted(map(_const_repr, const)))}}})"
    if isinstance(const, tuple):
        items = ", ".join(map(_const_repr, const))
        return f"({items},)" if len(const) == 1 else f"({items})"
    return repr(const)


def _hash_code(h: "hashlib._Hash", code: types.CodeType) -> None:
    # Nested code objects repr with memory addresses; recurse into them so
    # the fingerprint is stable across interpreter runs.
    h.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _hash_code(h, const)
        else:
            h.update(_const_repr(const).encode())


def fingerprint_callable(fn: Callable[..., Any]) -> str:
    """Stable identity for a step function: module, qualname, code hash.

    Two steps with the same name and params but different implementations
    must produce different cache keys; hashing the compiled bytecode (and
    nested code objects) catches edits that keep the signature.
    """
    h = hashlib.sha256()
    h.update(getattr(fn, "__module__", "") .encode() + b"\x00")
    h.update(getattr(fn, "__qualname__", type(fn).__name__).encode() + b"\x00")
    code = getattr(fn, "__code__", None)
    if code is None:  # callable object — fingerprint its __call__ if compiled
        code = getattr(getattr(fn, "__call__", None), "__code__", None)
    if code is not None:
        _hash_code(h, code)
    return h.hexdigest()[:16]


# Artifact container: protocol-5 pickle stream with the array bodies
# appended as raw out-of-band frames. It is the one encoding a step value
# gets: the cache stores it, and on the process path it is also what
# crosses every process boundary. Writing streams each frame straight
# from the source buffer (no joined in-memory blob, no in-band copy of
# array payloads inside the pickle stream); reading rebuilds the frames
# as writable bytearrays so rehydrated arrays behave exactly like an
# in-band unpickle. Entries written by older versions are plain pickle
# streams — _decode_artifact falls back to pickle.loads for those.
_ARTIFACT_MAGIC = b"RPA5\x00"
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


@contextmanager
def _artifact_parts(value: Any) -> Iterator[list[Any]]:
    """``value``'s container as byte-like parts, in order (the one encoder).

    Each array body is a view of its source buffer, valid only inside
    the ``with`` block; writing the parts one by one never joins them.
    """
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    try:
        parts: list[Any] = [
            _ARTIFACT_MAGIC, _U64.pack(len(stream)), stream, _U32.pack(len(buffers))
        ]
        for buf in buffers:
            raw = buf.raw()
            parts.append(_U64.pack(raw.nbytes))
            parts.append(raw)
        yield parts
    finally:
        for buf in buffers:
            buf.release()


def _write_artifact(fh, value: Any) -> None:
    """Stream ``value`` into ``fh`` as a protocol-5 out-of-band container."""
    with _artifact_parts(value) as parts:
        for part in parts:
            fh.write(part)


def _encode_artifact(value: Any) -> bytes:
    """``value``'s container as one ``bytes`` (joined; copies frames)."""
    with _artifact_parts(value) as parts:
        return b"".join(parts)


def _decode_artifact(blob: bytes) -> Any:
    """Value from container (or legacy plain-pickle) bytes.

    Raises on any truncation or length mismatch so callers treat the
    entry as corrupt and evict it.
    """
    if not blob.startswith(_ARTIFACT_MAGIC):
        return pickle.loads(blob)
    view = memoryview(blob)
    offset = len(_ARTIFACT_MAGIC)
    (stream_len,) = _U64.unpack_from(view, offset)
    offset += _U64.size
    stream = bytes(view[offset : offset + stream_len])
    if len(stream) != stream_len:
        raise ValueError("truncated artifact container (pickle stream)")
    offset += stream_len
    (n_frames,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    frames: list[bytearray] = []
    for _ in range(n_frames):
        (frame_len,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        frame = bytearray(view[offset : offset + frame_len])
        if len(frame) != frame_len:
            raise ValueError("truncated artifact container (frame)")
        offset += frame_len
        frames.append(frame)
    if offset != len(blob):
        raise ValueError("trailing garbage in artifact container")
    return pickle.loads(stream, buffers=frames)


@dataclass(frozen=True, slots=True)
class _Encoded:
    """A process-path step value together with its container bytes.

    A pool worker encodes each value once. The coordinator publishes
    ``blob`` verbatim (:meth:`ArtifactCache.put`), hands the same ``blob``
    to every dependent it submits, and returns ``value``, decoded once.
    """

    value: Any
    blob: bytes


class ArtifactCache:
    """Pickle-based content-addressed artifact store.

    Parameters
    ----------
    root:
        Directory for artifacts; created on first put. ``None`` gives an
        in-memory cache (useful in tests and benches).
    locking:
        When True (default) disk caches guard each entry's compute with a
        cross-process advisory :class:`~repro.io.locks.FileLock`
        (``<key>.lock`` next to the artifact), so concurrent *processes*
        sharing one cache dir single-flight the same way concurrent
        threads already do. In-memory caches never lock.

    Disk writes go through a temp file in the same directory (fsync'd
    before the rename, so a power loss cannot surface a zero-length
    "committed" entry) followed by ``os.replace``, so readers (including
    other processes) never observe a partially-written artifact. Corrupt
    or truncated entries are treated as misses and evicted rather than
    crashing mid-run. A *failed* write (``ENOSPC``, permissions, any
    ``OSError``) degrades instead of raising: :meth:`put` reports False,
    ``put_errors``/``last_put_error`` record what happened, and callers
    carry on with the computed value uncached.
    """

    def __init__(self, root: str | Path | None = None, *, locking: bool = True) -> None:
        self.root = Path(root) if root is not None else None
        self.locking = bool(locking)
        self._memory: dict[str, bytes] = {}
        self._locks_guard = threading.Lock()
        self._locks: dict[str, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.put_errors = 0
        self.last_put_error: str | None = None
        self._fail_put_keys: set[str] = set()

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.pkl"

    def _load(self, key: str) -> bytes | None:
        if self.root is None:
            return self._memory.get(key)
        try:
            return self._path(key).read_bytes()
        except OSError:  # missing, or deleted between exists() and read
            return None

    def _evict(self, key: str) -> None:
        if self.root is None:
            self._memory.pop(key, None)
        else:
            try:
                self._path(key).unlink()
            except OSError:
                pass

    def _peek(self, key: str, info: dict[str, Any] | None = None) -> Any | None:
        """Like :meth:`get` but without touching the hit/miss counters."""
        blob = self._load(key)
        if blob is None:
            return None
        try:
            value = _decode_artifact(blob)
        except Exception:
            # Corrupt/truncated entry (killed writer on a non-atomic FS,
            # disk damage): treat as a miss and drop the bad artifact.
            self._evict(key)
            return None
        if info is not None:
            info["blob"] = blob
        return value

    def peek(self, key: str, info: dict[str, Any] | None = None) -> Any | None:
        """Cached value for ``key`` without counting a hit or miss.

        Resume-replay uses this to check whether a journal-completed step's
        artifact actually survived, without skewing the hit/miss telemetry
        the ablation bench reads. On a hit, an ``info`` dict receives the
        container bytes the value was decoded from as ``info["blob"]``, so
        a caller that forwards them neither reads nor encodes them again.
        """
        return self._peek(key, info)

    def get(self, key: str, info: dict[str, Any] | None = None) -> Any | None:
        """Cached value for ``key``, or None; ``info`` as in :meth:`peek`."""
        value = self._peek(key, info)
        if value is None:
            self.misses += 1
            _trace_instant("cache.miss", "cache", key=key)
            return None
        self.hits += 1
        _trace_instant("cache.hit", "cache", key=key)
        return value

    def put(self, key: str, value: Any) -> bool:
        """Publish ``value`` under ``key``; True when it actually persisted.

        Any ``OSError`` on the write path (``ENOSPC`` above all) is
        swallowed: the run must not die because the cache filesystem did.
        The failure is counted in ``put_errors`` and described in
        ``last_put_error``, and the caller keeps its in-memory value.
        Pickling errors still raise — those are programming errors, not
        environmental ones.

        Serialization is pickle protocol 5 with out-of-band buffers: the
        pickle stream stays small and each array body is streamed to the
        file straight from its source buffer, so publishing a large
        columnar artifact never materializes a second in-memory copy of
        its payload. An :class:`_Encoded` value (the process path) is
        already in that container format: its bytes are published as they
        are, through the same path.
        """
        blob = value.blob if isinstance(value, _Encoded) else None
        try:
            if key in self._fail_put_keys:
                self._fail_put_keys.discard(key)
                raise OSError(28, "injected: no space left on device")  # ENOSPC
            if self.root is None:
                self._memory[key] = _encode_artifact(value) if blob is None else blob
                _trace_instant("cache.put", "cache", key=key, stored=True)
                return True
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            try:
                with open(tmp, "wb") as fh:
                    if blob is None:
                        _write_artifact(fh, value)
                    else:
                        fh.write(blob)
                    fh.flush()
                    # Durable before visible: without this fsync a power
                    # loss after the rename can expose a zero-length
                    # "committed" entry (rename-only ordering is not
                    # guaranteed on all filesystems).
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            finally:
                # A failed write or replace must not strand a .tmp file in
                # the cache directory; after a successful replace this is a
                # no-op.
                tmp.unlink(missing_ok=True)
        except OSError as exc:
            self.put_errors += 1
            self.last_put_error = repr(exc)
            _trace_instant("cache.put", "cache", key=key, stored=False)
            return False
        _trace_instant("cache.put", "cache", key=key, stored=True)
        return True

    def inject_put_failure(self, key: str) -> None:
        """Arm a one-shot ``ENOSPC`` for the next :meth:`put` of ``key``.

        Fault-injection seam for the disk-exhaustion chaos suite (see
        :meth:`repro.core.faults.FaultPlan.arm_enospc`).
        """
        self._fail_put_keys.add(key)

    def cancel_put_failure(self, key: str) -> None:
        """Disarm a pending :meth:`inject_put_failure` that never fired."""
        self._fail_put_keys.discard(key)

    def corrupt_entry(self, key: str, blob: bytes = b"\x80repro-injected-corruption") -> bool:
        """Overwrite ``key``'s stored bytes with garbage (fault injection).

        Exists so the chaos suite and :class:`repro.core.faults.FaultPlan`
        can simulate disk damage through the public API. Returns True when
        an entry existed and was corrupted. ``key`` must be a bare cache
        key: callers that derive keys from a naive directory listing would
        otherwise smash the ``<key>.lock`` advisory files left behind by
        :class:`repro.io.locks.FileLock` (or an in-flight ``.tmp``
        publish) — those are never artifacts, so they are refused here.
        """
        if key.endswith((".lock", ".tmp", ".pkl")):
            return False
        if self.root is None:
            if key not in self._memory:
                return False
            self._memory[key] = blob
            return True
        path = self._path(key)
        if not path.exists():
            return False
        path.write_bytes(blob)
        return True

    def entry_bytes(self, key: str) -> bytes | None:
        """The published pickle blob for ``key``, or None when absent.

        Read-only accessor for the reproducibility audit's digest walk:
        the audit hashes stored bytes (not live values) so it observes
        exactly what a resumed or separate process would unpickle.
        """
        return self._load(key)

    def _lock_for(self, key: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def _entry_lock(self, key: str) -> FileLock | None:
        """Cross-process lock for ``key``'s compute, or None when N/A.

        Disk caches only (two processes cannot share an in-memory cache),
        and degradable: if even creating the cache directory fails
        (``ENOSPC`` again) the compute proceeds unlocked — worst case is
        duplicated deterministic work, never corruption, because publishes
        stay atomic.
        """
        if self.root is None or not self.locking:
            return None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        return FileLock(self.root / f"{key}.lock")

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Any],
        force: bool = False,
        info: dict[str, Any] | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, was_cached)``, computing at most once per key.

        Concurrent callers asking for the same key within this process
        serialize on a per-key lock — and, for disk caches, callers in
        *other processes* serialize on a per-entry advisory file lock —
        so one computes and publishes and the rest observe the published
        value (single-flight). ``force=True`` skips the read path but
        still publishes the recomputed value.

        When ``info`` is a dict it receives out-of-band detail:
        ``computed`` (True when ``compute`` actually ran), ``stored``
        (False when the computed value failed to persist — the
        ``cache_unavailable`` degradation) and, on a hit, ``blob`` (see
        :meth:`peek`).

        One benign race: a reader that loaded a *corrupt* blob before a
        concurrent heal was published may evict the fresh entry and
        recompute. Values are deterministic and republished, so this
        costs duplicate work, never a wrong or missing artifact (and no
        in-process lock could close it — another process can interleave
        the same way).
        """
        if info is not None:
            info.setdefault("computed", False)
            info.setdefault("stored", True)
        if not force:
            value = self.get(key, info)
            if value is not None:
                return value, True
        with self._lock_for(key):
            flock = self._entry_lock(key)
            if flock is not None:
                flock.acquire()
            try:
                if not force:
                    # Another flight — thread or process — may have
                    # published while we waited on either lock.
                    value = self._peek(key, info)
                    if value is not None:
                        return value, True
                value = compute()
                stored = self.put(key, value)
                if info is not None:
                    info["computed"] = True
                    info["stored"] = stored
                return value, False
            finally:
                if flock is not None:
                    flock.release()

    def clear(self) -> None:
        if self.root is None:
            self._memory.clear()
        else:
            # missing_ok: a concurrent evict/clear may have removed the
            # entry between the directory scan and the unlink.
            for path in self.root.glob("*.pkl"):
                path.unlink(missing_ok=True)
            for path in self.root.glob("*.tmp"):
                path.unlink(missing_ok=True)
            for path in self.root.glob("*.lock"):
                path.unlink(missing_ok=True)
        self.hits = 0
        self.misses = 0
        self.put_errors = 0
        self.last_put_error = None
        self._fail_put_keys.clear()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_locks_guard"] = None
        state["_locks"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._locks_guard = threading.Lock()
        self._locks = {}


@dataclass(frozen=True)
class PipelineStep:
    """One named step.

    Attributes
    ----------
    name:
        Unique step name; also the context key its output is stored under.
    fn:
        ``fn(context, **params) -> value`` where ``context`` maps this
        step's declared dependencies to their outputs. Dependencies must be
        declared: undeclared reads would race under parallel execution, so
        the context contains exactly ``depends_on``, in that order, in
        every executor mode.
    params:
        Declarative parameters hashed into the cache key. Must be
        repr-stable (plain ints/floats/strings/tuples).
    depends_on:
        Names of earlier steps whose outputs this step reads; part of the
        cache key so upstream changes invalidate downstream artifacts.
    retry:
        Optional :class:`RetryPolicy`; falls back to the pipeline's
        ``default_retry`` (a single attempt when neither is set). Not part
        of the cache key — retrying cannot change the artifact.
    timeout:
        Optional per-attempt wall-clock budget in seconds; falls back to
        the pipeline's ``default_timeout``. In process mode the attempt's
        worker is hard-killed on expiry; in thread/sequential mode the
        deadline is cooperative (checked around the compute, and honored
        by injected hangs), so a truly wedged step function can overrun
        it. Also outside the cache key.
    """

    name: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()
    retry: RetryPolicy | None = None
    timeout: float | None = None


def _call_step(
    fn: Callable[..., Any],
    inputs: dict[str, Any],
    params: dict[str, Any],
    transport: Callable[[list[Any]], Any] | None = None,
    resources: bool = False,
    traced: bool = False,
) -> tuple[Any, dict[str, Any]]:
    """Run one attempt of a step function: the body every executor shares.

    Returns ``(value, measurement)``. Module-level so a process-pool
    worker can unpickle the invocation. A process worker cannot reach the
    coordinator's tracer, so it measures itself (pid, compute seconds,
    and CPU/peak RSS when ``resources``) and ships the measurement back
    through the pool's existing result channel. With ``traced`` the step
    runs under a worker-local ambient tracer, and the instants it raised
    ship back too, as ``measurement["instants"]`` (name, cat, args)
    triples, for the coordinator to emit into the run's tracer.

    With ``transport`` (the process path) each input arrives as container
    bytes and is decoded here, and the value is encoded once into
    container parts, which ``transport`` turns into what travels back: a
    :mod:`repro.core.shm` envelope from a pool worker, the joined bytes
    from a killable one. A None value stays None, for the caller to
    reject.
    """
    if transport is not None:
        inputs = {dep: _decode_artifact(blob) for dep, blob in inputs.items()}
    probe0 = resource_probe() if resources else None
    local = Tracer() if traced else None
    t0 = time.perf_counter()
    if local is None:
        value = fn(inputs, **params)
    else:
        with _activate_trace(local):
            value = fn(inputs, **params)
    payload: dict[str, Any] = {
        "worker_pid": os.getpid(),
        "compute": time.perf_counter() - t0,
    }
    if local is not None:
        payload["instants"] = [(i.name, i.cat, i.args) for i in local.instants]
    if probe0 is not None:
        probe1 = resource_probe()
        if probe1 is not None:
            payload["cpu"] = round(probe1[0] - probe0[0], 6)
            payload["rss_kb"] = probe1[1]
    if transport is not None and value is not None:
        with _artifact_parts(value) as parts:
            value = transport(parts)
    return value, payload


def _killable_target(conn, fn, inputs, params, traced) -> None:  # pragma: no cover - child process
    try:
        blob, payload = _call_step(fn, inputs, params, b"".join, traced=traced)
    except BaseException as exc:
        try:
            conn.send(("error", exc))
        except Exception:
            # The exception itself didn't pickle; ship its repr instead.
            conn.send(("error", PipelineError(f"step raised unpicklable {exc!r}")))
    else:
        conn.send(("ok", (blob, payload.get("instants", []))))
    finally:
        conn.close()


def _run_killable(
    step: "PipelineStep", inputs: dict[str, bytes], timeout: float, traced: bool
) -> tuple[bytes | None, list[tuple]]:
    """Run one attempt in a dedicated process that can be hard-killed.

    Process-mode steps with a timeout get their own worker instead of a
    slot on the shared pool: a shared-pool worker cannot be terminated
    without poisoning every other in-flight step, while a dedicated
    process can be ``terminate()``d the instant the deadline passes.
    Inputs and result are container bytes, as on the pool. Returns the
    result and the instants the step raised (none unless ``traced``).
    """
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_killable_target,
        args=(child_conn, step.fn, inputs, dict(step.params), traced),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(max(timeout, 0.0)):
            proc.terminate()
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
            raise StepTimeout(
                f"step {step.name!r} exceeded timeout {timeout:.3f}s (worker killed)"
            )
        try:
            kind, payload = parent_conn.recv()
        except EOFError:
            raise PipelineError(
                f"step {step.name!r}: worker died without reporting a result"
            ) from None
    finally:
        parent_conn.close()
        proc.join(1.0)
    if kind == "error":
        raise payload
    return payload


class _ProcessPool:
    """Process-mode worker pool plus the run's shared-memory namespace.

    Each attempt is one submit of :func:`_call_step` with its inputs as
    container bytes; the value's container bytes return through a
    transport envelope named under this pool's prefix. Zero-copy
    transport is a process-mode concern only: sequential and thread
    executors pass values in-process and never touch :mod:`repro.core.shm`.
    """

    def __init__(self, workers: int) -> None:
        self.executor = ProcessPoolExecutor(max_workers=workers)
        self.shm_prefix = shm.run_prefix()
        self.transport = partial(shm.encode_result, prefix=self.shm_prefix)

    def call(
        self,
        step: PipelineStep,
        inputs: dict[str, bytes],
        resources: bool,
        traced: bool,
    ) -> tuple[bytes | None, dict[str, Any]]:
        envelope, payload = self.executor.submit(
            _call_step, step.fn, inputs, dict(step.params), self.transport,
            resources, traced,
        ).result()
        return (None if envelope is None else shm.decode_result(envelope)), payload

    def close(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)
        # Any segment still alive under this prefix was orphaned by a
        # killed/crashed worker whose handle never reached decode_result.
        leaked = shm.sweep(self.shm_prefix)
        if leaked:
            _log.warning(
                "swept %d leaked shm segment(s) %s",
                len(leaked), kv(prefix=self.shm_prefix),
            )


def _attempt_loop(
    step: PipelineStep,
    inputs: dict[str, Any],
    policy: RetryPolicy,
    timeout: float | None,
    counter: dict[str, Any],
    *,
    pool: _ProcessPool | None = None,
    fault_plan: Any | None = None,
    tracer: Tracer | None = None,
    step_sid: int | None = None,
) -> Any:
    """One compute of ``step``: bounded attempts with backoff + deadline.

    ``counter["attempts"]`` holds the attempt in progress, so a caller can
    report it after a terminal failure; ``counter["pool_wait"]``
    accumulates process-pool queueing. The pipeline runs this in the
    coordinating process, inside the cache's single-flight lock, so
    retries of one step never duplicate work across concurrent runs. A
    dist worker runs it with no pool, fault plan or tracer; without a
    pool every timeout is cooperative. With a pool, ``inputs`` map each
    dependency to its container bytes and the result is an
    :class:`_Encoded`.
    """
    attempt = 0
    while True:
        attempt += 1
        counter["attempts"] = attempt
        attempt_start = time.perf_counter()
        deadline = attempt_start + timeout if timeout is not None else None
        attempt_sid = (
            tracer.begin(
                f"attempt:{step.name}", "attempt", parent=step_sid,
                step=step.name, attempt=attempt,
            )
            if tracer is not None
            else None
        )
        try:
            if fault_plan is not None:
                fault_plan.fire(
                    step.name,
                    attempt,
                    remaining=None if deadline is None else deadline - time.perf_counter(),
                )
            if deadline is not None and time.perf_counter() > deadline:
                # An injected hang (or pool queueing) consumed the whole
                # budget before the compute even started.
                raise StepTimeout(
                    f"step {step.name!r} exceeded timeout {timeout:.3f}s "
                    "(cooperative deadline, pre-compute)"
                )
            payload: dict[str, Any] | None = None
            # Instants a worker process raised, to emit into the run's tracer.
            instants: list[tuple] = []
            if pool is None:
                value, _ = _call_step(step.fn, inputs, dict(step.params))
            else:
                if deadline is not None:
                    # Hard timeout: dedicated killable worker (see
                    # _run_killable). Its dedicated Pipe is torn down with
                    # the process, so the result stays inline — shm
                    # ownership could not be handed off safely across a
                    # terminate().
                    blob, instants = _run_killable(
                        step, inputs, deadline - time.perf_counter(), tracer is not None
                    )
                else:
                    blob, payload = pool.call(
                        step, inputs, tracer is not None and tracer.resources,
                        tracer is not None,
                    )
                    instants = payload.pop("instants", [])
                # Decoded once, for the returned results; the bytes go on
                # to the cache and to every dependent as they are.
                value = None if blob is None else _Encoded(_decode_artifact(blob), blob)
                if payload is not None:
                    # The worker measured its own compute, so anything
                    # beyond it inside this attempt was pool queueing.
                    counter["pool_wait"] = counter.get("pool_wait", 0.0) + max(
                        0.0, (time.perf_counter() - attempt_start) - payload["compute"]
                    )
            if value is None:
                raise PipelineError(f"step {step.name!r} returned None")
            if deadline is not None and time.perf_counter() > deadline:
                raise StepTimeout(
                    f"step {step.name!r} exceeded timeout {timeout:.3f}s "
                    "(cooperative deadline)"
                )
            if attempt_sid is not None:
                for name, cat, args in instants:
                    tracer.instant(name, cat, **args)
                tracer.end(attempt_sid, ok=True, **(payload or {}))
            return value
        except Exception as exc:
            if attempt_sid is not None:
                tracer.end(attempt_sid, ok=False, error=type(exc).__name__)
            if attempt >= policy.max_attempts or not policy.retries(exc):
                raise
            delay = policy.delay(step.name, attempt)
            if tracer is not None:
                tracer.instant(
                    "retry.backoff", "retry",
                    step=step.name, attempt=attempt, delay=round(delay, 6),
                )
            time.sleep(delay)


@dataclass
class _Run:
    """The state of one :meth:`Pipeline.run` call, shared by every executor.

    :meth:`settle` is the only writer of a step's outcome: one
    :class:`~repro.core.metrics.StepMetric` (``last_report`` is projected
    from those), one ``step`` span, one journal ``step_done`` record. The
    sequential, pool and dist executors call it for every outcome, so a
    run's report, trace and journal cannot disagree about a step.
    """

    pipeline: "Pipeline"
    keys: dict[str, str]
    metrics: ExecutorMetrics
    force: bool
    on_error: str
    fault_plan: Any | None
    journal: "RunJournal | None"
    resume: "ResumeState | None"
    tracer: Tracer | None
    t0: float = field(default_factory=time.perf_counter)
    pool: _ProcessPool | None = None
    steps: dict[str, PipelineStep] = field(init=False)

    def __post_init__(self) -> None:
        self.steps = {s.name: s for s in self.pipeline.steps}

    def settle(
        self,
        name: str,
        outcome: str,
        attempts: int = 0,
        *,
        wall: float = 0.0,
        queue: float = 0.0,
        compute: float | None = None,
        error: str = "",
        cache_unavailable: bool = False,
        sid: int | None = None,
        start: float | None = None,
        tid: str | None = None,
    ) -> None:
        """Write step ``name``'s outcome to the metrics, trace and journal.

        ``sid`` ends the ``step`` span the executor opened; without one
        the span is added, on lane ``tid``, from ``start`` (default: now,
        zero length) to now. A failure span carries only the error's
        class — ``error`` up to its first ``(`` — so it exports
        identically from every executor.
        """
        key = self.keys[name]
        failed = outcome in ("failed", "timeout")
        if failed:
            _log.warning(kv("step.failed", step=name, status=outcome, attempts=attempts))
        self.metrics.steps.append(
            StepMetric(
                name, key, outcome == "cached", wall, outcome=outcome,
                attempts=attempts, error=error, cache_unavailable=cache_unavailable,
                queue_seconds=queue, compute_seconds=compute,
            )
        )
        tracer = self.tracer
        if tracer is not None:
            args: dict[str, Any] = {"outcome": outcome, "attempts": attempts}
            if failed:
                args["error"] = error.split("(")[0]
            args["queue_wait"] = round(queue, 6)
            if compute is not None:
                args["compute"] = round(compute, 6)
            args["wall"] = round(wall, 6)
            if sid is not None:
                tracer.end(sid, **args)
            else:
                now = tracer.now()
                tracer.add_span(
                    f"step:{name}", "step", now if start is None else start, now,
                    tid=tid, step=name, key=key,
                    deps=list(self.steps[name].depends_on), **args,
                )
        if self.journal is not None:
            self.journal.step_done(
                name, key, outcome, attempts,
                cache_unavailable=cache_unavailable, error=error,
            )

    def skip_if_upstream_failed(self, step: PipelineStep, unavailable: set[str]) -> bool:
        """Settle ``step`` as ``skipped_upstream`` when any dependency is in
        ``unavailable`` (failed or skipped); True when it did.

        Executors call this once the step's last dependency has resolved,
        so the reason names every unavailable dependency, in sorted order,
        whichever failed first.
        """
        bad = sorted(d for d in step.depends_on if d in unavailable)
        if not bad:
            return False
        unavailable.add(step.name)
        self.settle(step.name, "skipped_upstream", error=f"upstream failed: {bad}")
        return True


class Pipeline:
    """A dependency DAG of steps with cache-aware (parallel) execution.

    Steps are given in topological order (each step's dependencies must be
    declared by earlier steps), which also rules out cycles. ``run``
    schedules the DAG: steps whose dependencies have all resolved execute
    concurrently, subject to ``max_workers``.

    After every ``run`` the executor's timing/utilization record is
    available as :attr:`last_metrics` (an
    :class:`~repro.core.metrics.ExecutorMetrics`) and the per-step
    outcome record as :attr:`last_report` (a
    :class:`~repro.core.metrics.RunReport`).

    ``default_retry`` / ``default_timeout`` apply to every step that does
    not declare its own; neither participates in cache keys.
    """

    def __init__(
        self,
        steps: list[PipelineStep],
        cache: ArtifactCache | None = None,
        *,
        default_retry: RetryPolicy | None = None,
        default_timeout: float | None = None,
    ) -> None:
        if not steps:
            raise PipelineError("pipeline has no steps")
        names = [s.name for s in steps]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate step names: {names}")
        seen: set[str] = set()
        for step in steps:
            unknown = set(step.depends_on) - seen
            if unknown:
                raise PipelineError(
                    f"step {step.name!r} depends on undefined/later steps: {sorted(unknown)}"
                )
            seen.add(step.name)
        if default_timeout is not None and default_timeout <= 0:
            raise PipelineError(f"default_timeout must be positive, got {default_timeout}")
        self.steps = list(steps)
        self.cache = cache if cache is not None else ArtifactCache()
        self.default_retry = default_retry
        self.default_timeout = default_timeout
        self.last_metrics: ExecutorMetrics | None = None
        self.last_report: RunReport | None = None
        self.last_trace: Tracer | None = None

    def _policy_for(self, step: PipelineStep) -> RetryPolicy:
        if step.retry is not None:
            return step.retry
        return self.default_retry if self.default_retry is not None else NO_RETRY

    def _timeout_for(self, step: PipelineStep) -> float | None:
        return step.timeout if step.timeout is not None else self.default_timeout

    def _key(self, step: PipelineStep, upstream_keys: Mapping[str, str]) -> str:
        h = hashlib.sha256()
        h.update(step.name.encode())
        h.update(fingerprint_callable(step.fn).encode())
        h.update(repr(sorted(step.params.items())).encode())
        for dep in step.depends_on:
            h.update(upstream_keys[dep].encode())
        return h.hexdigest()[:24]

    def keys(self) -> dict[str, str]:
        """Cache key per step. Pure function of the pipeline definition,
        so sequential and parallel runs address identical artifacts."""
        keys: dict[str, str] = {}
        for step in self.steps:
            keys[step.name] = self._key(step, keys)
        return keys

    # -- executor selection ---------------------------------------------------

    def _picklable(self) -> bool:
        try:
            for step in self.steps:
                pickle.dumps((step.fn, dict(step.params)))
        except Exception:
            return False
        return True

    def _resolve_executor(self, executor: str, max_workers: int | None) -> tuple[str, int]:
        if executor not in _EXECUTORS:
            raise PipelineError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise PipelineError(f"max_workers must be >= 1, got {max_workers}")
        if executor == "dist":
            # The fleet owns its worker model — a one-step DAG on a
            # one-worker fleet is still a fleet run, never silently
            # collapsed to the in-process fast path. An unspecified
            # max_workers defaults to a small fleet rather than cpu_count:
            # fleet workers are whole processes with their own polling
            # loops, not pool threads.
            if max_workers is None:
                workers = min(4, os.cpu_count() or 1)
            return executor, workers
        if executor == "sequential" or workers == 1 or len(self.steps) == 1:
            return "sequential", 1
        if executor == "auto":
            return ("process" if self._picklable() else "thread"), workers
        return executor, workers

    # -- execution ------------------------------------------------------------

    def run(
        self,
        force: bool = False,
        *,
        max_workers: int | None = None,
        executor: str = "auto",
        on_error: str = "raise",
        fault_plan: Any | None = None,
        journal: "RunJournal | None" = None,
        resume: "ResumeState | str | Path | None" = None,
        trace: "Tracer | bool | None" = None,
        backend_options: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Execute all steps, returning {step name: output} in step order.

        Parameters
        ----------
        force:
            Bypass cache reads (values are still written back).
        max_workers:
            Pool size; defaults to ``os.cpu_count()``. ``1`` forces the
            sequential fast path (except for ``dist``, which owns its
            worker model).
        executor:
            ``"auto"`` (processes when every step pickles, else threads),
            ``"sequential"``, ``"thread"``, ``"process"``, or ``"dist"``
            (coordinator/worker fleet over the shared cache directory —
            see :mod:`repro.dist`).
        on_error:
            ``"raise"`` (default) propagates the first terminal step
            failure, as before. ``"keep_going"`` isolates it: the failed
            step's downstream subtree is marked ``skipped_upstream``,
            independent branches complete, and the returned dict contains
            only the steps that produced a value (consult
            :attr:`last_report` for what degraded).
        fault_plan:
            Optional :class:`repro.core.faults.FaultPlan` injecting
            deterministic faults for chaos testing. Faults fire in the
            coordinating process, never inside pool workers, so attempt
            accounting stays exact in every executor mode.
        journal:
            Optional :class:`repro.core.journal.RunJournal`. Every step
            start/outcome is appended (cache-key-addressed) so a killed
            run can be recovered with ``resume``. Journal configuration is
            outside cache keys — journaling never invalidates artifacts.
        resume:
            A :class:`repro.core.journal.ResumeState` (or a journal file
            path to load one from) describing an interrupted run. Steps
            the journal marks complete, whose key still matches this
            pipeline and whose artifact survives in the cache, are
            *replayed* (outcome ``"replayed"``, 0 attempts) instead of
            executed; everything else — the in-flight frontier — runs
            normally. Ignored for steps when ``force=True``.
        trace:
            ``True`` opens a fresh :class:`~repro.core.trace.Tracer`; an
            existing tracer appends this run into it; ``None`` (default)
            disables tracing at zero cost. A traced run opens a root span
            per run id (the journal's id when journaled, so trace and
            journal correlate), one ``step`` span per step tagged with
            outcome/cache key/worker/queue-wait-vs-compute, one
            ``attempt`` span per compute attempt, and instant events from
            the cache, locks, retry backoffs, and fault injections. The
            tracer lands on :attr:`last_trace`. Like retry/timeout and
            journal config, tracing never touches cache keys.
        backend_options:
            Knobs for the ``dist`` executor (ignored by the others): either
            ``{"config": DistConfig(...)}`` or loose
            :class:`~repro.dist.worker.DistConfig` field names. Never part
            of cache keys.

        The returned dict — values and iteration order — is identical
        across executor modes; only :attr:`last_metrics` differs. After
        every run (even one that raises) :attr:`last_report` holds a
        :class:`~repro.core.metrics.RunReport` with each step's outcome,
        attempt count, and captured error.
        """
        if on_error not in _ON_ERROR:
            raise PipelineError(
                f"unknown on_error {on_error!r}; expected one of {_ON_ERROR}"
            )
        if isinstance(resume, (str, Path)):
            from repro.core.journal import load_resume_state

            resume = load_resume_state(resume)
        keys = self.keys()
        mode, workers = self._resolve_executor(executor, max_workers)
        metrics = ExecutorMetrics(mode=mode, max_workers=workers)
        if resume is not None:
            metrics.resumed_from = resume.run_id
        if journal is not None:
            metrics.journal_path = str(journal.path)
            journal.run_start(
                keys,
                executor=mode,
                resumed_from=None if resume is None else resume.run_id,
            )
        tracer: Tracer | None
        if trace is None or trace is False:
            tracer = None
        elif trace is True:
            tracer = Tracer()
        else:
            tracer = trace
        self.last_trace = tracer
        root_sid: int | None = None
        run_id: str | None = None
        if journal is not None:
            run_id = journal.run_id
        elif tracer is not None:
            from repro.core.journal import new_run_id

            run_id = new_run_id()
        if tracer is not None:
            root_sid = tracer.begin(
                "run", "run", run_id=run_id, executor=mode, workers=workers,
                resumed_from=None if resume is None else resume.run_id,
            )
        if run_id is not None:
            # Tag every log line from any module until the run closes. The
            # isEnabledFor guards keep kv() rendering off the journal/trace
            # overhead benches when logging is quiet.
            set_run_id(run_id)
            if _log.isEnabledFor(20):  # INFO
                _log.info(kv("run.start", executor=mode, workers=workers))
        run = _Run(
            pipeline=self, keys=keys, metrics=metrics, force=force, on_error=on_error,
            fault_plan=fault_plan, journal=journal, resume=resume, tracer=tracer,
        )
        try:
            with _activate_trace(tracer):
                if mode == "sequential":
                    results = self._run_sequential(run)
                elif mode == "dist":
                    # Imported lazily so the core pipeline stays importable
                    # without the dist package loaded.
                    from repro.dist.coordinator import run_coordinator

                    results = run_coordinator(run, backend_options, max_workers)
                else:
                    results = self._run_dag(run, mode, workers)
        finally:
            metrics.wall_seconds = time.perf_counter() - run.t0
            position = {name: i for i, name in enumerate(keys)}
            metrics.steps.sort(key=lambda m: position[m.name])
            report = metrics.run_report
            if journal is not None:
                journal.run_end(report.counts(), metrics.wall_seconds)
                metrics.journal_unavailable = journal.unavailable
            if tracer is not None and root_sid is not None:
                tracer.end(
                    root_sid,
                    wall=round(metrics.wall_seconds, 6),
                    counts=report.counts(),
                )
                tracer.close_open_spans()
            if run_id is not None:
                if _log.isEnabledFor(20):  # INFO
                    _log.info(
                        kv("run.end", wall=metrics.wall_seconds, **report.counts())
                    )
                set_run_id(None)
            self.last_metrics = metrics
            self.last_report = report
        return {step.name: results[step.name] for step in self.steps if step.name in results}

    def run_with_report(self, *args: Any, **kwargs: Any) -> tuple[dict[str, Any], RunReport]:
        """:meth:`run`, returning ``(results, report)`` in one call."""
        results = self.run(*args, **kwargs)
        assert self.last_report is not None
        return results, self.last_report

    def _obtain(
        self,
        run: _Run,
        step: PipelineStep,
        inputs: dict[str, Any],
        counter: dict[str, Any],
        step_sid: int | None,
    ) -> tuple[Any, str]:
        """Produce ``step``'s value; returns ``(value, outcome)`` with
        ``outcome`` one of ``replayed``, ``cached``, ``ok``, ``retried``.

        On the process path ``inputs`` are container bytes and the value
        is an :class:`_Encoded`; a hit's bytes are the ones the cache read.
        """
        key = run.keys[step.name]
        encoded = run.pool is not None
        info: dict[str, Any] = {}
        resume = run.resume
        if resume is not None and not run.force and resume.completed.get(step.name) == key:
            # The interrupted run journaled this exact artifact as done.
            # Serve it straight from the cache without attempting compute;
            # a vanished/corrupt artifact simply falls through to the
            # normal path below.
            value = self.cache.peek(key, info)
            if value is not None:
                self.cache.hits += 1
                return (_Encoded(value, info["blob"]) if encoded else value), "replayed"
        fault_plan = run.fault_plan
        armed = fault_plan is not None and fault_plan.arm_enospc(
            self.cache, step.name, key,
            will_compute=run.force or self.cache.peek(key) is None,
        )
        value, cached = self.cache.get_or_compute(
            key,
            lambda: _attempt_loop(
                step, inputs, self._policy_for(step), self._timeout_for(step),
                counter, pool=run.pool, fault_plan=fault_plan, tracer=run.tracer,
                step_sid=step_sid,
            ),
            force=run.force,
            info=info,
        )
        if armed and not info.get("computed"):
            # Another flight published first; the armed failure never fired
            # and must not leak onto an unrelated future put.
            self.cache.cancel_put_failure(key)
        if fault_plan is not None and not cached:
            # Corrupt-cache faults fire after a successful publish so the
            # *next* reader exercises the evict-and-recompute path.
            fault_plan.corrupt_cache(self.cache, step.name, key)
        counter["cache_unavailable"] = bool(info.get("computed")) and not info.get(
            "stored", True
        )
        if cached:
            return (_Encoded(value, info["blob"]) if encoded else value), "cached"
        return value, ("retried" if counter["attempts"] > 1 else "ok")

    def _run_step(
        self, run: _Run, step: PipelineStep, inputs: dict[str, Any], ready: float
    ) -> Any:
        """Obtain one step's value and settle its outcome.

        Runs inline (sequential) or on a coordination thread (pools). A
        terminal failure is settled, then re-raised. ``ready`` is when the
        step's last dependency resolved: the gap to its start, plus any
        process-pool queueing, is its queue wait.
        """
        if run.journal is not None:
            run.journal.step_start(step.name, run.keys[step.name])
        started = time.perf_counter()
        sid = (
            run.tracer.begin(
                f"step:{step.name}", "step",
                step=step.name, key=run.keys[step.name], deps=list(step.depends_on),
            )
            if run.tracer is not None
            else None
        )
        counter: dict[str, Any] = {"attempts": 0, "pool_wait": 0.0, "cache_unavailable": False}
        value, failure = None, None
        try:
            value, outcome = self._obtain(run, step, inputs, counter, sid)
        except Exception as exc:
            failure = exc
            outcome = "timeout" if isinstance(exc, StepTimeout) else "failed"
        wall = time.perf_counter() - started
        pool_wait = counter["pool_wait"]
        run.settle(
            step.name, outcome, counter["attempts"], wall=wall,
            queue=max(0.0, started - ready) + pool_wait,
            compute=max(0.0, wall - pool_wait) if failure is None else None,
            error="" if failure is None else repr(failure),
            cache_unavailable=counter["cache_unavailable"], sid=sid,
        )
        if failure is not None:
            raise failure
        return value

    def _run_sequential(self, run: _Run) -> dict[str, Any]:
        results: dict[str, Any] = {}
        unavailable: set[str] = set()  # failed or skipped steps
        # Sequential queue-wait: a step was "ready" the moment its last
        # dependency finished, so anything between then and its start is
        # earlier-but-independent steps hogging the single worker.
        finish_times: dict[str, float] = {}
        for step in self.steps:
            if run.skip_if_upstream_failed(step, unavailable):
                continue
            ready = max((finish_times[d] for d in step.depends_on), default=run.t0)
            inputs = {dep: results[dep] for dep in step.depends_on}
            try:
                results[step.name] = self._run_step(run, step, inputs, ready)
            except Exception:
                if run.on_error == "raise":
                    raise
                unavailable.add(step.name)
                continue
            finish_times[step.name] = time.perf_counter()
        return results

    def _run_dag(self, run: _Run, mode: str, workers: int) -> dict[str, Any]:
        indegree = {s.name: len(s.depends_on) for s in self.steps}
        dependents: dict[str, list[PipelineStep]] = {s.name: [] for s in self.steps}
        for step in self.steps:
            for dep in step.depends_on:
                dependents[dep].append(step)
        results: dict[str, Any] = {}
        unavailable: set[str] = set()  # failed or skipped steps
        # Process mode hands dependents container bytes, never values: a
        # step's bytes stay here until its last dependent is resolved.
        blobs: dict[str, bytes] = {}
        unresolved = {name: len(steps) for name, steps in dependents.items()}

        # Thread mode computes inside the coordination threads, so the
        # coordination pool IS the worker pool; process mode uses cheap
        # coordination threads (one can exist per step) that block on the
        # process pool, which enforces the real parallelism bound. Per-key
        # single-flight waits only ever block on another pipeline's compute
        # (keys are unique within one pipeline), so bounding the thread-mode
        # pool to ``workers`` cannot deadlock this run against itself.
        coord_size = workers if mode == "thread" else len(self.steps)
        run.pool = _ProcessPool(workers) if mode == "process" else None
        try:
            with ThreadPoolExecutor(max_workers=coord_size) as coord:
                inflight: dict[Future, PipelineStep] = {}

                def submit(step: PipelineStep) -> None:
                    source = results if run.pool is None else blobs
                    inputs = {dep: source[dep] for dep in step.depends_on}
                    # A step is "ready" at submit time (all deps resolved);
                    # the gap to its task starting is coordination-pool
                    # queueing, charged to queue-wait.
                    inflight[
                        coord.submit(self._run_step, run, step, inputs, time.perf_counter())
                    ] = step

                def resolve(name: str) -> None:
                    # ``name`` settled. A dependent whose last dependency
                    # this was runs now, or is settled skipped — which in
                    # turn resolves its own dependents.
                    settled = [name]
                    while settled:
                        for step in dependents[settled.pop()]:
                            indegree[step.name] -= 1
                            if indegree[step.name]:
                                continue
                            if run.skip_if_upstream_failed(step, unavailable):
                                settled.append(step.name)
                            else:
                                submit(step)
                            for dep in step.depends_on:
                                unresolved[dep] -= 1
                                if not unresolved[dep]:
                                    blobs.pop(dep, None)

                for step in self.steps:
                    if indegree[step.name] == 0:
                        submit(step)
                while inflight:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for fut in done:
                        step = inflight.pop(fut)
                        try:
                            value = fut.result()
                            if isinstance(value, _Encoded):
                                if dependents[step.name]:
                                    blobs[step.name] = value.blob
                                value = value.value
                            results[step.name] = value
                        except BaseException as exc:
                            if run.on_error == "raise" or not isinstance(exc, Exception):
                                for other in inflight:
                                    other.cancel()
                                raise
                            unavailable.add(step.name)
                        resolve(step.name)
        finally:
            if run.pool is not None:
                run.pool.close()
        return results
