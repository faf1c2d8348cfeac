"""End-to-end run tracing: span/event bus, Perfetto export, critical path.

Every other observability surface in this repo (``ExecutorMetrics``,
``RunReport``, the run journal) records *what* happened; this module
records *where wall-clock went*. A :class:`Tracer` is a process-safe span
and instant-event bus that :meth:`repro.core.Pipeline.run` opens a root
span on (one per run id, correlated with the PR-4 journal) and every
subsystem emits into:

* the pipeline emits one ``step`` span per step and one ``attempt`` span
  per compute attempt, tagged with outcome (``ok``/``cached``/``retried``/
  ``timeout``/``skipped_upstream``/``replayed``), cache key, worker id,
  and queue-wait vs compute time;
* :class:`~repro.core.pipeline.ArtifactCache` hits/misses/puts,
  :class:`~repro.io.locks.FileLock` acquisitions,
  :class:`~repro.core.pipeline.RetryPolicy` backoff sleeps and
  :class:`~repro.core.faults.FaultPlan` firings emit instant events
  through the *ambient* tracer (:func:`instant`), so none of those layers
  needs the tracer plumbed through its signature;
* spans opt into resource deltas (CPU time and peak RSS via
  :mod:`resource`, Python-heap peak via :mod:`tracemalloc` when tracing).

Spans from thread *and* process workers are collected losslessly: thread
workers append into the tracer's lock-guarded buffers directly, and
process workers measure themselves locally and ship the measurement back
through the existing result channel (the pipeline's traced worker wrapper
returns ``(value, payload)``), never through a shared file.

Serialization is deterministic: :meth:`Tracer.to_perfetto` emits
Chrome/Perfetto ``trace_event`` JSON (load it at https://ui.perfetto.dev
or ``chrome://tracing``) with stable ordering, and
``to_perfetto(normalize=True)`` strips every timing-, host- and
run-dependent field so a fixed seed/DAG exports byte-identically across
sequential/thread/process executors — the determinism suite diffs exactly
that. Counts derived from a trace (instant events, skipped rows) are
folded into a metrics registry by :func:`repro.obs.registry.count_instants`.

On top of the span tree, :func:`critical_path` implements DAG
critical-path analysis (longest dependency chain, per-step slack,
parallel efficiency, theoretical max speedup); ``repro trace`` renders it
and ``repro report --trace out.json`` wires it through the full report
build.

Tracing is *zero-cost when disabled*: the pipeline's default is
``trace=None`` (one ``is None`` test per emit site), the ambient hook is
a single module-global load when no tracer is active, and — like
retry/timeout/journal config — tracing never participates in cache keys.
The ``trace_overhead`` bench gates the enabled cost at <3% in CI; the
disabled path is that bench's own baseline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

try:
    import tracemalloc as _tracemalloc
except ImportError:  # pragma: no cover - tracemalloc is CPython-universal
    _tracemalloc = None  # type: ignore[assignment]

__all__ = [
    "Tracer",
    "SpanRecord",
    "InstantRecord",
    "TraceError",
    "current_tracer",
    "activate",
    "instant",
    "resource_probe",
    "validate_perfetto",
    "load_perfetto",
    "critical_path",
    "analyze_perfetto",
    "CriticalPathResult",
    "CriticalStep",
]

TRACE_SCHEMA = 1

#: Span/event args that depend on wall-clock, host, or run identity and
#: therefore must not survive ``normalize=True`` export (everything else —
#: outcomes, cache keys, attempt counts, dependency lists — is a pure
#: function of seed + DAG and stays).
_TIMING_ARGS = frozenset(
    {
        "queue_wait",
        "compute",
        "wall",
        "cpu",
        "rss_kb",
        "py_peak_kb",
        "worker",
        "worker_pid",
        "wait",
        "delay",
        "run_id",
        "resumed_from",
        "executor",
        "workers",
        "pid",
        "wall_seconds",
        "seconds",
    }
)

#: Event categories whose *presence* is nondeterministic — dist
#: scheduling events (lease expiries, heartbeat gaps, reassignments,
#: speculation) depend on OS timing, so normalized exports drop the
#: category wholesale rather than just scrubbing its args. The spine's
#: worker-side spans (``wtask`` task spans, ``worker`` lifecycle spans —
#: see :mod:`repro.obs.spine`) are ephemeral for the same reason: which
#: worker ran a step, and whether a killed worker's final flush survived,
#: is OS timing, not seed + DAG.
_EPHEMERAL_CATS = frozenset({"dist", "wtask", "worker"})


class TraceError(RuntimeError):
    """Raised for malformed traces and analysis inputs."""


@dataclass
class SpanRecord:
    """One duration span (``ph="X"`` in trace_event terms).

    ``start``/``end`` are seconds relative to the tracer's epoch;
    ``end is None`` while the span is open. ``tid`` is a logical worker
    label (thread name or ``w<pid>`` for process workers), not a kernel
    thread id — Perfetto lanes group by it.
    """

    sid: int
    parent: int | None
    name: str
    cat: str
    tid: str
    start: float
    end: float | None = None
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class InstantRecord:
    """One instant event (``ph="i"``): something happened at a moment."""

    name: str
    cat: str
    tid: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


def resource_probe() -> tuple[float, int] | None:
    """Current ``(cpu_seconds, max_rss_kb)`` of this process, or None.

    CPU is user+system time; RSS is the kernel's high-watermark (KiB on
    Linux; normalized from bytes on macOS). Returns None where
    :mod:`resource` is unavailable so callers degrade instead of crashing.
    """
    if _resource is None:
        return None
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    rss = int(ru.ru_maxrss)
    if rss > 1 << 24:  # macOS reports bytes, Linux kilobytes
        rss //= 1024
    return ru.ru_utime + ru.ru_stime, rss


class Tracer:
    """Process-safe span/event collector for one (or a few) pipeline runs.

    Thread-safe: coordination threads in thread/process executor modes
    append concurrently under one lock. Process workers never touch the
    tracer object — they self-measure and return a payload through the
    pool's result channel, which the coordinating thread folds in (see
    ``repro.core.pipeline``).

    Parameters
    ----------
    resources:
        When True, every span additionally records CPU-time and peak-RSS
        deltas (and the Python-heap peak when :mod:`tracemalloc` is
        actively tracing). Off by default — the probe is two syscalls per
        span edge.
    """

    def __init__(self, *, resources: bool = False) -> None:
        self.resources = bool(resources)
        self.epoch = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._next_sid = 0
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self._by_sid: dict[int, SpanRecord] = {}
        self._res_at_begin: dict[int, tuple[float, int]] = {}

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return time.perf_counter() - self._t0

    @staticmethod
    def _tid() -> str:
        return threading.current_thread().name

    # -- span lifecycle -------------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "",
        parent: int | None = None,
        tid: str | None = None,
        **args: Any,
    ) -> int:
        """Open a span; returns its id for :meth:`end`."""
        record = SpanRecord(
            sid=0,
            parent=parent,
            name=name,
            cat=cat,
            tid=tid if tid is not None else self._tid(),
            start=self.now(),
            args=dict(args),
        )
        probe = resource_probe() if self.resources else None
        with self._lock:
            record.sid = self._next_sid
            self._next_sid += 1
            self.spans.append(record)
            self._by_sid[record.sid] = record
            if probe is not None:
                self._res_at_begin[record.sid] = probe
        return record.sid

    def end(self, sid: int, **args: Any) -> None:
        """Close a span, merging ``args`` into its tags."""
        now = self.now()
        probe = resource_probe() if self.resources else None
        with self._lock:
            record = self._by_sid.get(sid)
            if record is None or record.end is not None:
                return
            record.end = now
            record.args.update(args)
            begin_probe = self._res_at_begin.pop(sid, None)
            if probe is not None and begin_probe is not None:
                record.args.setdefault("cpu", round(probe[0] - begin_probe[0], 6))
                record.args.setdefault("rss_kb", probe[1])
                if _tracemalloc is not None and _tracemalloc.is_tracing():
                    record.args.setdefault(
                        "py_peak_kb", _tracemalloc.get_traced_memory()[1] // 1024
                    )

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        parent: int | None = None,
        tid: str | None = None,
        **args: Any,
    ) -> int:
        """Record an already-measured span (e.g. shipped from a worker)."""
        record = SpanRecord(
            sid=0,
            parent=parent,
            name=name,
            cat=cat,
            tid=tid if tid is not None else self._tid(),
            start=start,
            end=end,
            args=dict(args),
        )
        with self._lock:
            record.sid = self._next_sid
            self._next_sid += 1
            self.spans.append(record)
            self._by_sid[record.sid] = record
        return record.sid

    def instant(self, name: str, cat: str = "", tid: str | None = None, **args: Any) -> None:
        """Record one instant event."""
        record = InstantRecord(
            name=name,
            cat=cat,
            tid=tid if tid is not None else self._tid(),
            ts=self.now(),
            args=dict(args),
        )
        with self._lock:
            self.instants.append(record)

    def close_open_spans(self, **args: Any) -> None:
        """End every still-open span (a raising run must not leak spans)."""
        now = self.now()
        with self._lock:
            for record in self.spans:
                if record.end is None:
                    record.end = now
                    record.args.update(args)
            self._res_at_begin.clear()

    # -- export: Chrome/Perfetto trace_event JSON -----------------------------

    @staticmethod
    def _clean_args(args: Mapping[str, Any], normalize: bool) -> dict[str, Any]:
        if not normalize:
            return dict(args)
        return {k: v for k, v in args.items() if k not in _TIMING_ARGS}

    def to_perfetto(self, normalize: bool = False) -> dict[str, Any]:
        """The trace as a Chrome/Perfetto ``trace_event`` JSON object.

        ``normalize=True`` strips every timing-, host- and run-dependent
        field (timestamps, durations, worker/tid labels, pids, resource
        deltas) and sorts events canonically, so two runs of the same
        seed/DAG — in *any* executor mode — export byte-identical JSON.
        The default keeps real microsecond timestamps for the Perfetto
        timeline view.
        """
        pid = 0 if normalize else os.getpid()
        by_sid_name = {s.sid: s.name for s in self.spans}
        events: list[dict[str, Any]] = []
        for s in self.spans:
            if normalize and (s.cat or "trace") in _EPHEMERAL_CATS:
                continue
            end = s.end if s.end is not None else s.start
            event: dict[str, Any] = {
                "name": s.name,
                "cat": s.cat or "trace",
                "ph": "X",
                "ts": 0 if normalize else round(s.start * 1e6, 1),
                "dur": 0 if normalize else round(max(end - s.start, 0.0) * 1e6, 1),
                "pid": pid,
                "tid": "0" if normalize else s.tid,
                "args": self._clean_args(s.args, normalize),
            }
            if s.parent is not None and s.parent in by_sid_name:
                event["args"]["parent"] = by_sid_name[s.parent]
            events.append(event)
        for i in self.instants:
            if normalize and (i.cat or "trace") in _EPHEMERAL_CATS:
                continue
            events.append(
                {
                    "name": i.name,
                    "cat": i.cat or "trace",
                    "ph": "i",
                    "s": "t",
                    "ts": 0 if normalize else round(i.ts * 1e6, 1),
                    "pid": pid,
                    "tid": "0" if normalize else i.tid,
                    "args": self._clean_args(i.args, normalize),
                }
            )
        if normalize:
            events.sort(
                key=lambda e: (
                    e["ph"],
                    e["cat"],
                    e["name"],
                    json.dumps(e["args"], sort_keys=True, default=str),
                )
            )
        else:
            events.sort(key=lambda e: (e["ts"], e["ph"], e["name"]))
            events.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": "0",
                    "args": {"name": "repro pipeline"},
                },
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "generator": "repro.core.trace"},
        }

    def write_perfetto(self, path: str | Path, normalize: bool = False) -> Path:
        """Serialize :meth:`to_perfetto` to ``path`` deterministically."""
        path = Path(path)
        path.write_text(
            json.dumps(
                self.to_perfetto(normalize=normalize),
                sort_keys=True,
                separators=(",", ":"),
                default=str,
            )
            + "\n",
            encoding="utf-8",
        )
        return path


# -- the ambient tracer --------------------------------------------------------
#
# Low layers (ArtifactCache, FileLock, FaultPlan, retry sleeps) emit through
# a module-global "active tracer" instead of threading the tracer through
# every signature. Pipeline.run installs it for the duration of a traced
# run. The disabled path is one module-global load + None test.

_active: Tracer | None = None
_active_lock = threading.Lock()


def current_tracer() -> Tracer | None:
    """The ambient tracer installed by an in-progress traced run, or None."""
    return _active


class _Activation:
    def __init__(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        global _active
        with _active_lock:
            self._previous = _active
            if self._tracer is not None:
                _active = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> None:
        global _active
        with _active_lock:
            _active = self._previous


def activate(tracer: Tracer | None) -> _Activation:
    """Install ``tracer`` as the ambient tracer for a ``with`` block.

    ``activate(None)`` is a no-op context (the disabled path never mutates
    the global). Nesting restores the previous tracer on exit.
    """
    return _Activation(tracer)


def instant(name: str, cat: str = "", **args: Any) -> None:
    """Emit an instant event into the ambient tracer, if one is active.

    This is the hook the cache/lock/retry/fault layers call; when no
    traced run is in progress it costs one global load and a None test.
    """
    tracer = _active
    if tracer is not None:
        tracer.instant(name, cat, **args)


# -- loading and validating exports --------------------------------------------


def load_perfetto(path: str | Path) -> dict[str, Any]:
    """Load an exported trace file, validating the top-level shape."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_perfetto(data)
    if problems:
        raise TraceError(f"{path}: invalid trace_event JSON: {problems[0]}")
    return data


def validate_perfetto(data: Any) -> list[str]:
    """Check ``data`` against the trace_event schema; returns problems.

    Covers the fields Perfetto/chrome://tracing require to load a file:
    a ``traceEvents`` list whose members carry ``name``/``ph``/``ts``/
    ``pid``/``tid``, with a numeric non-negative ``dur`` on complete
    (``"X"``) events. An empty list means the export is loadable.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["top level is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for n, event in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for required in ("name", "ph", "ts", "pid", "tid"):
            if required not in event:
                problems.append(f"{where}: missing {required!r}")
        ph = event.get("ph")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs a non-negative dur")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args is not an object")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return problems


# -- DAG critical-path analysis ------------------------------------------------


@dataclass(frozen=True)
class CriticalStep:
    """One step's place in the critical-path solution.

    ``slack`` is how much the step could grow without lengthening the
    critical path (0.0 on the path itself); ``earliest_finish`` is its
    completion offset under infinite workers.
    """

    name: str
    seconds: float
    deps: tuple[str, ...]
    earliest_finish: float
    slack: float
    on_critical_path: bool


@dataclass(frozen=True)
class CriticalPathResult:
    """Critical-path solution over one traced (or described) DAG run.

    ``length`` is the longest dependency chain's duration — the wall-clock
    floor no worker count can beat; ``total_work`` is the serial sum of
    all step durations. ``wall``/``workers`` describe the actual run when
    known (0.0/0 otherwise).
    """

    steps: tuple[CriticalStep, ...]
    path: tuple[str, ...]
    length: float
    total_work: float
    wall: float = 0.0
    workers: int = 0

    @property
    def max_speedup(self) -> float:
        """Theoretical speedup ceiling: total work over the critical path."""
        return self.total_work / self.length if self.length > 0 else 1.0

    @property
    def actual_speedup(self) -> float:
        """Achieved speedup: total work over observed wall-clock."""
        return self.total_work / self.wall if self.wall > 0 else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """span-sum / (wall-clock × workers): busy fraction of the pool."""
        capacity = self.wall * self.workers
        return min(1.0, self.total_work / capacity) if capacity > 0 else 0.0

    def step(self, name: str) -> CriticalStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(f"no step {name!r} in this analysis")

    def render(self, top: int = 10) -> str:
        """Human-readable critical-path report (``repro trace`` output)."""
        lines = [
            (
                f"critical path: {len(self.path)} step(s), "
                f"{self.length:.3f}s of {self.total_work:.3f}s total work "
                f"(max speedup {self.max_speedup:.2f}x)"
            )
        ]
        for name in self.path:
            s = self.step(name)
            lines.append(f"  -> {name}  {s.seconds:.3f}s")
        if self.wall > 0:
            line = (
                f"run: {self.wall:.3f}s wall on {self.workers} worker(s) — "
                f"{self.actual_speedup:.2f}x speedup, "
                f"{100.0 * self.parallel_efficiency:.0f}% parallel efficiency"
            )
            lines.append(line)
        off_path = sorted(
            (s for s in self.steps if not s.on_critical_path),
            key=lambda s: s.slack,
        )
        if off_path:
            lines.append(f"slack (top {min(top, len(off_path))} tightest):")
            for s in off_path[:top]:
                lines.append(f"  {s.name}  {s.seconds:.3f}s, slack {s.slack:.3f}s")
        return "\n".join(lines)


def critical_path(
    steps: Iterable[tuple[str, Sequence[str], float]],
    wall: float = 0.0,
    workers: int = 0,
) -> CriticalPathResult:
    """Solve the critical path of a DAG of ``(name, deps, seconds)`` steps.

    Standard longest-path CPM over the dependency DAG: earliest finish is
    computed forward, the longest tail (step-inclusive downstream chain)
    backward, and slack is the critical-path length minus the longest
    path *through* each step. Steps may arrive in any order; unknown
    dependency names raise :class:`TraceError` (a cycle surfaces as the
    same error, since topological ordering then fails).
    """
    triples = [(name, tuple(deps), max(float(seconds), 0.0)) for name, deps, seconds in steps]
    if not triples:
        raise TraceError("no steps to analyze")
    names = [t[0] for t in triples]
    if len(set(names)) != len(names):
        raise TraceError(f"duplicate step names: {names}")
    by_name = {t[0]: t for t in triples}
    for name, deps, _ in triples:
        unknown = [d for d in deps if d not in by_name]
        if unknown:
            raise TraceError(f"step {name!r} depends on unknown steps {unknown}")

    # Topological order (Kahn); leftovers mean a cycle.
    indegree = {name: len(deps) for name, deps, _ in triples}
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for name, deps, _ in triples:
        for dep in deps:
            dependents[dep].append(name)
    order = [name for name in names if indegree[name] == 0]
    cursor = 0
    while cursor < len(order):
        for dependent in dependents[order[cursor]]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                order.append(dependent)
        cursor += 1
    if len(order) != len(names):
        stuck = sorted(set(names) - set(order))
        raise TraceError(f"dependency cycle through {stuck}")

    earliest: dict[str, float] = {}
    critical_dep: dict[str, str | None] = {}
    for name in order:
        _, deps, seconds = by_name[name]
        best_dep, best_finish = None, 0.0
        for dep in deps:
            if earliest[dep] > best_finish:
                best_dep, best_finish = dep, earliest[dep]
        earliest[name] = best_finish + seconds
        critical_dep[name] = best_dep
    # Longest downstream chain including the step itself.
    tail: dict[str, float] = {}
    for name in reversed(order):
        _, _, seconds = by_name[name]
        tail[name] = seconds + max((tail[d] for d in dependents[name]), default=0.0)
    length = max(earliest.values())
    total_work = sum(t[2] for t in triples)

    # Walk the path back from the step with the maximal earliest finish.
    end = max(order, key=lambda n: (earliest[n], n))
    path: list[str] = []
    node: str | None = end
    while node is not None:
        path.append(node)
        node = critical_dep[node]
    path.reverse()
    on_path = set(path)

    solved = tuple(
        CriticalStep(
            name=name,
            seconds=by_name[name][2],
            deps=by_name[name][1],
            earliest_finish=earliest[name],
            slack=max(
                0.0,
                length - ((earliest[name] - by_name[name][2]) + tail[name]),
            ),
            on_critical_path=name in on_path,
        )
        for name in names
    )
    return CriticalPathResult(
        steps=solved,
        path=tuple(path),
        length=length,
        total_work=total_work,
        wall=max(float(wall), 0.0),
        workers=max(int(workers), 0),
    )


def analyze_perfetto(data: Mapping[str, Any]) -> CriticalPathResult:
    """Critical-path analysis of an exported (or in-memory) Perfetto trace.

    Reads the ``step``-category spans the pipeline emits (their ``args``
    carry the step name, dependency list, and compute/wall durations) plus
    the ``run`` root span's wall/worker tags. Works identically on
    :meth:`Tracer.to_perfetto` output and on a file round-tripped through
    :func:`load_perfetto`.
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("not a trace_event object (missing traceEvents)")
    triples: list[tuple[str, Sequence[str], float]] = []
    wall, workers = 0.0, 0
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        if event.get("cat") == "run":
            wall = float(args.get("wall", event.get("dur", 0.0) / 1e6 or 0.0))
            workers = int(args.get("workers", 0) or 0)
            continue
        if event.get("cat") != "step":
            continue
        name = str(args.get("step", event.get("name", "")))
        deps = args.get("deps") or []
        # Prefer pure compute: in pooled modes a step's wall includes the
        # time its work item sat in the executor queue, which would count
        # scheduling pressure as "work" and overstate the max speedup.
        seconds = args.get("compute")
        if seconds is None:
            seconds = args.get("wall")
        if seconds is None:
            seconds = float(event.get("dur", 0.0)) / 1e6
        triples.append((name, [str(d) for d in deps], float(seconds)))
    if not triples:
        raise TraceError("trace contains no step spans to analyze")
    return critical_path(triples, wall=wall, workers=workers)
