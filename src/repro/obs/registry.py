"""Mergeable metrics registry: counters, gauges, log-bucketed histograms.

The fleet-wide half of the observability plane. Every process that
observes anything — dist workers, the coordinator, the serve loop —
records into its own :class:`MetricsRegistry`; registries never share
memory. What crosses process boundaries is a :meth:`~MetricsRegistry.snapshot`:
pure JSON-able data whose merge is **associative and commutative**, so a
coordinator can fold per-worker snapshots in whatever order the
filesystem hands them over and always arrive at the same fleet registry.

Histograms are log-bucketed (each bucket spans ~9% of value space, base
``2**(1/8)``) with exact rank-selection percentile queries over the
bucket counts: ``percentile`` walks the cumulative counts to the target
rank and answers the bucket's upper bound clamped to the observed max.
Because bucket indices are fixed at observe time, the answer is a pure
function of the merged counts — merge order can never shift a p99.

Rendering goes through :mod:`repro.obs.promfmt` (one exposition writer
for the whole repo). ``to_text(normalize=True)`` follows the PR-5
normalization precedent: timing-dependent families are stripped — gauges
are dropped wholesale and histograms keep only their observation count —
so a fixed seed/DAG renders byte-identically across
sequential/thread/process/dist executors, and the determinism suite
diffs exactly that.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Mapping

from repro.obs.promfmt import PromWriter

__all__ = [
    "MetricsRegistry",
    "count_instants",
    "merge_snapshots",
    "registry_from_metrics",
]

SNAPSHOT_SCHEMA = 1

#: Histogram bucket base: boundaries at ``_BASE ** i``, ~9% per bucket.
_BASE = 2.0 ** 0.125
_LOG_BASE = math.log(_BASE)
#: Bucket-index clamp. ``_BASE**-192`` ~ 6e-8 s, ``_BASE**192`` ~ 1.7e7 s:
#: far wider than any latency this repo can observe, so the clamp exists
#: only to keep degenerate inputs (0, inf) in a finite index space.
_MIN_IDX, _MAX_IDX = -192, 192

_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, Any]) -> _Key:
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _bucket_index(value: float) -> int:
    if value <= 0.0 or not math.isfinite(value):
        return _MIN_IDX if value <= 0.0 else _MAX_IDX
    return max(_MIN_IDX, min(_MAX_IDX, math.floor(math.log(value) / _LOG_BASE)))


def _fmt(value: float) -> str:
    """Canonical sample-value text: integral floats render as integers."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Histogram:
    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        idx = _bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, q: float) -> float | None:
        """Rank-selection percentile over the bucket counts (``q`` in 0..100)."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in 0..100, got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= rank:
                return min(_BASE ** (idx + 1), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def to_data(self) -> dict[str, Any]:
        return {
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_data(self, data: Mapping[str, Any]) -> None:
        for raw_idx, c in (data.get("buckets") or {}).items():
            idx = int(raw_idx)
            self.buckets[idx] = self.buckets.get(idx, 0) + int(c)
        self.count += int(data.get("count", 0) or 0)
        self.sum += float(data.get("sum", 0.0) or 0.0)
        if data.get("min") is not None:
            self.min = min(self.min, float(data["min"]))
        if data.get("max") is not None:
            self.max = max(self.max, float(data["max"]))


#: ``{family: (type, help)}`` defaults for families this repo records, so
#: snapshots merged from processes that never touched a family still
#: render it with the right preamble.
_WELL_KNOWN: dict[str, tuple[str, str]] = {
    "repro_steps_total": ("counter", "Steps executed, by outcome."),
    "repro_step_wall_seconds": ("histogram", "Per-step wall time."),
    "repro_requests_total": ("counter", "Artifact requests received."),
    "repro_request_seconds": ("histogram", "Admission-to-answer request latency."),
    "repro_shed_total": ("counter", "Requests shed by admission control, by reason."),
    "repro_degraded_total": ("counter", "Non-fresh answers served, by reason."),
    "repro_queue_depth": ("gauge", "Requests currently waiting on a recompute."),
    "repro_staleness_rows_behind": (
        "gauge",
        "WAL rows the most-behind artifact trails the frontier by.",
    ),
    "repro_worker_up": ("gauge", "Fleet worker liveness (value = pid)."),
    "repro_worker_tasks": ("gauge", "Tasks executed, per fleet worker."),
    "repro_events_total": ("counter", "Instant events by family."),
    "repro_skipped_rows_total": ("counter", "Rows dropped by tolerant readers."),
}


class MetricsRegistry:
    """Thread-safe counters + gauges + log-bucketed histograms (see module
    docstring for merge and normalization semantics)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, tuple[str, str]] = {}
        self._counters: dict[_Key, float] = {}
        self._gauges: dict[_Key, float] = {}
        self._histograms: dict[_Key, _Histogram] = {}

    # -- declaring -------------------------------------------------------------

    def describe(self, name: str, type_: str, help_text: str = "") -> None:
        """Declare a family's type and help text (first declaration wins)."""
        with self._lock:
            self._families.setdefault(name, (type_, help_text))

    def _auto(self, name: str, type_: str) -> None:
        if name not in self._families:
            known = _WELL_KNOWN.get(name)
            self._families[name] = known if known else (type_, "")

    # -- recording -------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _key(name, labels)
        with self._lock:
            self._auto(name, "counter")
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._auto(name, "gauge")
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._auto(name, "histogram")
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.observe(float(value))

    # -- querying --------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current counter/gauge value (0.0 when the series never recorded)."""
        key = _key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0.0)

    def counts(self, name: str, label: str) -> dict[str, int]:
        """A counter family's series as ``{value of label: count}``."""
        with self._lock:
            return {
                dict(pairs).get(label, ""): int(value)
                for (series, pairs), value in sorted(self._counters.items())
                if series == name
            }

    def histogram_count(self, name: str, **labels: Any) -> int:
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            return hist.count if hist is not None else 0

    def percentile(self, name: str, q: float, **labels: Any) -> float | None:
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            return hist.percentile(q) if hist is not None else None

    def percentiles(
        self, name: str, qs: Iterable[float] = (50, 95, 99), **labels: Any
    ) -> dict[str, float | None]:
        return {f"p{g:g}": self.percentile(name, g, **labels) for g in qs}

    # -- snapshots and merge ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The registry as pure data (JSON-able, merge-able, atomic-writable).

        Series are ``[name, [[label, value], ...], payload]`` triples with
        sorted label pairs — structured, so merging never has to parse a
        rendered series key back apart.
        """
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "families": {
                    name: {"type": t, "help": h}
                    for name, (t, h) in sorted(self._families.items())
                },
                "counters": [
                    [name, [list(p) for p in pairs], value]
                    for (name, pairs), value in sorted(self._counters.items())
                ],
                "gauges": [
                    [name, [list(p) for p in pairs], value]
                    for (name, pairs), value in sorted(self._gauges.items())
                ],
                "histograms": [
                    [name, [list(p) for p in pairs], hist.to_data()]
                    for (name, pairs), hist in sorted(self._histograms.items())
                ],
            }

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or snapshot) into this one.

        Counters add, histograms add bucket-wise (min/max fold through
        min/max), gauges take the max — the one commutative combine that
        makes sense for level-style gauges (queue depth, rows behind),
        where the fleet-level answer is the worst case any process saw.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for name, meta in (snap.get("families") or {}).items():
                self._families.setdefault(
                    str(name), (str(meta.get("type", "untyped")), str(meta.get("help", "")))
                )
            for name, pairs, value in snap.get("counters") or []:
                key = (str(name), tuple((str(k), str(v)) for k, v in pairs))
                self._counters[key] = self._counters.get(key, 0.0) + float(value)
            for name, pairs, value in snap.get("gauges") or []:
                key = (str(name), tuple((str(k), str(v)) for k, v in pairs))
                current = self._gauges.get(key)
                value = float(value)
                self._gauges[key] = value if current is None else max(current, value)
            for name, pairs, data in snap.get("histograms") or []:
                key = (str(name), tuple((str(k), str(v)) for k, v in pairs))
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = _Histogram()
                hist.merge_data(data)

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snap)
        return registry

    # -- rendering -------------------------------------------------------------

    def to_text(self, normalize: bool = False) -> str:
        """Prometheus exposition text via the shared writer.

        ``normalize=True`` strips everything timing- or host-dependent:
        gauge families vanish, histograms keep only ``_count``. What
        remains (counter values, observation counts) is a pure function
        of seed + DAG, so the determinism suite can diff it byte-for-byte
        across executor modes and merge orders.
        """
        with self._lock:
            writer = PromWriter()
            for name in sorted(self._families):
                type_, help_text = self._families[name]
                if normalize and type_ == "gauge":
                    continue
                writer.family(name, type_, help_text or name)
                if type_ == "histogram":
                    self._render_histogram(writer, name, normalize)
                    continue
                store = self._counters if type_ == "counter" else self._gauges
                for (series, pairs), value in sorted(store.items()):
                    if series != name:
                        continue
                    writer.sample(name, dict(pairs), _fmt(value))
            return writer.render()

    def _render_histogram(self, writer: PromWriter, name: str, normalize: bool) -> None:
        for (series, pairs), hist in sorted(self._histograms.items()):
            if series != name:
                continue
            labels = dict(pairs)
            if not normalize:
                cumulative = 0
                for idx in sorted(hist.buckets):
                    cumulative += hist.buckets[idx]
                    le = format(_BASE ** (idx + 1), ".6g")
                    writer.sample(
                        f"{name}_bucket", dict(labels, le=le), str(cumulative)
                    )
                writer.sample(
                    f"{name}_bucket", dict(labels, le="+Inf"), str(hist.count)
                )
                writer.sample(f"{name}_sum", labels, _fmt(hist.sum))
            writer.sample(f"{name}_count", labels, str(hist.count))


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold snapshots into one merged snapshot (order never matters)."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()


def count_instants(registry: MetricsRegistry, tracer: Any) -> None:
    """Fold a traced run's instant events into ``registry``.

    Each instant adds 1 to ``repro_events_total{event=<name>}`` (cache
    hits, lock acquisitions, backoff sleeps, fault firings, ...). An
    ``ingest.skipped_rows`` instant also adds its ``count`` to
    ``repro_skipped_rows_total{reader=}``: the event count alone would
    count reader *invocations*, not the rows they dropped.
    """
    for event in tracer.instants:
        registry.inc("repro_events_total", event=event.name)
        if event.name == "ingest.skipped_rows":
            registry.inc(
                "repro_skipped_rows_total",
                int(event.args.get("count", 0) or 0),
                reader=event.args.get("reader", "unknown"),
            )


def registry_from_metrics(metrics: Any, tracer: Any = None) -> MetricsRegistry:
    """The canonical per-run registry, derived from an ``ExecutorMetrics``.

    Gives the in-process executors (sequential/thread/process) the same
    registry families the dist workers record on the spine —
    ``repro_steps_total{outcome=}`` and the ``repro_step_wall_seconds``
    histogram — so a clean run's merged fleet registry and an in-process
    run's registry render byte-identically under ``normalize=True``.
    Given the run's ``tracer``, its instants are folded in too
    (:func:`count_instants`); that is what ``repro trace --metrics-out``
    writes.
    """
    registry = MetricsRegistry()
    registry.describe(*(("repro_steps_total",) + _WELL_KNOWN["repro_steps_total"]))
    registry.describe(
        *(("repro_step_wall_seconds",) + _WELL_KNOWN["repro_step_wall_seconds"])
    )
    for step in getattr(metrics, "steps", []):
        registry.inc("repro_steps_total", outcome=step.outcome)
        registry.observe("repro_step_wall_seconds", step.wall_seconds)
    if tracer is not None:
        count_instants(registry, tracer)
    return registry
