"""``repro.serve``: study-as-a-service — always-on incremental recompute.

The batch pipeline answers "rebuild everything from the frozen inputs";
this package answers "keep the tables warm while rows keep arriving".
Four layers, each usable on its own:

* :mod:`repro.serve.wal` — the durable ingest log (crash-safe append,
  torn-tail healing, batch dedupe, chunk tokens for cache keys);
* :mod:`repro.serve.pipeline` — the WAL-fed study DAG whose cache keys
  fold the ingested bytes, so appended rows dirty only their subtree;
* :mod:`repro.serve.admission` / :mod:`repro.serve.breaker` — bounded
  queueing + deadline shedding, and the poison-quarantine ladder;
* :mod:`repro.serve.service` — :class:`StudyService`, which wires the
  above into ingest/refresh/request/status/drain with read-only
  degradation and SIGKILL-anywhere crash recovery.

:func:`read_status`, the out-of-process status probe, lives in
:mod:`repro.obs.top` (so ``repro serve --status`` imports no study code)
and is re-exported here.

See ``docs/API.md`` ("Serving & incremental ingestion") for the WAL
format, the staleness contract, and the failure ladder.
"""

from repro.obs.top import read_status
from repro.serve.admission import AdmissionController, QueueFull, ServeResult
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.pipeline import INGEST_STEPS, serve_pipeline
from repro.serve.service import (
    RefreshResult,
    ServeConfig,
    ServiceDraining,
    ServiceReadOnly,
    StudyService,
)
from repro.serve.wal import (
    IngestReceipt,
    IngestWAL,
    WALError,
    WALUnavailable,
    parse_chunk,
    snapshot_rows,
)

__all__ = [
    "AdmissionController",
    "QueueFull",
    "ServeResult",
    "BreakerState",
    "CircuitBreaker",
    "INGEST_STEPS",
    "serve_pipeline",
    "RefreshResult",
    "ServeConfig",
    "ServiceDraining",
    "ServiceReadOnly",
    "StudyService",
    "read_status",
    "IngestReceipt",
    "IngestWAL",
    "WALError",
    "WALUnavailable",
    "parse_chunk",
    "snapshot_rows",
]
