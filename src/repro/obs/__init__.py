"""``repro.obs``: the fleet-wide observability plane.

Spans three layers of the repo:

* :mod:`repro.obs.registry` — the mergeable :class:`MetricsRegistry`
  (counters, gauges, log-bucketed histograms with exact percentile
  queries); snapshots are pure data with associative/commutative merge;
* :mod:`repro.obs.promfmt` — the Prometheus exposition writer +
  validator behind the registry's ``to_text``;
* :mod:`repro.obs.spine` — the cross-process trace/metrics spine for
  fleet runs (worker segment files, coordinator merge);
* :mod:`repro.obs.slo` / :mod:`repro.obs.ring` — serve-tier SLO policy
  evaluation and the size-rotated on-disk metrics ring;
* :mod:`repro.obs.top` — the ``repro top`` dashboard renderer and
  :func:`read_status`, the serve root's out-of-process status probe;
* :mod:`repro.obs.logging` — run-id-tagged structured CLI logging.

The package imports only the standard library (no numpy, no study
code), so every ``repro`` command can set up logging, and
``repro serve --status`` and ``repro top`` can answer, without paying
for the study stack's start-up.
"""

from repro.obs.promfmt import PromWriter, validate_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    count_instants,
    merge_snapshots,
    registry_from_metrics,
)
from repro.obs.ring import MetricsRing, read_ring_snapshot
from repro.obs.slo import SLOPolicy, evaluate_slo, load_slo
from repro.obs.spine import WorkerObs, load_segments, merge_segments, obs_dir
from repro.obs.top import render_top

__all__ = [
    "PromWriter",
    "validate_prometheus",
    "MetricsRegistry",
    "count_instants",
    "merge_snapshots",
    "registry_from_metrics",
    "MetricsRing",
    "read_ring_snapshot",
    "SLOPolicy",
    "evaluate_slo",
    "load_slo",
    "WorkerObs",
    "load_segments",
    "merge_segments",
    "obs_dir",
    "render_top",
]
