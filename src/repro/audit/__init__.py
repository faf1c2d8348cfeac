"""Reproducibility audit: cross-run concordance under perturbation.

The subsystem turns the repo's golden-artifact idea from a test fixture
into a user-facing correctness tool: re-run the study under a matrix of
perturbations (executor mode, crash+resume, injected faults, warm
cache), digest every step's artifact, and verify byte-identity against
the baseline — localizing any divergence to the first affected DAG step
and attributing declared environment drift via cache keys.

Entry points: :func:`run_audit` (the harness), ``repro audit`` (the
CLI), and :func:`repro.report.document.render_report_card` (the
human-readable verdict).
"""

from repro.audit.concordance import (
    ConcordanceReport,
    Perturbation,
    RunRecord,
    StepConcordance,
    TimingDelta,
    build_concordance_report,
)
from repro.audit.digests import (
    DIGEST_LEN,
    GOLDEN_STUDY,
    NON_ARTIFACT_SUFFIXES,
    artifact_digest,
    artifact_files,
    blob_digest,
    cache_digests,
    compare_to_goldens,
    golden_ids,
    render_artifact,
    structural_digest,
    text_digest,
)
from repro.audit.runner import (
    FULL_SCALE,
    QUICK_SCALE,
    default_matrix,
    run_audit,
    select_matrix,
)

__all__ = [
    "ConcordanceReport",
    "Perturbation",
    "RunRecord",
    "StepConcordance",
    "TimingDelta",
    "build_concordance_report",
    "DIGEST_LEN",
    "GOLDEN_STUDY",
    "NON_ARTIFACT_SUFFIXES",
    "artifact_digest",
    "artifact_files",
    "blob_digest",
    "cache_digests",
    "compare_to_goldens",
    "golden_ids",
    "render_artifact",
    "structural_digest",
    "text_digest",
    "FULL_SCALE",
    "QUICK_SCALE",
    "default_matrix",
    "run_audit",
    "select_matrix",
]
