"""The incremental serve pipeline: WAL feeds → study and experiments.

Mirrors :func:`repro.report.experiments.report_pipeline`, but the study's
inputs come from the service's ingest WAL instead of the synthetic
generators. The dirtiness mechanism is entirely in the params: each feed
step carries its WAL *chunk token* (``"<rows>:<digest>"``, see
:meth:`repro.serve.wal.IngestWAL.chunk`), so the content-addressed cache
keys fold the ingested bytes in. Each ``exp:*`` step depends only on the
feed steps holding the study parts its experiment reads
(``Experiment.reads``), and ``study`` on both. Appending response rows
changes only the ``responses`` chunk → new keys for ``responses``,
``study`` and the experiments that read responses; a sacct append
reruns ``telemetry``, ``study`` and the telemetry readers. With the 26
registered experiments that is 18 and 13 of 29 steps; the other feed's
step and experiments replay from cache. That is the whole
incremental-recompute story — no new cache machinery, just input
hashing where params already live. Likewise a survey that fails
validation fails ``study`` and the responses readers with
``StudyError``, while the telemetry-only experiments still refresh.

Step functions materialize their rows through
:func:`repro.serve.wal.snapshot_rows`, which catches this process's
follower of the log up to the bytes appended since its last call (a full
replay only when in doubt) and verifies the digest — a step can never
observe rows appended after its key was computed, so artifacts are pure
functions of (chunk, params) and restart-after-crash converges to the
byte-identical clean rebuild.

Poison-row tolerance: both feed steps parse with ``on_bad_rows="skip"``
(the PR-4 tolerant readers), so a malformed ingested row costs a
``SkippedRow`` instant on the trace bus, never a failed subtree. Rows
that are *systematically* fatal further down (a poisoned parse crash) are
the circuit breaker's job (see ``repro.serve.service``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.sacct import _HEADER, parse_sacct
from repro.core.instrument import build_instrument
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep, RetryPolicy
from repro.core.study import Study
from repro.io.jsonl import read_responses_jsonl
from repro.report.experiments import _experiment_steps
from repro.serve.wal import snapshot_rows

__all__ = ["serve_pipeline", "INGEST_STEPS"]

#: The two feed steps, by WAL kind. Service-side quarantine logic maps
#: step names back to feeds through this table.
INGEST_STEPS: Mapping[str, str] = {"responses": "responses", "telemetry": "sacct"}


def _responses_step(context, wal, chunk):
    from repro.survey.responses import ResponseSet

    rows = snapshot_rows(wal, "responses", chunk)
    questionnaire = build_instrument()
    if not rows:
        return ResponseSet(questionnaire, [])
    text = "\n".join(rows) + "\n"
    return read_responses_jsonl(
        questionnaire, text, on_bad_rows="skip", skipped=[]
    )


def _telemetry_step(context, wal, chunk):
    rows = snapshot_rows(wal, "sacct", chunk)
    text = _HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
    return parse_sacct(text, on_bad_rows="skip", skipped=[])


def _serve_study_step(context, window_seconds, baseline_cohort, current_cohort):
    return Study(
        responses=context["responses"],
        telemetry=context["telemetry"],
        cluster=DEFAULT_CLUSTER,
        window_seconds=window_seconds,
        baseline_cohort=baseline_cohort,
        current_cohort=current_cohort,
    )


def serve_pipeline(
    wal_dir,
    chunks: Mapping[str, str],
    *,
    window_seconds: float,
    experiment_ids: Sequence[str] | None = None,
    exclude: Sequence[str] = (),
    baseline_cohort: str = "2011",
    current_cohort: str = "2024",
    cache: ArtifactCache | None = None,
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> Pipeline:
    """Build the cached ingest→study/experiments DAG for one refresh.

    ``chunks`` maps WAL kind (``"responses"``/``"sacct"``) to the chunk
    token each feed step should pin — normally the WAL's current frontier,
    but the service pins a *quarantined* feed to its last-good token so
    the rest of the study keeps refreshing on stale-but-sane input.
    ``exclude`` drops quarantined ``exp:<id>`` steps from the DAG
    entirely (their subtrees are circuit-broken). ``retry``/``timeout``
    stay out of cache keys, as everywhere else.
    """
    wal = str(wal_dir)
    steps = [
        PipelineStep(
            name="responses",
            fn=_responses_step,
            params={"wal": wal, "chunk": str(chunks["responses"])},
        ),
        PipelineStep(
            name="telemetry",
            fn=_telemetry_step,
            params={"wal": wal, "chunk": str(chunks["sacct"])},
        ),
        PipelineStep(
            name="study",
            fn=_serve_study_step,
            params={
                "window_seconds": float(window_seconds),
                "baseline_cohort": baseline_cohort,
                "current_cohort": current_cohort,
            },
            depends_on=("responses", "telemetry"),
        ),
    ]
    experiments = _experiment_steps(
        experiment_ids,
        {"responses": "responses", "telemetry": "telemetry"},
        window_seconds=window_seconds,
        baseline_cohort=baseline_cohort,
        current_cohort=current_cohort,
    )
    excluded = set(exclude)
    steps.extend(step for step in experiments if step.name not in excluded)
    return Pipeline(steps, cache, default_retry=retry, default_timeout=timeout)
