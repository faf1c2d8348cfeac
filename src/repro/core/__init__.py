"""Core of the reproduction: the study itself.

* :mod:`repro.core.instrument` — the reconstructed questionnaire both waves
  answer;
* :mod:`repro.core.calibration` — 2011/2024 cohort profiles encoding the
  predecessor study's marginals and the 2024 "trends" targets;
* :mod:`repro.core.study` — :class:`Study`, binding instrument, responses and
  cluster telemetry for analysis;
* :mod:`repro.core.study_pipeline` — the cached generate/schedule/assemble
  DAG that builds every study from one seed (:func:`build_default_study`,
  :func:`run_cached_study`);
* :mod:`repro.core.trends` — cohort-over-cohort trend engine;
* :mod:`repro.core.pipeline` — reproducible generate/validate/analyze
  dependency DAG with content-addressed artifact caching and parallel
  (thread/process pool) execution;
* :mod:`repro.core.metrics` — the pipeline's executor instrumentation
  (:class:`ExecutorMetrics`, :class:`RunReport`);
* :mod:`repro.core.faults` — deterministic fault injection
  (:class:`FaultPlan`) and the process-crash harness for chaos-testing the
  pipeline;
* :mod:`repro.core.journal` — durable run journal (:class:`RunJournal`)
  and resume-after-crash state (:class:`ResumeState`);
* :mod:`repro.core.trace` — span/event tracing (:class:`Tracer`),
  Chrome/Perfetto + Prometheus export, and DAG critical-path analysis;
* :mod:`repro.core.logging` — run-id-tagged structured CLI logging.
"""

from repro.core.instrument import build_instrument
from repro.core.calibration import (
    BASELINE_2011,
    TARGETS_2024,
    population_field_shares,
    profile_2011,
    profile_2024,
)
from repro.core.study import Study, StudyError
from repro.core.trends import TrendEngine, TrendRow, TrendTable
from repro.core.weighting import WeightedTrendEngine, make_cohort_weights
from repro.core.faults import (
    SITES,
    CrashPoint,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerFaultPlan,
    coordinates,
)
from repro.core.journal import (
    JournalError,
    ResumeState,
    RunJournal,
    latest_run_id,
    load_resume_state,
    new_run_id,
    read_journal,
)
from repro.core.metrics import ExecutorMetrics, RunReport, StepMetric, StepOutcome
from repro.core.pipeline import (
    ArtifactCache,
    Pipeline,
    PipelineStep,
    RetryPolicy,
    StepTimeout,
)
from repro.core.study_pipeline import build_default_study, run_cached_study, study_pipeline
from repro.core.trace import (
    CriticalPathResult,
    CriticalStep,
    TraceError,
    Tracer,
    analyze_perfetto,
    critical_path,
    load_perfetto,
    validate_perfetto,
)

__all__ = [
    "build_instrument",
    "profile_2011",
    "profile_2024",
    "BASELINE_2011",
    "TARGETS_2024",
    "population_field_shares",
    "Study",
    "StudyError",
    "build_default_study",
    "TrendEngine",
    "TrendRow",
    "TrendTable",
    "WeightedTrendEngine",
    "make_cohort_weights",
    "Pipeline",
    "PipelineStep",
    "ArtifactCache",
    "RetryPolicy",
    "StepTimeout",
    "ExecutorMetrics",
    "StepMetric",
    "StepOutcome",
    "RunReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "SITES",
    "CrashPoint",
    "WorkerFaultPlan",
    "coordinates",
    "RunJournal",
    "ResumeState",
    "JournalError",
    "load_resume_state",
    "read_journal",
    "latest_run_id",
    "new_run_id",
    "study_pipeline",
    "run_cached_study",
    "Tracer",
    "TraceError",
    "CriticalPathResult",
    "CriticalStep",
    "critical_path",
    "analyze_perfetto",
    "load_perfetto",
    "validate_perfetto",
]
