"""HPC cluster telemetry substrate.

The paper's telemetry analyses run on production Slurm accounting data,
which is private. This package provides the full substitute pipeline:

* :mod:`repro.cluster.records` — job records and :class:`JobTable`, a
  columnar (struct-of-arrays) container for vectorized aggregation;
* :mod:`repro.cluster.partitions` — cluster/partition capacity model;
* :mod:`repro.cluster.workload` — synthetic workload generator with
  per-field job mixes and a growing GPU arrival rate, emitting a columnar
  :class:`SubmissionTable` (rows are :class:`SubmittedJob`);
* :mod:`repro.cluster.scheduler` — FCFS + EASY-backfill scheduler simulator
  that turns submissions into started/completed records with realistic
  queue-wait structure;
* :mod:`repro.cluster.sacct` — reader/writer for a ``sacct``-style
  pipe-delimited accounting format so real exports can be ingested;
* :mod:`repro.cluster.usage` — usage aggregation (CPU/GPU-hours, job-width
  distribution, wait-time stats, utilization, user concentration).

Time is measured in seconds from the study-window start; the usage module
buckets months as 30.4375 days (``MONTH_SECONDS``).
"""

from repro.cluster.records import JobRecord, JobState, JobTable
from repro.cluster.partitions import ClusterConfig, Partition
from repro.cluster.workload import (
    SubmissionTable,
    SubmittedJob,
    WorkloadModel,
    WorkloadParams,
)
from repro.cluster.scheduler import SchedulerResult, simulate_schedule
from repro.cluster.sacct import parse_sacct, write_sacct
from repro.cluster.health import (
    WasteSummary,
    failure_bursts,
    failure_rates_by,
    waste_summary,
)
from repro.cluster.audit import (
    AuditIssue,
    AuditIssueKind,
    AuditReport,
    audit_table,
)
from repro.cluster.capacity import (
    CapacityOutlook,
    gpu_capacity_outlook,
    months_to_saturation,
)
from repro.cluster.replay import (
    ScenarioOutcome,
    compare_what_if,
    scaled_partition,
)
from repro.cluster.usage import (
    MONTH_SECONDS,
    arrival_profile,
    cpu_hours_by_field_month,
    interarrival_stats,
    monthly_wait_and_load,
    walltime_accuracy,
    gpu_hours_monthly,
    job_width_distribution,
    monthly_growth_rate,
    runtime_distribution_by_field,
    user_concentration,
    utilization_by_partition,
    wait_stats_by_partition,
)

__all__ = [
    "JobRecord",
    "JobState",
    "JobTable",
    "Partition",
    "ClusterConfig",
    "WorkloadParams",
    "WorkloadModel",
    "SubmittedJob",
    "SubmissionTable",
    "simulate_schedule",
    "SchedulerResult",
    "parse_sacct",
    "write_sacct",
    "MONTH_SECONDS",
    "cpu_hours_by_field_month",
    "gpu_hours_monthly",
    "job_width_distribution",
    "wait_stats_by_partition",
    "runtime_distribution_by_field",
    "utilization_by_partition",
    "user_concentration",
    "monthly_growth_rate",
    "arrival_profile",
    "walltime_accuracy",
    "monthly_wait_and_load",
    "interarrival_stats",
    "WasteSummary",
    "waste_summary",
    "failure_rates_by",
    "failure_bursts",
    "AuditIssue",
    "AuditIssueKind",
    "AuditReport",
    "audit_table",
    "CapacityOutlook",
    "months_to_saturation",
    "gpu_capacity_outlook",
    "ScenarioOutcome",
    "scaled_partition",
    "compare_what_if",
]
