"""Usage aggregation over job tables.

Every function here backs a telemetry table or figure (F3-F7, T5). All
aggregations are vectorized: group keys are factorized once to integer
codes, then totals fall out of ``np.bincount`` with weights — no per-job
Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.records import JobTable
from repro.cluster.partitions import ClusterConfig
from repro.stats.descriptive import ecdf, gini_coefficient, summarize

__all__ = [
    "MONTH_SECONDS",
    "cpu_hours_by_field_month",
    "gpu_hours_monthly",
    "monthly_growth_rate",
    "job_width_distribution",
    "wait_stats_by_partition",
    "runtime_distribution_by_field",
    "utilization_by_partition",
    "user_concentration",
    "arrival_profile",
    "walltime_accuracy",
    "monthly_wait_and_load",
    "interarrival_stats",
]

MONTH_SECONDS = 30.0 * 86400.0


def _month_index(times: np.ndarray) -> np.ndarray:
    return np.floor_divide(times, MONTH_SECONDS).astype(np.int64)


def cpu_hours_by_field_month(table: JobTable) -> dict[str, np.ndarray]:
    """CPU-hours per field per month (keyed by field; arrays cover months 0..M).

    Hours are attributed to the month the job *started* in — the convention
    most center reports use — so a month's total can exceed capacity when
    long jobs start late in it.
    """
    if len(table) == 0:
        return {}
    months = _month_index(table.start)
    n_months = int(months.max()) + 1
    codes, fields = table.factorize("field")
    hours = table.cpu_hours
    # One flat bincount over (field, month) pairs instead of a masked
    # bincount per field. Each output bin still accumulates exactly the
    # same weights in the same (submission-order) sequence, so the sums
    # are bitwise identical to the per-field version.
    flat = codes * n_months + months
    totals = np.bincount(flat, weights=hours, minlength=len(fields) * n_months)
    totals = totals.reshape(len(fields), n_months)
    return {field_name: totals[code] for code, field_name in enumerate(fields)}


def gpu_hours_monthly(table: JobTable) -> np.ndarray:
    """Total GPU-hours per month over the window."""
    if len(table) == 0:
        return np.zeros(0)
    months = _month_index(table.start)
    n_months = int(months.max()) + 1
    return np.bincount(months, weights=table.gpu_hours, minlength=n_months)


def monthly_growth_rate(series: np.ndarray) -> float:
    """Exponential growth rate per month fitted by least squares on logs.

    Zero months are excluded; requires at least two positive observations.
    Returns the per-month growth fraction (0.06 = +6%/month).
    """
    y = np.asarray(series, dtype=float)
    positive = y > 0
    if positive.sum() < 2:
        raise ValueError("need at least two positive months to fit growth")
    x = np.arange(y.size, dtype=float)[positive]
    logy = np.log(y[positive])
    slope = np.polyfit(x, logy, 1)[0]
    return float(np.expm1(slope))


@dataclass(frozen=True, slots=True)
class WidthDistribution:
    """Job-width CDF plus core-hour-weighted width shares.

    ``widths``/``cdf`` give the per-job ECDF; ``weighted_share`` maps a
    width class to its share of total CPU-hours, distinguishing "most jobs
    are small" from "most cycles go to wide jobs".
    """

    widths: np.ndarray
    cdf: np.ndarray
    weighted_share: dict[str, float]


_WIDTH_CLASSES = ((1, 1, "1"), (2, 8, "2-8"), (9, 64, "9-64"), (65, 512, "65-512"), (513, 1 << 30, ">512"))


def width_class(cores: int) -> str:
    """Width-class label for a core count."""
    for lo, hi, label in _WIDTH_CLASSES:
        if lo <= cores <= hi:
            return label
    raise ValueError(f"unclassifiable core count {cores}")


def job_width_distribution(table: JobTable) -> WidthDistribution:
    """ECDF of job widths and CPU-hour share per width class."""
    if len(table) == 0:
        raise ValueError("empty job table")
    widths, cdf = ecdf(table.cores.astype(float))
    hours = table.cpu_hours
    total = hours.sum()
    shares: dict[str, float] = {}
    for lo, hi, label in _WIDTH_CLASSES:
        m = (table.cores >= lo) & (table.cores <= hi)
        shares[label] = float(hours[m].sum() / total) if total > 0 else 0.0
    return WidthDistribution(widths=widths, cdf=cdf, weighted_share=shares)


def wait_stats_by_partition(table: JobTable) -> dict[str, dict[str, float]]:
    """Queue-wait summary (hours) per partition and width class.

    Returns ``{partition: {"median_h", "p95_h", "mean_h", "n", and
    "median_h[<class>]" per width class present}}``.
    """
    out: dict[str, dict[str, float]] = {}
    for name in table.partitions():
        part = table.by_partition(name)
        waits_h = part.wait / 3600.0
        s = summarize(waits_h)
        stats = {
            "n": float(s.n),
            "mean_h": s.mean,
            "median_h": s.median,
            "p95_h": float(np.quantile(waits_h, 0.95)),
        }
        for lo, hi, label in _WIDTH_CLASSES:
            m = (part.cores >= lo) & (part.cores <= hi)
            if m.any():
                stats[f"median_h[{label}]"] = float(np.median(waits_h[m]))
        out[name] = stats
    return out


def runtime_distribution_by_field(
    table: JobTable, bins: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Histogram of log10(runtime hours) per field over shared ``bins``.

    Returns a mapping including the special key ``"__bins__"`` holding the
    shared bin edges, so figure code plots all fields on one axis.
    """
    if len(table) == 0:
        raise ValueError("empty job table")
    log_runtime = np.log10(np.maximum(table.runtime / 3600.0, 1e-4))
    if bins is None:
        bins = np.linspace(-2.0, 2.5, 28)
    codes, fields = table.factorize("field")
    out: dict[str, np.ndarray] = {"__bins__": bins}
    for code, field_name in enumerate(fields):
        counts, _ = np.histogram(log_runtime[codes == code], bins=bins)
        out[field_name] = counts
    return out


def utilization_by_partition(
    table: JobTable, cluster: ClusterConfig, window_seconds: float
) -> dict[str, float]:
    """Core-seconds delivered / core-seconds available, per partition.

    Busy time is clipped to the window so jobs running past the end don't
    inflate utilization above what the window could supply.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    out: dict[str, float] = {}
    for p in cluster:
        part = table.by_partition(p.name)
        if len(part) == 0:
            out[p.name] = 0.0
            continue
        start = np.clip(part.start, 0.0, window_seconds)
        end = np.clip(part.end, 0.0, window_seconds)
        busy = float((part.cores * (end - start)).sum())
        out[p.name] = busy / (p.total_cores * window_seconds)
    return out


def interarrival_stats(table: JobTable) -> dict[str, float]:
    """Submission interarrival statistics and burstiness.

    Burstiness is the coefficient of variation of interarrival times; 1.0
    for a Poisson process, above 1 for bursty traffic (job arrays, diurnal
    rhythm), below 1 for pacing.
    """
    if len(table) < 3:
        raise ValueError("need at least 3 jobs")
    submits = np.sort(table.submit)
    gaps = np.diff(submits)
    gaps = gaps[gaps >= 0]
    mean = float(gaps.mean())
    if mean == 0:
        raise ValueError("all submissions simultaneous")
    return {
        "mean_gap_s": mean,
        "median_gap_s": float(np.median(gaps)),
        "cv": float(gaps.std(ddof=1) / mean),
        "n": float(len(table)),
    }


def walltime_accuracy(table: JobTable) -> dict[str, float]:
    """How well users' requested walltimes predict actual runtimes.

    Over completed jobs with a recorded time limit, reports quantiles of
    ``runtime / requested`` (1.0 = perfect prediction; typical centers sit
    near 0.3-0.5 because users pad requests for safety) and the share of
    near-misses (ratio > 0.9 — jobs that nearly hit their limit).
    """
    completed = table.completed()
    has_limit = completed.req_walltime > 0
    if not has_limit.any():
        raise ValueError("no completed jobs with recorded walltime requests")
    sub = completed.mask(has_limit)
    ratio = sub.runtime / sub.req_walltime
    q25, q50, q75 = np.quantile(ratio, [0.25, 0.5, 0.75])
    return {
        "n": float(len(sub)),
        "q25": float(q25),
        "median": float(q50),
        "q75": float(q75),
        "near_miss_share": float((ratio > 0.9).mean()),
        "under_tenth_share": float((ratio < 0.1).mean()),
    }


def monthly_wait_and_load(
    table: JobTable, partition: str, total_cores: int
) -> dict[str, np.ndarray]:
    """Per-month median wait (hours) and offered load for one partition.

    Load is core-seconds started in the month divided by the partition's
    core-seconds for the month — the x-axis of the queueing curve (X1).
    """
    if total_cores < 1:
        raise ValueError("total_cores must be >= 1")
    part = table.by_partition(partition)
    if len(part) == 0:
        raise ValueError(f"no jobs in partition {partition!r}")
    months = _month_index(part.start)
    n_months = int(months.max()) + 1
    med_wait = np.zeros(n_months)
    load = np.zeros(n_months)
    busy = part.cores * part.runtime
    for m in range(n_months):
        sel = months == m
        if sel.any():
            med_wait[m] = np.median(part.wait[sel]) / 3600.0
            load[m] = busy[sel].sum() / (total_cores * MONTH_SECONDS)
    return {"median_wait_h": med_wait, "load": load}


def arrival_profile(table: JobTable) -> dict[str, np.ndarray]:
    """Submission counts by hour-of-day and day-of-week.

    Day 0 of the window is a Monday (the workload generator's convention).
    Returns ``{"hourly": 24 counts, "weekly": 7 counts}``.
    """
    if len(table) == 0:
        raise ValueError("empty job table")
    hours = ((table.submit % 86400.0) / 3600.0).astype(np.int64)
    days = ((table.submit % (7 * 86400.0)) / 86400.0).astype(np.int64)
    return {
        "hourly": np.bincount(hours, minlength=24)[:24],
        "weekly": np.bincount(days, minlength=7)[:7],
    }


def user_concentration(table: JobTable, resource: str = "cpu") -> dict[str, float]:
    """Concentration of consumption across users.

    Returns the Gini coefficient and the share of the top 10% of users for
    CPU-hours (``resource="cpu"``) or GPU-hours (``"gpu"``).
    """
    if len(table) == 0:
        raise ValueError("empty job table")
    if resource == "cpu":
        hours = table.cpu_hours
    elif resource == "gpu":
        hours = table.gpu_hours
    else:
        raise ValueError(f"unknown resource {resource!r}")
    codes, users = table.factorize("user")
    per_user = np.bincount(codes, weights=hours, minlength=len(users))
    per_user = per_user[per_user > 0]
    if per_user.size == 0:
        raise ValueError(f"no {resource} consumption in table")
    per_user.sort()
    top_k = max(1, int(np.ceil(per_user.size * 0.10)))
    top_share = float(per_user[-top_k:].sum() / per_user.sum())
    return {
        "gini": gini_coefficient(per_user),
        "top10_share": top_share,
        "n_users": float(per_user.size),
    }
