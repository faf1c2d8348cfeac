"""Synthetic workload generation.

Produces the *submission stream* the scheduler simulator consumes. The model
captures the structure the study's telemetry analyses depend on:

* per-field job mixes (astrophysicists submit wide MPI jobs, biologists
  submit job-array swarms, ML-heavy fields submit GPU jobs);
* a nonhomogeneous Poisson arrival process with an exponentially growing
  GPU-job rate (the F5 "GPU-hours growth" signal);
* power-of-two-ish width distributions and lognormal runtimes;
* requested walltimes that over-estimate runtimes (what backfill sees);
* a heavy-tailed user activity distribution within each field, so
  consumption concentration (Gini) is realistic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Mapping

import numpy as np

from repro.cluster.partitions import ClusterConfig, DEFAULT_CLUSTER
from repro.cluster.records import Categorical, _as_categorical

__all__ = [
    "SubmittedJob",
    "SubmissionTable",
    "WorkloadParams",
    "WorkloadModel",
    "diurnal_intensity",
]

DAY = 86400.0
WEEK = 7.0 * DAY

# GPUs per GPU job and their probabilities.
_GPU_COUNTS = (1, 2, 4, 8)
_GPU_COUNT_P = (0.75, 0.15, 0.07, 0.03)
# Partitions a job can land on, indexed by the generator's partition code.
_PARTITIONS = ("cpu", "gpu", "serial", "bigmem")

# The diurnal profile's daily amplitude and weekend factor, and its weekly
# mean: the daily cycle averages 1, the weekly factor (5*1 + 2*0.4)/7.
_DAILY_AMPLITUDE = 0.5
_WEEKEND_FACTOR = 0.4
_WEEKLY_MEAN = (5.0 + 2.0 * _WEEKEND_FACTOR) / 7.0
#: The maximum of :func:`diurnal_intensity` (a weekday at the daily peak):
#: the thinning envelope of diurnal arrivals.
DIURNAL_PEAK = (1.0 + _DAILY_AMPLITUDE) / _WEEKLY_MEAN


def diurnal_intensity(times) -> np.ndarray:
    """Relative submission intensity at absolute times (mean 1 over a week).

    Combines a sinusoidal daily cycle peaking mid-afternoon (hour 15, with
    a 3:1 peak-to-trough ratio) with a weekday/weekend factor (weekends at
    40% of weekday level). Day 0 of the window is a Monday. The maximum is
    :data:`DIURNAL_PEAK`.
    """
    t = np.asarray(times, dtype=float)
    hour = (t % DAY) / 3600.0
    daily = 1.0 + _DAILY_AMPLITUDE * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
    weekday = (t % WEEK) / DAY  # 0..7, Monday start
    weekly = np.where(weekday < 5.0, 1.0, _WEEKEND_FACTOR)
    return daily * weekly / _WEEKLY_MEAN


@dataclass(frozen=True, slots=True)
class SubmittedJob:
    """A job as submitted (before scheduling)."""

    job_id: int
    user: str
    field: str
    partition: str
    submit: float
    cores: int
    gpus: int
    runtime: float
    requested_walltime: float

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"job {self.job_id}: cores must be >= 1")
        if self.gpus < 0:
            raise ValueError(f"job {self.job_id}: gpus must be >= 0")
        if self.runtime <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be positive")
        if self.requested_walltime < self.runtime:
            raise ValueError(f"job {self.job_id}: walltime below runtime")

    def __reduce__(self):
        # Pickle as a constructor call: faster than the dataclass state
        # protocol (which walks ``fields()`` per job), and every loaded job
        # passes ``__post_init__`` again. Payloads in the state format,
        # written before this method existed, still load.
        return (
            type(self),
            (
                self.job_id, self.user, self.field, self.partition, self.submit,
                self.cores, self.gpus, self.runtime, self.requested_walltime,
            ),
        )


_JOB_FIELDS = tuple(f.name for f in fields(SubmittedJob))
# The nine fields of a job, or the nine columns of a table (same names).
_job_fields = attrgetter(*_JOB_FIELDS)


def _frozen(values, dtype) -> np.ndarray:
    # A read-only view: an array passed in as is stays writeable for its owner.
    arr = np.ascontiguousarray(values, dtype=dtype).view()
    arr.setflags(write=False)
    return arr


class SubmissionTable:
    """A submission stream as columns: one array per :class:`SubmittedJob` field.

    ``job_id``, ``cores`` and ``gpus`` are ``int64`` arrays; ``submit``,
    ``runtime`` and ``requested_walltime`` are ``float64``; ``user``,
    ``field`` and ``partition`` are canonical
    :class:`~repro.cluster.records.Categorical` blocks (raw string values
    are factorized). Every array is read-only. The constructor applies
    each :class:`SubmittedJob` rule as an array check; a violation raises
    the row type's own error for the first bad job.

    As a sequence, the table is its rows: ``len``, ``table[i]`` and
    iteration give :class:`SubmittedJob` values with Python scalars.
    Pickling is a constructor call on the arrays, so a loaded table is
    checked again and its arrays travel as protocol-5 out-of-band frames.
    """

    __slots__ = _JOB_FIELDS

    def __init__(
        self,
        job_id,
        user,
        field,
        partition,
        submit,
        cores,
        gpus,
        runtime,
        requested_walltime,
    ) -> None:
        self.job_id = _frozen(job_id, np.int64)
        self.user = _as_categorical(user)
        self.field = _as_categorical(field)
        self.partition = _as_categorical(partition)
        self.submit = _frozen(submit, float)
        self.cores = _frozen(cores, np.int64)
        self.gpus = _frozen(gpus, np.int64)
        self.runtime = _frozen(runtime, float)
        self.requested_walltime = _frozen(requested_walltime, float)
        n = self.job_id.size
        for name in _JOB_FIELDS:
            column = getattr(self, name)
            if len(column) != n:
                raise ValueError(f"column {name!r} length {len(column)} != {n}")
        # SubmittedJob.__post_init__, row for row (a NaN passes both).
        bad = (
            (self.cores < 1)
            | (self.gpus < 0)
            | (self.runtime <= 0)
            | (self.requested_walltime < self.runtime)
        )
        if bad.any():
            self[int(np.argmax(bad))]  # raises that job's SubmittedJob error

    @classmethod
    def from_jobs(cls, jobs: Iterable[SubmittedJob]) -> "SubmissionTable":
        """The rows of ``jobs``, in order, as columns."""
        rows = [_job_fields(job) for job in jobs]
        return cls(*(zip(*rows) if rows else [()] * len(_JOB_FIELDS)))

    def __len__(self) -> int:
        return int(self.job_id.size)

    def __getitem__(self, i: int) -> SubmittedJob:
        i = range(len(self))[i]
        return SubmittedJob(
            int(self.job_id[i]),
            self.user.categories[self.user.codes[i]],
            self.field.categories[self.field.codes[i]],
            self.partition.categories[self.partition.codes[i]],
            float(self.submit[i]),
            int(self.cores[i]),
            int(self.gpus[i]),
            float(self.runtime[i]),
            float(self.requested_walltime[i]),
        )

    def __iter__(self) -> Iterator[SubmittedJob]:
        columns = [
            column.to_objects().tolist()
            if isinstance(column, Categorical)
            else column.tolist()
            for column in _job_fields(self)
        ]
        return map(SubmittedJob, *columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubmissionTable):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(_job_fields(self), _job_fields(other))
        )

    def __repr__(self) -> str:
        return f"SubmissionTable({len(self)} jobs)"

    def __reduce__(self):
        return (type(self), _job_fields(self))


@dataclass(frozen=True)
class FieldMix:
    """Per-field job-mix parameters.

    Attributes
    ----------
    weight:
        Relative share of total submissions from this field.
    gpu_share:
        Fraction of the field's jobs that are GPU jobs.
    wide_share:
        Fraction of CPU jobs that are wide (multi-node MPI-style).
    mean_runtime_hours:
        Geometric mean runtime of the field's jobs.
    n_users:
        Distinct users in the field; activity is Zipf-distributed.
    """

    weight: float
    gpu_share: float
    wide_share: float
    mean_runtime_hours: float
    n_users: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.gpu_share <= 1.0:
            raise ValueError("gpu_share out of [0,1]")
        if not 0.0 <= self.wide_share <= 1.0:
            raise ValueError("wide_share out of [0,1]")
        if self.mean_runtime_hours <= 0:
            raise ValueError("mean_runtime_hours must be positive")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")


# Defaults shaped by the same field taxonomy the survey uses.
DEFAULT_FIELD_MIXES: dict[str, FieldMix] = {
    "astrophysics": FieldMix(weight=0.16, gpu_share=0.15, wide_share=0.45, mean_runtime_hours=4.0, n_users=25),
    "physics": FieldMix(weight=0.14, gpu_share=0.12, wide_share=0.35, mean_runtime_hours=4.0, n_users=30),
    "chemistry": FieldMix(weight=0.13, gpu_share=0.20, wide_share=0.30, mean_runtime_hours=5.0, n_users=28),
    "biology": FieldMix(weight=0.12, gpu_share=0.10, wide_share=0.05, mean_runtime_hours=3.0, n_users=40),
    "neuroscience": FieldMix(weight=0.08, gpu_share=0.45, wide_share=0.05, mean_runtime_hours=4.0, n_users=20),
    "engineering": FieldMix(weight=0.14, gpu_share=0.30, wide_share=0.20, mean_runtime_hours=4.0, n_users=35),
    "earth_sciences": FieldMix(weight=0.08, gpu_share=0.08, wide_share=0.40, mean_runtime_hours=7.0, n_users=15),
    "economics": FieldMix(weight=0.04, gpu_share=0.05, wide_share=0.02, mean_runtime_hours=2.0, n_users=18),
    "social_sciences": FieldMix(weight=0.03, gpu_share=0.10, wide_share=0.02, mean_runtime_hours=1.5, n_users=15),
    "mathematics": FieldMix(weight=0.03, gpu_share=0.05, wide_share=0.10, mean_runtime_hours=3.0, n_users=10),
    "computer_science": FieldMix(weight=0.05, gpu_share=0.60, wide_share=0.10, mean_runtime_hours=3.0, n_users=15),
}


@dataclass(frozen=True)
class WorkloadParams:
    """Tunable workload parameters.

    Attributes
    ----------
    months:
        Length of the study window in 30-day months.
    jobs_per_day:
        Mean CPU-side submission rate at window start.
    gpu_growth_per_month:
        Exponential monthly growth factor minus one for the GPU arrival
        rate (0.04 = 4%/month, roughly +60% per year).
    gpu_base_scale:
        Multiplier on the mix-derived GPU arrival rate at window start;
        the default leaves headroom so demand approaches (not exceeds)
        GPU capacity by the end of the default 24-month window.
    field_mixes:
        Per-field mixes; defaults to :data:`DEFAULT_FIELD_MIXES`.
    walltime_overrequest:
        Mean multiplicative factor users pad requested walltime by.
    diurnal:
        Modulate submissions by time-of-day and day-of-week (weekday
        working-hours peak, ~3x the overnight trough; weekends quieter).
        The weekly average rate is preserved, so totals match the
        non-diurnal configuration.
    """

    months: int = 24
    jobs_per_day: float = 450.0
    gpu_growth_per_month: float = 0.04
    gpu_base_scale: float = 0.8
    field_mixes: Mapping[str, FieldMix] = field(
        default_factory=lambda: dict(DEFAULT_FIELD_MIXES)
    )
    walltime_overrequest: float = 2.0
    diurnal: bool = False

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.jobs_per_day <= 0:
            raise ValueError("jobs_per_day must be positive")
        if self.gpu_growth_per_month < 0:
            raise ValueError("gpu_growth_per_month must be non-negative")
        if self.gpu_base_scale <= 0:
            raise ValueError("gpu_base_scale must be positive")
        if not self.field_mixes:
            raise ValueError("field_mixes is empty")
        if self.walltime_overrequest < 1.0:
            raise ValueError("walltime_overrequest must be >= 1.0")

    @property
    def window_seconds(self) -> float:
        return self.months * 30.0 * DAY


class WorkloadModel:
    """Generates a submission stream for a cluster configuration."""

    def __init__(
        self,
        params: WorkloadParams | None = None,
        cluster: ClusterConfig | None = None,
    ) -> None:
        self.params = params or WorkloadParams()
        self.cluster = cluster or DEFAULT_CLUSTER
        for required in ("cpu", "gpu", "serial"):
            if required not in self.cluster:
                raise ValueError(f"cluster must define a {required!r} partition")
        gpu_part = self.cluster["gpu"]
        if gpu_part.total_gpus == 0 and any(
            m.gpu_share > 0 for m in self.params.field_mixes.values()
        ):
            raise ValueError(
                f"partition {gpu_part.name!r} of cluster {self.cluster.name!r} has no "
                "GPUs, but a field mix has gpu_share > 0"
            )

    # -- internals --------------------------------------------------------

    def _arrival_times(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Submission times for (cpu_jobs, gpu_jobs) over the window.

        CPU arrivals are homogeneous Poisson; GPU arrivals are a
        nonhomogeneous Poisson process with rate growing exponentially
        month over month, realized via thinning.
        """
        p = self.params
        window = p.window_seconds

        # The thinning envelope: the diurnal profile's maximum, when enabled.
        diurnal_peak = DIURNAL_PEAK if p.diurnal else 1.0

        def thin_diurnal(times: np.ndarray) -> np.ndarray:
            if not p.diurnal or times.size == 0:
                return times
            keep = rng.random(times.size) < diurnal_intensity(times) / diurnal_peak
            return times[keep]

        n_cpu = rng.poisson(p.jobs_per_day * window / DAY * diurnal_peak)
        cpu_times = thin_diurnal(np.sort(rng.uniform(0.0, window, size=n_cpu)))

        # GPU base rate: a fraction of overall traffic, derived from mixes.
        gpu_weight = sum(m.weight * m.gpu_share for m in p.field_mixes.values())
        total_weight = sum(m.weight for m in p.field_mixes.values())
        base_gpu_rate = (
            p.gpu_base_scale * p.jobs_per_day * (gpu_weight / total_weight) / DAY
        )  # per second
        growth = np.log1p(p.gpu_growth_per_month) / (30.0 * DAY)  # per sec
        peak_rate = base_gpu_rate * np.exp(growth * window) * diurnal_peak
        n_candidates = rng.poisson(peak_rate * window)
        candidates = np.sort(rng.uniform(0.0, window, size=n_candidates))
        accept = rng.random(n_candidates) < np.exp(growth * (candidates - window))
        gpu_times = thin_diurnal(candidates[accept])
        return cpu_times, gpu_times

    def _field_for_jobs(
        self, n: int, gpu: bool, rng: np.random.Generator
    ) -> np.ndarray:
        """Indices into ``params.field_mixes`` for ``n`` CPU or GPU jobs."""
        mixes = list(self.params.field_mixes.values())
        weights = np.array(
            [m.weight * (m.gpu_share if gpu else (1.0 - m.gpu_share)) for m in mixes]
        )
        if weights.sum() <= 0:
            weights = np.array([m.weight for m in mixes])
        return rng.choice(len(mixes), size=n, p=weights / weights.sum())

    # -- public API ---------------------------------------------------------

    def generate(self, rng: np.random.Generator) -> SubmissionTable:
        """Generate the full submission stream, sorted by submit time.

        Arrival times come from ``rng``; every per-job quantity is one array
        draw, in submit order, from its own sub-stream of ``rng``
        (``rng.spawn``). Job ids run 0..n-1 in submit order. The stream is
        returned as columns; its rows are the :class:`SubmittedJob` values
        a list of jobs would hold.
        """
        p = self.params
        cluster = self.cluster
        cpu_times, gpu_times = self._arrival_times(rng)
        field_rng, shape_rng, size_rng, gpu_rng, runtime_rng, pad_rng, user_rng = rng.spawn(7)

        submit = np.concatenate([cpu_times, gpu_times])
        order = np.argsort(submit, kind="stable")
        submit = submit[order]
        is_gpu = order >= cpu_times.size
        cpu_job = ~is_gpu
        n, n_gpu = submit.size, gpu_times.size

        mixes = list(p.field_mixes.values())
        field_idx = np.empty(n, dtype=np.intp)
        field_idx[cpu_job] = self._field_for_jobs(cpu_times.size, gpu=False, rng=field_rng)
        field_idx[is_gpu] = self._field_for_jobs(n_gpu, gpu=True, rng=field_rng)

        # CPU job shape, from three coins: wide MPI-style on ``cpu``, else
        # half go to ``serial``, else 12% to ``bigmem`` (when the cluster
        # has one), else narrow on ``cpu``.
        coins = shape_rng.random((3, n))
        wide_p = np.array([m.wide_share * 0.6 for m in mixes])[field_idx]
        wide = cpu_job & (coins[0] < wide_p)
        serial = cpu_job & ~wide & (coins[1] < 0.5)
        bigmem = cpu_job & ~wide & ~serial & (coins[2] < 0.12) & ("bigmem" in cluster)
        part_idx = np.select([is_gpu, serial, bigmem], [1, 2, 3], 0)

        # Widths are powers of two: 2..8 whole nodes when wide, 1..64 cores
        # on serial, 8..64 on bigmem and 4..64 on cpu; a GPU job takes 8
        # cores per GPU. No job asks for more than its partition has.
        low = np.select([wide, serial, bigmem], [1, 0, 3], 2)
        cores = 2 ** size_rng.integers(low, np.where(wide, 4, 7))
        cores[wide] *= cluster["cpu"].cores_per_node
        gpus = np.zeros(n, dtype=np.int64)
        gpus[is_gpu] = np.minimum(
            gpu_rng.choice(_GPU_COUNTS, size=n_gpu, p=_GPU_COUNT_P), cluster["gpu"].total_gpus
        )
        cores[is_gpu] = gpus[is_gpu] * 8
        partitions = [cluster[name] for name in _PARTITIONS if name in cluster]
        cores = np.minimum(cores, np.array([part.total_cores for part in partitions])[part_idx])

        cap = np.array([float(part.max_walltime) for part in partitions])[part_idx]
        log_mean = np.log([m.mean_runtime_hours * 3600.0 for m in mixes])[field_idx]
        runtime = np.minimum(
            np.maximum(runtime_rng.lognormal(log_mean, 1.2), 60.0), cap * 0.98
        )
        pad = pad_rng.exponential(p.walltime_overrequest - 1.0, size=n)
        walltime = np.maximum(np.minimum(runtime * (1.0 + pad), cap), runtime)

        # Zipf-ish activity within each field: user of rank k has weight 1/k.
        # User k of a field is labelled by the field's first four letters,
        # so fields sharing a prefix share labels: one category per label.
        u = user_rng.random(n)
        user_idx = np.empty(n, dtype=np.intp)
        labels: list[str] = []
        for i, (name, mix) in enumerate(p.field_mixes.items()):
            in_field = field_idx == i
            cdf = np.cumsum(1.0 / np.arange(1, mix.n_users + 1))
            rank = np.searchsorted(cdf / cdf[-1], u[in_field], side="right")
            user_idx[in_field] = len(labels) + rank
            labels.extend(f"{name[:4]}{k:03d}" for k in range(mix.n_users))
        distinct, user_code = np.unique(labels, return_inverse=True)

        return SubmissionTable(
            job_id=np.arange(n, dtype=np.int64),
            user=Categorical(user_code[user_idx], distinct.tolist()),
            field=Categorical(field_idx, list(p.field_mixes)),
            partition=Categorical(part_idx, [part.name for part in partitions]),
            submit=submit,
            cores=cores,
            gpus=gpus,
            runtime=runtime,
            requested_walltime=walltime,
        )
