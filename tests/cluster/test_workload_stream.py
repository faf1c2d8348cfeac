"""Pin ``WorkloadModel.generate`` draw-for-draw against a per-job reference.

``generate`` resolves everything constant within a call once and then runs
one loop of scalar ``Generator`` calls. ``ReferenceModel`` below is the
straightforward per-job formulation (one helper call per shape, runtime
and user, ``choice`` with ``p=`` for every categorical draw, ``np.clip``
on the runtime). Both must return equal job lists with equal ``repr`` (so
Python ``float``/``int`` fields are not silently replaced by numpy
scalars) and leave the generator in the same state, so the goldens built
from the stream cannot move.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, Partition, SubmittedJob, WorkloadModel, WorkloadParams
from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.workload import DEFAULT_FIELD_MIXES, FieldMix


class ReferenceModel(WorkloadModel):
    """The per-job helper formulation of ``generate`` (the reference)."""

    def __init__(self, params=None, cluster=None) -> None:
        super().__init__(params, cluster)
        self._user_weight_cache: dict[str, np.ndarray] = {}

    def _user_weights(self, field_name: str) -> np.ndarray:
        cached = self._user_weight_cache.get(field_name)
        if cached is None:
            # Zipf-ish activity: user of rank k gets weight 1/k.
            mix = self.params.field_mixes[field_name]
            weights = 1.0 / (np.arange(mix.n_users, dtype=float) + 1.0)
            cached = weights / weights.sum()
            self._user_weight_cache[field_name] = cached
        return cached

    def _user_for(self, field_name: str, rng: np.random.Generator) -> str:
        weights = self._user_weights(field_name)
        k = rng.choice(weights.size, p=weights)
        return f"{field_name[:4]}{k:03d}"

    def _cpu_job_shape(
        self, field_name: str, rng: np.random.Generator
    ) -> tuple[str, int, int]:
        mix = self.params.field_mixes[field_name]
        cpu_part = self.cluster["cpu"]
        if rng.random() < mix.wide_share * 0.6:
            # Wide MPI-style job: power-of-two node counts (2..8 nodes).
            nodes = int(2 ** rng.integers(1, 4))
            cores = nodes * cpu_part.cores_per_node
            return "cpu", min(cores, cpu_part.total_cores), 0
        if rng.random() < 0.5:
            # Small-to-medium multicore job on the shared partition.
            cores = int(2 ** rng.integers(0, 7))  # 1..64 cores
            return "serial", cores, 0
        if rng.random() < 0.12 and "bigmem" in self.cluster:
            cores = int(2 ** rng.integers(3, 7))
            return "bigmem", cores, 0
        cores = int(2 ** rng.integers(2, 7))  # 4..64 cores
        return "cpu", cores, 0

    def _gpu_job_shape(self, rng: np.random.Generator) -> tuple[str, int, int]:
        gpu_part = self.cluster["gpu"]
        gpus = int(rng.choice([1, 1, 1, 2, 4, 8], p=[0.45, 0.2, 0.1, 0.15, 0.07, 0.03]))
        gpus = min(gpus, gpu_part.total_gpus)
        cores = min(gpus * 8, gpu_part.total_cores)
        return "gpu", cores, gpus

    def _runtime(self, field_name: str, rng: np.random.Generator, partition: str) -> float:
        mix = self.params.field_mixes[field_name]
        cap = self.cluster[partition].max_walltime
        runtime = rng.lognormal(np.log(mix.mean_runtime_hours * 3600.0), 1.2)
        return float(np.clip(runtime, 60.0, cap * 0.98))

    def generate(self, rng: np.random.Generator) -> list[SubmittedJob]:
        """Generate the full submission stream, sorted by submit time."""
        p = self.params
        cpu_times, gpu_times = self._arrival_times(rng)
        cpu_fields = self._field_for_jobs(cpu_times.size, gpu=False, rng=rng)
        gpu_fields = self._field_for_jobs(gpu_times.size, gpu=True, rng=rng)

        jobs: list[SubmittedJob] = []
        job_id = 0
        for submit, field_name in zip(cpu_times, cpu_fields):
            partition, cores, gpus = self._cpu_job_shape(str(field_name), rng)
            runtime = self._runtime(str(field_name), rng, partition)
            walltime = min(
                runtime * (1.0 + rng.exponential(p.walltime_overrequest - 1.0)),
                self.cluster[partition].max_walltime,
            )
            walltime = max(walltime, runtime)
            jobs.append(
                SubmittedJob(
                    job_id=job_id,
                    user=self._user_for(str(field_name), rng),
                    field=str(field_name),
                    partition=partition,
                    submit=float(submit),
                    cores=cores,
                    gpus=gpus,
                    runtime=runtime,
                    requested_walltime=float(walltime),
                )
            )
            job_id += 1
        for submit, field_name in zip(gpu_times, gpu_fields):
            partition, cores, gpus = self._gpu_job_shape(rng)
            runtime = self._runtime(str(field_name), rng, partition)
            walltime = min(
                runtime * (1.0 + rng.exponential(p.walltime_overrequest - 1.0)),
                self.cluster[partition].max_walltime,
            )
            walltime = max(walltime, runtime)
            jobs.append(
                SubmittedJob(
                    job_id=job_id,
                    user=self._user_for(str(field_name), rng),
                    field=str(field_name),
                    partition=partition,
                    submit=float(submit),
                    cores=cores,
                    gpus=gpus,
                    runtime=runtime,
                    requested_walltime=float(walltime),
                )
            )
            job_id += 1
        jobs.sort(key=lambda j: j.submit)
        return jobs


def assert_same_stream(params: WorkloadParams, cluster: ClusterConfig, seed: int) -> list:
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    jobs = WorkloadModel(params, cluster).generate(rng)
    expected = ReferenceModel(params, cluster).generate(ref_rng)
    assert len(jobs) == len(expected)
    # Report the first differing job: a diff of the whole list is slow.
    for job, ref in zip(jobs, expected):
        assert job == ref and repr(job) == repr(ref), (job, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return jobs


def with_gpu_share(share: float) -> dict[str, FieldMix]:
    return {name: replace(mix, gpu_share=share) for name, mix in DEFAULT_FIELD_MIXES.items()}


NO_BIGMEM = ClusterConfig("nobig", [p for p in DEFAULT_CLUSTER if p.name != "bigmem"])

# Two GPUs in total (pins ``min(gpus, total_gpus)``) on 12 cores (pins
# ``min(gpus * 8, total_cores)``); an integer walltime cap on ``cpu`` and a
# ``serial`` cap below the 60 s runtime floor.
TWO_GPUS = ClusterConfig(
    "two-gpus",
    (
        Partition("cpu", nodes=4, cores_per_node=16, max_walltime=7200),
        Partition("gpu", nodes=1, cores_per_node=12, gpus_per_node=2, max_walltime=3600.0),
        Partition("serial", nodes=1, cores_per_node=64, max_walltime=50.0),
    ),
)


def uses(*partitions: str):
    """Check that a case's jobs land on exactly ``partitions``."""
    return lambda jobs: {j.partition for j in jobs} == set(partitions)


@pytest.mark.parametrize(
    "params, cluster, check",
    [
        pytest.param(
            WorkloadParams(months=2, jobs_per_day=80, diurnal=True),
            DEFAULT_CLUSTER,
            uses("cpu", "gpu", "serial", "bigmem"),
            id="diurnal",
        ),
        pytest.param(
            WorkloadParams(months=2, jobs_per_day=80, diurnal=False),
            DEFAULT_CLUSTER,
            uses("cpu", "gpu", "serial", "bigmem"),
            id="uniform",
        ),
        pytest.param(
            WorkloadParams(months=2, jobs_per_day=80),
            NO_BIGMEM,
            uses("cpu", "gpu", "serial"),
            id="no_bigmem",
        ),
        pytest.param(
            WorkloadParams(months=2, jobs_per_day=60, gpu_base_scale=3.0),
            TWO_GPUS,
            lambda jobs: {j.gpus for j in jobs} == {0, 1, 2}
            and max(j.cores for j in jobs if j.gpus) == 12
            and {j.runtime for j in jobs if j.partition == "serial"} == {50.0 * 0.98},
            id="two_gpus",
        ),
        pytest.param(
            WorkloadParams(months=1, jobs_per_day=80, walltime_overrequest=1.0),
            DEFAULT_CLUSTER,
            lambda jobs: all(j.requested_walltime == j.runtime for j in jobs),
            id="overrequest_1",
        ),
        pytest.param(
            WorkloadParams(months=1, jobs_per_day=50, field_mixes=with_gpu_share(0.0)),
            DEFAULT_CLUSTER,
            lambda jobs: not any(j.gpus for j in jobs),
            id="gpu_share_0",
        ),
        pytest.param(
            WorkloadParams(months=1, jobs_per_day=50, field_mixes=with_gpu_share(1.0)),
            DEFAULT_CLUSTER,
            uses("cpu", "gpu", "serial", "bigmem"),
            id="gpu_share_1",
        ),
    ],
)
def test_stream_matches_reference(params, cluster, check):
    jobs = assert_same_stream(params, cluster, seed=17)
    assert len(jobs) > 500
    # The case reaches the branch it is meant to pin.
    assert check(jobs)


FIELD_NAMES = ("astrophysics", "bio", "x", "economics", "ml")


@st.composite
def workloads(draw):
    names = draw(st.lists(st.sampled_from(FIELD_NAMES), min_size=1, max_size=4, unique=True))
    share = st.floats(0.0, 1.0)
    mixes = {
        name: FieldMix(
            weight=draw(st.floats(0.01, 1.0)),
            gpu_share=draw(share),
            wide_share=draw(share),
            mean_runtime_hours=draw(st.floats(0.01, 48.0)),
            n_users=draw(st.integers(1, 60)),
        )
        for name in names
    }
    params = WorkloadParams(
        months=1,
        jobs_per_day=draw(st.floats(1.0, 30.0)),
        gpu_growth_per_month=draw(st.floats(0.0, 0.3)),
        gpu_base_scale=draw(st.floats(0.1, 4.0)),
        field_mixes=mixes,
        walltime_overrequest=draw(st.floats(1.0, 4.0)),
        diurnal=draw(st.booleans()),
    )
    walltime = st.one_of(st.integers(30, 400_000), st.floats(30.0, 400_000.0))
    partitions = [
        Partition("cpu", draw(st.integers(1, 8)), draw(st.integers(1, 64)), 0, draw(walltime)),
        Partition(
            "gpu",
            draw(st.integers(1, 4)),
            draw(st.integers(1, 48)),
            draw(st.integers(1, 8)),
            draw(walltime),
        ),
        Partition("serial", draw(st.integers(1, 4)), draw(st.integers(1, 96)), 0, draw(walltime)),
    ]
    if draw(st.booleans()):
        partitions.append(Partition("bigmem", 1, draw(st.integers(1, 96)), 0, draw(walltime)))
    return params, ClusterConfig("random", partitions)


@settings(max_examples=25, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1))
def test_stream_matches_reference_property(workload, seed):
    params, cluster = workload
    assert_same_stream(params, cluster, seed)
