"""Properties of the submission stream ``WorkloadModel.generate`` draws.

``generate`` draws arrival times from the caller's generator and every
per-job quantity (field, shape coins, size exponent, GPU count, runtime,
walltime pad, user) as one array from its own spawned sub-stream. These
tests pin what callers rely on: one seed gives one stream, ids run in
submit order, every field is a Python scalar, and every job is valid for
its partition — on edge-case clusters and on random configurations — and
they check the drawn partition and GPU-count shares against the model's
probabilities.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, Partition, WorkloadModel, WorkloadParams
from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.workload import _GPU_COUNT_P, _GPU_COUNTS, DEFAULT_FIELD_MIXES, FieldMix

SCALARS = (int, str, str, str, float, int, int, float, float)


def assert_valid_stream(jobs: list, cluster: ClusterConfig) -> None:
    """Ids 0..n-1 in submit order, Python scalars, every job fits its partition."""
    assert [j.job_id for j in jobs] == list(range(len(jobs)))
    submits = [j.submit for j in jobs]
    assert submits == sorted(submits)
    for job in jobs:
        assert tuple(type(v) for v in astuple(job)) == SCALARS, job
        part = cluster[job.partition]
        assert part.fits(job.cores, job.gpus), job
        assert (job.gpus > 0) == (job.partition == "gpu"), job
        cap = part.max_walltime
        assert min(60.0, 0.98 * cap) <= job.runtime <= 0.98 * cap, job
        assert job.runtime <= job.requested_walltime <= cap, job


def with_gpu_share(share: float) -> dict[str, FieldMix]:
    return {name: replace(mix, gpu_share=share) for name, mix in DEFAULT_FIELD_MIXES.items()}


NO_BIGMEM = ClusterConfig("nobig", [p for p in DEFAULT_CLUSTER if p.name != "bigmem"])

# Two GPUs in total (caps the GPU count) on 12 cores (caps a GPU job's
# cores); an integer walltime cap on ``cpu`` and a ``serial`` cap below the
# 60 s runtime floor.
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
def test_edge_case_streams_are_valid(params, cluster, check):
    jobs = WorkloadModel(params, cluster).generate(np.random.default_rng(17))
    assert len(jobs) > 500
    assert_valid_stream(jobs, cluster)
    # The case reaches the branch it is meant to exercise.
    assert check(jobs)


def test_same_seed_same_stream():
    model = WorkloadModel(WorkloadParams(months=2, jobs_per_day=80, diurnal=True))
    a = model.generate(np.random.default_rng(5))
    b = model.generate(np.random.default_rng(5))
    assert a == b and repr(a) == repr(b)
    assert model.generate(np.random.default_rng(6)) != a


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
def test_random_configurations_give_valid_streams(workload, seed):
    params, cluster = workload
    assert_valid_stream(WorkloadModel(params, cluster).generate(np.random.default_rng(seed)), cluster)


def within_binomial(count: int, n: int, p: float, z: float = 4.5) -> bool:
    """``count`` of ``n`` within ``z`` binomial standard deviations of ``n * p``."""
    return abs(count - n * p) <= z * np.sqrt(n * p * (1.0 - p))


class TestModelShares:
    """On a large uniform draw, shares match the model's probabilities."""

    PARAMS = WorkloadParams(months=6, jobs_per_day=300)

    @pytest.fixture(scope="class")
    def jobs(self):
        return WorkloadModel(self.PARAMS).generate(np.random.default_rng(2024))

    def test_cpu_partition_shares(self, jobs):
        mixes = self.PARAMS.field_mixes
        cpu_jobs = [j for j in jobs if not j.gpus]
        n = len(cpu_jobs)
        # P(wide | field) = 0.6 * wide_share; the CPU field mix weighs each
        # field by weight * (1 - gpu_share).
        field_p = {f: m.weight * (1.0 - m.gpu_share) for f, m in mixes.items()}
        total = sum(field_p.values())
        wide = sum(field_p[f] / total * 0.6 * m.wide_share for f, m in mixes.items())
        expected = {
            "serial": (1.0 - wide) * 0.5,
            "bigmem": (1.0 - wide) * 0.5 * 0.12,
        }
        expected["cpu"] = 1.0 - expected["serial"] - expected["bigmem"]
        for partition, p in expected.items():
            count = sum(j.partition == partition for j in cpu_jobs)
            assert within_binomial(count, n, p), (partition, count / n, p)

    def test_gpu_count_shares(self, jobs):
        gpus = [j.gpus for j in jobs if j.gpus]
        assert len(gpus) > 5000
        for count, p in zip(_GPU_COUNTS, _GPU_COUNT_P):
            assert within_binomial(gpus.count(count), len(gpus), p), (count, p)
