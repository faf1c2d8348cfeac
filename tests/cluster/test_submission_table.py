"""The columnar submission stream and the scheduler's one code path.

``WorkloadModel.generate`` returns a :class:`SubmissionTable`;
``simulate_schedule`` turns a row sequence into one first and then works
on arrays only. Its terminal states come from one ``rng.random`` block
walked in per-job order. These tests hold it to the per-job scalar loop it
replaced (kept here as the reference), to the row path's error messages,
to what an old cache entry holds, and to the artifact container.
"""

from __future__ import annotations

import pickle
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    SubmissionTable,
    SubmittedJob,
    WorkloadModel,
    WorkloadParams,
    simulate_schedule,
)
from repro.cluster import scheduler
from repro.cluster.partitions import DEFAULT_CLUSTER
from repro.cluster.workload import FieldMix
from repro.core.pipeline import ArtifactCache, _decode_artifact, _encode_artifact
from repro.core.study_pipeline import study_pipeline
from tests.cluster.test_workload_stream import EDGE_CASES, workloads


def scalar_terminal_states(rng, runtime, walltime, failure_rate, cancel_rate, timeout_rate):
    """The per-job loop the block walk replaced: one scalar draw at a time."""
    states, durations = [], []
    for run, wall in zip(runtime.tolist(), walltime.tolist()):
        u = rng.random()
        if u < failure_rate:
            state, duration = scheduler._FAILED, max(60.0, run * rng.uniform(0.05, 0.8))
        elif (u := u - failure_rate) < cancel_rate:
            state, duration = scheduler._CANCELLED, max(10.0, run * rng.uniform(0.0, 0.1))
        elif u - cancel_rate < timeout_rate:
            state, duration = scheduler._TIMEOUT, wall
        else:
            state, duration = scheduler._COMPLETED, run
        states.append(state)
        durations.append(duration)
    return np.array(states, dtype=np.int32), np.array(durations, dtype=float)


def schedule_three_ways(stream, cluster, seed, **kw):
    """(table, backfilled, next draw) from the table, its rows, and the
    scalar reference; all three must agree."""
    outcomes = []
    for jobs, reference in ((stream, False), (list(stream), False), (list(stream), True)):
        rng = np.random.default_rng(seed)
        with mock.patch.object(
            scheduler, "_terminal_states",
            scalar_terminal_states if reference else scheduler._terminal_states,
        ):
            result = simulate_schedule(jobs, cluster, rng=rng, **kw)
        outcomes.append((pickle.dumps(result.table, protocol=5), result.backfilled, rng.random()))
    return outcomes


OPTIONS = st.fixed_dictionaries(
    {
        "priority": st.sampled_from(["fifo", "fairshare"]),
        "node_granular": st.booleans(),
        "backfill": st.booleans(),
        "failure_rate": st.sampled_from([0.0, 0.06, 0.3]),
        "cancel_rate": st.sampled_from([0.0, 0.03, 0.3]),
        "timeout_rate": st.sampled_from([0.0, 0.02, 0.2]),
    }
)


@settings(max_examples=30, deadline=None)
@given(workloads(), OPTIONS, st.integers(0, 2**32 - 1))
def test_table_rows_and_scalar_reference_schedule_alike(workload, options, seed):
    params, cluster = workload
    stream = WorkloadModel(params, cluster).generate(np.random.default_rng(seed))
    table, rows, reference = schedule_three_ways(stream, cluster, seed + 1, **options)
    assert table == rows == reference


@pytest.mark.parametrize("params, cluster, check", EDGE_CASES)
@pytest.mark.parametrize(
    "options",
    [
        {},
        {"priority": "fairshare", "node_granular": True, "failure_rate": 0.3, "cancel_rate": 0.3},
        {"backfill": False, "timeout_rate": 0.5},
    ],
    ids=["default", "fairshare_node_granular", "no_backfill"],
)
def test_edge_cases_schedule_alike(params, cluster, check, options):
    stream = WorkloadModel(params, cluster).generate(np.random.default_rng(17))
    table, rows, reference = schedule_three_ways(stream, cluster, 3, **options)
    assert table == rows == reference


class TestRngStream:
    """The caller's generator ends where the per-job draws left it."""

    @pytest.mark.parametrize(
        "rates, expected",
        [
            # rng.random() after the call, measured on the per-job loop.
            ({}, 0.11473515043985938),
            ({"failure_rate": 0.3, "cancel_rate": 0.3, "timeout_rate": 0.2}, 0.5457357600779745),
        ],
    )
    def test_next_draw_is_the_per_job_loops(self, rates, expected):
        stream = WorkloadModel(WorkloadParams(months=1, jobs_per_day=120)).generate(
            np.random.default_rng(7)
        )
        rng = np.random.default_rng(9)
        simulate_schedule(stream, rng=rng, **rates)
        assert rng.random() == expected

    def test_buffered_state_survives(self):
        # A pending 32-bit half of the generator's state is kept, as the
        # scalar draws (which never touch it) would keep it.
        stream = WorkloadModel(WorkloadParams(months=1, jobs_per_day=20)).generate(
            np.random.default_rng(1)
        )
        rngs = [np.random.default_rng(4), np.random.default_rng(4)]
        for rng in rngs:
            rng.integers(0, 10, dtype=np.uint32)
        simulate_schedule(stream, rng=rngs[0])
        with mock.patch.object(scheduler, "_terminal_states", scalar_terminal_states):
            simulate_schedule(stream, rng=rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_empty_stream_draws_nothing(self):
        rng = np.random.default_rng(2)
        result = simulate_schedule([], rng=rng)
        assert len(result.table) == 0 and result.backfilled == 0
        assert rng.random() == np.random.default_rng(2).random()


def job(job_id, **kw):
    fields = dict(
        job_id=job_id, user="u", field="physics", partition="cpu", submit=10.0 * job_id,
        cores=4, gpus=0, runtime=100.0, requested_walltime=200.0,
    )
    return SubmittedJob(**{**fields, **kw})


def columns(jobs):
    """``SubmissionTable`` arguments for ``jobs``, as mutable lists."""
    return [list(column) for column in zip(*map(astuple, jobs))]


class TestErrors:
    """Each check raises the row path's message, naming the first bad job."""

    def test_unknown_partition(self):
        # Job 5 is submitted first, so it is the first bad job in sorted order.
        jobs = [job(1), job(7, partition="quantum"), job(5, partition="quantum", submit=1.0)]
        for stream in (jobs, SubmissionTable.from_jobs(jobs)):
            with pytest.raises(ValueError, match="^job 5 targets unknown partition 'quantum'$"):
                simulate_schedule(stream)

    def test_never_fits(self):
        cores = DEFAULT_CLUSTER["cpu"].total_cores + 1
        jobs = [job(1), job(2, partition="quantum", submit=50.0), job(3, cores=cores, submit=5.0)]
        message = f"job 3 requests ({cores} cores, 0 gpus) which can never fit partition 'cpu'"
        for stream in (jobs, SubmissionTable.from_jobs(jobs)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                simulate_schedule(stream)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"cores": 0}, "job 7: cores must be >= 1"),
            ({"gpus": -1}, "job 7: gpus must be >= 0"),
            ({"runtime": 0.0}, "job 7: runtime must be positive"),
            ({"requested_walltime": 50.0}, "job 7: walltime below runtime"),
        ],
    )
    def test_row_rules(self, bad, message):
        args = columns([job(3), job(4), job(7), job(9)])
        for name, value in bad.items():
            index = list(SubmittedJob.__dataclass_fields__).index(name)
            args[index][2] = value
            args[index][3] = value  # a later bad job is not the one named
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SubmittedJob(*[column[2] for column in args])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SubmissionTable(*args)

    def test_ragged_columns(self):
        args = columns([job(1), job(2)])
        args[4] = args[4][:1]
        with pytest.raises(ValueError, match="column 'submit' length 1 != 2"):
            SubmissionTable(*args)


class TestRows:
    def test_rows_are_jobs_with_python_scalars(self):
        stream = WorkloadModel(WorkloadParams(months=1, jobs_per_day=30)).generate(
            np.random.default_rng(0)
        )
        rows = list(stream)
        assert len(rows) == len(stream) > 0
        assert rows == [stream[i] for i in range(len(stream))]
        assert stream[-1] == rows[-1]
        assert SubmissionTable.from_jobs(rows) == stream
        assert type(rows[0].cores) is int and type(rows[0].submit) is float
        with pytest.raises(IndexError):
            stream[len(stream)]

    def test_arrays_are_read_only(self):
        stream = SubmissionTable.from_jobs([job(1), job(2)])
        with pytest.raises(ValueError, match="read-only"):
            stream.cores[0] = 9
        # An int64 column is taken without a copy; its owner can still write it.
        args = columns([job(1), job(2)])
        args[5] = cores = np.array([4, 4], dtype=np.int64)
        assert not SubmissionTable(*args).cores.flags.writeable
        cores[0] = 8


def test_cached_job_list_schedules_to_the_same_table(tmp_path):
    """An old ``--durable`` cache holds ``{"jobs": list[SubmittedJob]}``
    under the workload step's unchanged key; scheduling it gives the table
    the columnar stream gives."""
    cache = ArtifactCache(tmp_path)
    pipeline = study_pipeline(
        seed=5, n_baseline=10, n_current=10, months=1, jobs_per_day=40, cache=cache
    )
    fresh = pipeline.run(executor="sequential")
    keys = pipeline.keys()
    workload = fresh["workload"]
    assert isinstance(workload["jobs"], SubmissionTable)
    cache.put(keys["workload"], {**workload, "jobs": list(workload["jobs"])})
    (tmp_path / f"{keys['schedule']}.pkl").unlink()

    again = pipeline.run(executor="sequential")
    assert isinstance(again["workload"]["jobs"], list)
    assert pickle.dumps(again["schedule"]) == pickle.dumps(fresh["schedule"])


def test_artifact_container_round_trip():
    stream = WorkloadModel(WorkloadParams(months=1, jobs_per_day=60)).generate(
        np.random.default_rng(3)
    )
    frames = []
    pickled = pickle.dumps(stream, protocol=5, buffer_callback=frames.append)
    # Six numeric columns and three code arrays travel out of band.
    assert len(frames) == 9
    assert len(pickled) < sum(frame.raw().nbytes for frame in frames) / 10
    decoded = _decode_artifact(_encode_artifact(stream))
    assert decoded == stream
    assert not decoded.submit.flags.writeable


def test_fields_sharing_a_prefix_share_user_labels():
    mixes = {
        name: FieldMix(
            weight=1.0, gpu_share=0.1, wide_share=0.2, mean_runtime_hours=2.0, n_users=n_users
        )
        for name, n_users in (("physics", 6), ("physiology", 9))
    }
    params = WorkloadParams(months=1, jobs_per_day=80, field_mixes=mixes)
    stream = WorkloadModel(params).generate(np.random.default_rng(8))

    # The row path's labels: the user of rank k in a field is
    # f"{field[:4]}{k:03d}", drawn from the seventh spawned sub-stream.
    u = np.random.default_rng(8).spawn(7)[6].random(len(stream))
    expected = []
    for i, row in enumerate(stream):
        n_users = mixes[row.field].n_users
        cdf = np.cumsum(1.0 / np.arange(1, n_users + 1))
        rank = int(np.searchsorted(cdf / cdf[-1], u[i], side="right"))
        expected.append(f"{row.field[:4]}{rank:03d}")
    assert [row.user for row in stream] == expected

    by_field = {name: {row.user for row in stream if row.field == name} for name in mixes}
    assert by_field["physics"] & by_field["physiology"]
    labels = stream.user.categories
    assert list(labels) == sorted(set(expected))
    assert stream.user.canonical() is stream.user
    table = simulate_schedule(stream, rng=np.random.default_rng(0)).table
    assert table.user_categories == labels
