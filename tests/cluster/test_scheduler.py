"""Tests for the FCFS + EASY backfill scheduler simulator."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    JobState,
    Partition,
    SubmittedJob,
    WorkloadModel,
    WorkloadParams,
    simulate_schedule,
)

TINY = ClusterConfig(
    "tiny",
    (
        Partition("cpu", nodes=1, cores_per_node=8),
        Partition("gpu", nodes=1, cores_per_node=8, gpus_per_node=2),
        Partition("serial", nodes=1, cores_per_node=8),
    ),
)


def job(i, submit=0.0, cores=1, gpus=0, runtime=100.0, walltime=None, partition="cpu"):
    return SubmittedJob(
        job_id=i,
        user=f"u{i}",
        field="physics",
        partition=partition,
        submit=submit,
        cores=cores,
        gpus=gpus,
        runtime=runtime,
        requested_walltime=walltime if walltime is not None else runtime * 2,
    )


def run(jobs, cluster=TINY, **kw):
    kw.setdefault("failure_rate", 0.0)
    kw.setdefault("cancel_rate", 0.0)
    kw.setdefault("timeout_rate", 0.0)
    return simulate_schedule(jobs, cluster, rng=np.random.default_rng(0), **kw)


class TestBasicScheduling:
    def test_empty_input(self):
        result = run([])
        assert len(result.table) == 0

    def test_single_job_starts_immediately(self):
        result = run([job(0, submit=50.0)])
        r = result.table.record(0)
        assert r.start == pytest.approx(50.0)
        assert r.end == pytest.approx(150.0)
        assert r.state is JobState.COMPLETED

    def test_all_jobs_accounted(self):
        jobs = [job(i, submit=float(i)) for i in range(100)]
        result = run(jobs)
        assert len(result.table) == 100
        assert sorted(result.table.job_id.tolist()) == list(range(100))

    def test_fifo_when_saturated(self):
        # 8-core node; three 8-core jobs must run strictly in sequence.
        jobs = [job(i, submit=0.0, cores=8, runtime=100.0) for i in range(3)]
        result = run(jobs)
        starts = sorted(result.table.start.tolist())
        assert starts == pytest.approx([0.0, 100.0, 200.0])

    def test_parallel_when_capacity_allows(self):
        jobs = [job(i, cores=4, runtime=100.0) for i in range(2)]
        result = run(jobs)
        assert result.table.start.tolist() == [0.0, 0.0]

    def test_gpus_constrain(self):
        jobs = [
            job(0, cores=1, gpus=2, runtime=100.0, partition="gpu"),
            job(1, cores=1, gpus=1, runtime=100.0, partition="gpu"),
        ]
        result = run(jobs)
        r1 = result.table.record(1)
        assert r1.start == pytest.approx(100.0)  # had to wait for both GPUs

    def test_partitions_independent(self):
        jobs = [
            job(0, cores=8, runtime=1000.0, partition="cpu"),
            job(1, cores=8, runtime=10.0, partition="serial", submit=1.0),
        ]
        result = run(jobs)
        assert result.table.record(1).start == pytest.approx(1.0)

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError):
            run([job(0, partition="quantum")])

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError):
            run([job(0, cores=9)])


class TestBackfill:
    def make_backfill_scenario(self):
        """Wide job blocks; a short narrow job can slip in ahead of it."""
        return [
            job(0, submit=0.0, cores=6, runtime=1000.0, walltime=1000.0),
            # Head of queue: needs all 8 cores, must wait until t=1000.
            job(1, submit=1.0, cores=8, runtime=500.0, walltime=500.0),
            # Short narrow job: fits in the 2 spare cores and finishes
            # (walltime 400) before the head's reservation at t=1000.
            job(2, submit=2.0, cores=2, runtime=300.0, walltime=400.0),
        ]

    def test_easy_backfills_short_job(self):
        result = run(self.make_backfill_scenario(), backfill=True)
        r2 = result.table.record(2)
        assert r2.start == pytest.approx(2.0)
        assert result.backfilled == 1
        # Head must still start exactly at its reservation.
        assert result.table.record(1).start == pytest.approx(1000.0)

    def test_no_backfill_waits(self):
        result = run(self.make_backfill_scenario(), backfill=False)
        r2 = result.table.record(2)
        assert r2.start >= 1000.0
        assert result.backfilled == 0

    def test_backfill_never_delays_head(self):
        # A long narrow job must NOT backfill (walltime 5000 > shadow 1000)
        # unless it fits the spare cores; at 3 cores > 2 spare it must wait.
        jobs = [
            job(0, submit=0.0, cores=6, runtime=1000.0, walltime=1000.0),
            job(1, submit=1.0, cores=8, runtime=500.0, walltime=500.0),
            job(2, submit=2.0, cores=3, runtime=4000.0, walltime=5000.0),
        ]
        result = run(jobs, backfill=True)
        assert result.table.record(1).start == pytest.approx(1000.0)
        assert result.table.record(2).start >= 1000.0

    def test_spare_resource_backfill(self):
        # Long narrow job CAN backfill when it fits the head's spare cores.
        jobs = [
            job(0, submit=0.0, cores=6, runtime=1000.0, walltime=1000.0),
            job(1, submit=1.0, cores=6, runtime=500.0, walltime=500.0),
            job(2, submit=2.0, cores=2, runtime=4000.0, walltime=5000.0),
        ]
        result = run(jobs, backfill=True)
        assert result.table.record(2).start == pytest.approx(2.0)

    def test_backfill_improves_throughput(self):
        params = WorkloadParams(months=1, jobs_per_day=500)
        jobs = WorkloadModel(params).generate(np.random.default_rng(4))
        with_bf = simulate_schedule(jobs, rng=np.random.default_rng(0), backfill=True)
        without = simulate_schedule(jobs, rng=np.random.default_rng(0), backfill=False)
        assert with_bf.backfilled > 0
        assert with_bf.table.wait.mean() <= without.table.wait.mean() + 1e-6


class TestTerminalStates:
    def test_all_completed_when_rates_zero(self):
        jobs = [job(i, submit=float(i)) for i in range(50)]
        result = run(jobs)
        assert set(result.table.state.tolist()) == {"COMPLETED"}

    def test_states_assigned_at_requested_rates(self):
        jobs = [job(i, submit=float(i), runtime=1000.0) for i in range(3000)]
        result = simulate_schedule(
            jobs,
            TINY,
            rng=np.random.default_rng(8),
            failure_rate=0.10,
            cancel_rate=0.05,
            timeout_rate=0.03,
        )
        states = result.table.state.tolist()
        n = len(states)
        assert states.count("FAILED") / n == pytest.approx(0.10, abs=0.02)
        assert states.count("CANCELLED") / n == pytest.approx(0.05, abs=0.02)
        assert states.count("TIMEOUT") / n == pytest.approx(0.03, abs=0.015)

    def test_failed_jobs_run_shorter(self):
        jobs = [job(i, submit=float(i) * 1e4, runtime=1000.0) for i in range(2000)]
        result = simulate_schedule(
            jobs, TINY, rng=np.random.default_rng(9), failure_rate=0.5,
            cancel_rate=0.0, timeout_rate=0.0,
        )
        failed = result.table.mask(result.table.state == "FAILED")
        done = result.table.mask(result.table.state == "COMPLETED")
        assert failed.runtime.mean() < done.runtime.mean()

    @pytest.mark.parametrize(
        "rates",
        [
            dict(failure_rate=-0.1),
            dict(cancel_rate=-0.01),
            dict(timeout_rate=float("nan")),
            dict(failure_rate=1.5),
            dict(failure_rate=0.5, cancel_rate=0.4, timeout_rate=0.2),
            dict(failure_rate=0.5, cancel_rate=0.3, timeout_rate=0.2),
        ],
        ids=["negative", "negative_cancel", "nan", "above_one", "sum_above_one", "sum_one"],
    )
    def test_rejects_out_of_range_rates(self, rates):
        """Out-of-range rates are refused before any draw, not silently
        turned into all-COMPLETED, all-FAILED or truncated TIMEOUT shares."""
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="rate"):
            simulate_schedule([job(0)], TINY, rng=rng, **rates)
        assert rng.bit_generator.state == before

    def test_determinism(self):
        jobs = [job(i, submit=float(i)) for i in range(200)]
        a = simulate_schedule(jobs, TINY, rng=np.random.default_rng(3))
        b = simulate_schedule(jobs, TINY, rng=np.random.default_rng(3))
        assert a.table.start.tolist() == b.table.start.tolist()
        assert a.table.state.tolist() == b.table.state.tolist()


class TestConservation:
    def test_capacity_never_exceeded(self):
        """At any event instant, running cores must fit the partition."""
        params = WorkloadParams(months=1, jobs_per_day=300)
        jobs = WorkloadModel(params).generate(np.random.default_rng(12))
        result = simulate_schedule(jobs, rng=np.random.default_rng(0))
        from repro.cluster.partitions import DEFAULT_CLUSTER

        for pname in result.table.partitions():
            part = result.table.by_partition(pname)
            cap = DEFAULT_CLUSTER[pname].total_cores
            gcap = DEFAULT_CLUSTER[pname].total_gpus
            # Sweep events: +cores at start, -cores at end.
            times = np.concatenate([part.start, part.end])
            deltas = np.concatenate([part.cores, -part.cores]).astype(float)
            gdeltas = np.concatenate([part.gpus, -part.gpus]).astype(float)
            # Ends sort before starts at the same instant (free then allocate):
            # negative deltas first at equal times.
            order = np.lexsort((deltas, times))
            running = np.cumsum(deltas[order])
            grunning = np.cumsum(gdeltas[order])
            assert running.max() <= cap + 1e-6, pname
            assert grunning.max() <= gcap + 1e-6, pname

    def test_waits_nonnegative(self):
        params = WorkloadParams(months=1, jobs_per_day=200)
        jobs = WorkloadModel(params).generate(np.random.default_rng(13))
        result = simulate_schedule(jobs, rng=np.random.default_rng(0))
        assert (result.table.wait >= -1e-9).all()
