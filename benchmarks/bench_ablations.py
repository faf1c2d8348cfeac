"""Ablation benchmarks for the design choices DESIGN.md calls out.

* vectorized vs loop cross-tab engine;
* EASY backfill on vs off in the scheduler;
* Wilson (analytic) vs bootstrap proportion CIs;
* pipeline artifact caching on vs off;
* sequential vs parallel DAG execution;
* full-report regeneration in-process.
"""

import os

import numpy as np
import pytest

from repro.analysis import crosstab, crosstab_loop
from repro.cluster import WorkloadModel, WorkloadParams, simulate_schedule
from repro.core import ArtifactCache, Pipeline, PipelineStep
from repro.report import run_all_experiments
from repro.stats import bootstrap_ci, wilson_interval


# -- cross-tab engine ---------------------------------------------------------


def bench_ablation_crosstab_vectorized(benchmark, study):
    ct = benchmark(crosstab, study.responses, "field")
    assert ct.n > 0


def bench_ablation_crosstab_loop(benchmark, study):
    ct = benchmark(crosstab_loop, study.responses, "field")
    assert ct.n > 0


# -- scheduler backfill ----------------------------------------------------------


@pytest.fixture(scope="module")
def submission_stream():
    params = WorkloadParams(months=1, jobs_per_day=400)
    return WorkloadModel(params).generate(np.random.default_rng(42))


def bench_ablation_backfill_on(benchmark, submission_stream):
    result = benchmark.pedantic(
        simulate_schedule,
        args=(submission_stream,),
        kwargs={"rng": np.random.default_rng(0), "backfill": True},
        rounds=3,
        iterations=1,
    )
    assert result.backfilled > 0


def bench_ablation_backfill_off(benchmark, submission_stream):
    result = benchmark.pedantic(
        simulate_schedule,
        args=(submission_stream,),
        kwargs={"rng": np.random.default_rng(0), "backfill": False},
        rounds=3,
        iterations=1,
    )
    assert result.backfilled == 0


# -- CI method -----------------------------------------------------------------


def bench_ablation_ci_wilson(benchmark):
    result = benchmark(wilson_interval, 42, 150)
    assert result.low < result.high


def bench_ablation_ci_bootstrap(benchmark):
    data = np.zeros(150)
    data[:42] = 1.0

    def run():
        return bootstrap_ci(data, np.mean, n_resamples=2000, rng=np.random.default_rng(0))

    result = benchmark(run)
    assert result.low < result.high


# -- pipeline caching ----------------------------------------------------------------


def _expensive_pipeline(cache):
    def generate(context, n):
        rng = np.random.default_rng(0)
        return rng.normal(size=n)

    def analyze(context):
        return float(np.mean(context["generate"]))

    return Pipeline(
        [
            PipelineStep(name="generate", fn=generate, params={"n": 2_000_000}),
            PipelineStep(name="analyze", fn=analyze, depends_on=("generate",)),
        ],
        cache,
    )


def bench_ablation_cache_cold(benchmark):
    def run():
        return _expensive_pipeline(ArtifactCache()).run()

    out = benchmark(run)
    assert "analyze" in out


def bench_ablation_cache_warm(benchmark):
    cache = ArtifactCache()
    _expensive_pipeline(cache).run()  # warm it once

    def run():
        return _expensive_pipeline(cache).run()

    out = benchmark(run)
    assert "analyze" in out


# -- DAG executor: sequential vs parallel ------------------------------------------


def _fanout_gen(context, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n)


def _fanout_reduce(context):
    return float(sum(np.mean(context[name]) for name in sorted(context)))


def _wide_pipeline(cache, lanes=4, n=1_000_000):
    # `lanes` independent generation steps feeding one reduction: the shape
    # where topological fan-out pays. Module-level fns keep it process-safe.
    steps = [
        PipelineStep(name=f"gen{i}", fn=_fanout_gen, params={"n": n, "seed": i})
        for i in range(lanes)
    ]
    steps.append(
        PipelineStep(
            name="reduce",
            fn=_fanout_reduce,
            depends_on=tuple(f"gen{i}" for i in range(lanes)),
        )
    )
    return Pipeline(steps, cache)


def bench_ablation_pipeline_sequential(benchmark):
    def run():
        return _wide_pipeline(ArtifactCache()).run(max_workers=1)

    out = benchmark(run)
    assert "reduce" in out


def bench_ablation_pipeline_parallel(benchmark):
    workers = max(2, os.cpu_count() or 1)

    def run():
        return _wide_pipeline(ArtifactCache()).run(max_workers=workers, executor="process")

    out = benchmark(run)
    assert "reduce" in out


# -- full-report regeneration ----------------------------------------------------


def bench_ablation_report_sequential(benchmark, study):
    artifacts = benchmark.pedantic(
        run_all_experiments,
        args=(study,),
        rounds=3,
        iterations=1,
    )
    assert len(artifacts) >= 16
