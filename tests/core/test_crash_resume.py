"""Crash-resume chaos: SIGKILL at every (step, event) coordinate, then resume.

The invariant under test is the tentpole's contract: a run interrupted at
*any* journal coordinate — before a record, after it, or mid-record (torn
write) — resumes to results byte-identical to an uninterrupted run,
replaying journaled-and-cached steps without re-executing them.

"Byte-identical" is asserted per artifact: the aggregate results dict is
a fresh object graph either way (replayed values are unpickled copies),
so cross-step pickle memoization would differ even for identical values.
"""

import pickle

import pytest

from repro.core.faults import CrashPoint, coordinates, run_until_crash
from repro.core.journal import RunJournal, load_resume_state
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep

STEP_NAMES = ("gen", "double", "stats", "merge")


# Module-level step functions so the pipeline survives pickling into a
# process-pool executor inside the crash child.
def _gen(inputs):
    return {"rows": list(range(8))}


def _double(inputs, **params):
    return [r * 2 for r in inputs["gen"]["rows"]]


def _stats(inputs, **params):
    return {"total": sum(inputs["gen"]["rows"])}


def _merge(inputs, **params):
    return {"doubled": inputs["double"], "total": inputs["stats"]["total"]}


def make_factory(tmp_path):
    def factory():
        cache = ArtifactCache(tmp_path / "cache")
        return Pipeline(
            [
                PipelineStep("gen", _gen),
                PipelineStep("double", _double, depends_on=("gen",)),
                PipelineStep("stats", _stats, depends_on=("gen",)),
                PipelineStep("merge", _merge, depends_on=("double", "stats")),
            ],
            cache,
        )

    return factory


def uninterrupted_results(tmp_path):
    pipeline = make_factory(tmp_path / "baseline")()
    return pipeline.run(executor="sequential")


def assert_artifacts_identical(results, expected):
    assert set(results) == set(expected)
    for name in expected:
        assert pickle.dumps(results[name]) == pickle.dumps(expected[name]), name


def crash_then_resume(tmp_path, point, run_kwargs=None):
    """Kill a child at ``point``, resume in this process, return the report."""
    factory = make_factory(tmp_path)
    journal_dir = tmp_path / "journals"
    run_id, exitcode = run_until_crash(
        factory, journal_dir, point, run_kwargs=run_kwargs
    )
    assert exitcode == -9, f"child survived crash point {point}"
    state = load_resume_state(journal_dir, run_id)
    assert state.interrupted
    pipeline = factory()
    with RunJournal.open(journal_dir) as journal:
        results, report = pipeline.run_with_report(
            executor="sequential", journal=journal, resume=state
        )
    return state, results, report


class TestCrashMatrixSequential:
    @pytest.mark.parametrize(
        "point",
        coordinates("journal", STEP_NAMES),
        ids=lambda p: f"{p.step}-{p.event}-{p.mode}",
    )
    def test_resume_is_byte_identical(self, tmp_path, point):
        expected = uninterrupted_results(tmp_path)
        state, results, report = crash_then_resume(tmp_path, point)
        assert_artifacts_identical(results, expected)
        assert report.ok
        # Every step the journal proved complete-and-cached was replayed,
        # not re-executed; everything else ran normally.
        assert set(report.replayed) == set(state.completed)
        assert report.replayed_from_journal == len(state.completed)
        for name in STEP_NAMES:
            if name in state.completed:
                assert report.outcome(name).attempts == 0


class TestCrashOtherExecutors:
    @pytest.mark.parametrize("step", STEP_NAMES)
    def test_thread_executor(self, tmp_path, step):
        expected = uninterrupted_results(tmp_path)
        _, results, report = crash_then_resume(
            tmp_path,
            CrashPoint("journal", "step_done", step, "before"),
            run_kwargs={"executor": "thread", "max_workers": 2},
        )
        assert_artifacts_identical(results, expected)
        assert report.ok

    @pytest.mark.parametrize(
        "point",
        [
            CrashPoint("journal", "step_done", "gen", "after"),
            CrashPoint("journal", "step_start", "double", "before"),
            CrashPoint("journal", "step_done", "stats", "torn"),
            CrashPoint("journal", "step_done", "merge", "before"),
        ],
        ids=lambda p: f"{p.step}-{p.event}-{p.mode}",
    )
    def test_process_executor(self, tmp_path, point):
        expected = uninterrupted_results(tmp_path)
        _, results, report = crash_then_resume(
            tmp_path, point, run_kwargs={"executor": "process", "max_workers": 2}
        )
        assert_artifacts_identical(results, expected)
        assert report.ok


class TestResumeSemantics:
    def test_resume_reports_prior_run_id(self, tmp_path):
        state, _, report = crash_then_resume(
            tmp_path, CrashPoint("journal", "step_start", "stats", "before")
        )
        assert report.resumed and report.resumed_from == state.run_id

    def test_resume_with_stale_key_recomputes(self, tmp_path):
        factory = make_factory(tmp_path)
        journal_dir = tmp_path / "journals"
        run_id, _ = run_until_crash(
            factory, journal_dir, CrashPoint("journal", "step_start", "merge", "before")
        )
        state = load_resume_state(journal_dir, run_id)
        assert "double" in state.completed
        # A changed step definition changes the cache key: the journal's
        # completion record no longer matches and must NOT be replayed.
        cache = ArtifactCache(tmp_path / "cache")
        changed = Pipeline(
            [
                PipelineStep("gen", _gen),
                PipelineStep("double", _double, params={"v": 2}, depends_on=("gen",)),
                PipelineStep("stats", _stats, depends_on=("gen",)),
                PipelineStep("merge", _merge, depends_on=("double", "stats")),
            ],
            cache,
        )
        _, report = changed.run_with_report(executor="sequential", resume=state)
        assert report.ok
        assert "double" not in report.replayed

    def test_resume_from_evicted_cache_recomputes(self, tmp_path):
        factory = make_factory(tmp_path)
        journal_dir = tmp_path / "journals"
        run_id, _ = run_until_crash(
            factory, journal_dir, CrashPoint("journal", "step_start", "merge", "before")
        )
        state = load_resume_state(journal_dir, run_id)
        pipeline = factory()
        pipeline.cache.clear()  # journal says done, but the artifacts are gone
        expected = uninterrupted_results(tmp_path)
        results, report = pipeline.run_with_report(
            executor="sequential", resume=state
        )
        assert_artifacts_identical(results, expected)
        assert report.ok and not report.replayed  # everything re-executed
