"""Disk-exhaustion chaos: cache and journal writes fail, the run keeps going."""

import pytest

from repro.core.faults import DiskFull, FaultPlan, FaultSpec
from repro.core.journal import RunJournal
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep


def make_pipeline(cache_dir):
    cache = ArtifactCache(cache_dir)
    return Pipeline(
        [
            PipelineStep("gen", lambda inputs: list(range(6))),
            PipelineStep(
                "double",
                lambda inputs: [r * 2 for r in inputs["gen"]],
                depends_on=("gen",),
            ),
            PipelineStep(
                "total",
                lambda inputs: sum(inputs["double"]),
                depends_on=("double",),
            ),
        ],
        cache,
    )


class TestCacheEnospc:
    def test_run_completes_with_cache_unavailable_flag(self, tmp_path):
        pipeline = make_pipeline(tmp_path / "cache")
        plan = FaultPlan([FaultSpec(step="double", kind="enospc")])
        results, report = pipeline.run_with_report(
            executor="sequential", fault_plan=plan
        )
        assert results["total"] == 30  # value survives in memory
        assert report.ok
        assert report.cache_unavailable == ("double",)
        assert plan.fired("double", "enospc") == 1
        assert pipeline.cache.put_errors == 1
        assert "space" in (pipeline.cache.last_put_error or "")

    def test_unpersisted_step_recomputes_next_run(self, tmp_path):
        pipeline = make_pipeline(tmp_path / "cache")
        plan = FaultPlan([FaultSpec(step="double", kind="enospc")])
        pipeline.run(executor="sequential", fault_plan=plan)
        # Fresh pipeline, same cache dir: the degraded step's artifact never
        # hit disk, so it recomputes; its neighbours replay from cache.
        fresh = make_pipeline(tmp_path / "cache")
        results, report = fresh.run_with_report(executor="sequential")
        assert results["total"] == 30
        assert report.outcome("gen").status == "cached"
        assert report.outcome("double").status == "ok"
        assert not report.cache_unavailable

    def test_arm_enospc_skips_cache_served_steps(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        plan = FaultPlan([FaultSpec(step="x", kind="enospc")])
        # A step expected to come from cache must not leave a failure armed
        # that would fire on some unrelated later write.
        assert plan.arm_enospc(cache, "x", "key", will_compute=False) is False
        assert cache.put("key", 1) is True
        assert plan.arm_enospc(cache, "x", "key", will_compute=True) is True
        assert cache.put("key", 2) is False
        assert cache.put_errors == 1


class TestJournalEnospc:
    def test_journal_disk_full_degrades_but_run_completes(self, tmp_path):
        pipeline = make_pipeline(tmp_path / "cache")
        journal = RunJournal.open(tmp_path / "journals")
        journal.chaos = DiskFull(after_records=2)
        try:
            results, report = pipeline.run_with_report(
                executor="sequential", journal=journal
            )
        finally:
            journal.close()
        assert results["total"] == 30
        assert report.ok
        assert journal.unavailable
        assert "space" in (journal.error or "")
        assert pipeline.last_metrics.journal_unavailable

    def test_degraded_journal_records_stop_but_never_raise(self, tmp_path):
        journal = RunJournal.open(tmp_path / "journals")
        journal.chaos = DiskFull(after_records=0)
        try:
            assert journal.run_start({"a": "k"}) is False
            assert journal.unavailable
            # Every later record is a silent no-op.
            assert journal.step_start("a", "k") is False
            assert journal.run_end({"ok": 1}, 0.01) is False
        finally:
            journal.close()
