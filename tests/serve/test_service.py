"""StudyService behavior: incremental dirtiness, shedding, quarantine,
read-only degradation, drain, and restart warm-up."""

import pytest

from repro.core.faults import (
    DiskFull,
    FaultPlan,
    FaultSpec,
    PoisonRows,
    SkewedClock,
)
from repro.serve import (
    ServeConfig,
    ServiceDraining,
    ServiceReadOnly,
    StudyService,
)


def make_service(root, lines, *, ingest=True, **config):
    config.setdefault("months", 1)
    config.setdefault("experiments", ("X1",))
    svc = StudyService(root, ServeConfig(**config))
    if ingest:
        responses, sacct = lines
        svc.ingest("responses", responses, batch="r0")
        svc.ingest("sacct", sacct, batch="s0")
    return svc


class TestIncremental:
    def test_first_refresh_builds_everything(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        result = svc.refresh()
        assert result.ran and result.reason == "refreshed"
        assert not result.failed
        assert {o.name: o.status for o in result.report.outcomes} == {
            "responses": "ok", "telemetry": "ok", "study": "ok", "exp:X1": "ok",
        }
        svc.close()

    def test_clean_refresh_is_a_noop(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        result = svc.refresh()
        assert not result.ran and result.reason == "clean"
        svc.close()

    def test_appended_responses_recompute_only_their_subtree(
        self, tmp_path, study_lines
    ):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses[:-4], sacct))
        svc.refresh()
        svc.ingest("responses", responses, batch="r0")  # 4 fresh rows
        assert svc.dirty
        result = svc.refresh()
        statuses = {o.name: o.status for o in result.report.outcomes}
        # The untouched feed must never recompute — cached or replayed only.
        assert statuses["telemetry"] in ("cached", "replayed")
        assert statuses["responses"] == "ok"
        assert statuses["study"] == "ok"
        assert statuses["exp:X1"] == "cached"
        svc.close()

    def test_appended_sacct_leaves_responses_cached(self, tmp_path, study_lines):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses, sacct[:40]))
        svc.refresh()
        svc.ingest("sacct", sacct, batch="s0")
        result = svc.refresh()
        statuses = {o.name: o.status for o in result.report.outcomes}
        assert statuses["responses"] in ("cached", "replayed")
        assert statuses["telemetry"] == "ok"
        svc.close()

    def test_waiting_for_data(self, tmp_path, study_lines):
        responses, _ = study_lines
        svc = make_service(tmp_path, study_lines, ingest=False)
        svc.ingest("responses", responses, batch="r0")
        result = svc.refresh()
        assert not result.ran and result.reason == "waiting_for_data"
        svc.close()


class TestRequests:
    def test_fresh_after_refresh(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        res = svc.request("X1")
        assert res.status == "fresh" and res.behind == 0
        assert res.artifact is not None
        svc.close()

    def test_request_refreshes_inline_when_dirty(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        res = svc.request("X1")  # nothing built yet: request drives the build
        assert res.status == "fresh"
        assert svc.admission.stats()["admitted"] == 1
        svc.close()

    def test_unknown_experiment_raises(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines, ingest=False)
        with pytest.raises(KeyError, match="unknown experiment"):
            svc.request("nope")
        svc.close()

    def test_deadline_shedding_serves_last_good_stale(self, tmp_path, study_lines):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses[:-4], sacct))
        svc.refresh()
        svc.ingest("responses", responses, batch="r0")
        svc.last_refresh_seconds = 10.0  # pretend refreshes are slow
        res = svc.request("X1", deadline=0.01)
        assert res.status == "stale" and res.reason == "deadline"
        assert res.artifact is not None and res.behind == 4
        assert svc.admission.stats()["shed_deadline"] == 1
        # Without a deadline the same request waits and gets fresh.
        res = svc.request("X1")
        assert res.status == "fresh"
        svc.close()

    def test_queue_full_sheds(self, tmp_path, study_lines):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses[:-4], sacct), queue_size=1)
        svc.refresh()
        svc.ingest("responses", responses, batch="r0")
        with svc.admission.admit():  # someone else holds the only slot
            res = svc.request("X1")
        assert res.status == "stale" and res.reason == "queue_full"
        assert svc.admission.stats()["shed_queue_full"] == 1
        svc.close()


class TestBreaker:
    def test_failing_experiment_is_quarantined_and_served_stale(
        self, tmp_path, study_lines
    ):
        responses, sacct = study_lines
        svc = make_service(
            tmp_path, (responses[:-4], sacct), breaker_threshold=2
        )
        svc.refresh()  # last-good artifact exists
        poison = FaultPlan([FaultSpec(step="exp:X1", kind="error", attempts=())])
        for _ in range(2):
            result = svc.refresh(force=True, fault_plan=poison)
            assert "exp:X1" in result.failed
        assert "exp:X1" in svc.breaker.open_steps(svc.status()["cycle"])
        svc.ingest("responses", responses, batch="r0")  # artifact is now behind
        result = svc.refresh()
        assert "exp:X1" in result.excluded  # the rest of the study refreshed
        res = svc.request("X1")
        assert res.status == "stale" and res.reason == "quarantined"
        assert res.artifact is not None and res.behind > 0
        svc.close()

    def test_trial_after_cooldown_recovers(self, tmp_path, study_lines):
        svc = make_service(
            tmp_path, study_lines, breaker_threshold=1, breaker_cooldown=1
        )
        svc.refresh()
        poison = FaultPlan([FaultSpec(step="exp:X1", kind="error", attempts=())])
        svc.refresh(force=True, fault_plan=poison)  # opens the breaker
        excluded_once = svc.refresh(force=True)
        assert "exp:X1" in excluded_once.excluded  # cooldown holds
        trial = svc.refresh(force=True)  # cooldown elapsed: trial runs clean
        assert "exp:X1" not in trial.excluded
        assert svc.request("X1").status == "fresh"
        assert svc.breaker.open_steps(svc.status()["cycle"]) == []
        svc.close()

    def test_quarantined_feed_is_pinned_to_last_good_chunk(
        self, tmp_path, study_lines
    ):
        responses, sacct = study_lines
        svc = make_service(
            tmp_path,
            (responses, sacct[:40]),
            breaker_threshold=1,
            breaker_cooldown=8,
        )
        svc.refresh()
        committed = dict(svc._committed)
        svc.ingest("sacct", sacct, batch="s0")
        poison = FaultPlan([FaultSpec(step="telemetry", kind="error", attempts=())])
        result = svc.refresh(fault_plan=poison)
        assert "telemetry" in result.failed
        # Next cycle: the poisoned feed pins to its last committed chunk,
        # so the rest of the study still refreshes on sane input.
        result = svc.refresh(force=True)
        assert "telemetry" in result.pinned
        statuses = {o.name: o.status for o in result.report.outcomes}
        assert statuses["study"] == "ok"
        assert svc._committed["sacct"] == committed["sacct"]  # frontier held back
        svc.close()

    def test_breaker_state_survives_restart(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines, breaker_threshold=1)
        svc.refresh()
        poison = FaultPlan([FaultSpec(step="exp:X1", kind="error", attempts=())])
        svc.refresh(force=True, fault_plan=poison)
        open_before = svc.breaker.open_steps(svc._cycle)
        svc.close()
        again = StudyService(
            tmp_path, ServeConfig(months=1, experiments=("X1",), breaker_threshold=1)
        )
        assert again.breaker.open_steps(again._cycle) == open_before == ["exp:X1"]
        again.close()


class TestReadOnlyDegradation:
    def test_enospc_on_ingest_degrades_to_read_only_serving(
        self, tmp_path, study_lines
    ):
        responses, sacct = study_lines
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc.wal.chaos = DiskFull(after_records=0)
        with pytest.raises(ServiceReadOnly):
            svc.ingest("responses", ["{}"], batch="r9")
        assert svc.read_only and svc.mode == "read_only"
        # Serving survives: STALE answers from the last-good artifact.
        res = svc.request("X1")
        assert res.ok and res.artifact is not None
        # Recompute is refused (it would race the failing disk).
        assert svc.refresh().reason == "read_only"
        # Further ingestion is refused without touching the dead WAL.
        with pytest.raises(ServiceReadOnly):
            svc.ingest("sacct", sacct, batch="s9")
        assert svc.status()["mode"] == "read_only"
        svc.drain()  # clean exit path still works
        svc.close()

    def test_restart_after_enospc_recovers(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc.wal.chaos = DiskFull(after_records=0)
        with pytest.raises(ServiceReadOnly):
            svc.ingest("responses", ["{}"], batch="r9")
        svc.close()
        again = StudyService(tmp_path, ServeConfig(months=1, experiments=("X1",)))
        assert not again.read_only  # space came back; the WAL reopens clean
        receipt = again.ingest("responses", ['{"x": 1}'], batch="r9")
        assert receipt.accepted == 1
        again.close()


class TestDrain:
    def test_drain_refuses_rows_but_keeps_serving(self, tmp_path, study_lines):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses[:-4], sacct))
        svc.refresh()
        svc.ingest("responses", responses, batch="r0")  # arrives, never refreshed
        svc.drain()
        assert svc.mode == "draining"
        with pytest.raises(ServiceDraining):
            svc.ingest("responses", ["{}"])
        assert svc.refresh().reason == "draining"
        res = svc.request("X1")  # behind the frontier, and no recompute allowed
        assert res.status == "stale" and res.reason == "draining"
        assert res.behind == 4
        svc.drain()  # idempotent
        svc.close()


class TestObservability:
    def test_poison_rows_surface_as_skip_counters(self, tmp_path, study_lines):
        responses, sacct = study_lines
        garbage = PoisonRows(count=2).rows("responses")
        svc = make_service(tmp_path, (responses + garbage, sacct))
        result = svc.refresh()
        assert not result.failed  # tolerant readers absorb the poison
        status = svc.status()
        assert status["skipped_rows"].get("read_responses_jsonl", 0) >= 2
        prom = svc.tracer.to_prometheus()
        assert "repro_skipped_rows_total" in prom
        assert 'reader="read_responses_jsonl"' in prom
        svc.close()

    def test_clock_skew_never_goes_negative(self, tmp_path, study_lines):
        clock = SkewedClock(jumps={3: -1000.0, 6: 2000.0})
        svc = StudyService(
            tmp_path, ServeConfig(months=1, experiments=("X1",)), clock=clock
        )
        responses, sacct = study_lines
        svc.ingest("responses", responses, batch="r0")
        svc.ingest("sacct", sacct, batch="s0")
        svc.refresh()
        for _ in range(6):
            status = svc.status()
            assert status["uptime_seconds"] >= 0.0
            assert status["staleness_seconds"] is None or (
                status["staleness_seconds"] >= 0.0
            )
        # Breaker cooldowns count cycles, so skew cannot wedge quarantine.
        assert svc.breaker.open_steps(svc._cycle) == []
        svc.close()

    def test_status_json_is_written_and_readable(self, tmp_path, study_lines):
        from repro.serve import read_status

        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        status = read_status(tmp_path)
        assert status is not None
        assert status["mode"] == "serving" and status["ready"] is True
        assert status["wal"]["rows"]["responses"] > 0
        assert read_status(tmp_path / "nope") is None
        svc.close()


class TestRestart:
    def test_restart_rewarms_from_cache_without_recompute(
        self, tmp_path, study_lines
    ):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc.drain()
        svc.close()
        again = StudyService(tmp_path, ServeConfig(months=1, experiments=("X1",)))
        result = again.refresh()  # warm-up cycle: everything replays
        statuses = {o.name: o.status for o in result.report.outcomes}
        assert all(s in ("cached", "replayed") for s in statuses.values()), statuses
        assert again.request("X1").status == "fresh"
        again.close()
