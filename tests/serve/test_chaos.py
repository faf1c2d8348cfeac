"""The serve chaos matrix: SIGKILL at every (ingest|recompute, event)
coordinate, restart, and converge to artifacts byte-identical to a clean
from-scratch rebuild of the same row set.

Each coordinate forks a child (own process group), lets it run the
service with a kill switch armed on the WAL (ingest side) or the refresh
journal (recompute side), reaps the SIGKILL, then restarts the service on
the surviving root. The client re-sends its batches (same batch ids — the
dedupe absorbs whatever was already durable), one refresh converges, and
the served artifact must render byte-identically to a pristine service
in a fresh root fed the identical rows.
"""

import os
import signal

import pytest

from repro.audit.digests import render_artifact
from repro.core.faults import CrashPoint, KillSwitch, coordinates, crash_in_child
from repro.serve import ServeConfig, StudyService

CONFIG = dict(months=1, experiments=("X1",))

SERVE_STEPS = ("responses", "telemetry", "study", "exp:X1")

# Exit codes of a child whose kill switch never fired; distinct from
# -SIGKILL, so _run_crashed fails a coordinate that no longer matches.
INGEST_UNMATCHED = 101
REFRESH_UNMATCHED = 102


def _ingest_all(svc, lines):
    responses, sacct = lines
    svc.ingest("responses", responses, batch="r0")
    svc.ingest("sacct", sacct, batch="s0")


def _crash_ingest_child(root, lines, point):  # pragma: no cover - SIGKILLed
    svc = StudyService(root, ServeConfig(**CONFIG))
    svc.wal.chaos = KillSwitch(point)
    _ingest_all(svc, lines)
    os._exit(INGEST_UNMATCHED)


def _crash_refresh_child(root, lines, point):  # pragma: no cover - SIGKILLed
    svc = StudyService(root, ServeConfig(**CONFIG))
    _ingest_all(svc, lines)
    svc.journal_chaos = KillSwitch(point)
    svc.refresh()
    os._exit(REFRESH_UNMATCHED)


def _converge(root, lines):
    """Restart on the crashed root, re-send every batch, refresh once."""
    svc = StudyService(root, ServeConfig(**CONFIG))
    _ingest_all(svc, lines)  # same batch ids: dedupe absorbs the durable prefix
    result = svc.refresh()
    assert result.ran and not result.failed, result
    res = svc.request("X1")
    assert res.status == "fresh", res
    rendered = render_artifact(res.artifact)
    chunks = {k: svc.wal.chunk(k) for k in ("responses", "sacct")}
    svc.close()
    return rendered, chunks


@pytest.fixture(scope="module")
def clean_build(tmp_path_factory, study_lines):
    """The from-scratch reference: fresh root, all rows, one refresh."""
    root = tmp_path_factory.mktemp("clean")
    svc = StudyService(root, ServeConfig(**CONFIG))
    _ingest_all(svc, study_lines)
    svc.refresh()
    res = svc.request("X1")
    assert res.status == "fresh"
    rendered = render_artifact(res.artifact)
    chunks = {k: svc.wal.chunk(k) for k in ("responses", "sacct")}
    svc.close()
    return rendered, chunks


def _run_crashed(target, root, lines, point):
    exitcode = crash_in_child(target, root, lines, point)
    assert exitcode == -signal.SIGKILL, f"child exited {exitcode}, expected SIGKILL"
    return exitcode


class TestKillMidIngest:
    @pytest.mark.parametrize(
        "point",
        coordinates("wal", nths=(0, 3)),
        ids=lambda p: f"{p.event}-row{p.nth}-{p.mode}",
    )
    def test_sigkill_mid_ingest_converges_byte_identical(
        self, tmp_path, study_lines, clean_build, point
    ):
        _run_crashed(_crash_ingest_child, tmp_path, study_lines, point)
        rendered, chunks = _converge(tmp_path, study_lines)
        assert chunks == clean_build[1]  # same rows, same order, no dupes
        assert rendered == clean_build[0]

    def test_torn_wal_tail_is_healed_on_restart(self, tmp_path, study_lines):
        point = CrashPoint("wal", "responses", mode="torn", nth=2)
        _run_crashed(_crash_ingest_child, tmp_path, study_lines, point)
        svc = StudyService(tmp_path, ServeConfig(**CONFIG))
        assert svc.wal.healed_bytes > 0  # the half-written record was dropped
        assert svc.wal.count("responses") == 2
        svc.close()


class TestKillMidRecompute:
    @pytest.mark.parametrize(
        "point",
        coordinates("journal", SERVE_STEPS),
        ids=lambda p: f"{p.step}-{p.event}-{p.mode}",
    )
    def test_sigkill_mid_refresh_converges_byte_identical(
        self, tmp_path, study_lines, clean_build, point
    ):
        _run_crashed(_crash_refresh_child, tmp_path, study_lines, point)
        rendered, chunks = _converge(tmp_path, study_lines)
        assert chunks == clean_build[1]
        assert rendered == clean_build[0]

    def test_resume_replays_the_completed_prefix(self, tmp_path, study_lines):
        # Crash after the study published: the restarted refresh must not
        # recompute the feeds (journal resume + cache replay carry them).
        point = CrashPoint("journal", "step_done", step="study", mode="after")
        _run_crashed(_crash_refresh_child, tmp_path, study_lines, point)
        svc = StudyService(tmp_path, ServeConfig(**CONFIG))
        _ingest_all(svc, study_lines)
        result = svc.refresh()
        statuses = {o.name: o.status for o in result.report.outcomes}
        for name in ("responses", "telemetry", "study"):
            assert statuses[name] in ("cached", "replayed"), statuses
        svc.close()
