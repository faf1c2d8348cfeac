"""What one feed's append recomputes, and what one feed's fault blocks.

Each ``exp:*`` step depends only on the feed steps holding the study
parts its experiment reads, so an append to one feed leaves the other
feed's experiments cached, and a survey that fails validation fails only
the experiments that read it.
"""

import io
import json

import pytest

from repro.cluster import write_sacct
from repro.core import build_default_study
from repro.io import write_responses_jsonl
from repro.report import EXPERIMENTS
from repro.serve import ServeConfig, StudyService

TELEMETRY_ONLY = {e for e, x in EXPERIMENTS.items() if x.reads == ("telemetry",)}
RESPONSES_ONLY = {e for e, x in EXPERIMENTS.items() if x.reads == ("responses",)}


@pytest.fixture(scope="module")
def feeds():
    """Response and sacct rows of a study every experiment can render."""
    study = build_default_study(seed=7, n_baseline=40, n_current=40, months=3, jobs_per_day=10.0)
    responses, sacct = io.StringIO(), io.StringIO()
    write_responses_jsonl(study.responses, responses)
    write_sacct(study.telemetry, sacct)
    return responses.getvalue().splitlines(), sacct.getvalue().splitlines()


def serve(root, responses, sacct):
    svc = StudyService(root, ServeConfig(months=3))
    svc.ingest("responses", responses, batch="r0")
    svc.ingest("sacct", sacct, batch="s0")
    return svc


def statuses(result):
    return {o.name: o.status for o in result.report.outcomes}


def test_counts_are_pinned():
    assert (len(RESPONSES_ONLY), len(TELEMETRY_ONLY)) == (15, 10)


def test_responses_append_leaves_telemetry_experiments_cached(tmp_path, feeds):
    responses, sacct = feeds
    svc = serve(tmp_path, responses[:-4], sacct)
    assert svc.refresh().report.counts() == {"ok": 29}
    svc.ingest("responses", responses, batch="r0")  # the 4 held-back rows
    result = svc.refresh()
    status = statuses(result)
    assert result.report.counts() == {"ok": 18, "cached": 11}
    assert status["telemetry"] == "cached"
    assert {eid for eid in EXPERIMENTS if status[f"exp:{eid}"] == "cached"} == TELEMETRY_ONLY
    assert status["study"] == status["exp:F8"] == "ok"
    svc.close()


def test_sacct_append_leaves_responses_experiments_cached(tmp_path, feeds):
    responses, sacct = feeds
    svc = serve(tmp_path, responses, sacct[:-20])
    svc.refresh()
    svc.ingest("sacct", sacct, batch="s0")  # the 20 held-back rows
    result = svc.refresh()
    status = statuses(result)
    assert result.report.counts() == {"ok": 13, "cached": 16}
    assert status["responses"] == "cached"
    assert {eid for eid in EXPERIMENTS if status[f"exp:{eid}"] == "cached"} == RESPONSES_ONLY
    assert status["study"] == status["exp:F8"] == "ok"
    svc.close()


def test_invalid_survey_fails_only_its_readers(tmp_path, feeds):
    responses, sacct = feeds
    without_2011 = [row for row in responses if json.loads(row)["cohort"] != "2011"]
    svc = serve(tmp_path, without_2011, sacct)
    result = svc.refresh()
    status = statuses(result)
    readers = {"study"} | {f"exp:{e}" for e in EXPERIMENTS if e not in TELEMETRY_ONLY}
    assert result.report.counts() == {"ok": 12, "failed": 17}
    assert set(result.failed) == readers
    for outcome in result.report.outcomes:
        if outcome.name in readers:
            assert "StudyError" in outcome.error and "'2011'" in outcome.error
    for eid in sorted(TELEMETRY_ONLY):
        assert svc.request(eid).status == "fresh", eid
    svc.close()
