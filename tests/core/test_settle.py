"""One settle path: every executor writes a step's outcome the same way.

The report, the journal's ``step_done`` records, the trace's ``step``
spans and the metrics registry of one run are all written by one
function, so they must agree step for step — and a step skipped behind
failed dependencies must be explained identically by every executor.
"""

from pathlib import Path

import pytest

from repro.core.journal import RunJournal, load_resume_state, read_journal
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep, RetryPolicy
from repro.core.trace import Tracer
from repro.obs.registry import registry_from_metrics

EXECUTORS = ("sequential", "thread", "process", "dist")

#: Fleet knobs tuned for test speed (see tests/dist/conftest.py).
FLEET = {
    "workers": 2,
    "heartbeat_interval": 0.02,
    "lease_ttl": 0.3,
    "poll_interval": 0.005,
    "tick_interval": 0.005,
}


def _executor_kwargs(executor):
    if executor == "dist":
        return {"backend_options": dict(FLEET)}
    return {"max_workers": 2}


# Module-level step functions so pool and fleet workers can load them.
def _source(inputs, **params):
    return {"v": 2}


def _raise(inputs, **params):
    raise RuntimeError("injected failure")


def _combine(inputs, **params):
    return {"v": inputs["b"]["v"] + inputs["c"]["v"]}


def _fail_while(inputs, *, flag):
    """Fails for as long as the ``flag`` file exists."""
    if Path(flag).exists():
        raise RuntimeError("flagged")
    return {"v": 1}


def _fail_once(inputs, *, marker):
    """Fails the first attempt ever made, then succeeds."""
    if not Path(marker).exists():
        Path(marker).touch()
        raise RuntimeError("transient")
    return {"v": inputs["src"]["v"] + 1}


def _after(inputs, **params):
    return {"v": inputs["bad"]["v"] + 1}


class TestSkipReason:
    """``d`` sits behind two failed steps; the reason must not depend on
    which failure an executor happened to observe first."""

    EXPECTED = (
        "run report: 4 steps (failed=2, ok=1, skipped_upstream=1)\n"
        "  b: failed — RuntimeError('injected failure')\n"
        "  c: failed — RuntimeError('injected failure')\n"
        "  d: skipped_upstream — upstream failed: ['b', 'c']"
    )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_every_executor_names_every_failed_dependency(self, tmp_path, executor):
        pipeline = Pipeline(
            [
                PipelineStep("a", _source),
                PipelineStep("b", _raise, depends_on=("a",)),
                PipelineStep("c", _raise, depends_on=("a",)),
                PipelineStep("d", _combine, depends_on=("b", "c")),
            ],
            ArtifactCache(tmp_path / "cache"),
        )
        with RunJournal.open(tmp_path / "journals") as journal:
            pipeline.run(
                executor=executor, on_error="keep_going", journal=journal,
                **_executor_kwargs(executor),
            )
        assert pipeline.last_report.render() == self.EXPECTED
        records, _ = read_journal(journal.path)
        (done,) = [r for r in records if r["event"] == "step_done" and r["step"] == "d"]
        assert done["error"] == "upstream failed: ['b', 'c']"


class TestRecordsAgree:
    """A keep-going run with every outcome, then its resume: report,
    journal, trace and registry tell the same story for every step."""

    def _pipeline(self, root):
        return Pipeline(
            [
                PipelineStep("src", _source),
                PipelineStep("warm", _source, params={"tag": "warm"}),
                PipelineStep(
                    "flaky", _fail_once, params={"marker": str(root / "marker")},
                    depends_on=("src",),
                    retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
                ),
                PipelineStep("bad", _fail_while, params={"flag": str(root / "flag")}),
                PipelineStep("after", _after, depends_on=("bad",)),
            ],
            ArtifactCache(root / "cache"),
        )

    def _run(self, root, executor, resume=None):
        pipeline = self._pipeline(root)
        tracer = Tracer()
        with RunJournal.open(root / "journals") as journal:
            pipeline.run(
                executor=executor, on_error="keep_going", journal=journal,
                resume=resume, trace=tracer, **_executor_kwargs(executor),
            )
        report = pipeline.last_report
        journaled = load_resume_state(root / "journals", journal.run_id)
        spans = {s.args["step"]: s.args for s in tracer.spans if s.cat == "step"}
        assert [o.name for o in report.outcomes] == [s.name for s in pipeline.steps]
        for o in report.outcomes:
            assert (o.status, o.attempts) == (
                journaled.outcomes[o.name], journaled.attempts[o.name]
            ), o.name
            assert (o.status, o.attempts) == (
                spans[o.name]["outcome"], spans[o.name]["attempts"]
            ), o.name
        registry = registry_from_metrics(pipeline.last_metrics)
        assert {
            outcome: int(registry.value("repro_steps_total", outcome=outcome))
            for outcome in report.counts()
        } == report.counts()
        assert sum(
            registry.value("repro_steps_total", outcome=outcome)
            for outcome in ("ok", "cached", "retried", "replayed", "failed",
                            "timeout", "skipped_upstream")
        ) == len(pipeline.steps)
        return report, journal.run_id

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_report_journal_trace_and_registry_agree(self, tmp_path, executor):
        root = tmp_path
        warm = self._pipeline(root)
        warm.cache.put(warm.keys()["warm"], {"v": 2})
        (root / "flag").touch()

        report, run_id = self._run(root, executor)
        assert {o.name: o.status for o in report.outcomes} == {
            "src": "ok", "warm": "cached", "flaky": "retried",
            "bad": "failed", "after": "skipped_upstream",
        }

        (root / "flag").unlink()
        resumed, _ = self._run(
            root, executor, resume=load_resume_state(root / "journals", run_id)
        )
        assert {o.name: o.status for o in resumed.outcomes} == {
            "src": "replayed", "warm": "replayed", "flaky": "replayed",
            "bad": "ok", "after": "ok",
        }
