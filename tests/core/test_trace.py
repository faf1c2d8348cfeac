"""Tracing: deterministic export, span semantics, critical path, metrics.

The load-bearing guarantee mirrors the executor-equivalence property the
parallel suite pins down: the *normalized* trace export is byte-identical
across sequential, thread, and process execution of the same DAG, so a
trace diff in CI can only mean the DAG (or its outcomes) changed — never
that the scheduler interleaved differently.
"""

import json

import pytest

from repro.core import ArtifactCache, Pipeline, PipelineStep
from repro.core.journal import RunJournal, load_resume_state
from repro.core.trace import (
    TraceError,
    Tracer,
    analyze_perfetto,
    critical_path,
    current_tracer,
    instant,
    validate_perfetto,
)
from repro.obs.registry import registry_from_metrics


def _source(inputs):
    return [1, 2, 3]


def _double(inputs, **params):
    return [x * 2 for x in inputs["src"]]


def _total(inputs, **params):
    return sum(inputs["dbl"])


def _steps():
    """A three-step chain; module-level fns so the process pool can pickle."""
    return [
        PipelineStep(name="src", fn=_source),
        PipelineStep(name="dbl", fn=_double, depends_on=("src",)),
        PipelineStep(name="tot", fn=_total, depends_on=("dbl",)),
    ]


def _traced_run(executor, **run_kwargs):
    tracer = Tracer()
    pipeline = Pipeline(_steps(), ArtifactCache())
    pipeline.run(executor=executor, max_workers=2, trace=tracer, **run_kwargs)
    return tracer


def _export_bytes(tracer):
    return json.dumps(
        tracer.to_perfetto(normalize=True), sort_keys=True, separators=(",", ":")
    ).encode()


def _spans(tracer, cat):
    return [
        e
        for e in tracer.to_perfetto()["traceEvents"]
        if e.get("ph") == "X" and e.get("cat") == cat
    ]


class TestDeterministicExport:
    def test_byte_identical_across_executors(self):
        exports = {
            executor: _export_bytes(_traced_run(executor))
            for executor in ("sequential", "thread", "process")
        }
        assert exports["sequential"] == exports["thread"] == exports["process"]

    def test_byte_identical_across_repeat_runs(self):
        assert _export_bytes(_traced_run("thread")) == _export_bytes(
            _traced_run("thread")
        )

    def test_export_is_valid_perfetto(self, tmp_path):
        tracer = _traced_run("sequential")
        assert validate_perfetto(tracer.to_perfetto()) == []
        assert validate_perfetto(tracer.to_perfetto(normalize=True)) == []
        path = tracer.write_perfetto(tmp_path / "trace.json")
        assert validate_perfetto(json.loads(path.read_text())) == []

    def test_normalized_export_strips_timing(self):
        data = _traced_run("thread").to_perfetto(normalize=True)
        for event in data["traceEvents"]:
            assert event["ts"] == 0 and event["pid"] == 0
            if event["ph"] == "X":
                assert event["dur"] == 0
            for key in ("wall", "compute", "queue_wait", "worker", "run_id"):
                assert key not in (event.get("args") or {})

    def test_validate_flags_malformed_events(self):
        problems = validate_perfetto(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 0}]}
        )
        assert problems  # missing tid (and dur)
        assert validate_perfetto({"events": []})  # no traceEvents at all


class TestSpanContent:
    def test_step_spans_cover_outcomes_and_keys(self):
        tracer = _traced_run("sequential")
        steps = {e["args"]["step"]: e["args"] for e in _spans(tracer, "step")}
        assert set(steps) == {"src", "dbl", "tot"}
        for args in steps.values():
            assert args["outcome"] == "ok"
            assert args["attempts"] == 1
            assert args["key"]
            assert args["queue_wait"] >= 0.0 and args["compute"] >= 0.0
        assert steps["dbl"]["deps"] == ["src"]

    def test_run_span_carries_run_id_and_mode(self):
        tracer = _traced_run("thread")
        (run,) = _spans(tracer, "run")
        assert run["args"]["run_id"]
        assert run["args"]["executor"] == "thread"
        assert run["args"]["workers"] == 2

    def test_attempt_spans_parent_step_spans(self):
        tracer = _traced_run("sequential")
        attempts = _spans(tracer, "attempt")
        assert {e["args"]["step"] for e in attempts} == {"src", "dbl", "tot"}
        assert all(e["args"]["ok"] is True for e in attempts)

    def test_warm_cache_marks_spans_cached(self):
        cache = ArtifactCache()
        Pipeline(_steps(), cache).run(max_workers=1)
        tracer = Tracer()
        Pipeline(_steps(), cache).run(max_workers=1, trace=tracer)
        outcomes = {e["args"]["step"]: e["args"]["outcome"] for e in _spans(tracer, "step")}
        assert outcomes == {"src": "cached", "dbl": "cached", "tot": "cached"}
        hits = [
            e
            for e in tracer.to_perfetto()["traceEvents"]
            if e.get("ph") == "i" and e["name"] == "cache.hit"
        ]
        assert len(hits) == 3

    def test_cold_cache_emits_miss_and_put_instants(self):
        tracer = _traced_run("sequential")
        instants = [
            e["name"] for e in tracer.to_perfetto()["traceEvents"] if e.get("ph") == "i"
        ]
        assert instants.count("cache.miss") == 3
        assert instants.count("cache.put") == 3


def _skipping_reader(inputs, part):
    instant("ingest.skipped_rows", "ingest", reader="reader_x", count=1)
    return part


class TestWorkerInstants:
    """Instants a step raises reach the run's tracer from every executor:
    a process worker (pooled, or dedicated to a step with a timeout) ships
    them back with its result."""

    @pytest.mark.parametrize("timeout", [None, 60.0], ids=["no_timeout", "timeout"])
    @pytest.mark.parametrize("executor", ["sequential", "thread", "process"])
    def test_step_instants_are_counted(self, executor, timeout):
        steps = [
            PipelineStep(
                name=f"read{i}", fn=_skipping_reader, params={"part": i}, timeout=timeout
            )
            for i in range(3)
        ]
        pipeline = Pipeline(steps, ArtifactCache())
        pipeline.run(executor=executor, max_workers=2, trace=True)
        tracer = pipeline.last_trace
        skipped = [i for i in tracer.instants if i.name == "ingest.skipped_rows"]
        assert len(skipped) == 3
        assert all(i.args == {"reader": "reader_x", "count": 1} for i in skipped)
        registry = registry_from_metrics(pipeline.last_metrics, tracer)
        assert registry.counts("repro_skipped_rows_total", "reader") == {"reader_x": 3}
        attempts = _spans(tracer, "attempt")
        assert len(attempts) == 3
        assert not any("instants" in span["args"] for span in attempts)


class TestDisabledPath:
    def test_untraced_run_records_no_tracer(self):
        pipeline = Pipeline(_steps(), ArtifactCache())
        pipeline.run(max_workers=1)
        assert pipeline.last_trace is None

    def test_no_ambient_tracer_during_untraced_run(self):
        seen = []

        def probe(inputs):
            seen.append(current_tracer())
            return 1

        Pipeline([PipelineStep(name="probe", fn=probe)], ArtifactCache()).run(
            max_workers=1
        )
        assert seen == [None]

    def test_module_instant_is_noop_without_tracer(self):
        assert current_tracer() is None
        instant("orphan", "test", detail=1)  # must not raise or buffer anywhere

    def test_trace_true_constructs_tracer(self):
        pipeline = Pipeline(_steps(), ArtifactCache())
        pipeline.run(max_workers=1, trace=True)
        assert isinstance(pipeline.last_trace, Tracer)
        assert _spans(pipeline.last_trace, "step")


class TestReplayedSpans:
    def test_resumed_steps_trace_as_replayed_with_zero_attempts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        journal_dir = tmp_path / "journals"
        with RunJournal.open(journal_dir) as journal:
            Pipeline(_steps(), cache).run(max_workers=1, journal=journal, trace=True)
            run_id = journal.run_id
        state = load_resume_state(journal_dir, run_id)

        tracer = Tracer()
        resumed = Pipeline(_steps(), cache)
        resumed.run(max_workers=1, resume=state, trace=tracer)
        steps = {e["args"]["step"]: e["args"] for e in _spans(tracer, "step")}
        assert {args["outcome"] for args in steps.values()} == {"replayed"}
        assert {args["attempts"] for args in steps.values()} == {0}
        (run,) = _spans(tracer, "run")
        assert run["args"]["resumed_from"] == run_id

    def test_replayed_export_normalizes_identically_across_executors(self, tmp_path):
        exports = {}
        for executor in ("sequential", "thread"):
            root = tmp_path / executor
            cache = ArtifactCache(root / "cache")
            with RunJournal.open(root / "journals") as journal:
                Pipeline(_steps(), cache).run(max_workers=1, journal=journal)
                run_id = journal.run_id
            state = load_resume_state(root / "journals", run_id)
            tracer = Tracer()
            Pipeline(_steps(), cache).run(
                resume=state, trace=tracer, executor=executor, max_workers=2
            )
            exports[executor] = _export_bytes(tracer)
        assert exports["sequential"] == exports["thread"]


class TestCriticalPath:
    DIAMOND = [
        ("a", (), 1.0),
        ("b", ("a",), 2.0),
        ("c", ("a",), 0.5),
        ("d", ("b", "c"), 1.0),
    ]

    def test_diamond_path_and_length(self):
        result = critical_path(self.DIAMOND, wall=4.0, workers=2)
        assert result.path == ("a", "b", "d")
        assert result.length == pytest.approx(4.0)
        assert result.total_work == pytest.approx(4.5)
        assert result.max_speedup == pytest.approx(4.5 / 4.0)

    def test_slack_is_zero_on_path_and_positive_off(self):
        result = critical_path(self.DIAMOND)
        slack = {s.name: s.slack for s in result.steps}
        assert slack["a"] == slack["b"] == slack["d"] == pytest.approx(0.0)
        # Longest path through c is a(1.0) + c(0.5) + d(1.0) = 2.5 of 4.0.
        assert slack["c"] == pytest.approx(1.5)
        on_path = {s.name for s in result.steps if s.on_critical_path}
        assert on_path == {"a", "b", "d"}

    def test_parallel_efficiency_capped_at_one(self):
        result = critical_path(self.DIAMOND, wall=1.0, workers=1)
        assert result.parallel_efficiency == 1.0
        relaxed = critical_path(self.DIAMOND, wall=4.5, workers=2)
        assert 0.0 < relaxed.parallel_efficiency <= 1.0

    def test_render_mentions_path_and_efficiency(self):
        text = critical_path(self.DIAMOND, wall=4.0, workers=2).render()
        assert "critical path: 3 step(s)" in text
        assert "-> b" in text and "slack" in text

    def test_unknown_dependency_raises(self):
        with pytest.raises(TraceError, match="unknown"):
            critical_path([("a", ("ghost",), 1.0)])

    def test_cycle_raises(self):
        with pytest.raises(TraceError, match="cycle"):
            critical_path([("a", ("b",), 1.0), ("b", ("a",), 1.0)])

    def test_empty_and_duplicate_raise(self):
        with pytest.raises(TraceError, match="no steps"):
            critical_path([])
        with pytest.raises(TraceError, match="duplicate"):
            critical_path([("a", (), 1.0), ("a", (), 2.0)])

    def test_analyze_perfetto_round_trip(self, tmp_path):
        tracer = _traced_run("thread")
        result = analyze_perfetto(tracer.to_perfetto())
        assert result.path == ("src", "dbl", "tot")
        assert result.workers == 2
        path = tracer.write_perfetto(tmp_path / "trace.json")
        reloaded = analyze_perfetto(json.loads(path.read_text()))
        assert reloaded.path == result.path
        assert reloaded.length == pytest.approx(result.length)

    def test_analyze_rejects_traces_without_steps(self):
        with pytest.raises(TraceError, match="no step spans"):
            analyze_perfetto({"traceEvents": []})
        with pytest.raises(TraceError, match="traceEvents"):
            analyze_perfetto({})


def _metrics_text(executor, normalize=False):
    """``repro trace --metrics-out``'s projection of one traced run."""
    tracer = Tracer()
    pipeline = Pipeline(_steps(), ArtifactCache())
    pipeline.run(executor=executor, max_workers=2, trace=tracer)
    registry = registry_from_metrics(pipeline.last_metrics, tracer)
    return registry.to_text(normalize=normalize)


class TestPrometheusExport:
    def test_families_and_counts(self):
        text = _metrics_text("sequential")
        assert "# TYPE repro_steps_total counter" in text
        assert 'repro_steps_total{outcome="ok"} 3' in text
        assert "repro_step_wall_seconds_count 3" in text
        assert 'repro_events_total{event="cache.miss"} 3' in text
        assert text.endswith("\n")

    def test_deterministic_label_order(self):
        # Normalized, the projection drops every measured value (bucket
        # bounds, sums), so two runs of one DAG render the same bytes.
        first = _metrics_text("sequential", normalize=True)
        assert _metrics_text("sequential", normalize=True) == first
        assert 'repro_events_total{event="cache.put"} 3' in first


class TestResourceProbe:
    def test_resource_spans_record_deltas(self):
        tracer = Tracer(resources=True)
        Pipeline(_steps(), ArtifactCache()).run(max_workers=1, trace=tracer)
        steps = _spans(tracer, "step")
        assert steps
        for event in steps:
            # rss_kb may be absent if the platform lacks getrusage, but
            # when present it must be a non-negative delta.
            rss = event["args"].get("rss_kb")
            assert rss is None or rss >= 0

    def test_resource_args_normalize_away(self):
        tracer = Tracer(resources=True)
        Pipeline(_steps(), ArtifactCache()).run(max_workers=1, trace=tracer)
        plain = Tracer()
        Pipeline(_steps(), ArtifactCache()).run(max_workers=1, trace=plain)
        assert _export_bytes(tracer) == _export_bytes(plain)
