"""The mergeable metrics registry + the shared Prometheus writer/validator.

The registry's contract is the tentpole's foundation: snapshots are pure
data, merge is associative and commutative, and the *normalized* text
rendering is byte-deterministic across executor modes — so merging
per-worker snapshots in any order must yield byte-identical renderings.
"""

import math
import random

import pytest

from repro.core.metrics import ExecutorMetrics, StepMetric
from repro.core.trace import Tracer
from repro.obs.promfmt import PromWriter, escape_label, validate_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    count_instants,
    merge_snapshots,
    registry_from_metrics,
)


def _one_step_run():
    """A traced one-step run's record: its metrics and its tracer."""
    metrics = ExecutorMetrics(
        mode="sequential",
        max_workers=1,
        steps=[StepMetric(name="gen", key="k", cached=False, wall_seconds=0.01)],
    )
    tracer = Tracer()
    tracer.instant("cache.miss", "cache", step="gen")
    return metrics, tracer


class TestCounters:
    def test_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("repro_steps_total", outcome="ok")
        reg.inc("repro_steps_total", 2, outcome="ok")
        reg.inc("repro_steps_total", outcome="failed")
        assert reg.value("repro_steps_total", outcome="ok") == 3
        assert reg.value("repro_steps_total", outcome="failed") == 1
        assert reg.value("repro_steps_total", outcome="never") == 0

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.inc("repro_steps_total", -1)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_queue_depth", 5)
        reg.set_gauge("repro_queue_depth", 2)
        assert reg.value("repro_queue_depth") == 2


class TestHistograms:
    def test_percentiles_within_bucket_tolerance(self):
        reg = MetricsRegistry()
        values = [0.001 * i for i in range(1, 101)]  # 1ms .. 100ms
        for v in values:
            reg.observe("repro_request_seconds", v)
        # Log buckets at base 2**0.125 are ~9% wide; the rank-selected
        # upper bound must bracket the exact percentile from above.
        for q in (50, 95, 99):
            exact = values[math.ceil(q / 100 * len(values)) - 1]
            got = reg.percentile("repro_request_seconds", q)
            assert exact <= got <= exact * 2 ** 0.125 * 1.001

    def test_percentile_clamped_to_observed_max(self):
        reg = MetricsRegistry()
        reg.observe("repro_request_seconds", 0.5)
        assert reg.percentile("repro_request_seconds", 99) == 0.5

    def test_percentile_none_when_empty(self):
        reg = MetricsRegistry()
        assert reg.percentile("repro_request_seconds", 99) is None
        assert reg.percentiles("repro_request_seconds") == {
            "p50": None,
            "p95": None,
            "p99": None,
        }

    def test_count_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("repro_step_wall_seconds", 0.01)
        b.observe("repro_step_wall_seconds", 5.0)
        b.observe("repro_step_wall_seconds", 0.02)
        a.merge(b)
        assert a.histogram_count("repro_step_wall_seconds") == 3
        assert a.percentile("repro_step_wall_seconds", 99) == 5.0


def _worker_snapshots(n=6):
    """Per-worker snapshots shaped like real spine segments."""
    snapshots = []
    for i in range(n):
        reg = MetricsRegistry()
        for j in range(i + 1):
            reg.inc("repro_steps_total", outcome="ok" if j % 2 else "retried")
            reg.observe("repro_step_wall_seconds", 0.001 * (i + 1) * (j + 1))
        reg.set_gauge("repro_worker_up", 1000 + i, worker=f"w{i}")
        reg.set_gauge("repro_worker_tasks", i + 1, worker=f"w{i}")
        snapshots.append(reg.snapshot())
    return snapshots


class TestMergeDeterminism:
    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_steps_total", 2, outcome="ok")
        b.inc("repro_steps_total", 3, outcome="ok")
        a.set_gauge("repro_queue_depth", 1)
        b.set_gauge("repro_queue_depth", 4)
        a.merge(b.snapshot())
        assert a.value("repro_steps_total", outcome="ok") == 5  # counters add
        assert a.value("repro_queue_depth") == 4  # gauges take the max

    def test_any_merge_order_yields_byte_identical_renderings(self):
        """The property the coordinator relies on: per-worker snapshots
        merged in any order produce byte-identical text, raw and
        normalized both."""
        snapshots = _worker_snapshots()
        reference = MetricsRegistry.from_snapshot(merge_snapshots(snapshots))
        ref_raw = reference.to_text()
        ref_norm = reference.to_text(normalize=True)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(snapshots)
            rng.shuffle(shuffled)
            merged = MetricsRegistry.from_snapshot(merge_snapshots(shuffled))
            assert merged.to_text() == ref_raw
            assert merged.to_text(normalize=True) == ref_norm

    def test_merge_is_associative(self):
        s = _worker_snapshots(3)
        left = MetricsRegistry.from_snapshot(s[0])
        left.merge(s[1])
        left.merge(s[2])
        inner = MetricsRegistry.from_snapshot(s[1])
        inner.merge(s[2])
        right = MetricsRegistry.from_snapshot(s[0])
        right.merge(inner)
        assert left.to_text() == right.to_text()

    def test_snapshot_round_trips(self):
        reg = MetricsRegistry.from_snapshot(merge_snapshots(_worker_snapshots()))
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.to_text() == reg.to_text()
        assert clone.snapshot() == reg.snapshot()


class TestNormalizedRendering:
    def test_gauges_dropped_histograms_count_only(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_worker_up", 4242, worker="w0")
        reg.observe("repro_step_wall_seconds", 0.123)
        reg.inc("repro_steps_total", outcome="ok")
        norm = reg.to_text(normalize=True)
        assert "repro_worker_up" not in norm  # per-run identity dropped
        assert "4242" not in norm
        assert "repro_step_wall_seconds_count 1" in norm
        assert "repro_step_wall_seconds_bucket" not in norm  # timing dropped
        assert 'repro_steps_total{outcome="ok"} 1' in norm

    def test_raw_rendering_keeps_everything(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_worker_up", 4242, worker="w0")
        reg.observe("repro_step_wall_seconds", 0.123)
        raw = reg.to_text()
        assert 'repro_worker_up{worker="w0"} 4242' in raw
        assert 'le="+Inf"' in raw
        assert "repro_step_wall_seconds_sum" in raw


class TestRegistryFromMetrics:
    def test_builds_cross_mode_families(self):
        from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep

        def gen(inputs):
            return [1, 2, 3]

        def double(inputs):
            return [x * 2 for x in inputs["gen"]]

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            pipe = Pipeline(
                [
                    PipelineStep("gen", gen),
                    PipelineStep("double", double, depends_on=("gen",)),
                ],
                ArtifactCache(tmp),
            )
            pipe.run()
            reg = registry_from_metrics(pipe.last_metrics)
        assert reg.value("repro_steps_total", outcome="ok") == 2
        assert reg.histogram_count("repro_step_wall_seconds") == 2

    def test_tracer_instants_fold_into_event_and_skip_counters(self):
        metrics, tracer = _one_step_run()
        untraced = registry_from_metrics(metrics).to_text()
        assert "repro_events_total" not in untraced
        tracer.instant("ingest.skipped_rows", "ingest", reader="read_x", count=2)
        tracer.instant("ingest.skipped_rows", "ingest", reader="read_x", count=3)
        reg = MetricsRegistry()
        count_instants(reg, tracer)
        assert reg.counts("repro_events_total", "event") == {
            "cache.miss": 1,
            "ingest.skipped_rows": 2,
        }
        # Rows, not reader invocations.
        assert reg.counts("repro_skipped_rows_total", "reader") == {"read_x": 5}


class TestPrometheusFormat:
    def test_registry_text_passes_shared_validator(self):
        reg = MetricsRegistry.from_snapshot(merge_snapshots(_worker_snapshots()))
        assert validate_prometheus(reg.to_text()) == []
        assert validate_prometheus(reg.to_text(normalize=True)) == []

    def test_tracer_exposition_passes_shared_validator(self):
        reg = registry_from_metrics(*_one_step_run())
        assert validate_prometheus(reg.to_text()) == []
        assert validate_prometheus(reg.to_text(normalize=True)) == []

    def test_help_and_type_lines_emitted(self):
        reg = MetricsRegistry()
        reg.inc("repro_steps_total", outcome="ok")
        text = reg.to_text()
        lines = text.splitlines()
        assert "# HELP repro_steps_total Steps executed, by outcome." in lines
        assert "# TYPE repro_steps_total counter" in lines
        assert lines.index(
            "# HELP repro_steps_total Steps executed, by outcome."
        ) < lines.index("# TYPE repro_steps_total counter")

    def test_tracer_emits_help_lines(self):
        text = registry_from_metrics(*_one_step_run()).to_text()
        assert "# HELP repro_events_total Instant events by family." in text
        assert 'repro_events_total{event="cache.miss"} 1' in text
        assert text.endswith("\n")

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("repro_events_total", event='quo"te\\slash\nnewline')
        text = reg.to_text()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\nnewline" not in text  # the newline never lands literally
        assert validate_prometheus(text) == []

    def test_escape_label(self):
        assert escape_label('a"b') == 'a\\"b'
        assert escape_label("a\\b") == "a\\\\b"
        assert escape_label("a\nb") == "a\\nb"

    def test_validator_flags_malformed_text(self):
        assert validate_prometheus("repro_x 1") != []  # missing newline
        problems = validate_prometheus(
            "# TYPE repro_x counter\n# HELP repro_x late\nrepro_x 1\n"
        )
        assert any("HELP" in p for p in problems)
        assert validate_prometheus("# TYPE repro_x zigzag\nrepro_x 1\n") != []
        # Both of our writers always declare TYPE; bare samples are flagged.
        assert any("no TYPE" in p for p in validate_prometheus("repro_x 1\n"))
        assert any(
            "negative counter" in p
            for p in validate_prometheus(
                "# HELP repro_x x\n# TYPE repro_x counter\nrepro_x -3\n"
            )
        )

    def test_writer_validator_round_trip(self):
        w = PromWriter()
        w.family("repro_demo_total", "counter", "A demo.")
        w.sample("repro_demo_total", {"step": 'we"ird\\'}, "3")
        assert validate_prometheus(w.render()) == []
