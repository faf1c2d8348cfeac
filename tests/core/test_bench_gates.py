"""Unit tests for the benchmark trajectory gates (synthetic records, no timing)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.bench import (
    GATES,
    append_run,
    evaluate_gate,
    latest_run,
    load_runs,
)


def row(benchmark, value=None):
    """The :data:`GATES` row on ``benchmark`` (the one reading ``value``)."""
    (gate,) = [
        g for g in GATES
        if g.benchmark == benchmark and (value is None or g.value.endswith(value))
    ]
    return gate


def record(scale="quick", label="run", **benchmarks):
    return {
        "label": label,
        "scale": scale,
        "created": "2026-08-07T00:00:00Z",
        "machine": {"platform": "test"},
        "repeats": 2,
        "benchmarks": benchmarks,
    }


def sim(seconds):
    return {"seconds": seconds, "runs": [seconds]}


def overhead_entry(plain, wrapper):
    tolerant = plain + wrapper
    return {
        "seconds": tolerant,
        "runs": [tolerant],
        "detail": {
            "plain_seconds": plain,
            "wrapper_seconds": wrapper,
            "overhead": wrapper / plain,
        },
    }


class TestCheckRegression:
    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, record(simulate_schedule=sim(1.0)))
        ok, msg = evaluate_gate(
            row("simulate_schedule"), record(simulate_schedule=sim(1.2)), load_runs(path)
        )
        assert ok and "120%" in msg

    def test_regression_fails(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, record(simulate_schedule=sim(1.0)))
        ok, _ = evaluate_gate(
            row("simulate_schedule"), record(simulate_schedule=sim(1.3)), load_runs(path)
        )
        assert not ok

    def test_missing_scale_passes_vacuously(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, record(scale="full", simulate_schedule=sim(1.0)))
        ok, msg = evaluate_gate(
            row("simulate_schedule"),
            record(scale="quick", simulate_schedule=sim(9.0)),
            load_runs(path),
        )
        assert ok and "skipping" in msg

    def test_latest_same_scale_run_is_baseline(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_run(path, record(label="old", simulate_schedule=sim(9.0)))
        append_run(path, record(label="new", simulate_schedule=sim(1.0)))
        assert latest_run(load_runs(path), "quick")["label"] == "new"
        ok, _ = evaluate_gate(
            row("simulate_schedule"), record(simulate_schedule=sim(1.3)), load_runs(path)
        )
        assert not ok  # compared against the 1.0s run, not the 9.0s one

    def test_rejects_non_trajectory_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="trajectory"):
            evaluate_gate(
                row("simulate_schedule"), record(simulate_schedule=sim(1.0)), load_runs(path)
            )


class TestCheckRetryOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("retry_overhead"),
            record(retry_overhead=overhead_entry(plain=0.02, wrapper=0.0001)),
        )
        assert ok and "+0.5%" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("retry_overhead"),
            record(retry_overhead=overhead_entry(plain=0.02, wrapper=0.001)),
        )
        assert not ok and "+5.0%" in msg

    def test_negative_overhead_passes(self):
        ok, _ = evaluate_gate(
            row("retry_overhead"),
            record(retry_overhead=overhead_entry(plain=0.02, wrapper=-0.0001)),
        )
        assert ok

    def test_custom_limit(self):
        entry = overhead_entry(plain=0.02, wrapper=0.001)
        gate = replace(row("retry_overhead"), limit=0.10)
        ok, _ = evaluate_gate(gate, record(retry_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="retry_overhead limit must be non-negative"):
            replace(row("retry_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("retry_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


class TestCheckJournalOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("journal_overhead"),
            record(journal_overhead=overhead_entry(plain=0.02, wrapper=0.0002)),
        )
        assert ok and "+1.0%" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("journal_overhead"),
            record(journal_overhead=overhead_entry(plain=0.02, wrapper=0.001)),
        )
        assert not ok and "+5.0%" in msg and "limit +2%" in msg

    def test_custom_limit(self):
        entry = overhead_entry(plain=0.02, wrapper=0.001)
        gate = replace(row("journal_overhead"), limit=0.10)
        ok, _ = evaluate_gate(gate, record(journal_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="journal_overhead limit must be non-negative"):
            replace(row("journal_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("journal_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


class TestCheckTraceOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("trace_overhead"),
            record(trace_overhead=overhead_entry(plain=0.02, wrapper=0.0004)),
        )
        assert ok and "+2.0%" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("trace_overhead"),
            record(trace_overhead=overhead_entry(plain=0.02, wrapper=0.001)),
        )
        assert not ok and "+5.0%" in msg and "limit +3%" in msg

    def test_negative_overhead_passes(self):
        ok, _ = evaluate_gate(
            row("trace_overhead"),
            record(trace_overhead=overhead_entry(plain=0.02, wrapper=-0.0001)),
        )
        assert ok

    def test_custom_limit(self):
        entry = overhead_entry(plain=0.02, wrapper=0.001)
        gate = replace(row("trace_overhead"), limit=0.10)
        ok, _ = evaluate_gate(gate, record(trace_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="trace_overhead limit must be non-negative"):
            replace(row("trace_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("trace_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


class TestCheckAuditOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("audit_overhead"),
            record(audit_overhead=overhead_entry(plain=0.02, wrapper=0.0006)),
        )
        assert ok and "+3.0%" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("audit_overhead"),
            record(audit_overhead=overhead_entry(plain=0.02, wrapper=0.002)),
        )
        assert not ok and "+10.0%" in msg and "limit +5%" in msg

    def test_negative_overhead_passes(self):
        ok, _ = evaluate_gate(
            row("audit_overhead"),
            record(audit_overhead=overhead_entry(plain=0.02, wrapper=-0.0001)),
        )
        assert ok

    def test_custom_limit(self):
        entry = overhead_entry(plain=0.02, wrapper=0.002)
        gate = replace(row("audit_overhead"), limit=0.20)
        ok, _ = evaluate_gate(gate, record(audit_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="audit_overhead limit must be non-negative"):
            replace(row("audit_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("audit_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


def serve_entry(plain, wrapper, refresh):
    ingest = plain + wrapper
    return {
        "seconds": ingest,
        "runs": [ingest],
        "detail": {
            "plain_seconds": plain,
            "refresh_seconds": refresh,
            "rows": 1000,
            "wrapper_seconds": wrapper,
            "overhead": wrapper / refresh,
        },
    }


class TestCheckServeOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("serve_ingest_overhead"),
            record(serve_ingest_overhead=serve_entry(0.002, 0.004, refresh=0.4)),
        )
        assert ok and "+1.0%" in msg and "of refresh" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("serve_ingest_overhead"),
            record(serve_ingest_overhead=serve_entry(0.002, 0.08, refresh=0.4)),
        )
        assert not ok and "+20.0%" in msg and "limit +10%" in msg

    def test_custom_limit(self):
        entry = serve_entry(0.002, 0.08, refresh=0.4)
        gate = replace(row("serve_ingest_overhead"), limit=0.30)
        ok, _ = evaluate_gate(gate, record(serve_ingest_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="ingest_overhead limit must be non-negative"):
            replace(row("serve_ingest_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(
            row("serve_ingest_overhead"), record(simulate_schedule=sim(1.0))
        )
        assert ok and "skipping" in msg


def metrics_entry(cycle, instrument, request_us=20, publish_us=700):
    return {
        "seconds": cycle,
        "runs": [cycle],
        "detail": {
            "requests": 50,
            "request_us": request_us,
            "publish_us": publish_us,
            "instrument_seconds": instrument,
            "overhead": instrument / cycle,
        },
    }


class TestCheckMetricsOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("metrics_overhead"),
            record(metrics_overhead=metrics_entry(0.1, 0.001)),
        )
        assert ok and "+1.0%" in msg and "us/request" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("metrics_overhead"),
            record(metrics_overhead=metrics_entry(0.1, 0.01)),
        )
        assert not ok and "+10.0%" in msg and "limit +3%" in msg

    def test_custom_limit(self):
        entry = metrics_entry(0.1, 0.01)
        gate = replace(row("metrics_overhead"), limit=0.15)
        ok, _ = evaluate_gate(gate, record(metrics_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="metrics_overhead limit must be non-negative"):
            replace(row("metrics_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("metrics_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


def latency_entry(p50, p95, p99, requests=400, shed_rate=1.0):
    return {
        "seconds": 0.01,
        "runs": [0.01],
        "detail": {
            "threads": 4,
            "requests": requests,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "shed_rate": shed_rate,
        },
    }


class TestCheckServeLatency:
    def test_fast_p99_passes(self):
        ok, msg = evaluate_gate(
            row("serve_latency"),
            record(serve_latency=latency_entry(0.0001, 0.0005, 0.002)),
        )
        assert ok and "p99 2.00ms" in msg and "limit 500ms" in msg

    def test_slow_p99_fails(self):
        ok, msg = evaluate_gate(
            row("serve_latency"),
            record(serve_latency=latency_entry(0.01, 0.2, 0.9)),
        )
        assert not ok and "p99 900.00ms" in msg

    def test_custom_limit(self):
        entry = latency_entry(0.01, 0.2, 0.9)
        gate = replace(row("serve_latency"), limit=1.0)
        ok, _ = evaluate_gate(gate, record(serve_latency=entry))
        assert ok
        with pytest.raises(ValueError, match="serve_latency limit must be positive"):
            replace(row("serve_latency"), limit=0.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("serve_latency"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg

    def test_no_requests_passes_vacuously(self):
        ok, msg = evaluate_gate(
            row("serve_latency"),
            record(serve_latency=latency_entry(None, None, None)),
        )
        assert ok and "no requests" in msg


def sweep_record(points, fit, label="run"):
    return record(
        scale="full-sweep",
        label=label,
        scale_sweep={
            "seconds": sum(p["total_seconds"] for p in points),
            "runs": [p["total_seconds"] for p in points],
            "detail": {
                "base_months": 3,
                "base_jobs_per_day": 400.0,
                "factors": [p["scale_factor"] for p in points],
                "points": points,
                "fit": fit,
            },
        },
    )


def sweep_point(factor, total, rss):
    return {
        "scale_factor": factor,
        "jobs": 1000 * factor,
        "simulate_seconds": total * 0.9,
        "analysis_seconds": total * 0.1,
        "total_seconds": total,
        "max_rss_kb": rss,
    }


class TestFitScalingExponent:
    def test_linear_fits_one(self):
        from repro.core.bench import fit_scaling_exponent

        assert fit_scaling_exponent([1, 10, 100], [0.1, 1.0, 10.0]) == pytest.approx(1.0)

    def test_quadratic_fits_two(self):
        from repro.core.bench import fit_scaling_exponent

        assert fit_scaling_exponent([1, 10, 100], [0.1, 10.0, 1000.0]) == pytest.approx(2.0)

    def test_needs_two_points(self):
        from repro.core.bench import fit_scaling_exponent

        with pytest.raises(ValueError, match=">= 2"):
            fit_scaling_exponent([1], [0.1])

    def test_zero_wall_clamped_not_crashing(self):
        from repro.core.bench import fit_scaling_exponent

        exponent = fit_scaling_exponent([1, 10], [0.0, 1.0])
        assert exponent > 0


class TestCheckScaleSweep:
    def test_sublinear_sweep_passes(self):
        points = [sweep_point(1, 0.2, 100_000), sweep_point(10, 2.2, 300_000)]
        rec = sweep_record(points, {"total_exponent": 1.04, "rss_exponent": 0.48})
        ok, msg = evaluate_gate(row("scale_sweep", "total_exponent"), rec)
        assert ok and "1.040" in msg and "wall ratio" in msg
        assert evaluate_gate(row("scale_sweep", "rss_exponent"), rec)[0]

    def test_superlinear_wall_fails(self):
        points = [sweep_point(1, 0.2, 100_000), sweep_point(10, 6.0, 300_000)]
        rec = sweep_record(points, {"total_exponent": 1.48, "rss_exponent": 0.4})
        ok, msg = evaluate_gate(row("scale_sweep", "total_exponent"), rec)
        assert not ok and "1.480" in msg

    def test_rss_blowup_fails_even_with_linear_wall(self):
        points = [sweep_point(1, 0.2, 100_000), sweep_point(10, 2.0, 3_000_000)]
        rec = sweep_record(points, {"total_exponent": 1.0, "rss_exponent": 1.48})
        ok, _ = evaluate_gate(row("scale_sweep", "rss_exponent"), rec)
        assert not ok
        assert evaluate_gate(row("scale_sweep", "total_exponent"), rec)[0]

    def test_custom_limits(self):
        rec = sweep_record(
            [sweep_point(1, 0.2, 100_000), sweep_point(10, 6.0, 300_000)],
            {"total_exponent": 1.48, "rss_exponent": 0.4},
        )
        ok, _ = evaluate_gate(replace(row("scale_sweep", "total_exponent"), limit=1.6), rec)
        assert ok
        for limit in (-1.0, 0.0):
            with pytest.raises(ValueError, match="positive"):
                replace(row("scale_sweep", "total_exponent"), limit=limit)
            with pytest.raises(ValueError, match="positive"):
                replace(row("scale_sweep", "rss_exponent"), limit=limit)

    def test_missing_sweep_passes_vacuously(self):
        for value in ("total_exponent", "rss_exponent"):
            ok, msg = evaluate_gate(
                row("scale_sweep", value), record(simulate_schedule=sim(1.0))
            )
            assert ok and "skipping" in msg

    def test_missing_rss_gate_is_skipped(self):
        points = [sweep_point(1, 0.2, 0), sweep_point(10, 2.0, 0)]
        for p in points:
            del p["max_rss_kb"]
        rec = sweep_record(points, {"total_exponent": 1.0})
        ok, msg = evaluate_gate(row("scale_sweep", "total_exponent"), rec)
        assert ok and "rss" not in msg
        ok, msg = evaluate_gate(row("scale_sweep", "rss_exponent"), rec)
        assert ok and "skipping" in msg


def dist_entry(seq, fleet, steps=5):
    return {
        "seconds": fleet,
        "runs": [fleet],
        "detail": {
            "seq_seconds": seq,
            "steps": steps,
            "workers": 2,
            "overhead_per_step": max(0.0, fleet - seq) / steps,
        },
    }


class TestCheckDistOverhead:
    def test_small_overhead_passes(self):
        ok, msg = evaluate_gate(
            row("dist_overhead"), record(dist_overhead=dist_entry(0.003, 0.057))
        )
        assert ok and "10.80ms" in msg and "limit 250ms" in msg

    def test_large_overhead_fails(self):
        ok, msg = evaluate_gate(
            row("dist_overhead"), record(dist_overhead=dist_entry(0.003, 2.003))
        )
        assert not ok and "400.00ms" in msg

    def test_custom_limit(self):
        entry = dist_entry(0.003, 2.003)
        gate = replace(row("dist_overhead"), limit=0.5)
        ok, _ = evaluate_gate(gate, record(dist_overhead=entry))
        assert ok
        with pytest.raises(ValueError, match="dist_overhead limit must be positive"):
            replace(row("dist_overhead"), limit=-1.0)

    def test_missing_benchmark_passes_vacuously(self):
        ok, msg = evaluate_gate(row("dist_overhead"), record(simulate_schedule=sim(1.0)))
        assert ok and "skipping" in msg


class TestLoadRuns:
    @pytest.mark.parametrize(
        "text", ['{"runs": "garbage"}', '{"runs": [1, 2]}', "{not json", "[1, 2, 3]"]
    )
    def test_malformed_file_names_itself(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.json"):
            load_runs(path)


#: Each limit as the gate table states it: (kind, limit) per row.
TABLE_LIMITS = {
    ("simulate_schedule", "seconds"): ("baseline", 0.25),
    ("retry_overhead", "detail.overhead"): ("ratio", 0.02),
    ("journal_overhead", "detail.overhead"): ("ratio", 0.02),
    ("trace_overhead", "detail.overhead"): ("ratio", 0.03),
    ("audit_overhead", "detail.overhead"): ("ratio", 0.05),
    ("dist_overhead", "detail.overhead_per_step"): ("seconds", 0.25),
    ("serve_ingest_overhead", "detail.overhead"): ("ratio", 0.10),
    ("metrics_overhead", "detail.overhead"): ("ratio", 0.03),
    ("serve_latency", "detail.p99"): ("seconds", 0.5),
    ("scale_sweep", "detail.fit.total_exponent"): ("exponent", 1.35),
    ("scale_sweep", "detail.fit.rss_exponent"): ("exponent", 1.2),
}

#: Verdicts on the first 12 committed BENCH_2.json records, pinned from
#: the per-benchmark gate functions the table replaced: record index ->
#: {benchmark: passed}. Every benchmark not listed passes vacuously.
PINNED_VERDICTS = {
    0: {"simulate_schedule": False},
    1: {"simulate_schedule": True},
    2: {"simulate_schedule": True},
    3: dict.fromkeys(["simulate_schedule", "retry_overhead"], True),
    4: dict.fromkeys(["simulate_schedule", "retry_overhead", "journal_overhead"], True),
    5: {"simulate_schedule": False, "retry_overhead": True,
        "journal_overhead": True, "trace_overhead": True},
    6: dict.fromkeys(["simulate_schedule", "retry_overhead", "journal_overhead",
                      "trace_overhead", "audit_overhead"], True),
    7: {"simulate_schedule": True, "retry_overhead": True, "journal_overhead": True,
        "trace_overhead": True, "audit_overhead": False},
    8: {"scale_sweep": True},
    9: dict.fromkeys(["simulate_schedule", "retry_overhead", "journal_overhead",
                      "trace_overhead", "audit_overhead", "dist_overhead"], True),
    10: {"simulate_schedule": False, "retry_overhead": True, "journal_overhead": True,
         "trace_overhead": True, "audit_overhead": True, "dist_overhead": True,
         "serve_ingest_overhead": True},
    11: dict.fromkeys([g.benchmark for g in GATES if g.benchmark != "scale_sweep"], True),
}


class TestGateTable:
    def test_rows_state_the_limits(self):
        assert {(g.benchmark, g.value): (g.kind, g.limit) for g in GATES} == TABLE_LIMITS
        assert len(GATES) == len(TABLE_LIMITS)
        assert all(g.reason for g in GATES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            replace(row("retry_overhead"), kind="percent")

    def test_pinned_verdicts_on_committed_trajectory(self):
        runs = load_runs(Path(__file__).resolve().parents[2] / "BENCH_2.json")[:12]
        benchmarks = list(dict.fromkeys(g.benchmark for g in GATES))
        tally = {"ok": 0, "fail": 0, "vacuous": 0}
        messages = []
        for index, rec in enumerate(runs):
            for name in benchmarks:
                results = [
                    evaluate_gate(g, rec, runs) for g in GATES if g.benchmark == name
                ]
                vacuous = all("skipping" in msg for _, msg in results)
                passed = all(ok for ok, _ in results)
                expected = PINNED_VERDICTS[index].get(name)
                assert (None if vacuous else passed) == expected, (index, name, results)
                tally["vacuous" if vacuous else "ok" if passed else "fail"] += 1
                messages += [msg for _, msg in results if not vacuous]
        assert tally == {"ok": 41, "fail": 4, "vacuous": 75}
        text = "\n".join(messages)
        for fragment in ("202% of baseline", "128% of baseline", "131% of baseline",
                         "+10.5% overhead", "total_exponent 1.244", "rss_exponent 0.662"):
            assert fragment in text


class TestRecordScaleFactor:
    def test_explicit_field_wins(self):
        from repro.core.bench import record_scale_factor

        rec = record(simulate_schedule=sim(1.0))
        rec["scale_factor"] = 2.5
        assert record_scale_factor(rec) == 2.5

    def test_legacy_records_resolve_via_scale_name(self):
        from repro.core.bench import record_scale_factor

        assert record_scale_factor(record(scale="full")) == 1.0
        assert record_scale_factor(record(scale="quick")) == 0.1

    def test_unknown_scale_defaults_to_one(self):
        from repro.core.bench import record_scale_factor

        assert record_scale_factor(record(scale="mystery")) == 1.0


class TestTiledJobs:
    def test_tiling_multiplies_volume_with_unique_ids(self):
        from repro.cluster import WorkloadModel, WorkloadParams
        from repro.core.bench import _tiled_jobs

        import numpy as np

        params = WorkloadParams(months=1, jobs_per_day=30.0)
        base = WorkloadModel(params).generate(np.random.default_rng(0))
        tiled = _tiled_jobs(base, 3, params.window_seconds)
        assert len(tiled) == 3 * len(base)
        ids = [j.job_id for j in tiled]
        assert len(set(ids)) == len(ids)
        # Tile 2 replays tile 1's dynamics exactly one window later.
        offset = tiled[len(base)].submit - tiled[0].submit
        assert offset == pytest.approx(params.window_seconds)
        assert tiled[len(base)].runtime == tiled[0].runtime

    def test_single_tile_is_identity(self):
        from repro.cluster import WorkloadModel, WorkloadParams
        from repro.core.bench import _tiled_jobs

        import numpy as np

        params = WorkloadParams(months=1, jobs_per_day=30.0)
        base = WorkloadModel(params).generate(np.random.default_rng(0))
        assert _tiled_jobs(base, 1, params.window_seconds) == base
