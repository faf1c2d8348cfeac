"""Serve-tier SLOs: policy loading, registry judging, the status fold,
the ``--status`` breach/stale exit paths, and the metrics ring."""

import io
import json
import os
import time

from repro.cli import EXIT_PARTIAL, main
from repro.obs.registry import MetricsRegistry
from repro.obs.ring import MetricsRing, read_ring_snapshot
from repro.obs.slo import SLOPolicy, evaluate_slo, load_slo
from repro.serve import ServeConfig, StudyService


def make_service(root, lines, *, ingest=True, **config):
    config.setdefault("months", 1)
    config.setdefault("experiments", ("X1",))
    svc = StudyService(root, ServeConfig(**config))
    if ingest:
        responses, sacct = lines
        svc.ingest("responses", responses, batch="r0")
        svc.ingest("sacct", sacct, batch="s0")
    return svc


def probe(root):
    out = io.StringIO()
    code = main(["serve", "--root", str(root), "--status"], out=out)
    return code, out.getvalue()


class TestLoadSlo:
    def test_valid_policy(self, tmp_path):
        (tmp_path / "slo.json").write_text(
            json.dumps({"p99_latency_seconds": 0.25, "max_behind_rows": 500})
        )
        policy = load_slo(tmp_path)
        assert policy.p99_latency_seconds == 0.25
        assert policy.max_behind_rows == 500
        assert policy.max_shed_rate is None

    def test_absent_file_is_no_policy(self, tmp_path):
        assert load_slo(tmp_path) is None

    def test_malformed_json_degrades_to_no_policy(self, tmp_path):
        (tmp_path / "slo.json").write_text("{oops")
        assert load_slo(tmp_path) is None

    def test_non_dict_and_empty_are_no_policy(self, tmp_path):
        (tmp_path / "slo.json").write_text("[1, 2]")
        assert load_slo(tmp_path) is None
        (tmp_path / "slo.json").write_text(json.dumps({"unknown_key": 1}))
        assert load_slo(tmp_path) is None

    def test_non_numeric_objective_ignored(self, tmp_path):
        (tmp_path / "slo.json").write_text(
            json.dumps({"p99_latency_seconds": "fast", "max_behind_rows": 10})
        )
        policy = load_slo(tmp_path)
        assert policy.p99_latency_seconds is None
        assert policy.max_behind_rows == 10


class TestEvaluateSlo:
    def test_p99_vacuous_without_observations(self):
        verdict = evaluate_slo(SLOPolicy(p99_latency_seconds=0.01), MetricsRegistry())
        assert verdict["ok"]
        assert verdict["checks"]["p99_latency_seconds"]["actual"] is None

    def test_p99_breach(self):
        reg = MetricsRegistry()
        reg.observe("repro_request_seconds", 0.5)
        verdict = evaluate_slo(SLOPolicy(p99_latency_seconds=0.01), reg)
        assert not verdict["ok"]
        assert not verdict["checks"]["p99_latency_seconds"]["ok"]

    def test_behind_rows_breach(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_staleness_rows_behind", 100)
        verdict = evaluate_slo(SLOPolicy(max_behind_rows=50), reg)
        assert not verdict["ok"]
        assert verdict["checks"]["max_behind_rows"]["actual"] == 100

    def test_shed_rate_math(self):
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", 10)
        reg.inc("repro_shed_total", 2, reason="queue_full")
        reg.inc("repro_shed_total", 1, reason="deadline")
        verdict = evaluate_slo(SLOPolicy(max_shed_rate=0.25), reg)
        check = verdict["checks"]["max_shed_rate"]
        assert check["actual"] == 0.3
        assert not verdict["ok"]
        assert evaluate_slo(SLOPolicy(max_shed_rate=0.3), reg)["ok"]

    def test_shed_rate_vacuous_without_requests(self):
        verdict = evaluate_slo(SLOPolicy(max_shed_rate=0.0), MetricsRegistry())
        assert verdict["ok"]
        assert verdict["checks"]["max_shed_rate"]["actual"] == 0.0


class TestStatusFold:
    def test_loose_slo_reports_ok_and_probe_exits_clean(
        self, tmp_path, study_lines
    ):
        (tmp_path / "slo.json").write_text(
            json.dumps({"p99_latency_seconds": 60.0, "max_behind_rows": 1e9})
        )
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc.request("X1")
        svc._write_status()
        svc.close()
        code, text = probe(tmp_path)
        assert code == 0, text
        status = json.loads(text)
        assert status["slo"] == "ok"
        assert status["slo_detail"]["p99_latency_seconds"]["ok"]

    def test_tightened_slo_breaches_and_probe_exits_3(
        self, tmp_path, study_lines
    ):
        """The acceptance path: tighten slo.json until --status exits 3."""
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc.request("X1")
        # Redeclare *after* the service started: the policy is re-read on
        # every cycle, so no restart is needed for it to take effect.
        (tmp_path / "slo.json").write_text(
            json.dumps({"p99_latency_seconds": 1e-12})
        )
        svc._write_status()
        svc.close()
        code, text = probe(tmp_path)
        assert code == EXIT_PARTIAL
        body, trailer = text.rsplit("}\n", 1)
        assert json.loads(body + "}")["slo"] == "breached"
        assert "slo: breached (p99_latency_seconds)" in trailer

    def test_cli_one_shot_persists_post_request_verdict(
        self, tmp_path, study_lines
    ):
        """Pure-CLI breach path: a tight slo.json declared before a
        one-shot --request run must land as "breached" in status.json
        (the final publish sees the request's latency), so the next
        --status probe exits 3 with no library calls in between."""
        responses, sacct = study_lines
        data = tmp_path / "data"
        data.mkdir()
        (data / "responses.jsonl").write_text("\n".join(responses) + "\n")
        (data / "accounting.sacct").write_text("\n".join(sacct) + "\n")
        root = tmp_path / "svc"
        root.mkdir()
        (root / "slo.json").write_text(json.dumps({"p99_latency_seconds": 1e-12}))
        out = io.StringIO()
        code = main(
            [
                "serve", "--root", str(root), "--months", "1",
                "--experiments", "X1",
                "--ingest-responses", str(data / "responses.jsonl"),
                "--ingest-sacct", str(data / "accounting.sacct"),
                "--refresh", "--request", "X1",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        code, text = probe(root)
        assert code == EXIT_PARTIAL
        assert "slo: breached (p99_latency_seconds)" in text

    def test_no_policy_means_slo_null(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc._write_status()
        svc.close()
        code, text = probe(tmp_path)
        assert code == 0
        assert json.loads(text)["slo"] is None


class TestStaleProbe:
    def test_old_status_under_declared_interval_exits_3(
        self, tmp_path, study_lines
    ):
        svc = make_service(tmp_path, study_lines, status_interval=0.1)
        svc.refresh()
        svc._write_status()
        svc.close()
        stamp = time.time() - 100.0
        os.utime(tmp_path / "status.json", (stamp, stamp))
        code, text = probe(tmp_path)
        assert code == EXIT_PARTIAL
        assert "stale probe" in text and "wedged" in text

    def test_fresh_status_is_clean(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines, status_interval=0.1)
        svc.refresh()
        svc._write_status()
        svc.close()
        code, text = probe(tmp_path)
        assert code == 0
        assert "stale probe" not in text

    def test_one_shot_service_declares_no_interval(self, tmp_path, study_lines):
        """Without --loop there is no cadence promise, so an old
        status.json is just an idle service, not a wedged one."""
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        svc._write_status()
        svc.close()
        assert json.loads(
            (tmp_path / "status.json").read_text()
        )["refresh_interval_seconds"] is None
        stamp = time.time() - 100.0
        os.utime(tmp_path / "status.json", (stamp, stamp))
        code, text = probe(tmp_path)
        assert code == 0
        assert "stale probe" not in text


class TestServiceRegistry:
    def test_requests_land_in_histogram_and_ring(self, tmp_path, study_lines):
        svc = make_service(tmp_path, study_lines)
        svc.refresh()
        for _ in range(5):
            svc.request("X1")
        assert svc.registry.histogram_count("repro_request_seconds") == 5
        assert svc.registry.value("repro_requests_total") == 5
        svc._write_status()
        svc.close()
        snap = read_ring_snapshot(tmp_path)
        assert snap is not None
        reg = MetricsRegistry.from_snapshot(snap)
        assert reg.histogram_count("repro_request_seconds") == 5

    def test_deadline_shed_counts(self, tmp_path, study_lines):
        responses, sacct = study_lines
        svc = make_service(tmp_path, (responses[:-4], sacct))
        svc.refresh()
        svc.ingest("responses", responses, batch="r1")  # dirty again
        result = svc.request("X1", deadline=1e-9)
        assert result.reason == "deadline"
        assert svc.registry.value("repro_shed_total", reason="deadline") == 1
        svc.close()


class TestMetricsRing:
    def test_rotation_is_bounded(self, tmp_path):
        ring = MetricsRing(tmp_path / "metrics", rotate_bytes=200, keep=2)
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", 1)
        for _ in range(20):
            assert ring.publish(reg.snapshot(), reg.to_text())
        rotated = ring.rotated_files()
        assert 1 <= len(rotated) <= 2  # pruned down to keep
        assert ring.current.exists() or rotated
        # Every frame header carries its sequence number.
        assert "# frame" in (
            rotated[-1].read_text() if rotated else ring.current.read_text()
        )

    def test_snapshot_is_atomic_latest(self, tmp_path):
        ring = MetricsRing(tmp_path / "metrics")
        reg = MetricsRegistry()
        reg.inc("repro_requests_total", 7)
        ring.publish(reg.snapshot(), reg.to_text())
        snap = read_ring_snapshot(tmp_path)
        assert MetricsRegistry.from_snapshot(snap).value("repro_requests_total") == 7

    def test_read_absent_ring_is_none(self, tmp_path):
        assert read_ring_snapshot(tmp_path) is None
