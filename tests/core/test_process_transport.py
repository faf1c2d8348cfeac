"""The process executor's one-encoding artifact transport.

On ``executor="process"`` a step value is encoded once, by the worker
that computed it, into the cache's ``RPA5`` artifact container. The
coordinator publishes those bytes verbatim, decodes them once for the
returned results, and hands the same bytes to every dependent it
submits; a cache hit or resume replay hands on the bytes the cache
already read. These tests count codec calls made in the coordinator's
own pid (forked pool workers inherit the counters but count in their own
copies) and check that the stored bytes match the in-process executors'.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.audit.digests import blob_digest
from repro.core import pipeline as pipeline_mod
from repro.core import shm
from repro.core.journal import RunJournal, load_resume_state
from repro.core.pipeline import ArtifactCache, Pipeline, PipelineStep
from repro.report.experiments import report_pipeline
from tests.core.test_shm_transport import make_pipeline, requires_shm, segments


def _gen(context, n):
    return {"values": np.arange(n, dtype=np.float64), "label": "gen"}


def _scale(context, factor):
    return context["gen"]["values"] * factor


def _total(context):
    return float(context["gen"]["values"].sum() + context["scale"].sum())


def chain(cache, factor=2.0, **kwargs):
    return Pipeline(
        [
            PipelineStep(name="gen", fn=_gen, params={"n": 1000}),
            PipelineStep(
                name="scale", fn=_scale, params={"factor": factor}, depends_on=("gen",)
            ),
            PipelineStep(name="total", fn=_total, depends_on=("gen", "scale")),
        ],
        cache,
        **kwargs,
    )


def expected_total(factor):
    values = np.arange(1000, dtype=np.float64)
    return float(values.sum() + (values * factor).sum())


@pytest.fixture
def calls(monkeypatch):
    """Codec calls and cache reads made in this (the coordinator's) pid."""
    me = os.getpid()
    counts = {"encode": 0, "decode": 0, "read": 0}

    def counting(kind, fn, only_hits=False):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if os.getpid() == me and not (only_hits and out is None):
                counts[kind] += 1
            return out

        return wrapper

    for name in ("_artifact_parts", "_encode_artifact", "_write_artifact"):
        monkeypatch.setattr(pipeline_mod, name, counting("encode", getattr(pipeline_mod, name)))
    monkeypatch.setattr(
        pipeline_mod, "_decode_artifact", counting("decode", pipeline_mod._decode_artifact)
    )
    monkeypatch.setattr(
        ArtifactCache, "_load", counting("read", ArtifactCache._load, only_hits=True)
    )
    return counts


class TestOneEncoding:
    def test_cold_run_coordinator_encodes_nothing(self, tmp_path, calls):
        cache = ArtifactCache(tmp_path)
        results = chain(cache).run(executor="process", max_workers=2)
        assert results["total"] == expected_total(2.0)
        np.testing.assert_array_equal(results["scale"], np.arange(1000.0) * 2.0)
        # Workers encoded every value; the coordinator published those
        # bytes and decoded each value exactly once for the results.
        assert calls == {"encode": 0, "decode": 3, "read": 0}
        assert sorted(p.name for p in tmp_path.glob("*.pkl")) == sorted(
            f"{key}.pkl" for key in chain(cache).keys().values()
        )

    def test_warm_run_reads_each_entry_once(self, tmp_path, calls):
        chain(ArtifactCache(tmp_path)).run(executor="sequential")
        calls.update(encode=0, decode=0, read=0)
        pipeline = chain(ArtifactCache(tmp_path))
        results = pipeline.run(executor="process", max_workers=2)
        assert results["total"] == expected_total(2.0)
        assert pipeline.last_report.counts() == {"cached": 3}
        assert calls == {"encode": 0, "decode": 3, "read": 3}

    def test_hit_feeds_computed_dependents_its_read_bytes(self, tmp_path, calls):
        chain(ArtifactCache(tmp_path)).run(executor="process", max_workers=2)
        calls.update(encode=0, decode=0, read=0)
        # A new factor re-keys scale and total; gen hits and its bytes,
        # read once by the cache, are what both dependents receive.
        pipeline = chain(ArtifactCache(tmp_path), factor=3.0)
        results = pipeline.run(executor="process", max_workers=2)
        assert results["total"] == expected_total(3.0)
        assert pipeline.last_report.counts() == {"cached": 1, "ok": 2}
        assert calls == {"encode": 0, "decode": 3, "read": 1}

    def test_replay_feeds_computed_dependents_its_read_bytes(self, tmp_path, calls):
        cache = ArtifactCache(tmp_path / "cache")
        pipeline = chain(cache)
        with RunJournal.open(tmp_path / "journals") as journal:
            pipeline.run(executor="process", max_workers=2, journal=journal)
            run_id = journal.run_id
        (tmp_path / "cache" / f"{pipeline.keys()['total']}.pkl").unlink()
        calls.update(encode=0, decode=0, read=0)
        state = load_resume_state(tmp_path / "journals", run_id)
        results, report = chain(ArtifactCache(tmp_path / "cache")).run_with_report(
            executor="process", max_workers=2, resume=state
        )
        assert results["total"] == expected_total(2.0)
        assert report.replayed == ("gen", "scale")
        assert calls == {"encode": 0, "decode": 3, "read": 2}

    def test_killable_worker_returns_container_bytes(self, tmp_path, calls):
        # A step timeout routes each attempt to a dedicated killable
        # process; it speaks the same container bytes as the pool.
        cache = ArtifactCache(tmp_path)
        results = chain(cache, default_timeout=120.0).run(executor="process", max_workers=2)
        assert results["total"] == expected_total(2.0)
        assert calls == {"encode": 0, "decode": 3, "read": 0}


@requires_shm
class TestSharedMemory:
    def test_large_artifacts_still_ride_a_segment(self, monkeypatch):
        kinds = []
        decode = shm.decode_result

        def recording(envelope):
            kinds.append(envelope[0])
            return decode(envelope)

        monkeypatch.setattr(shm, "decode_result", recording)
        before = segments("repro-shm-")
        results = make_pipeline().run(executor="process", max_workers=2)
        np.testing.assert_array_equal(
            results["gen"]["telemetry"], np.arange(400_000, dtype=np.float64)
        )
        # The 3.2 MB array crossed through shared memory, not inline.
        assert "shm" in kinds
        assert segments("repro-shm-") == before

    def test_segment_is_written_part_by_part(self):
        value = {"telemetry": np.arange(3_000_000, dtype=np.float64)}  # 24 MB
        prefix = shm.run_prefix()
        with pipeline_mod._artifact_parts(value) as parts:
            tracemalloc.start()
            try:
                envelope = shm.encode_result(parts, prefix)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        try:
            assert envelope[0] == "shm"
            # Joining the parts first would allocate the whole payload.
            assert peak < value["telemetry"].nbytes * 0.05, peak
            blob = shm.decode_result(envelope)
        finally:
            shm.sweep(prefix)
        assert blob == pipeline_mod._encode_artifact(value)


SIZE = {"seed": 5, "months": 3, "jobs_per_day": 50.0, "n_baseline": 60, "n_current": 80}


def test_cache_bytes_agree_across_executors(tmp_path):
    """Cold, then ``n_current + 1``: 58 entries per executor, byte-equal.

    ``study`` is compared by structural digest: its pickle memo depends on
    whether survey and schedule reached it as separately decoded objects.
    """
    stores = {}
    for executor in ("sequential", "thread", "process"):
        root = tmp_path / executor
        for n_current in (SIZE["n_current"], SIZE["n_current"] + 1):
            pipeline = report_pipeline(
                ArtifactCache(root), **dict(SIZE, n_current=n_current)
            )
            pipeline.run(executor=executor, max_workers=2)
            assert pipeline.last_report.ok
        stores[executor] = {p.name: p.read_bytes() for p in root.glob("*.pkl")}
    study_keys = {
        f"{report_pipeline(None, **dict(SIZE, n_current=n)).keys()['study']}.pkl"
        for n in (SIZE["n_current"], SIZE["n_current"] + 1)
    }
    reference = stores["sequential"]
    assert len(reference) == 58
    for executor in ("thread", "process"):
        entries = stores[executor]
        assert entries.keys() == reference.keys(), executor
        for name, blob in entries.items():
            if name in study_keys:
                assert blob_digest(blob) == blob_digest(reference[name]), executor
            else:
                assert blob == reference[name], (executor, name)
