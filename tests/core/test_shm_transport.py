"""Shared-memory result transport: edge cases and lifecycle guarantees.

The zero-copy tentpole's failure contract: a worker SIGKILLed
mid-transfer must not leak ``/dev/shm`` segments past run end, small
payloads must ride the inline fallback, the transport must carry the
artifact container's bytes unchanged (it never serializes anything
itself), and the sequential/thread executors must never touch the shm
layer at all.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core import shm
from repro.core.pipeline import (
    ArtifactCache,
    Pipeline,
    PipelineStep,
    _artifact_parts,
    _decode_artifact,
    _encode_artifact,
)

mp = multiprocessing.get_context("fork")


def segments(prefix):
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


def encode(value, prefix, threshold=None):
    """What a pool worker does: the value's container parts, transported."""
    with _artifact_parts(value) as parts:
        return shm.encode_result(parts, prefix, threshold)


requires_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestEnvelopes:
    def test_non_numpy_payload_falls_back_inline(self):
        prefix = shm.run_prefix()
        value = {"rows": [1, 2, 3], "label": "survey"}
        envelope = encode(value, prefix)
        assert envelope[0] == "inline"
        blob = shm.decode_result(envelope)
        assert blob == _encode_artifact(value)
        assert _decode_artifact(blob) == value
        assert not segments(prefix)

    def test_small_arrays_stay_inline(self):
        prefix = shm.run_prefix()
        value = np.arange(16, dtype=np.float64)
        envelope = encode(value, prefix)
        assert envelope[0] == "inline"
        np.testing.assert_array_equal(_decode_artifact(shm.decode_result(envelope)), value)
        assert not segments(prefix)

    @requires_shm
    def test_large_arrays_ride_shared_memory(self):
        prefix = shm.run_prefix()
        value = {"telemetry": np.arange(300_000, dtype=np.float64)}
        envelope = encode(value, prefix)
        assert envelope[0] == "shm"
        assert segments(prefix)  # segment alive until the consumer decodes
        blob = shm.decode_result(envelope)
        # The segment carried the container bytes unchanged.
        assert blob == _encode_artifact(value)
        decoded = _decode_artifact(blob)
        np.testing.assert_array_equal(decoded["telemetry"], value["telemetry"])
        # Rehydrated arrays are writable, like an in-band unpickle's.
        decoded["telemetry"][0] = -1.0
        # decode released the segment: consuming the handle transfers and
        # ends ownership.
        assert not segments(prefix)

    def test_threshold_is_tunable(self):
        prefix = shm.run_prefix()
        value = np.arange(64, dtype=np.float64)
        envelope = encode(value, prefix, threshold=8)
        try:
            assert envelope[0] == "shm"
        finally:
            shm.sweep(prefix)

    def test_malformed_envelope_rejected(self):
        with pytest.raises(ValueError, match="envelope"):
            shm.decode_result(("bogus", None))
        with pytest.raises(ValueError, match="envelope"):
            shm.decode_result(42)


def _encode_then_die(prefix, ready):
    # Simulates a worker killed after publishing its segment but before
    # the coordinator consumed the handle: the envelope is lost, the
    # segment survives as an orphan.
    encode({"weights": np.ones(200_000)}, prefix)
    ready.set()
    os.kill(os.getpid(), signal.SIGKILL)


@requires_shm
class TestLeakRecovery:
    def test_sigkill_mid_transfer_leaks_nothing_after_sweep(self):
        prefix = shm.run_prefix()
        ready = mp.Event()
        worker = mp.Process(target=_encode_then_die, args=(prefix, ready))
        worker.start()
        assert ready.wait(timeout=30)
        worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL
        # The orphan exists — and run-end sweep removes exactly it.
        orphans = segments(prefix)
        assert len(orphans) == 1
        assert shm.sweep(prefix) == orphans
        assert not segments(prefix)

    def test_sweep_stale_removes_dead_pid_segments_only(self):
        # A segment whose embedded creator pid is dead is unconsumable.
        probe = mp.Process(target=os._exit, args=(0,))
        probe.start()
        probe.join()
        dead_pid = probe.pid
        live_prefix = shm.run_prefix()  # embeds our own (live) pid
        from multiprocessing import shared_memory

        dead_name = f"repro-shm-{dead_pid}-deadbeef-00000001"
        live_name = f"{live_prefix}-00000001"
        for name in (dead_name, live_name):
            seg = shared_memory.SharedMemory(name=name, create=True, size=64)
            shm._untrack(seg.name)
            seg.close()
        try:
            removed = shm.sweep_stale()
            assert dead_name in removed
            assert live_name not in removed
            assert segments(live_prefix) == [live_name]
        finally:
            shm.sweep(live_prefix)
            shm.sweep(dead_name)


def _big_array_step(context):
    return {"telemetry": np.arange(400_000, dtype=np.float64)}


def _sum_step(context):
    return float(context["gen"]["telemetry"].sum())


def make_pipeline(cache=None):
    return Pipeline(
        [
            PipelineStep(name="gen", fn=_big_array_step, params={}),
            PipelineStep(name="reduce", fn=_sum_step, params={}, depends_on=("gen",)),
        ],
        cache if cache is not None else ArtifactCache(),
    )


class TestExecutorIntegration:
    @pytest.mark.parametrize("executor", ["sequential", "thread"])
    def test_in_process_executors_bypass_shm(self, executor, monkeypatch):
        # If sequential/thread ever routed results through the transport,
        # these poisoned entry points would detonate.
        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("shm transport touched by in-process executor")

        monkeypatch.setattr(shm, "encode_result", boom)
        monkeypatch.setattr(shm, "decode_result", boom)
        results = make_pipeline().run(executor=executor)
        assert results["reduce"] == float(np.arange(400_000, dtype=np.float64).sum())

    @requires_shm
    def test_process_executor_round_trips_and_sweeps(self):
        before = segments("repro-shm-")
        results = make_pipeline().run(executor="process", max_workers=2)
        assert results["reduce"] == float(np.arange(400_000, dtype=np.float64).sum())
        np.testing.assert_array_equal(
            results["gen"]["telemetry"], np.arange(400_000, dtype=np.float64)
        )
        # Run end leaves no new segments behind.
        assert segments("repro-shm-") == before
