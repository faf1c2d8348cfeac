"""``SubmittedJob`` pickles as a constructor call.

The workload artifact is a list of thousands of jobs, and on the process
executor it is decoded by every step that reads it. ``__reduce__`` makes
each job a constructor call instead of the dataclass state protocol, so
a load re-runs ``__post_init__``; payloads written in the old state
format (as held by existing caches, under unchanged keys) still load.
"""

import pickle

import pytest

from repro.cluster.workload import SubmittedJob
from repro.core.pipeline import ArtifactCache, _encode_artifact

JOBS = [
    SubmittedJob(41, "physics-u3", "physics", "cpu", 3600.5, 16, 0, 5400.0, 7200.0),
    SubmittedJob(42, "neuro-u1", "neuroscience", "gpu", 7201.25, 8, 2, 900.0, 1800.0),
]

# ``pickle.dumps(JOBS, protocol=5)`` as written before ``__reduce__``
# existed: ``NEWOBJ`` plus a ``BUILD`` of the dataclass field-list state.
STATE_FORMAT_PAYLOAD = (
    b"\x80\x05\x95\xc0\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x16repro.cl"
    b"uster.workload\x94\x8c\x0cSubmitt"
    b"edJob\x94\x93\x94)\x81\x94]\x94(K)\x8c\nphysic"
    b"s-u3\x94\x8c\x07physics\x94\x8c\x03cpu\x94G@\xac"
    b"!\x00\x00\x00\x00\x00K\x10K\x00G@\xb5\x18\x00\x00\x00\x00\x00G@\xbc \x00"
    b"\x00\x00\x00\x00ebh\x03)\x81\x94]\x94(K*\x8c\x08neuro-"
    b"u1\x94\x8c\x0cneuroscience\x94\x8c\x03gpu\x94"
    b"G@\xbc!@\x00\x00\x00\x00K\x08K\x02G@\x8c \x00\x00\x00\x00\x00G@"
    b"\x9c \x00\x00\x00\x00\x00ebe."
)


def with_zero_cores(payload: bytes) -> bytes:
    """``payload`` with the first job's ``cores`` (16) patched to 0."""
    pattern = b"K\x10"  # BININT1 16
    assert payload.count(pattern) == 1
    return payload.replace(pattern, b"K\x00")


@pytest.mark.parametrize("protocol", [2, 4, 5])
def test_round_trip_gives_equal_jobs(protocol):
    loaded = pickle.loads(pickle.dumps(JOBS, protocol=protocol))
    assert loaded == JOBS
    assert [repr(job) for job in loaded] == [repr(job) for job in JOBS]


def test_pickles_as_a_constructor_call():
    assert JOBS[0].__reduce__() == (
        SubmittedJob, (41, "physics-u3", "physics", "cpu", 3600.5, 16, 0, 5400.0, 7200.0)
    )


def test_state_format_payload_still_loads():
    assert pickle.loads(STATE_FORMAT_PAYLOAD) == JOBS


def test_tampered_payload_fails_validation_on_load():
    payload = with_zero_cores(pickle.dumps(JOBS, protocol=5))
    with pytest.raises(ValueError, match="job 41: cores must be >= 1"):
        pickle.loads(payload)


def test_cache_evicts_a_tampered_workload_entry(tmp_path):
    blob = _encode_artifact({"jobs": JOBS, "window_seconds": 86400.0})
    (tmp_path / "workload.pkl").write_bytes(with_zero_cores(blob))
    cache = ArtifactCache(tmp_path, locking=False)
    assert cache.peek("workload") is None
    assert not (tmp_path / "workload.pkl").exists()
