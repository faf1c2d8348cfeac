"""The WAL's read side follows the log: ``snapshot_rows`` through a follower.

Every snapshot must equal what a fresh read-only replay of the directory
returns for the same token, whatever happened to the log in between, and
only a disagreement with that fresh replay is an error.
"""

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import wal as wal_module
from repro.serve.wal import KINDS, IngestWAL, WALError, snapshot_rows

ROWS = [f'{{"row": {i}, "pad": "{"y" * (i % 13)}"}}' for i in range(64)]


def _token(rows):
    """The chunk token a WAL holding exactly ``rows`` would cut."""
    digest = hashlib.sha256("".join(r + "\n" for r in rows).encode("utf-8"))
    return f"{len(rows)}:{digest.hexdigest()[:16]}"


def _replayed(directory, kind, count):
    return IngestWAL(directory, read_only=True).rows(kind)[:count]


def _follower(directory):
    return wal_module._FOLLOWERS.get(os.path.abspath(directory))


# -- equivalence ---------------------------------------------------------------

_append = st.tuples(
    st.sampled_from(KINDS),
    st.lists(st.sampled_from(ROWS + ["", "  ", "crlf\r\n", "naïve "]), max_size=6),
    st.sampled_from([None, "b0", "b1", 'q"2']),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(_append, min_size=1, max_size=12), data=st.data())
def test_snapshots_equal_a_fresh_replay(steps, data):
    with tempfile.TemporaryDirectory(prefix="wal-follow-") as tmp:
        directory = Path(tmp)
        tokens = {kind: [] for kind in KINDS}
        with IngestWAL(directory, rotate_bytes=160, fsync=False) as wal:
            for kind, rows, batch in steps:
                wal.append(kind, rows, batch=batch)  # a resend when the batch repeats
                for k in KINDS:
                    tokens[k].append(wal.chunk(k))
                for k in KINDS:
                    for token in (tokens[k][-1], data.draw(st.sampled_from(tokens[k]))):
                        count = int(token.split(":")[0])
                        assert snapshot_rows(directory, k, token) == _replayed(
                            directory, k, count
                        )


# -- invalidation --------------------------------------------------------------


def _write(directory, rows, kind="responses", rotate_bytes=4 << 20):
    with IngestWAL(directory, rotate_bytes=rotate_bytes, fsync=False) as wal:
        wal.append(kind, rows)
        return wal.chunk(kind)


class TestInvalidation:
    def test_catch_up_reads_only_appended_records(self, tmp_path):
        snapshot_rows(tmp_path, "responses", _write(tmp_path, ROWS[:8]))
        follower = _follower(tmp_path)
        chunk = _write(tmp_path, ROWS[8:12])
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:12]
        assert _follower(tmp_path) is follower  # caught up, not replaced
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        assert follower._consumed == [[segment.name, segment.stat().st_ino, segment.stat().st_size]]

    def test_truncated_segment_falls_back_to_a_fresh_replay(self, tmp_path):
        full = _write(tmp_path, ROWS[:10])
        assert snapshot_rows(tmp_path, "responses", full) == ROWS[:10]
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:6]))  # same inode, shorter
        assert snapshot_rows(tmp_path, "responses", _token(ROWS[:6])) == ROWS[:6]
        with pytest.raises(WALError, match="holds 6 responses row"):
            snapshot_rows(tmp_path, "responses", full)

    def test_replaced_segment_falls_back_to_a_fresh_replay(self, tmp_path):
        live, other = tmp_path / "live", tmp_path / "other"
        old = _write(live, ROWS[:10])
        assert snapshot_rows(live, "responses", old) == ROWS[:10]
        new_rows = ROWS[20:40]  # longer than what the follower consumed
        new = _write(other, new_rows)
        segment = sorted(live.glob("seg-*.wal"))[-1]
        os.replace(sorted(other.glob("seg-*.wal"))[-1], segment)  # new inode
        assert snapshot_rows(live, "responses", new) == new_rows
        with pytest.raises(WALError, match="do not match chunk"):
            snapshot_rows(live, "responses", old)

    def test_deleted_segment_falls_back_to_a_fresh_replay(self, tmp_path):
        chunk = _write(tmp_path, ROWS[:5])
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:5]
        for segment in tmp_path.glob("seg-*.wal"):
            segment.unlink()
        assert snapshot_rows(tmp_path, "responses", _token([])) == []
        with pytest.raises(WALError, match="holds 0 responses row"):
            snapshot_rows(tmp_path, "responses", chunk)

    def test_vanished_directory_is_an_error(self, tmp_path):
        directory = tmp_path / "wal"
        chunk = _write(directory, ROWS[:5])
        assert snapshot_rows(directory, "responses", chunk) == ROWS[:5]
        shutil.rmtree(directory)
        with pytest.raises(WALError, match="no WAL directory"):
            snapshot_rows(directory, "responses", chunk)
        assert not directory.exists()

    def test_rotation_is_followed_across_segments(self, tmp_path):
        for i in range(0, 40, 4):
            chunk = _write(tmp_path, ROWS[i : i + 4], rotate_bytes=200)
            assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[: i + 4]
        assert len(list(tmp_path.glob("seg-*.wal"))) > 3
        assert _replayed(tmp_path, "responses", 40) == ROWS[:40]

    def test_half_written_record_waits_for_its_newline(self, tmp_path):
        chunk = _write(tmp_path, ROWS[:3])
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:3]
        record = json.dumps({"seq": 3, "kind": "responses", "row": "late"}).encode() + b"\n"
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        with open(segment, "ab") as fh:
            fh.write(record[:10])
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:3]
        with pytest.raises(WALError, match="holds 3 responses row"):
            snapshot_rows(tmp_path, "responses", _token(ROWS[:3] + ["late"]))
        with open(segment, "ab") as fh:
            fh.write(record[10:])
        assert snapshot_rows(tmp_path, "responses", _token(ROWS[:3] + ["late"])) == ROWS[:3] + ["late"]

    def test_older_token_is_checked_against_its_prefix(self, tmp_path):
        old = _write(tmp_path, ROWS[:4])
        new = _write(tmp_path, ROWS[4:9])
        assert snapshot_rows(tmp_path, "responses", new) == ROWS[:9]
        assert snapshot_rows(tmp_path, "responses", old) == ROWS[:4]
        count = int(old.split(":")[0])
        with pytest.raises(WALError, match="do not match chunk"):
            snapshot_rows(tmp_path, "responses", f"{count}:{'0' * 16}")

    def test_unknown_kind_raises(self, tmp_path):
        chunk = _write(tmp_path, ROWS[:2])
        with pytest.raises(WALError, match="unknown ingest kind"):
            snapshot_rows(tmp_path, "telemetry", chunk)


# -- concurrency, fork, bound ----------------------------------------------------


def test_concurrent_readers_against_one_writer_are_exact(tmp_path, monkeypatch):
    lock = threading.Lock()  # cuts tokens between appends, as the service does
    wal = IngestWAL(tmp_path, fsync=False)
    replays = []

    class CountingWAL(IngestWAL):
        def __init__(self, *args, **kwargs):
            replays.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(wal_module, "IngestWAL", CountingWAL)
    errors: list[str] = []
    calls = [0]
    done = threading.Event()

    def reader(seed):
        rng = random.Random(seed)
        while not done.is_set():
            kind = rng.choice(KINDS)
            with lock:
                token, expected = wal.chunk(kind), wal.rows(kind)
            try:
                if snapshot_rows(tmp_path, kind, token) != expected:
                    errors.append(f"wrong rows for {token}")
            except WALError as exc:
                errors.append(str(exc))
            calls[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        rng = random.Random(0)
        for i in range(60):
            with lock:
                wal.append(rng.choice(KINDS), rng.sample(ROWS, 3), batch=f"b{i}")
            time.sleep(0.002)  # let the readers catch up between appends
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        wal.close()
    assert not any(thread.is_alive() for thread in threads)
    assert calls[0] > 0
    assert errors == []
    # One full replay built the follower; every later call caught it up.
    assert replays == [{"read_only": True}]


def _snapshot_in_child(conn, directory, chunk):
    try:
        conn.send(("ok", snapshot_rows(directory, "responses", chunk)))
    except BaseException as exc:  # report, never hang the parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def test_forked_child_gets_exact_rows(tmp_path):
    assert snapshot_rows(tmp_path, "responses", _write(tmp_path, ROWS[:6])) == ROWS[:6]
    chunk = _write(tmp_path, ROWS[6:10])
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    # Fork while this process holds the follower lock: the child must
    # neither reuse the inherited follower nor wait for that lock.
    with wal_module._FOLLOWERS_LOCK:
        child = ctx.Process(target=_snapshot_in_child, args=(child_conn, tmp_path, chunk))
        child.start()
    child_conn.close()
    try:
        assert parent_conn.poll(60), "forked child did not answer"
        assert parent_conn.recv() == ("ok", ROWS[:10])
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:10]


def test_follower_registry_is_bounded(tmp_path):
    bound = wal_module._MAX_FOLLOWERS
    for i in range(bound + 3):
        directory = tmp_path / f"wal-{i}"
        assert snapshot_rows(directory, "sacct", _write(directory, ROWS[:i], "sacct")) == ROWS[:i]
        assert len(wal_module._FOLLOWERS) <= bound
    assert _follower(tmp_path / f"wal-{bound + 2}") is not None
    assert _follower(tmp_path / "wal-0") is None
