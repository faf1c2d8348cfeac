"""Unit tests for the durable ingest WAL (append, dedupe, heal, rotate)."""

import hashlib
import json

import pytest

from repro.core.faults import DiskFull
from repro.serve.wal import (
    IngestWAL,
    WALError,
    WALUnavailable,
    parse_chunk,
    snapshot_rows,
)

ROWS = [f'{{"row": {i}}}' for i in range(8)]


class TestAppend:
    def test_round_trip(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ROWS)
            assert receipt.accepted == len(ROWS)
            assert receipt.deduped == 0
            assert (receipt.first_seq, receipt.last_seq) == (0, len(ROWS) - 1)
            assert wal.count("responses") == len(ROWS)
            assert wal.rows("responses") == ROWS
            assert wal.count("sacct") == 0

    def test_blank_lines_and_crlf_are_normalized(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ["a\r\n", "", "b\n", "   "])
            assert receipt.accepted == 2
            assert wal.rows("responses") == ["a", "b"]

    def test_unknown_kind_rejected(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            with pytest.raises(WALError, match="kind"):
                wal.append("telemetry", ROWS)  # step name, not a WAL kind

    def test_kinds_are_independent_streams(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
            wal.append("sacct", ROWS[3:])
            assert wal.rows("responses") == ROWS[:3]
            assert wal.rows("sacct") == ROWS[3:]


class TestBatchDedupe:
    def test_full_resend_is_absorbed(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS, batch="b1")
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.accepted == 0
            assert receipt.deduped == len(ROWS)
            assert wal.count("responses") == len(ROWS)

    def test_partial_resend_appends_only_the_tail(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5], batch="b1")
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.accepted == 3
            assert receipt.deduped == 5
            assert wal.rows("responses") == ROWS

    def test_dedupe_survives_restart(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5], batch="b1")
        with IngestWAL(tmp_path) as wal:
            receipt = wal.append("responses", ROWS, batch="b1")
            assert receipt.deduped == 5
            assert wal.rows("responses") == ROWS

    def test_same_batch_id_on_different_kinds_is_distinct(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2], batch="x")
            receipt = wal.append("sacct", ROWS[:2], batch="x")
            assert receipt.accepted == 2

    def test_unbatched_appends_never_dedupe(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2])
            wal.append("responses", ROWS[:2])
            assert wal.count("responses") == 4


class TestChunks:
    def test_chunk_token_tracks_content(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            empty = wal.chunk("responses")
            wal.append("responses", ROWS[:4])
            first = wal.chunk("responses")
            wal.append("responses", ROWS[4:])
            second = wal.chunk("responses")
        assert empty != first != second
        assert parse_chunk(first)[0] == 4
        assert parse_chunk(second)[0] == 8

    def test_chunk_is_a_pure_function_of_the_rows(self, tmp_path):
        with IngestWAL(tmp_path / "a") as one:
            one.append("responses", ROWS, batch="b1")
            chunk_a = one.chunk("responses")
        with IngestWAL(tmp_path / "b") as two:
            two.append("responses", ROWS[:3], batch="b1")
            two.append("responses", ROWS, batch="b1")  # crash-retry shape
            chunk_b = two.chunk("responses")
        assert chunk_a == chunk_b

    def test_snapshot_rows_pins_the_prefix(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:4])
            chunk = wal.chunk("responses")
            wal.append("responses", ROWS[4:])  # arrives after the key was cut
        assert snapshot_rows(tmp_path, "responses", chunk) == ROWS[:4]

    def test_snapshot_rows_rejects_digest_mismatch(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:4])
            count, _ = parse_chunk(wal.chunk("responses"))
        with pytest.raises(WALError, match="do not match chunk"):
            snapshot_rows(tmp_path, "responses", f"{count}:{'0' * 16}")


class TestRecovery:
    def test_restart_replays_everything(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:5])
            wal.append("sacct", ROWS[5:])
            chunk = wal.chunk("responses")
        with IngestWAL(tmp_path) as wal:
            assert wal.rows("responses") == ROWS[:5]
            assert wal.rows("sacct") == ROWS[5:]
            assert wal.chunk("responses") == chunk

    def test_torn_tail_is_healed_on_reopen(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # torn mid-record, no trailing newline
        with IngestWAL(tmp_path) as wal:
            assert wal.healed_bytes > 0
            assert wal.count("responses") == len(ROWS) - 1
            # The heal truncated the file, so the next append starts clean.
            wal.append("responses", [ROWS[-1]])
            assert wal.rows("responses") == ROWS
        with IngestWAL(tmp_path) as wal:
            assert wal.healed_bytes == 0  # second reopen finds a clean log

    def test_poison_line_is_counted_and_skipped(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        lines = raw.split(b"\n")
        lines[1] = b"\x80\x81 not json"  # interior corruption, not a tail
        segment.write_bytes(b"\n".join(lines))
        with IngestWAL(tmp_path) as wal:
            assert wal.poison_lines == 1
            assert wal.count("responses") == 2

    def test_rotation_spreads_segments_and_replays_in_order(self, tmp_path):
        with IngestWAL(tmp_path, rotate_bytes=128) as wal:
            for i, row in enumerate(ROWS):
                wal.append("responses", [row], batch=f"b{i}")
        segments = sorted(tmp_path.glob("seg-*.wal"))
        assert len(segments) > 1
        with IngestWAL(tmp_path) as wal:
            assert wal.rows("responses") == ROWS
            assert wal.stats()["segments"] == len(segments)


class TestDegradation:
    def test_oserror_disables_the_wal(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:2])
            wal.chaos = DiskFull()
            with pytest.raises(WALUnavailable):
                wal.append("responses", ROWS[2:4])
            assert wal.unavailable
            assert "space" in (wal.error or "")
            wal.chaos = None
            with pytest.raises(WALUnavailable):  # stays down until reopen
                wal.append("responses", ROWS[4:6])
            # Reads still serve the durable prefix.
            assert wal.count("responses") == 2

    def test_read_only_open_never_writes(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS)
        segment = sorted(tmp_path.glob("seg-*.wal"))[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # torn tail
        ro = IngestWAL(tmp_path, read_only=True)
        assert segment.read_bytes() == raw[:-10]  # no heal, no truncate
        with pytest.raises(WALUnavailable):
            ro.append("responses", ["x"])
        ro.close()


class TestSegmentBytes:
    """The on-disk format is a contract: replay, dedupe and chunk tokens of
    logs written by earlier versions depend on these exact bytes."""

    @staticmethod
    def _scripted(directory):
        rotate = 64 << 10  # three segments
        wide = [f'{{"id": {i}, "pad": "{"x" * (i % 97)}"}}' for i in range(1200)]
        odd = ["naïve|Zürich|日本", "nul\x00byte|\x00", 'quote "q" \\ back', "tab\there\u2028ls"]
        with IngestWAL(directory, rotate_bytes=rotate) as wal:
            wal.append("responses", wide[:300], batch='b"1')
            wal.append("sacct", odd, batch="s\\1")
            wal.append("responses", wide[:350], batch='b"1')  # resend: 50 new
            wal.append("responses", ["a\r\n", "", "   ", "b\n", "c\r", "\r\n"])
            wal.append("sacct", odd + ["\x00"], batch="ü-batch")
            wal.append("responses", wide[350:900], batch="big")
            wal.append("sacct", [w + "é" for w in wide[:200]], batch="s\\1")
        with IngestWAL(directory, rotate_bytes=rotate) as wal:  # a restart
            wal.append("responses", wide[350:1200], batch="big")
            wal.append("sacct", odd, batch="ü-batch")  # all deduped
            wal.append("sacct", odd)
            return {kind: wal.chunk(kind) for kind in ("responses", "sacct")}

    def test_scripted_sequence_writes_pinned_bytes(self, tmp_path):
        chunks = self._scripted(tmp_path)
        segments = {
            seg.name: (len(raw := seg.read_bytes()), hashlib.sha256(raw).hexdigest())
            for seg in sorted(tmp_path.glob("seg-*.wal"))
        }
        assert segments == {
            "seg-00000001.wal": (
                65461,
                "74fbcbd294b44ad5ea373f4b446ab460ca8dbd91b6245064870c80ec69a914df",
            ),
            "seg-00000002.wal": (
                65448,
                "e4b7814276c53e6400368c9ffcdacbae3a349d8afe45aedc627a361ec50d3872",
            ),
            "seg-00000003.wal": (
                65369,
                "cb9b71b1ec4f3b2e20b8e5b27f1cbdc5e3232206b9af70156d9bb17e402f25c4",
            ),
        }
        assert chunks == {"responses": "1203:ea1adfcc3a356b10", "sacct": "209:c8f9057239fcc507"}

    def test_failed_batch_keeps_the_rows_handed_to_the_log(self, tmp_path):
        with IngestWAL(tmp_path / "failed") as wal:
            wal.append("responses", ROWS[:2], batch="b0")
            wal.chaos = DiskFull(after_records=2)
            with pytest.raises(WALUnavailable):
                wal.append("responses", ROWS[2:], batch="b1")
            # The two records written before the failure stay in memory;
            # the failed one and everything after it never happened.
            assert wal.rows("responses") == ROWS[:4]
            assert wal.stats()["next_seq"] == 4
            assert wal._batches[("responses", "b1")] == 2
            chunk = wal.chunk("responses")
        with IngestWAL(tmp_path / "clean") as clean:
            clean.append("responses", ROWS[:4])
            assert clean.chunk("responses") == chunk
        with IngestWAL(tmp_path / "failed") as reopened:
            assert reopened.rows("responses") == ROWS[:4]
            assert reopened.append("responses", ROWS[2:], batch="b1").deduped == 2


class TestReadOnlyOpen:
    def test_missing_directory_is_an_error_and_is_not_created(self, tmp_path):
        missing = tmp_path / "no-such-wal"
        with pytest.raises(WALError, match="no-such-wal"):
            IngestWAL(missing, read_only=True)
        with pytest.raises(WALError, match="no-such-wal"):
            snapshot_rows(missing, "responses", "0:e3b0c44298fc1c14")
        assert not missing.exists()

    def test_unknown_kind_touches_nothing(self, tmp_path):
        missing = tmp_path / "no-such-wal"
        with pytest.raises(WALError, match="kind"):
            snapshot_rows(missing, "telemetry", "0:e3b0c44298fc1c14")
        assert not missing.exists()


class TestStats:
    def test_stats_shape(self, tmp_path):
        with IngestWAL(tmp_path) as wal:
            wal.append("responses", ROWS[:3])
            stats = wal.stats()
        assert stats["rows"] == {"responses": 3, "sacct": 0}
        assert stats["segments"] == 1
        assert stats["unavailable"] is False
        json.dumps(stats)  # status.json embeds this verbatim
