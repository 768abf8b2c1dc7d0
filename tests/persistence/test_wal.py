"""Unit tests for the write-ahead log segment file and its codec."""

import json
import os

import pytest

from repro.persistence import (
    PartitionedWriteAheadLog,
    WalError,
    WriteAheadLog,
    decode_event,
    encode_event,
    read_wal,
)
from repro.streaming import AddRating, AddUser, Batch, RemoveRating, RemoveUser

EVENTS = [
    AddRating(3, 7, 4.5),
    RemoveRating(3, 7),
    AddUser((1, 2), (5.0, 3.0)),
    AddUser(),
    AddUser((9,)),  # default ratings (None) must survive
    RemoveUser(2),
]


class TestCodec:
    @pytest.mark.parametrize("event", EVENTS)
    def test_round_trip(self, event):
        record = encode_event(event)
        assert decode_event(json.loads(json.dumps(record))) == event

    def test_batch_rejected(self):
        with pytest.raises(WalError, match="flattened"):
            encode_event(Batch((AddRating(0, 0),)))

    def test_unknown_record_type(self):
        with pytest.raises(WalError, match="unknown WAL record type"):
            decode_event({"type": "truncate_everything"})

    def test_malformed_record(self):
        with pytest.raises(WalError, match="malformed"):
            decode_event({"type": "add_rating", "user": 1})  # no item


def append_all(wal, events, first=1):
    """Append *events* under consecutive sequence numbers from *first*."""
    return [wal.append(event, seq) for seq, event in enumerate(events, first)]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            seqs = append_all(wal, EVENTS)
        assert seqs == list(range(1, len(EVENTS) + 1))
        assert list(read_wal(path)) == list(zip(seqs, EVENTS))

    def test_replay_after(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            append_all(wal, EVENTS)
        tail = list(read_wal(path, after=4))
        assert tail == [(5, EVENTS[4]), (6, EVENTS[5])]

    def test_gaps_are_expected(self, tmp_path):
        """A segment holds only its shard's events: its global sequence
        numbers skip the other segments' records."""
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append(AddRating(0, 1), 3)
            wal.append(RemoveUser(0), 7)
        assert [seq for seq, _ in read_wal(path)] == [3, 7]

    def test_sequence_must_advance(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal-0.jsonl") as wal:
            wal.append(AddRating(0, 1, 2.0), 4)
            with pytest.raises(WalError, match="advance"):
                wal.append(AddRating(0, 1, 3.0), 4)
            assert wal.last_seq == 4

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append(AddRating(0, 0, 1.0), 1)
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 1
            assert wal.append(RemoveUser(0), 2) == 2
        assert [seq for seq, _ in read_wal(path)] == [1, 2]

    def test_first_record_may_start_late(self, tmp_path):
        """Journaling may begin mid-history: a segment's first record
        carries whatever global sequence the log assigns."""
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            assert wal.append(AddRating(1, 1), 42) == 42
        with WriteAheadLog(path) as wal:  # reopen adopts the late start
            assert wal.last_seq == 42
        assert list(read_wal(path, after=41)) == [(42, AddRating(1, 1))]

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal-0.jsonl")
        wal.close()
        assert wal.closed
        with pytest.raises(WalError, match="closed"):
            wal.append(AddRating(0, 0), 1)

    def test_empty_log_replays_nothing(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        WriteAheadLog(path).close()
        assert list(read_wal(path)) == []


class TestGroupCommitPolicy:
    """fsync batching lives in the partitioned log, across its segments."""

    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        return calls

    def test_fsync_batching(self, tmp_path, fsync_calls):
        """fsync runs once per fsync_every appends, plus on close."""
        wal = PartitionedWriteAheadLog(tmp_path, 1, fsync_every=3)
        header_syncs = len(fsync_calls)  # creation flushes the header
        for pos in range(7):
            wal.append(AddRating(0, pos), 0)
        assert len(fsync_calls) - header_syncs == 2  # after appends 3, 6
        wal.close()  # the straggler (append 7) syncs on close
        assert len(fsync_calls) - header_syncs == 3

    def test_fsync_none_never_syncs_on_append(self, tmp_path, fsync_calls):
        wal = PartitionedWriteAheadLog(tmp_path, 1, fsync_every=None)
        base = len(fsync_calls)
        for pos in range(10):
            wal.append(AddRating(0, pos), 0)
        assert len(fsync_calls) == base
        # Appends are still flushed: a concurrent reader sees them all.
        assert len(list(read_wal(wal.segments[0].path))) == 10
        wal.close()

    def test_fsync_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_every"):
            PartitionedWriteAheadLog(tmp_path, 1, fsync_every=0)


class TestCrashRecovery:
    def test_torn_tail_tolerated_on_read(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            append_all(wal, EVENTS[:3])
        with path.open("ab") as handle:
            handle.write(b'{"seq": 4, "type": "add_ra')  # crash mid-write
        assert [seq for seq, _ in read_wal(path)] == [1, 2, 3]

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            append_all(wal, EVENTS[:3])
        with path.open("ab") as handle:
            handle.write(b'{"seq": 4, "type"')
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 3
            assert wal.append(RemoveUser(1), 4) == 4
        assert len(list(read_wal(path))) == 4  # no corruption left behind

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            append_all(wal, EVENTS[:3])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"garbage not json\n"  # record 2 of 3, not the tail
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError, match="corrupt"):
            list(read_wal(path))

    def test_sequence_regression_raises(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            append_all(wal, EVENTS[:3])
        doctored = path.read_text().replace('"seq":3', '"seq":2')
        path.write_text(doctored)
        with pytest.raises(WalError, match="regression"):
            list(read_wal(path))

    def test_invalid_sequence_raises(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        WriteAheadLog(path).close()
        with path.open("a") as handle:
            handle.write('{"seq":0,"type":"remove_user","user":0}\n')
        with pytest.raises(WalError, match="invalid sequence"):
            list(read_wal(path))

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        WriteAheadLog(path).close()
        doctored = path.read_text().replace('"version":1', '"version":99')
        path.write_text(doctored)
        with pytest.raises(WalError, match="version"):
            list(read_wal(path))

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        path.write_text('{"seq":1,"type":"remove_user","user":0}\n')
        with pytest.raises(WalError, match="header"):
            list(read_wal(path))

    def test_torn_header_repaired_on_reopen(self, tmp_path):
        """A crash that tears the header line at creation must not
        leave a permanently header-less (unreadable) log."""
        path = tmp_path / "wal-0.jsonl"
        path.write_bytes(b'{"type": "header", "ver')  # died at creation
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 0
            wal.append(AddRating(0, 1, 2.0), 1)
        assert list(read_wal(path)) == [(1, AddRating(0, 1, 2.0))]


class TestMarkRollback:
    def test_rollback_discards_partial_unit(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append(AddRating(0, 0, 1.0), 1)
            mark = wal.mark()
            wal.append(AddRating(1, 1, 2.0), 2)
            wal.append(AddUser((3,)), 3)
            wal.rollback(mark)
            assert wal.last_seq == 1
            # The log continues cleanly from the rollback point.
            assert wal.append(RemoveUser(0), 2) == 2
        assert [event for _, event in read_wal(path)] == [
            AddRating(0, 0, 1.0),
            RemoveUser(0),
        ]

    def test_rollback_to_empty_mark(self, tmp_path):
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            mark = wal.mark()
            wal.append(AddRating(0, 0, 1.0), 1)
            wal.rollback(mark)
            assert wal.last_seq == 0
        assert list(read_wal(path)) == []

    def test_failed_append_does_not_advance_sequence(self, tmp_path, monkeypatch):
        """A write failure (disk full) must leave the counter and file
        untouched, so a retry reuses the sequence number instead of
        leaving an unreadable gap."""
        path = tmp_path / "wal-0.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append(AddRating(0, 0, 1.0), 1)
            original = WriteAheadLog._write_record

            def exploding(self, record):
                raise OSError("no space left on device")

            monkeypatch.setattr(WriteAheadLog, "_write_record", exploding)
            with pytest.raises(OSError, match="no space"):
                wal.append(AddRating(1, 1, 2.0), 2)
            assert wal.last_seq == 1
            monkeypatch.setattr(WriteAheadLog, "_write_record", original)
            assert wal.append(AddRating(1, 1, 2.0), 2) == 2  # retry
        assert [seq for seq, _ in read_wal(path)] == [1, 2]
