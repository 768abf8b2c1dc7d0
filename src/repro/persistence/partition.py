"""The partitioned write-ahead log: per-shard segments, one global sequence.

Every index journals into a :class:`PartitionedWriteAheadLog`, one
segment per shard of the
:class:`~repro.streaming.index.DynamicKnnIndex` (one for the flat
index).  Each ``wal-<shard>.jsonl`` segment is a
:class:`~repro.persistence.wal.WriteAheadLog` file whose records carry
the *global* event sequence number, so one segment holds gaps (events
routed to other shards) but the union of all segments is the gap-free
event history.  :func:`read_partitioned_wal` merges the segments back
into global order for replay
(:func:`~repro.persistence.checkpoint.restore_index`).
"""

from __future__ import annotations

import heapq
import re
from pathlib import Path
from typing import Iterator

from ..streaming.events import Event
from . import wal as _wal
from .wal import WalError, WriteAheadLog, read_wal

__all__ = [
    "PartitionedWriteAheadLog",
    "read_partitioned_wal",
    "wal_segment_path",
]

_SEGMENT_RE = re.compile(r"^wal-(\d+)\.jsonl$")


def wal_segment_path(directory: str | Path, shard: int) -> Path:
    """Canonical path of shard *shard*'s WAL segment."""
    return Path(directory) / f"wal-{int(shard)}.jsonl"


def _segments(directory: Path) -> list[Path]:
    """Every ``wal-<shard>.jsonl`` under *directory*, by shard id."""
    found: list[tuple[int, Path]] = []
    if directory.is_dir():
        for path in directory.glob("wal-*.jsonl"):
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def read_partitioned_wal(
    directory: str | Path, after: int = 0
) -> Iterator[tuple[int, Event]]:
    """Yield ``(seq, event)`` with ``seq > after`` in global order.

    Merges every ``wal-<shard>.jsonl`` segment by their global sequence
    numbers.  Each event is journaled into exactly one segment, so a
    duplicated sequence number means the segments belong to different
    histories and raises :class:`WalError`.  Contiguity relative to a
    checkpoint is the *caller's* check (it knows which gaps a checkpoint
    covers).
    """
    directory = Path(directory)
    streams = [
        read_wal(segment, after=after) for segment in _segments(directory)
    ]
    previous = None
    for seq, event in heapq.merge(*streams, key=lambda item: item[0]):
        if previous is not None and seq <= previous:
            raise WalError(
                f"duplicate WAL sequence {seq} across the segments of "
                f"{directory}; the logs do not belong to one history"
            )
        previous = seq
        yield seq, event


class PartitionedWriteAheadLog:
    """One write-ahead log, physically partitioned into per-shard segments.

    Every append names the shard whose segment journals the event, and
    sequence numbers are assigned from one *global* counter — the
    segment files interleave into a single totally ordered history (the
    partition log the sharded refresh keys its outboxes by).

    A lagging global counter after a crash (an fsync-batched tail lost
    behind a durable checkpoint) is fast-forwarded with
    :meth:`advance_to`: records carry explicit sequence numbers, so
    journaling can resume past a gap the latest checkpoint covers, while
    recovery from an *older* checkpoint still fails loudly at the gap
    instead of silently skipping it.

    ``fsync_every`` batches at the *group* level: every ``N`` appends
    (across all segments) fsyncs **every** segment holding unsynced
    records, never a single segment on its own cadence.  Independent
    per-segment fsync schedules would let a power loss keep a durable
    high sequence in one segment while dropping a lower unsynced one in
    another — a mid-history gap that no replay can bridge — whereas the
    group commit keeps the durable record set a prefix of the global
    history at every barrier.
    """

    def __init__(
        self,
        directory: str | Path,
        n_shards: int,
        fsync_every: int | None = 64,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if fsync_every is not None and fsync_every <= 0:
            raise ValueError(
                f"fsync_every must be positive or None, got {fsync_every}"
            )
        self.directory = Path(directory)
        self.fsync_every = fsync_every
        self._unsynced = 0
        # Segments never fsync on their own: the group-commit barrier
        # below syncs them together, in one batch.
        self.segments = [
            WriteAheadLog(wal_segment_path(self.directory, shard))
            for shard in range(n_shards)
        ]
        self._last_seq = max(
            (segment.last_seq for segment in self.segments), default=0
        )
        # Stray segments beyond n_shards (a previous run at a higher
        # shard count) still advance the global counter — new appends
        # must never reuse their sequences.
        for path in _segments(self.directory):
            if path not in {segment.path for segment in self.segments}:
                records, _ = _wal._parse(path.read_bytes(), path)
                if records:
                    self._last_seq = max(self._last_seq, records[-1][0])

    @property
    def path(self) -> Path:
        """The state directory (the log's identity in error messages)."""
        return self.directory

    @property
    def n_shards(self) -> int:
        """Number of per-shard segments this log writes."""
        return len(self.segments)

    @property
    def last_seq(self) -> int:
        """Global sequence number of the most recently appended event."""
        return self._last_seq

    @property
    def closed(self) -> bool:
        """Whether any segment has been closed (the log is unusable)."""
        return any(segment.closed for segment in self.segments)

    def advance_to(self, seq: int) -> None:
        """Fast-forward the *global* counter to *seq*.

        Allowed whenever it does not renumber history (``seq`` at or
        past the current counter) — the segments keep their events, and
        the skipped sequences are understood to be covered by a
        checkpoint (journaling began mid-history, or a crash ate an
        fsync-batched tail a durable checkpoint had already absorbed).
        """
        seq = int(seq)
        if seq < self._last_seq:
            raise WalError(
                f"cannot advance {self.directory} to sequence {seq}: the "
                f"segments already hold events up to {self._last_seq}"
            )
        self._last_seq = seq

    def append(self, event: Event, shard: int) -> int:
        """Journal one event into *shard*'s segment; returns its seq.

        The record is flushed to the OS immediately (per-segment); the
        disk barrier runs as a group commit over all segments once per
        ``fsync_every`` appends, so the durable set stays a prefix of
        the global sequence at every barrier.
        """
        if not 0 <= shard < len(self.segments):
            raise ValueError(
                f"shard {shard} out of range [0, {len(self.segments)})"
            )
        seq = self._last_seq + 1
        self.segments[shard].append(event, seq=seq)
        self._last_seq = seq
        self._unsynced += 1
        if self.fsync_every is not None and self._unsynced >= self.fsync_every:
            self._fsync_all()
        return seq

    def _fsync_all(self) -> None:
        """The group-commit barrier: fsync every segment together."""
        for segment in self.segments:
            segment.flush()
        self._unsynced = 0

    def mark(self) -> tuple[int, tuple]:
        """Rollback target spanning every segment (see ``rollback``)."""
        return (
            self._last_seq,
            tuple(segment.mark() for segment in self.segments),
        )

    def rollback(self, mark: tuple[int, tuple]) -> None:
        """Discard every append made after :meth:`mark`, on all segments."""
        seq, segment_marks = mark
        for segment, segment_mark in zip(self.segments, segment_marks):
            segment.rollback(segment_mark)
        self._last_seq = seq
        self._unsynced = 0

    def flush(self) -> None:
        """Flush and fsync everything appended so far (all segments)."""
        self._fsync_all()

    def close(self) -> None:
        """Flush, fsync and close every segment."""
        for segment in self.segments:
            segment.close()

    def __enter__(self) -> "PartitionedWriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedWriteAheadLog(directory={str(self.directory)!r}, "
            f"n_shards={self.n_shards}, last_seq={self._last_seq})"
        )
