"""Write-ahead log segment files (append-only JSONL).

Every event a :class:`~repro.streaming.index.DynamicKnnIndex` applies is
journaled *before* it mutates in-memory state, into one segment of a
:class:`~repro.persistence.partition.PartitionedWriteAheadLog`.  This
module is the segment file itself: the record codec, the reader, and
:class:`WriteAheadLog`, which appends records under sequence numbers the
partitioned log assigns.  Recovery is checkpoint + merged log-tail
replay (see :mod:`repro.persistence.checkpoint`).

Format: one JSON object per line.  The first line is a header carrying
the format version; every subsequent record carries its *global* event
sequence number, strictly increasing within the segment (the gaps are
the events routed to other segments).  A torn final line (the crash
wrote half a record) is tolerated on read and truncated away when the
segment is reopened for append — the standard WAL recovery rule.

Every append is flushed to the OS (so a same-machine reader and a
SIGKILL survive it); the ``fsync`` disk barrier runs on :meth:`flush`
and on close, which the partitioned log calls as one group commit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from ..streaming.events import (
    AddRating,
    AddUser,
    Batch,
    Event,
    MigrateBegin,
    MigrateCommit,
    RemoveRating,
    RemoveUser,
)

__all__ = [
    "PersistenceError",
    "WalError",
    "WriteAheadLog",
    "decode_event",
    "encode_event",
    "fsync_dir",
    "read_wal",
]


class PersistenceError(ValueError):
    """Raised when durable state is malformed or an operation is invalid."""


class WalError(PersistenceError):
    """Raised when a write-ahead log is corrupt or misused."""


#: Format version written into (and required of) the header line.
WAL_VERSION = 1


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so just-created/renamed entries survive power loss.

    ``fsync`` on a file makes its *bytes* durable; the directory entry
    pointing at them is metadata of the *parent directory* and needs its
    own fsync — without it, a power loss right after an ``os.replace``
    can silently roll the rename back, losing a checkpoint or log the
    caller already reported as committed.  Best effort on platforms that
    cannot open directories (e.g. Windows); tests monkeypatch this hook
    to assert the durability barriers are actually requested.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def encode_event(event: Event) -> dict:
    """*event* as a JSON-serializable record (without its ``seq``)."""
    if isinstance(event, AddRating):
        return {
            "type": "add_rating",
            "user": int(event.user),
            "item": int(event.item),
            "rating": float(event.rating),
        }
    if isinstance(event, RemoveRating):
        return {
            "type": "remove_rating",
            "user": int(event.user),
            "item": int(event.item),
        }
    if isinstance(event, AddUser):
        return {
            "type": "add_user",
            "items": [int(item) for item in event.items],
            "ratings": (
                None
                if event.ratings is None
                else [float(rating) for rating in event.ratings]
            ),
        }
    if isinstance(event, RemoveUser):
        return {"type": "remove_user", "user": int(event.user)}
    if isinstance(event, (MigrateBegin, MigrateCommit)):
        kind = (
            "migrate_begin"
            if isinstance(event, MigrateBegin)
            else "migrate_commit"
        )
        return {
            "type": kind,
            "moves": [
                [int(user), int(shard)] for user, shard in event.moves
            ],
            "n_shards": (
                None if event.n_shards is None else int(event.n_shards)
            ),
        }
    if isinstance(event, Batch):
        raise WalError(
            "batches are journaled flattened; encode their primitive events"
        )
    raise TypeError(f"unknown streaming event {event!r}")


def decode_event(record: dict) -> Event:
    """Inverse of :func:`encode_event`."""
    kind = record.get("type")
    try:
        if kind == "add_rating":
            return AddRating(
                int(record["user"]), int(record["item"]), float(record["rating"])
            )
        if kind == "remove_rating":
            return RemoveRating(int(record["user"]), int(record["item"]))
        if kind == "add_user":
            ratings = record["ratings"]
            return AddUser(
                tuple(int(item) for item in record["items"]),
                None
                if ratings is None
                else tuple(float(rating) for rating in ratings),
            )
        if kind == "remove_user":
            return RemoveUser(int(record["user"]))
        if kind in ("migrate_begin", "migrate_commit"):
            cls = MigrateBegin if kind == "migrate_begin" else MigrateCommit
            n_shards = record["n_shards"]
            return cls(
                tuple(
                    (int(user), int(shard))
                    for user, shard in record["moves"]
                ),
                None if n_shards is None else int(n_shards),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"malformed WAL record {record!r}") from exc
    raise WalError(f"unknown WAL record type {kind!r}")


def _parse(raw: bytes, path: Path) -> tuple[list[tuple[int, dict]], int]:
    """Parse raw segment bytes into ``[(seq, record), ...]`` + clean length.

    A torn *final* line (no trailing newline, or undecodable JSON at the
    very end) is dropped; the returned clean length excludes it so a
    reopen can truncate.  Corruption anywhere else — an undecodable line
    followed by valid data, a sequence that does not advance, a bad
    header — raises :class:`WalError`, because silently skipping records
    would replay a different history than the one that was applied.
    Gaps are expected (events routed to other segments); contiguity of
    the merged history is checked where it is replayed
    (:func:`repro.persistence.checkpoint.restore_index`).
    """
    records: list[tuple[int, dict]] = []
    clean = 0
    offset = 0
    saw_header = False
    lines = raw.split(b"\n")
    for pos, line in enumerate(lines):
        is_last = pos == len(lines) - 1
        if line == b"":
            offset += 1  # the split point's newline (or trailing empty)
            continue
        torn = is_last  # no newline terminated this line
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            if torn:
                break  # torn tail: recovered by truncation
            raise WalError(
                f"corrupt WAL record at byte {offset} of {path}"
            ) from exc
        if torn:
            break  # a complete-looking but unterminated record: drop it
        if not saw_header:
            if record.get("type") != "header":
                raise WalError(f"{path} does not start with a WAL header")
            version = record.get("version")
            if version != WAL_VERSION:
                raise WalError(
                    f"unsupported WAL version {version!r} in {path} "
                    f"(this library writes version {WAL_VERSION})"
                )
            saw_header = True
        else:
            seq = record.get("seq")
            if not isinstance(seq, int) or seq < 1:
                raise WalError(
                    f"WAL record in {path} has invalid sequence {seq!r}"
                )
            if records and seq <= records[-1][0]:
                raise WalError(
                    f"WAL sequence regression in {path}: expected "
                    f"> {records[-1][0]}, got {seq}"
                )
            records.append((seq, record))
        offset += len(line) + 1
        clean = offset
    return records, clean


def read_wal(path: str | Path, after: int = 0) -> Iterator[tuple[int, Event]]:
    """Yield ``(seq, event)`` for every record in one segment past *after*.

    Tolerates a torn final line; raises :class:`WalError` on any other
    corruption (mid-file garbage, regressing sequences, version
    mismatch).
    """
    path = Path(path)
    records, _ = _parse(path.read_bytes(), path)
    for seq, record in records:
        if seq > after:
            yield seq, decode_event(record)


class WriteAheadLog:
    """One append-only segment file of a partitioned write-ahead log.

    *path* is the JSONL file.  A missing file is created (with its
    header); an existing one is recovered — torn tail truncated, last
    sequence number adopted — and appended to.  The caller
    (:class:`~repro.persistence.partition.PartitionedWriteAheadLog`)
    assigns every record its global sequence number and runs the fsync
    barrier through :meth:`flush`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._last_seq = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            raw = self.path.read_bytes()
            records, clean = _parse(raw, self.path)
            if clean < len(raw):
                # Torn tail from a crash mid-write: truncate before
                # appending, or the next record would corrupt the file.
                with self.path.open("r+b") as handle:
                    handle.truncate(clean)
            self._last_seq = records[-1][0] if records else 0
            self._handle = self.path.open("ab")
            if clean == 0:
                # Even the header line was torn (crash at creation):
                # the truncation emptied the file, so re-create it, or
                # every future read would reject a header-less log.
                self._write_record({"type": "header", "version": WAL_VERSION})
                self.flush()
        else:
            self._handle = self.path.open("ab")
            self._write_record({"type": "header", "version": WAL_VERSION})
            self.flush()
            # Make the new log's directory entry durable: a power loss
            # must not leave a durable checkpoint referring to a log the
            # filesystem forgot it created.
            fsync_dir(self.path.parent)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._last_seq

    @property
    def closed(self) -> bool:
        """Whether the underlying file handle has been closed."""
        return self._handle.closed

    def _write_record(self, record: dict) -> None:
        if self._handle.closed:
            raise WalError(f"write-ahead log {self.path} is closed")
        self._handle.write(
            json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        )

    def append(self, event: Event, seq: int) -> int:
        """Journal one primitive event as record *seq*; returns *seq*.

        *seq* must advance past :attr:`last_seq`.  The record is flushed
        to the OS immediately (a SIGKILL of this process cannot lose
        it).  A failed write (disk full) leaves the sequence counter
        and — best effort — the file exactly as before, so a caller
        retry reuses the same sequence number.
        """
        record = encode_event(event)
        if self._handle.closed:
            raise WalError(f"write-ahead log {self.path} is closed")
        seq = int(seq)
        if seq <= self._last_seq:
            raise WalError(
                f"sequence must advance past {self._last_seq} in "
                f"{self.path}, got {seq}"
            )
        self._handle.flush()
        offset = self._handle.tell()
        try:
            self._write_record({"seq": seq, **record})
            self._handle.flush()
        except Exception:
            try:
                # Drop any partially landed bytes; if even this fails,
                # the next reopen's torn-tail truncation recovers.
                os.ftruncate(self._handle.fileno(), offset)
            except OSError:
                pass
            raise
        self._last_seq = seq
        return seq

    def mark(self) -> tuple[int, int]:
        """The current ``(last_seq, byte offset)`` — a :meth:`rollback`
        target taken before a multi-event journaling unit."""
        if self._handle.closed:
            raise WalError(f"write-ahead log {self.path} is closed")
        self._handle.flush()
        return (self._last_seq, self._handle.tell())

    def rollback(self, mark: tuple[int, int]) -> None:
        """Discard every append made after :meth:`mark`.

        Restores journal/state atomicity when journaling a batch fails
        partway (e.g. disk full on the Kth record): without the
        rollback, already-journaled events the index never absorbed
        would replay as phantoms — and a caller retry would journal them
        twice, silently diverging recovery from the live run.
        """
        seq, offset = mark
        if self._handle.closed:
            raise WalError(f"write-ahead log {self.path} is closed")
        self._handle.flush()
        os.ftruncate(self._handle.fileno(), offset)
        os.fsync(self._handle.fileno())
        self._last_seq = seq

    def flush(self) -> None:
        """Flush and fsync everything appended so far."""
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close the segment file (idempotent)."""
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog(path={str(self.path)!r}, "
            f"last_seq={self._last_seq})"
        )
