"""Partitioned durable state: per-shard WAL segments + sharded checkpoints.

A :class:`~repro.streaming.sharding.ShardedKnnIndex` hash-partitions
users across shards; this module gives each shard its own slice of the
durable state so recovery is a per-partition operation:

* **Partitioned WAL** — ``wal-<shard>.jsonl`` segments, one per shard,
  in the same header/record format as the flat ``wal.jsonl``
  (:mod:`repro.persistence.wal`).  Every record carries the *global*
  event sequence number, so one segment holds gaps (events routed to
  other shards) but the union of all segments is the contiguous event
  history.  :func:`read_partitioned_wal` merges the segments (plus a
  flat ``wal.jsonl`` left behind by a pre-sharding run) back into global
  order for replay.
* **Sharded checkpoints** — ``checkpoint-<seq>.shards/`` directories
  holding ``meta.json``, a ``base.npz`` (dataset snapshot + graph rows,
  shared state) and one ``shard-<i>.npz`` per shard (that shard's dirty
  slice and candidate-multiset cache).  Written atomically (temp
  directory + ``os.replace`` + parent-directory fsync), exactly like the
  flat archives.

:func:`restore_sharded_index` recovers from **either** layout — the
latest readable checkpoint (flat ``.npz`` or sharded ``.shards``) plus
the merged log tail — so a flat state directory can be adopted by a
sharded index (and re-sharded: ownership never affects graph content,
so per-shard slices are re-derived at any shard count; live-move
overrides survive only a same-count restore).
The flat :func:`~repro.persistence.checkpoint.restore_index` refuses
sharded directories instead of silently dropping per-shard events.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import shutil
from pathlib import Path
from typing import Iterator

import numpy as np

from ..datasets.mutable import snapshot_from_arrays, snapshot_to_arrays
from ..graph.io import pack_graph_arrays, unpack_graph_arrays
from ..graph.knn_graph import KnnGraph
from ..streaming.events import Event
from . import wal as _wal
from .checkpoint import (
    CHECKPOINT_VERSION,
    SUPPORTED_CHECKPOINT_VERSIONS,
    CheckpointError,
    CheckpointState,
    RestoreInfo,
    _PREFIX,
    _discover_flat,
    cache_from_arrays,
    cache_to_arrays,
    checkpoint_meta,
    checkpoint_state_from_meta,
    install_checkpoint_state,
    load_checkpoint,
    load_latest_checkpoint,
)
from .wal import WAL_FILENAME, WalError, WriteAheadLog, read_wal

__all__ = [
    "PartitionedWriteAheadLog",
    "ShardedCheckpointState",
    "detect_state_layout",
    "load_sharded_checkpoint",
    "read_partitioned_wal",
    "restore_sharded_index",
    "save_sharded_checkpoint",
    "sharded_checkpoint_path",
    "wal_segment_path",
]

#: Suffix distinguishing sharded checkpoint directories from flat archives.
SHARDED_SUFFIX = ".shards"

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


def detect_state_layout(directory: str | Path) -> str | None:
    """``"sharded"``, ``"flat"`` or ``None`` for a state directory.

    Sharded artifacts (WAL segments or ``.shards`` checkpoints) win over
    flat ones: a migrated directory holds both, and only the merged
    sharded reader replays its full history.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    if _segments(directory) or _discover_sharded(directory):
        return "sharded"
    if _discover_flat(directory) or (directory / WAL_FILENAME).exists():
        return "flat"
    return None


def read_partitioned_wal(
    directory: str | Path, after: int = 0
) -> Iterator[tuple[int, Event]]:
    """Yield ``(seq, event)`` with ``seq > after`` in global order.

    Merges every ``wal-<shard>.jsonl`` segment — plus a flat
    ``wal.jsonl`` left behind by a pre-sharding run — by their global
    sequence numbers.  Each event is journaled into exactly one segment,
    so a duplicated sequence number means the segments belong to
    different histories and raises :class:`WalError`.  Contiguity
    relative to a checkpoint is the *caller's* check (it knows which
    gaps a checkpoint covers).
    """
    directory = Path(directory)
    streams = []
    flat = directory / WAL_FILENAME
    if flat.exists():
        streams.append(read_wal(flat, after=after))
    for segment in _segments(directory):
        streams.append(read_wal(segment, after=after, contiguous=False))
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

    Quacks like a :class:`~repro.persistence.wal.WriteAheadLog` for the
    index attachment protocol (``last_seq`` / ``advance_to`` / ``mark``
    / ``rollback`` / ``flush`` / ``close``), but every append names the
    shard whose segment journals the event, and sequence numbers are
    assigned from one *global* counter — the segment files interleave
    into a single totally ordered history (the partition log the sharded
    refresh keys its outboxes by).

    Unlike the flat log, a lagging global counter after a crash is not
    rotated away: records carry explicit sequence numbers, so journaling
    can resume past a gap the latest checkpoint covers, while recovery
    from an *older* checkpoint still fails loudly at the gap instead of
    silently skipping it.

    ``fsync_every`` batches at the *group* level: every ``N`` appends
    (across all segments) fsyncs **every** segment holding unsynced
    records, never a single segment on its own cadence.  Independent
    per-segment fsync schedules would let a power loss keep a durable
    high sequence in one segment while dropping a lower unsynced one in
    another — a mid-history gap that no replay can bridge — whereas the
    group commit keeps the durable record set a prefix of the global
    history at every barrier, the same guarantee the flat log's tail
    gives.
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
        # Segments never fsync on their own (fsync_every=None): the
        # group-commit barrier below syncs them together, in one batch.
        self.segments = [
            WriteAheadLog(
                wal_segment_path(self.directory, shard),
                fsync_every=None,
                contiguous=False,
            )
            for shard in range(n_shards)
        ]
        self._last_seq = max(
            (segment.last_seq for segment in self.segments), default=0
        )
        # Stray segments beyond n_shards (a previous run at a higher
        # shard count) and a flat pre-migration log still advance the
        # global counter — new appends must never reuse their sequences.
        for path in _segments(self.directory):
            if path not in {segment.path for segment in self.segments}:
                records, _ = _wal._parse(
                    path.read_bytes(), path, contiguous=False
                )
                if records:
                    self._last_seq = max(self._last_seq, records[-1][0])
        flat = self.directory / WAL_FILENAME
        if flat.exists():
            records, _ = _wal._parse(flat.read_bytes(), flat)
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


# ----------------------------------------------------------------------
# Sharded checkpoint layout
# ----------------------------------------------------------------------
def sharded_checkpoint_path(directory: str | Path, seq: int) -> Path:
    """Canonical directory path for a sharded checkpoint at *seq*."""
    return Path(directory) / f"{_PREFIX}{seq:012d}{SHARDED_SUFFIX}"


def _discover_sharded(directory: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` for every ``checkpoint-*.shards`` candidate."""
    found: list[tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for path in directory.glob(f"{_PREFIX}*{SHARDED_SUFFIX}"):
        if not path.is_dir():
            continue
        stem = path.name[len(_PREFIX) : -len(SHARDED_SUFFIX)]
        try:
            found.append((int(stem), path))
        except ValueError:
            continue
    return found


class ShardedCheckpointState(CheckpointState):
    """A loaded sharded checkpoint: flat state + the ownership rule.

    The per-shard slices are *not* kept separate here: shard ownership
    is derivable from ``n_shards`` plus the (usually empty)
    ``shard_overrides`` table left behind by live
    :meth:`~repro.streaming.sharding.ShardedKnnIndex.rebalance` moves,
    so the installer re-derives each shard's dirty slice and cache from
    the merged tuples — which is also what makes restoring at a
    different shard count (re-sharding) exact: a count change re-derives
    ownership from the new modulus (resetting the overrides, exactly as
    a live count-changing rebalance does).
    """

    def __init__(
        self, n_shards: int, shard_overrides: dict | None = None, **fields
    ):
        super().__init__(**fields)
        object.__setattr__(self, "n_shards", int(n_shards))
        object.__setattr__(
            self, "shard_overrides", dict(shard_overrides or {})
        )


def _fsync_file(path: Path) -> None:
    with path.open("rb+") as handle:
        os.fsync(handle.fileno())


def save_sharded_checkpoint(index, directory: str | Path) -> Path:
    """Serialize *index* into ``directory/checkpoint-<seq>.shards/``.

    The layout partitions the maintained state the same way the workers
    do: ``base.npz`` holds the shared read-only state (dataset snapshot,
    graph rows), ``shard-<i>.npz`` holds shard *i*'s dirty slice and
    candidate cache.  The directory is staged under a temp name, every
    file fsynced, then atomically renamed into place with a parent
    fsync — a crash mid-checkpoint leaves the previous one intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dataset = index.builder.snapshot()
    neighbors, sims = index._rows()
    graph_arrays = pack_graph_arrays(KnnGraph(neighbors, sims))
    meta = checkpoint_meta(index, dataset)
    meta["layout"] = "sharded"
    meta["n_shards"] = int(index.n_shards)
    overrides = index._shard_map.overrides
    if overrides:
        # Live-rebalance ownership overrides; JSON stringifies the keys,
        # the loader re-ints them.
        meta["shard_overrides"] = overrides
    path = sharded_checkpoint_path(directory, index.last_seq)
    tmp = path.with_name(path.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        meta_file = tmp / "meta.json"
        meta_file.write_text(json.dumps(meta), encoding="utf-8")
        _fsync_file(meta_file)
        np.savez_compressed(
            tmp / "base.npz",
            **graph_arrays,
            **snapshot_to_arrays(dataset),
        )
        _fsync_file(tmp / "base.npz")
        for shard in index._shards:
            shard_file = tmp / f"shard-{shard.shard_id}.npz"
            np.savez_compressed(
                shard_file,
                dirty=np.asarray(sorted(shard.dirty), dtype=np.int64),
                **cache_to_arrays(shard.candidate_counts),
            )
            _fsync_file(shard_file)
        _wal.fsync_dir(tmp)
        if path.exists():
            # Re-checkpoint at the same sequence (same state): replace.
            shutil.rmtree(path)
        os.replace(tmp, path)
        _wal.fsync_dir(directory)
    finally:
        if tmp.exists():  # staging failed before the atomic rename
            shutil.rmtree(tmp, ignore_errors=True)
    return path


def load_sharded_checkpoint(path: str | Path) -> ShardedCheckpointState:
    """Parse a ``checkpoint-<seq>.shards`` directory back into state."""
    path = Path(path)
    meta_file = path / "meta.json"
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt sharded checkpoint metadata in {path}"
        ) from exc
    version = meta.get("version")
    if version not in SUPPORTED_CHECKPOINT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path} "
            f"(this library writes version {CHECKPOINT_VERSION} and "
            f"reads {sorted(SUPPORTED_CHECKPOINT_VERSIONS)})"
        )
    n_shards = int(meta.get("n_shards", 0))
    if n_shards < 1:
        raise CheckpointError(f"invalid shard count in {path}: {n_shards}")
    with np.load(path / "base.npz", allow_pickle=False) as archive:
        graph = unpack_graph_arrays(archive)
        dataset = snapshot_from_arrays(archive, name=meta["name"])
    dirty: list[int] = []
    cache: list[tuple] = []
    for shard in range(n_shards):
        with np.load(
            path / f"shard-{shard}.npz", allow_pickle=False
        ) as archive:
            dirty.extend(archive["dirty"].tolist())
            cache.extend(cache_from_arrays(archive))
    return checkpoint_state_from_meta(
        meta,
        cls=ShardedCheckpointState,
        n_shards=n_shards,
        shard_overrides={
            int(user): int(shard)
            for user, shard in (meta.get("shard_overrides") or {}).items()
        },
        path=path,
        dataset=dataset,
        neighbors=graph.neighbors,
        sims=graph.sims,
        dirty=tuple(sorted(dirty)),
        cache=tuple(cache),
    )


def restore_sharded_index(
    cls,
    directory: str | Path,
    metric=None,
    refresh: bool = True,
    fsync_every: int | None = 64,
    n_shards: int | None = None,
    executor: str | None = None,
):
    """Recover a ``ShardedKnnIndex`` from *directory* (either layout).

    Loads the newest readable checkpoint — sharded ``.shards`` directory
    or flat ``.npz`` archive, whichever carries the highest sequence —
    replays the merged partitioned log tail in global order with
    refinement suppressed, runs one refresh, and reattaches a
    :class:`PartitionedWriteAheadLog` so journaling continues where the
    crashed run stopped.  ``n_shards`` defaults to the checkpoint's
    shard count (2 when restoring a flat layout); any other value
    re-shards the state exactly, re-deriving ownership from the new
    modulus (live-rebalance overrides recorded in the checkpoint are
    reset, exactly as a live count-changing rebalance resets them).

    Replayed ``migrate_begin``/``migrate_commit`` fences re-apply live
    rebalances at their exact sequence positions; a ``migrate_begin``
    with no matching commit (crash mid-rebalance) replays as a no-op,
    rolling the ownership flip back to the fence.

    *cls* is the index class (passed in to avoid a circular import);
    call this as ``ShardedKnnIndex.restore(directory)``.
    """
    from ..streaming.events import CONTROL_EVENTS
    from ..streaming.sharding import ShardMap

    directory = Path(directory)
    state = load_latest_checkpoint(
        directory,
        [
            (_discover_sharded, load_sharded_checkpoint),
            (_discover_flat, load_checkpoint),
        ],
    )
    checkpoint_shards = getattr(state, "n_shards", None)
    requested = None if n_shards is None else int(n_shards)
    if n_shards is None:
        n_shards = checkpoint_shards if checkpoint_shards else 2
    index_kwargs = {} if executor is None else {"executor": executor}
    index = cls(
        state.dataset,
        state.config,
        metric=state.metric if metric is None else metric,
        auto_refresh=False,
        build=False,
        candidate_cache_size=state.candidate_cache_size,
        n_shards=n_shards,
        **index_kwargs,
    )
    overrides = getattr(state, "shard_overrides", None)
    if overrides and index.n_shards == checkpoint_shards:
        # Same shard count as the checkpoint: adopt its live-rebalance
        # overrides before the installer routes per-user state, so
        # dirty/cache/reverse slices land on their overridden owners.
        index._shard_map = ShardMap(index.n_shards, overrides)
    install_checkpoint_state(index, state)
    replayed = 0
    for seq, event in read_partitioned_wal(directory, after=state.seq):
        if seq != index._seq + 1:
            raise CheckpointError(
                f"partitioned log under {directory} resumes at sequence "
                f"{seq} but checkpoint {state.path.name} ends at "
                f"{index._seq}; events {index._seq + 1}..{seq - 1} are "
                f"not recoverable from this state directory"
            )
        index._absorb(event)
        index._seq = seq
        replayed += 1
        if not isinstance(event, CONTROL_EVENTS):
            index._pending_events += 1
    if requested is not None and index.n_shards != requested:
        # The caller pinned a shard count but a replayed rebalance (or
        # the checkpoint itself) left the index elsewhere: one final
        # non-journaled re-shard honours the explicit request.
        index._apply_plan_flip((), requested)
    if refresh:
        index.refresh()
    index.auto_refresh = state.auto_refresh
    wal = PartitionedWriteAheadLog(
        directory, index.n_shards, fsync_every=fsync_every
    )
    if wal.last_seq < index.last_seq:
        # A crash ate an fsync-batched tail that a durable checkpoint
        # had already absorbed: jump the global counter past the gap.
        # The segments keep their records (explicit sequence numbers
        # make that safe) and recovery from an older checkpoint still
        # fails loudly at the gap instead of silently skipping it.
        wal.advance_to(index.last_seq)
    index.attach_wal(wal)
    index.restore_info = RestoreInfo(
        checkpoint=state.path,
        checkpoint_seq=state.seq,
        replayed_events=replayed,
        last_seq=index.last_seq,
        evaluations=index.engine.counter.evaluations - state.evaluations,
    )
    return index
