"""Durability for streaming KNN maintenance: WAL + checkpoint/restore.

The streaming subsystem keeps the converged KIFF graph exact under live
events; this package makes that state survive restarts.  There is one
durable layout, partitioned by shard; the flat
:class:`~repro.streaming.index.DynamicKnnIndex` writes its one-shard
case:

* :class:`PartitionedWriteAheadLog` — an append-only journal every
  applied event flows through, as ``wal-<shard>.jsonl`` segments
  sharing one global sequence (fsync group-committed, torn-tail
  tolerant); :func:`read_partitioned_wal` merges the segments back into
  the total event order, and :class:`WriteAheadLog` is one segment file.
* :func:`save_checkpoint` / :func:`load_checkpoint` — a
  ``checkpoint-<seq>.shards/`` directory holding the full maintained
  state in two files: ``meta.json`` (config, counters, ownership map)
  and ``base.npz`` (dataset snapshot, graph rows, dirty set).
* :func:`restore_index` — latest checkpoint + merged WAL-tail replay;
  the refreshed result is bit-identical to the uninterrupted run, at
  any shard count.

Use through the index: ``index.checkpoint(dir)`` and
``DynamicKnnIndex.restore(dir)`` (one shard) /
``ShardedKnnIndex.restore(dir)`` (the checkpoint's shard count) — see
README ("Durability").
"""

from .checkpoint import (
    CheckpointError,
    CheckpointState,
    RestoreInfo,
    checkpoint_path,
    install_checkpoint_state,
    latest_checkpoint,
    load_checkpoint,
    restore_index,
    save_checkpoint,
)
from .partition import (
    PartitionedWriteAheadLog,
    read_partitioned_wal,
    wal_segment_path,
)
from .wal import (
    PersistenceError,
    WalError,
    WriteAheadLog,
    decode_event,
    encode_event,
    fsync_dir,
    read_wal,
)

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "PartitionedWriteAheadLog",
    "PersistenceError",
    "RestoreInfo",
    "WalError",
    "WriteAheadLog",
    "checkpoint_path",
    "decode_event",
    "encode_event",
    "fsync_dir",
    "install_checkpoint_state",
    "latest_checkpoint",
    "load_checkpoint",
    "read_partitioned_wal",
    "read_wal",
    "restore_index",
    "save_checkpoint",
    "wal_segment_path",
]
