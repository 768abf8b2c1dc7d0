"""Streaming KNN maintenance: KIFF as an online subsystem.

See :mod:`repro.streaming.index` for the maintenance invariant and
``README.md`` ("Streaming maintenance" / "Durability") for usage.  The
subsystem keeps the converged KIFF graph exact under continuous typed
events — :meth:`DynamicKnnIndex.apply` is the single ingestion path —
at a fraction of the full-rebuild similarity cost, and (with
:mod:`repro.persistence`) survives restarts via a write-ahead log plus
checkpoint/restore.  It is one index class: ``DynamicKnnIndex(...,
n_shards=N, executor=...)`` partitions the same state across ``N``
shards (see :mod:`repro.streaming.sharding`) and runs the same
refinement shard-parallel, bit-identically, with partitioned WAL
segments and checkpoints, and re-balances shard ownership live
(WAL-fenced :meth:`DynamicKnnIndex.rebalance`) without stopping
ingestion.  :class:`ShardedKnnIndex` is the same class with
partitioned defaults (two shards, the thread executor).
"""

from .events import (
    AddRating,
    AddUser,
    ApplyResult,
    Batch,
    Event,
    MigrateBegin,
    MigrateCommit,
    RemoveRating,
    RemoveUser,
    ratings_batch,
)
from .index import (
    DynamicKnnIndex,
    RefreshStats,
    cold_rebuild_graph,
    converged_config,
)
from .sharding import (
    RebalanceStats,
    ShardMap,
    ShardOutbox,
    ShardPlan,
    ShardedKnnIndex,
)
from .workload import (
    StreamReplayResult,
    flash_crowd_events,
    holdout_stream,
    poisson_burst_sizes,
    replay_stream,
)

__all__ = [
    "AddRating",
    "AddUser",
    "ApplyResult",
    "Batch",
    "DynamicKnnIndex",
    "Event",
    "MigrateBegin",
    "MigrateCommit",
    "RebalanceStats",
    "RefreshStats",
    "RemoveRating",
    "RemoveUser",
    "ShardMap",
    "ShardOutbox",
    "ShardPlan",
    "ShardedKnnIndex",
    "StreamReplayResult",
    "cold_rebuild_graph",
    "converged_config",
    "flash_crowd_events",
    "holdout_stream",
    "poisson_burst_sizes",
    "ratings_batch",
    "replay_stream",
]
