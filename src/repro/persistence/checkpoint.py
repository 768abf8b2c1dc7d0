"""Checkpoints and restore: the one durable layout for every index.

A checkpoint serializes everything an index needs to resume exactly
where it was, as a ``checkpoint-<seq>.shards/`` directory that
partitions the state the way the shards hold it:

* ``meta.json`` — format version, sequence, config, metric, counters,
  the shard count and any live-rebalance ownership overrides;
* ``base.npz`` — the shared read-only state: the dataset snapshot (via
  :func:`repro.datasets.mutable.snapshot_to_arrays`) and the KNN graph
  rows (CSR-packed via :func:`repro.graph.io.pack_graph_arrays`);
* ``shard-<i>.npz`` — shard *i*'s dirty slice and delta-maintained
  candidate-multiset cache (in insertion order, so eviction order
  survives).

The flat :class:`~repro.streaming.index.DynamicKnnIndex` writes the
one-shard case.  The reverse-neighbor index is *not* stored: it is a
pure function of the graph rows and is re-derived on load, which is both
cheaper than parsing it and immune to drift.

Recovery (:func:`restore_index`) = latest readable checkpoint + the
merged :mod:`partitioned log <repro.persistence.partition>` tail,
replayed once in global order.  Because the maintained graph is the
converged KIFF fixed point — independent of the refresh schedule and of
which shard owns a user — the restored index's refreshed graph is
**bit-identical** to the uninterrupted run's at any shard count (the
recovery parity suites pin this across randomized kill points).

Checkpoints are staged under a temp name, every file fsynced, then
atomically renamed into place with a parent-directory fsync, so a crash
mid-checkpoint leaves the previous one intact.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.config import KiffConfig
from ..datasets.bipartite import BipartiteDataset
from ..datasets.mutable import snapshot_from_arrays, snapshot_to_arrays
from ..graph.io import pack_graph_arrays, unpack_graph_arrays
from ..graph.knn_graph import KnnGraph
from ..layout import ID_DTYPE, SCORE_DTYPE, dtype_tags, indptr_dtype
from . import wal as _wal
from .partition import PartitionedWriteAheadLog, read_partitioned_wal
from .wal import PersistenceError

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "RestoreInfo",
    "cache_from_arrays",
    "cache_to_arrays",
    "checkpoint_path",
    "install_checkpoint_state",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_index",
    "save_checkpoint",
]


class CheckpointError(PersistenceError):
    """Raised when a checkpoint is missing, corrupt or incompatible."""


#: Version written by this library.  Version 2 stores the graph rows
#: CSR-packed at the compact layout (int32 ids, float32 sims; see
#: :mod:`repro.layout`) and tags the metadata with the dtype contract.
CHECKPOINT_VERSION = 2
#: Versions :func:`load_checkpoint` can restore.
SUPPORTED_CHECKPOINT_VERSIONS = frozenset({2})
_PREFIX = "checkpoint-"
_SUFFIX = ".shards"


@dataclass(frozen=True)
class CheckpointState:
    """Everything :func:`load_checkpoint` recovers from one checkpoint.

    The per-shard slices are merged here: ownership is derivable from
    ``n_shards`` plus the (usually empty) ``shard_overrides`` table
    left behind by live
    :meth:`~repro.streaming.sharding.ShardedKnnIndex.rebalance` moves,
    so :func:`install_checkpoint_state` re-derives each shard's dirty
    slice and cache from the merged tuples — which is also what makes
    restoring at a different shard count (re-sharding) exact.
    """

    path: Path
    seq: int
    name: str
    metric: str
    config: KiffConfig
    auto_refresh: bool
    pending_events: int
    candidate_cache_size: int | None
    initial_evaluations: int
    evaluations: int
    maintenance: dict
    dataset: BipartiteDataset
    neighbors: np.ndarray
    sims: np.ndarray
    dirty: tuple[int, ...]
    #: ``(user, {candidate: count})`` pairs in cache-insertion order.
    cache: tuple
    n_shards: int
    #: ``{user: shard}`` live-rebalance ownership overrides.
    shard_overrides: dict


@dataclass(frozen=True)
class RestoreInfo:
    """Provenance of a restored index (stashed as ``index.restore_info``)."""

    checkpoint: Path
    checkpoint_seq: int
    #: WAL-tail events replayed on top of the checkpoint.
    replayed_events: int
    last_seq: int
    #: Similarity evaluations the restore spent (tail replay + refresh).
    evaluations: int


def checkpoint_path(directory: str | Path, seq: int) -> Path:
    """Canonical directory path for a checkpoint at sequence *seq*."""
    return Path(directory) / f"{_PREFIX}{seq:012d}{_SUFFIX}"


def _discover(directory: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` for every ``checkpoint-<seq>.shards`` candidate."""
    found: list[tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for path in directory.glob(f"{_PREFIX}*{_SUFFIX}"):
        if not path.is_dir():
            continue
        stem = path.name[len(_PREFIX) : -len(_SUFFIX)]
        try:
            found.append((int(stem), path))
        except ValueError:
            continue
    return sorted(found, reverse=True)


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-sequence checkpoint under *directory* (or None)."""
    candidates = _discover(Path(directory))
    return candidates[0][1] if candidates else None


def cache_to_arrays(candidate_counts: dict) -> dict[str, np.ndarray]:
    """A candidate-multiset cache as compressed parallel arrays.

    Insertion order is preserved (it is the cache's eviction order).
    The inverse is :func:`cache_from_arrays`.
    """
    cache_users = list(candidate_counts)
    cache_lengths = [len(candidate_counts[u]) for u in cache_users]
    cache_indptr = np.zeros(len(cache_users) + 1, dtype=np.int64)
    np.cumsum(cache_lengths, out=cache_indptr[1:])
    cache_candidates = np.concatenate(
        [
            np.fromiter(counts.keys(), np.int64, len(counts))
            for counts in (candidate_counts[u] for u in cache_users)
        ]
        or [np.empty(0, dtype=np.int64)]
    )
    cache_counts = np.concatenate(
        [
            np.fromiter(counts.values(), np.int64, len(counts))
            for counts in (candidate_counts[u] for u in cache_users)
        ]
        or [np.empty(0, dtype=np.int64)]
    )
    # User/candidate ids and shared-item counts all fit the compact id
    # width; cache_from_arrays round-trips via tolist(), so the dtype is
    # purely an at-rest size choice.
    return {
        "cache_users": np.asarray(cache_users, dtype=ID_DTYPE),
        "cache_indptr": cache_indptr.astype(
            indptr_dtype(int(cache_indptr[-1])), copy=False
        ),
        "cache_candidates": cache_candidates.astype(ID_DTYPE, copy=False),
        "cache_counts": cache_counts.astype(ID_DTYPE, copy=False),
    }


def cache_from_arrays(archive) -> tuple:
    """Inverse of :func:`cache_to_arrays` (accepts any array mapping)."""
    cache_users = np.asarray(archive["cache_users"]).tolist()
    cache_indptr = np.asarray(archive["cache_indptr"])
    cache_candidates = np.asarray(archive["cache_candidates"])
    cache_counts = np.asarray(archive["cache_counts"])
    return tuple(
        (
            user,
            dict(
                zip(
                    cache_candidates[
                        cache_indptr[pos] : cache_indptr[pos + 1]
                    ].tolist(),
                    cache_counts[
                        cache_indptr[pos] : cache_indptr[pos + 1]
                    ].tolist(),
                )
            ),
        )
        for pos, user in enumerate(cache_users)
    )


def _fsync_file(path: Path) -> None:
    with path.open("rb+") as handle:
        os.fsync(handle.fileno())


def save_checkpoint(index, directory: str | Path) -> Path:
    """Serialize *index* into ``directory/checkpoint-<seq>.shards/``.

    Callable at any point of the stream — pending (unrefreshed) events
    are captured through the dataset snapshot plus the dirty set, so a
    restore followed by one refresh lands on the same converged graph.
    ``base.npz`` holds the shared read-only state (dataset snapshot,
    graph rows), ``shard-<i>.npz`` shard *i*'s dirty slice and candidate
    cache.  The directory is staged under a temp name, every file
    fsynced, then atomically renamed into place with a parent fsync — a
    crash mid-checkpoint leaves the previous one intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dataset = index.builder.snapshot()
    neighbors, sims = index._rows()
    graph_arrays = pack_graph_arrays(KnnGraph(neighbors, sims))
    meta = {
        "version": CHECKPOINT_VERSION,
        "dtypes": dtype_tags(),
        "seq": index.last_seq,
        "name": dataset.name,
        "metric": index.engine.metric.name,
        "config": asdict(index.config),
        "auto_refresh": bool(index.auto_refresh),
        "pending_events": int(index.pending_events),
        "candidate_cache_size": index.candidate_cache_size,
        "initial_evaluations": int(index.initial_evaluations),
        "evaluations": int(index.engine.counter.evaluations),
        "maintenance": {
            field: int(getattr(index.maintenance, field))
            for field in index.maintenance.__dataclass_fields__
        },
        "layout": "sharded",
        "n_shards": len(index._shards),
    }
    overrides = index._shard_map.overrides
    if overrides:
        # Live-rebalance ownership overrides; JSON stringifies the keys,
        # the loader re-ints them.
        meta["shard_overrides"] = overrides
    path = checkpoint_path(directory, index.last_seq)
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
        # A re-checkpoint at the same sequence (same state) replaces the
        # old directory.  A rename cannot replace a non-empty directory,
        # so the old one moves aside under a name _discover ignores and
        # is deleted only once the new one is durable; a failed swap
        # moves it back.
        aside = path.with_name(path.name + ".old")
        if aside.exists():
            shutil.rmtree(aside)
        if path.exists():
            os.replace(path, aside)
        try:
            os.replace(tmp, path)
        except BaseException:
            if aside.exists():
                os.replace(aside, path)
            raise
        # The new directory entry lives in the parent's metadata, which
        # needs its own fsync or a power loss can silently undo the
        # just-"committed" rename.
        _wal.fsync_dir(directory)
        shutil.rmtree(aside, ignore_errors=True)
    finally:
        if tmp.exists():  # staging failed before the atomic rename
            shutil.rmtree(tmp, ignore_errors=True)
    return path


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Parse a ``checkpoint-<seq>.shards`` directory back into state."""
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint metadata in {path}"
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
    config_fields = dict(meta["config"])
    gamma = config_fields.get("gamma")
    if gamma is not None:
        config_fields["gamma"] = float(gamma)
    try:
        config = KiffConfig(**config_fields)
    except (TypeError, ValueError) as exc:
        # E.g. a kernel_backend other than the one bit-identical
        # kernel: its graph rows cannot meet the parity invariant.
        raise CheckpointError(f"unusable config in {path}: {exc}") from exc
    return CheckpointState(
        path=path,
        seq=int(meta["seq"]),
        name=meta["name"],
        metric=meta["metric"],
        config=config,
        auto_refresh=bool(meta["auto_refresh"]),
        pending_events=int(meta["pending_events"]),
        candidate_cache_size=meta["candidate_cache_size"],
        initial_evaluations=int(meta["initial_evaluations"]),
        evaluations=int(meta["evaluations"]),
        maintenance=dict(meta["maintenance"]),
        dataset=dataset,
        neighbors=graph.neighbors,
        sims=graph.sims,
        dirty=tuple(sorted(dirty)),
        cache=tuple(cache),
        n_shards=n_shards,
        shard_overrides={
            int(user): int(shard)
            for user, shard in (meta.get("shard_overrides") or {}).items()
        },
    )


def _load_latest(directory: Path) -> CheckpointState:
    """Newest *readable* checkpoint state under *directory*.

    Every candidate is tried newest-first, falling back past unreadable
    ones (a crash can leave the latest one truncated even with atomic
    renames) — the WAL tail bridges whatever an older checkpoint is
    missing, and replay verifies sequence contiguity and fails loudly
    if it can't.
    """
    candidates = _discover(directory)
    if not candidates:
        raise CheckpointError(
            f"no checkpoint under {directory}; call "
            f"index.checkpoint(directory) at least once before restoring"
        )
    failures: list[str] = []
    for _, path in candidates:
        try:
            return load_checkpoint(path)
        except Exception as exc:  # noqa: BLE001 - any corruption: try older
            failures.append(f"{path.name}: {exc}")
    raise CheckpointError(
        f"no readable checkpoint under {directory} ({'; '.join(failures)})"
    )


def install_checkpoint_state(index, state: CheckpointState) -> None:
    """Install a loaded checkpoint into a freshly built (build=False) index.

    Works through the index's own state surfaces (``_dirty``,
    ``_reverse``, ``_cache_insert``) rather than raw assignment, so the
    per-user state routes to its owner shard at the index's shard count.
    """
    # astype(copy=True): the index must own its rows, and a hand-built
    # wide state narrows to the compact layout.
    index._neighbors = np.asarray(state.neighbors).astype(ID_DTYPE)
    index._sims = np.asarray(state.sims).astype(SCORE_DTYPE)
    index._n_rows = state.neighbors.shape[0]
    index._reverse.rebuild(state.neighbors)
    index._dirty.clear()
    index._dirty.update(state.dirty)
    index._pending_events = state.pending_events
    for user, counts in state.cache:
        index._cache_insert(int(user), dict(counts))
    index.engine.counter.evaluations = state.evaluations
    index.initial_evaluations = state.initial_evaluations
    for field, value in state.maintenance.items():
        if field in index.maintenance.__dataclass_fields__:
            setattr(index.maintenance, field, value)
    index._seq = state.seq


def restore_index(
    cls,
    directory: str | Path,
    metric=None,
    refresh: bool = True,
    fsync_every: int | None = 64,
    n_shards: int | None = None,
    executor: str | None = None,
):
    """Recover an index of class *cls* from *directory*.

    Loads the newest readable checkpoint, replays the merged partitioned
    log tail in global order with refinement suppressed, runs one
    refresh — at a cost proportional to the tail's dirty set, not the
    dataset — and reattaches a :class:`PartitionedWriteAheadLog` so
    journaling continues where the crashed run stopped.

    A :class:`~repro.streaming.index.DynamicKnnIndex` restores at one
    shard from any state directory.  A
    :class:`~repro.streaming.sharding.ShardedKnnIndex` restores at
    ``n_shards`` — by default the checkpoint's count, whose
    live-rebalance overrides are then reinstated; any other count
    re-shards exactly (ownership never affects graph content).
    Replayed ``migrate_begin``/``migrate_commit`` fences re-apply live
    rebalances at their exact sequence positions; a ``migrate_begin``
    with no matching commit (crash mid-rebalance) replays as a no-op,
    rolling the ownership flip back to the fence.

    *cls* is the index class (passed in to avoid a circular import);
    call this as ``DynamicKnnIndex.restore(directory)`` or
    ``ShardedKnnIndex.restore(directory)``.
    """
    from ..streaming.events import CONTROL_EVENTS
    from ..streaming.sharding import ShardedKnnIndex, ShardMap

    directory = Path(directory)
    state = _load_latest(directory)
    index_kwargs = {}
    if issubclass(cls, ShardedKnnIndex):
        index_kwargs["n_shards"] = (
            state.n_shards if n_shards is None else int(n_shards)
        )
        if executor is not None:
            index_kwargs["executor"] = executor
    index = cls(
        state.dataset,
        state.config,
        metric=state.metric if metric is None else metric,
        auto_refresh=False,
        build=False,
        candidate_cache_size=state.candidate_cache_size,
        **index_kwargs,
    )
    if state.shard_overrides and len(index._shards) == state.n_shards:
        # Same shard count as the checkpoint: adopt its live-rebalance
        # overrides before the installer routes per-user state, so
        # dirty/cache/reverse slices land on their overridden owners.
        index._shard_map = ShardMap(state.n_shards, state.shard_overrides)
    install_checkpoint_state(index, state)
    replayed = 0
    for seq, event in read_partitioned_wal(directory, after=state.seq):
        if seq != index._seq + 1:
            # The log's first surviving record starts beyond the
            # checkpoint (e.g. the newer checkpoint that covered the
            # gap is the corrupt one we skipped): replaying would
            # silently drop the events in between.
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
    if n_shards is not None and len(index._shards) != n_shards:
        # The caller pinned a shard count but a replayed rebalance left
        # the index elsewhere: one final non-journaled re-shard honours
        # the explicit request.
        index._apply_plan_flip((), n_shards)
    if refresh:
        index.refresh()
    index.auto_refresh = state.auto_refresh
    wal = PartitionedWriteAheadLog(
        directory, len(index._shards), fsync_every=fsync_every
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
