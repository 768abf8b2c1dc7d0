"""Checkpoint format: the full maintained streaming state in one archive.

A checkpoint serializes everything a
:class:`~repro.streaming.index.DynamicKnnIndex` needs to resume exactly
where it was: the dataset snapshot (via
:func:`repro.datasets.mutable.snapshot_to_arrays`), the KNN graph rows
(CSR-packed via :func:`repro.graph.io.pack_graph_arrays`), the dirty
set, the
delta-maintained candidate-multiset cache (in insertion order, so
eviction order survives), and the cost counters.  The reverse-neighbor
index is *not* stored: it is a pure function of the graph rows and is
re-derived on load, which is both cheaper than parsing it and immune to
drift.

Recovery = latest checkpoint + :mod:`write-ahead log
<repro.persistence.wal>` tail replay.  Because the maintained graph is
the converged KIFF fixed point — independent of the refresh schedule —
the restored index's refreshed graph is **bit-identical** to the
uninterrupted run's (the recovery parity suite pins this across
randomized kill points).

Checkpoints are written atomically (temp file + ``os.replace``) as
``checkpoint-<seq>.npz`` so a crash mid-checkpoint leaves the previous
one intact and :func:`latest_checkpoint` always finds a complete file.
"""

from __future__ import annotations

import json
import os
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
from .wal import WAL_FILENAME, PersistenceError, WriteAheadLog, read_wal

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "RestoreInfo",
    "cache_from_arrays",
    "cache_to_arrays",
    "checkpoint_meta",
    "checkpoint_path",
    "install_checkpoint_state",
    "latest_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
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


@dataclass(frozen=True)
class CheckpointState:
    """Everything :func:`load_checkpoint` recovers from one archive."""

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
    """Canonical archive path for a checkpoint at sequence *seq*."""
    return Path(directory) / f"{_PREFIX}{seq:012d}.npz"


def _checkpoint_candidates(directory: Path) -> list[Path]:
    """Every ``checkpoint-*.npz`` under *directory*, newest first."""
    return [path for _, path in sorted(_discover_flat(directory), reverse=True)]


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-sequence ``checkpoint-*.npz`` under *directory*."""
    candidates = _checkpoint_candidates(Path(directory))
    return candidates[0] if candidates else None


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


def checkpoint_meta(index, dataset) -> dict:
    """The JSON metadata block shared by the flat and sharded layouts."""
    return {
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
    }


def save_checkpoint(index, directory: str | Path) -> Path:
    """Serialize *index* into ``directory/checkpoint-<seq>.npz``.

    Callable at any point of the stream — pending (unrefreshed) events
    are captured through the dataset snapshot plus the dirty set, so a
    restore followed by one refresh lands on the same converged graph.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dataset = index.builder.snapshot()
    neighbors, sims = index._rows()
    graph_arrays = pack_graph_arrays(KnnGraph(neighbors, sims))
    (shard,) = index._shards  # the flat layout holds one shard
    cache_arrays = cache_to_arrays(shard.candidate_counts)
    meta = checkpoint_meta(index, dataset)
    path = checkpoint_path(directory, index.last_seq)
    tmp = path.with_name(path.name + ".tmp.npz")
    try:
        np.savez_compressed(
            tmp,
            meta=np.asarray(json.dumps(meta)),
            **graph_arrays,
            dirty=np.asarray(sorted(index._dirty), dtype=np.int64),
            **cache_arrays,
            **snapshot_to_arrays(dataset),
        )
        # Make the data durable before the rename makes it visible —
        # otherwise a power loss can leave a durable name pointing at
        # lost bytes (restore still falls back to older checkpoints).
        with tmp.open("rb+") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        # ... and make the *rename* durable: the new directory entry
        # lives in the parent's metadata, which needs its own fsync or
        # a power loss can silently undo the just-"committed" rename.
        _wal.fsync_dir(directory)
    finally:
        if tmp.exists():  # savez failed before the atomic rename
            tmp.unlink()
    return path


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Parse a checkpoint archive back into a :class:`CheckpointState`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(str(np.asarray(archive["meta"]).item()))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint metadata in {path}") from exc
        version = meta.get("version")
        if version not in SUPPORTED_CHECKPOINT_VERSIONS:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} in {path} "
                f"(this library writes version {CHECKPOINT_VERSION} and "
                f"reads {sorted(SUPPORTED_CHECKPOINT_VERSIONS)})"
            )
        graph = unpack_graph_arrays(archive)
        dataset = snapshot_from_arrays(archive, name=meta["name"])
        cache = cache_from_arrays(archive)
        return checkpoint_state_from_meta(
            meta,
            path=path,
            dataset=dataset,
            neighbors=graph.neighbors,
            sims=graph.sims,
            dirty=tuple(archive["dirty"].tolist()),
            cache=cache,
        )


def checkpoint_state_from_meta(
    meta: dict, cls=None, **fields
) -> CheckpointState:
    """Assemble a :class:`CheckpointState` (or subclass) from metadata."""
    config_fields = dict(meta["config"])
    gamma = config_fields.get("gamma")
    if gamma is not None:
        config_fields["gamma"] = float(gamma)
    return (cls or CheckpointState)(
        seq=int(meta["seq"]),
        name=meta["name"],
        metric=meta["metric"],
        config=KiffConfig(**config_fields),
        auto_refresh=bool(meta["auto_refresh"]),
        pending_events=int(meta["pending_events"]),
        candidate_cache_size=meta["candidate_cache_size"],
        initial_evaluations=int(meta["initial_evaluations"]),
        evaluations=int(meta["evaluations"]),
        maintenance=dict(meta["maintenance"]),
        **fields,
    )


def load_latest_checkpoint(directory: Path, loaders) -> "CheckpointState":
    """Newest *readable* checkpoint state under *directory*.

    ``loaders`` maps a glob-discovery function to a load function; every
    discovered candidate is tried newest-first, falling back past
    unreadable archives (a crash can leave the latest one truncated even
    with atomic renames) — the WAL tail bridges whatever an older
    checkpoint is missing, and replay verifies sequence contiguity and
    fails loudly if it can't.
    """
    candidates: list[tuple[int, Path, object]] = []
    for discover, load in loaders:
        for seq, path in discover(directory):
            candidates.append((seq, path, load))
    if not candidates:
        raise CheckpointError(
            f"no checkpoint archives under {directory}; call "
            f"index.checkpoint(directory) at least once before restoring"
        )
    failures: list[str] = []
    for seq, path, load in sorted(
        candidates, key=lambda entry: entry[0], reverse=True
    ):
        try:
            return load(path)
        except Exception as exc:  # noqa: BLE001 - any corruption: try older
            failures.append(f"{path.name}: {exc}")
    raise CheckpointError(
        f"no readable checkpoint under {directory} ({'; '.join(failures)})"
    )


def _discover_flat(directory: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` for every flat ``checkpoint-*.npz`` candidate."""
    found: list[tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for path in directory.glob(f"{_PREFIX}*.npz"):
        stem = path.name[len(_PREFIX) : -len(".npz")]
        try:
            found.append((int(stem), path))
        except ValueError:
            continue
    return found


def install_checkpoint_state(index, state: CheckpointState) -> None:
    """Install a loaded checkpoint into a freshly built (build=False) index.

    Works through the index's own state surfaces (``_dirty``,
    ``_reverse``, ``_cache_insert``) rather than raw assignment, so a
    :class:`~repro.streaming.sharding.ShardedKnnIndex` — whose surfaces
    route to per-shard slices — restores through the same code path.
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
):
    """Recover a ``DynamicKnnIndex`` from *directory* (checkpoint + WAL).

    Loads the latest checkpoint, replays the write-ahead log tail
    (events with ``seq`` beyond the checkpoint) with refinement
    suppressed, then runs one refresh — restoring the converged graph at
    a cost proportional to the tail's dirty set, not the dataset.  When
    a ``wal.jsonl`` is present it is reopened for append, so the
    restored index keeps journaling where the crashed one stopped.

    *cls* is the index class (passed in to avoid a circular import);
    call this as ``DynamicKnnIndex.restore(directory)``.
    """
    directory = Path(directory)
    from .partition import detect_state_layout

    if detect_state_layout(directory) == "sharded":
        raise CheckpointError(
            f"{directory} holds a partitioned (sharded) state layout; "
            f"recover it with ShardedKnnIndex.restore(...) or "
            f"'repro-kiff recover {directory}' — replaying only the flat "
            f"artifacts would silently drop the per-shard events"
        )
    state = load_latest_checkpoint(directory, [(_discover_flat, load_checkpoint)])
    ckpt = state.path
    index = cls(
        state.dataset,
        state.config,
        metric=state.metric if metric is None else metric,
        auto_refresh=False,
        build=False,
        candidate_cache_size=state.candidate_cache_size,
    )
    # build=False left an all-dirty empty graph; install the checkpoint.
    install_checkpoint_state(index, state)
    wal_file = directory / WAL_FILENAME
    replayed = 0
    if wal_file.exists():
        for seq, event in read_wal(wal_file, after=state.seq):
            if seq != index._seq + 1:
                # The log's first surviving record starts beyond the
                # checkpoint (e.g. the newer checkpoint that covered
                # the gap is the corrupt one we skipped): replaying
                # would silently drop the events in between.
                raise CheckpointError(
                    f"write-ahead log {wal_file} resumes at sequence "
                    f"{seq} but checkpoint {ckpt.name} ends at "
                    f"{index._seq}; events {index._seq + 1}..{seq - 1} "
                    f"are not recoverable from this state directory"
                )
            index._absorb(event)
            index._pending_events += 1
            index._seq = seq
            replayed += 1
    if refresh:
        index.refresh()
    index.auto_refresh = state.auto_refresh
    if wal_file.exists():
        wal = WriteAheadLog(wal_file, fsync_every=fsync_every)
        if wal.last_seq < index.last_seq:
            # An fsync-batched tail died with the crash while a durable
            # checkpoint got further: the checkpoint already contains
            # those events, so rotate the superseded log aside and
            # restart journaling at the index's sequence.
            wal.close()
            _wal.rotate_superseded(wal_file, index.last_seq)
            wal = WriteAheadLog(wal_file, fsync_every=fsync_every)
        index.attach_wal(wal)
    index.restore_info = RestoreInfo(
        checkpoint=ckpt,
        checkpoint_seq=state.seq,
        replayed_events=replayed,
        last_seq=index.last_seq,
        evaluations=index.engine.counter.evaluations - state.evaluations,
    )
    return index
