"""Checkpoints and restore: the one durable layout for every index.

A checkpoint serializes everything an index needs to resume exactly
where it was, as a ``checkpoint-<seq>.shards/`` directory of two files:

* ``meta.json`` — format version, sequence, config, metric, counters,
  the shard count and any live-rebalance ownership overrides;
* ``base.npz`` — the state: the dataset snapshot (via
  :func:`repro.datasets.mutable.snapshot_to_arrays`), the KNN graph
  rows at their full maintained width, reserve columns included
  (CSR-packed via :func:`repro.graph.io.pack_graph_arrays`), each
  row's exact depth (``row_depth``), the dirty users (``dirty``) and
  their lost-item records (``lost_users``/``lost_items``, parallel
  arrays): the items each dropped or re-rated since her last pass.

Every index writes the same two files at any shard count; ownership is
recorded only as the map (``n_shards`` plus overrides), never as a
split of the state.  The reserve and the depths are stored because a
restored index would otherwise have to treat every row as exact to
``k`` only, and its repairs would fall back to rescans until each row
was rebuilt.  The lost-item records are stored because the refresh
finds the rows citing a dirty user among the raters of her items, and
a row may still cite her through an item she has since dropped.
Candidate sets are not stored: every refresh derives the ones it
needs, and the rows citing each dirty user, from the dataset snapshot.

Recovery (:func:`restore_index`) = latest readable checkpoint + the
merged :mod:`partitioned log <repro.persistence.partition>` tail,
replayed once in global order at the checkpoint's shard count.
Because the maintained graph is the converged KIFF fixed point —
independent of the refresh schedule and of which shard owns a user —
the restored index's refreshed graph is
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
from ..graph.knn_graph import MISSING, KnnGraph
from ..layout import ID_DTYPE, SCORE_DTYPE, dtype_tags
from ..streaming.index import RESERVE
from . import wal as _wal
from .partition import PartitionedWriteAheadLog, read_partitioned_wal
from .wal import PersistenceError

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "RestoreInfo",
    "checkpoint_path",
    "install_checkpoint_state",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_index",
    "save_checkpoint",
]


class CheckpointError(PersistenceError):
    """Raised when a checkpoint is missing, corrupt or incompatible."""


#: Version written by this library.  Version 5 stores the graph rows
#: ``k + RESERVE`` wide with each row's exact depth, CSR-packed at the
#: compact layout (int32 ids, float32 sims; see :mod:`repro.layout`),
#: tags the metadata with the dtype contract, and keeps the dirty users
#: and their lost-item records in ``base.npz`` beside the rows.
CHECKPOINT_VERSION = 5
#: Versions :func:`load_checkpoint` can restore.
SUPPORTED_CHECKPOINT_VERSIONS = frozenset({5})
_PREFIX = "checkpoint-"
_SUFFIX = ".shards"


@dataclass(frozen=True)
class CheckpointState:
    """Everything :func:`load_checkpoint` recovers from one checkpoint.

    Ownership is ``n_shards`` plus the (usually empty)
    ``shard_overrides`` table left behind by live
    :meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` moves, so
    :func:`install_checkpoint_state` rebuilds the map and derives the
    shards from it and the rows — which is also what makes restoring at
    a different shard count (re-sharding) exact.
    """

    path: Path
    seq: int
    name: str
    metric: str
    config: KiffConfig
    auto_refresh: bool
    pending_events: int
    initial_evaluations: int
    evaluations: int
    maintenance: dict
    dataset: BipartiteDataset
    #: The maintained rows, ``config.k + RESERVE`` wide.
    neighbors: np.ndarray
    sims: np.ndarray
    #: Each row's exact depth (see ``repro.streaming.index._ShardHost``).
    depth: np.ndarray
    dirty: tuple[int, ...]
    #: ``{user: items}``: the items each dirty user dropped or re-rated
    #: since her last pass.
    lost: dict
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


def _fsync_file(path: Path) -> None:
    with path.open("rb+") as handle:
        os.fsync(handle.fileno())


def save_checkpoint(index, directory: str | Path) -> Path:
    """Serialize *index* into ``directory/checkpoint-<seq>.shards/``.

    Callable at any point of the stream — pending (unrefreshed) events
    are captured through the dataset snapshot plus the dirty set, so a
    restore followed by one refresh lands on the same converged graph.
    ``meta.json`` holds the metadata and the ownership map, ``base.npz``
    the state (dataset snapshot, full-width graph rows and their
    depths, the dirty users and their lost-item records).  The
    directory is staged under a temp name, every file fsynced, then
    atomically renamed into place with a parent fsync — a crash
    mid-checkpoint leaves the previous one intact.
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
        "initial_evaluations": int(index.initial_evaluations),
        "evaluations": int(index.engine.counter.evaluations),
        "maintenance": {
            field: int(getattr(index.maintenance, field))
            for field in index.maintenance.__dataclass_fields__
        },
        "n_shards": index.n_shards,
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
        pairs = [
            (user, item)
            for user, items in sorted(index._lost.items())
            for item in sorted(items)
        ]
        lost = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(
            tmp / "base.npz",
            **graph_arrays,
            row_depth=index._depth[: index._n_rows],
            **snapshot_to_arrays(dataset),
            dirty=np.asarray(sorted(index._dirty), dtype=np.int64),
            lost_users=lost[:, 0],
            lost_items=lost[:, 1],
        )
        _fsync_file(tmp / "base.npz")
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
    """Parse a ``checkpoint-<seq>.shards`` directory back into state.

    Raises :class:`CheckpointError`, naming the field, for a state the
    index cannot run on: rows of another width, depths outside
    ``[k, k + RESERVE]``, a graph row count other than the snapshot's
    users, or a dirty or lost user, lost item or graph id outside the
    snapshot.
    """
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
        depth = np.asarray(archive["row_depth"])
        dataset = snapshot_from_arrays(archive, name=meta["name"])
        dirty = archive["dirty"]
        lost_users, lost_items = archive["lost_users"], archive["lost_items"]
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
    width = config.k + RESERVE
    if graph.k != width or depth.shape != (graph.n_users,):
        raise CheckpointError(
            f"checkpoint {path} holds {graph.k}-wide rows with "
            f"{depth.size} depths; this library keeps {width}-wide rows "
            f"(k={config.k} plus a reserve of {RESERVE}), one depth each"
        )
    # The repair reads each row's boundary at depth - 1: a depth below
    # k would read a wrong column (0 wraps to the last), one above the
    # width would index past the row.
    if not ((depth >= config.k) & (depth <= width)).all():
        raise CheckpointError(
            f"checkpoint {path} holds row depths outside "
            f"[{config.k}, {width}]"
        )
    # Every id indexes the snapshot's rows or items: one outside them
    # would fail the refresh after loading (too late to fall back to
    # an older checkpoint) or, if negative, index from the end.
    if graph.n_users != dataset.n_users:
        raise CheckpointError(
            f"checkpoint {path} holds {graph.n_users} graph rows for "
            f"{dataset.n_users} users"
        )
    ids = graph.neighbors
    for field, values, bound in (
        ("dirty", dirty, dataset.n_users),
        ("lost_users", lost_users, dataset.n_users),
        ("lost_items", lost_items, dataset.n_items),
        ("graph_ids", ids[ids != MISSING], dataset.n_users),
    ):
        if not ((values >= 0) & (values < bound)).all():
            raise CheckpointError(
                f"checkpoint {path} holds {field} outside [0, {bound})"
            )
    lost: dict[int, set[int]] = {}
    for user, item in zip(lost_users.tolist(), lost_items.tolist()):
        lost.setdefault(user, set()).add(item)
    return CheckpointState(
        path=path,
        seq=int(meta["seq"]),
        name=meta["name"],
        metric=meta["metric"],
        config=config,
        auto_refresh=bool(meta["auto_refresh"]),
        pending_events=int(meta["pending_events"]),
        initial_evaluations=int(meta["initial_evaluations"]),
        evaluations=int(meta["evaluations"]),
        maintenance=dict(meta["maintenance"]),
        dataset=dataset,
        neighbors=graph.neighbors,
        sims=graph.sims,
        depth=depth,
        dirty=tuple(sorted(dirty.tolist())),
        lost=lost,
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

    The index takes the checkpoint's rows and its ownership map (shard
    count plus live-rebalance overrides), and derives fresh shards from
    the two.
    """
    from ..streaming.sharding import ShardMap

    # astype(copy=True): the index must own its rows, and a hand-built
    # wide state narrows to the compact layout.
    index._neighbors = np.asarray(state.neighbors).astype(ID_DTYPE)
    index._sims = np.asarray(state.sims).astype(SCORE_DTYPE)
    index._depth = np.asarray(state.depth).astype(ID_DTYPE)
    index._n_rows = state.neighbors.shape[0]
    # New rows: the next publication packs every one of them.
    index._publish_all = True
    index._partition(ShardMap(state.n_shards, state.shard_overrides))
    index._dirty.clear()
    index._dirty.update(state.dirty)
    index._lost = {user: set(items) for user, items in state.lost.items()}
    index._pending_events = state.pending_events
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

    The tail replays at the checkpoint's shard count, with its
    live-rebalance overrides, so every replayed
    ``migrate_begin``/``migrate_commit`` fence re-applies its live
    rebalance at its exact sequence position and at the count that
    journaled it; a ``migrate_begin`` with no matching commit (crash
    mid-rebalance) replays as a no-op, rolling the ownership flip back
    to the fence.  *n_shards* (None keeps wherever the replay ends) is
    then reached by one re-shard, which resets the overrides to the
    plain modulus — exact either way, since ownership never affects
    graph content.  *executor* (None
    keeps *cls*'s default) picks the transport.

    *cls* is the index class (passed in to avoid a circular import);
    call this as ``DynamicKnnIndex.restore(directory)`` (one shard) or
    ``ShardedKnnIndex.restore(directory)`` (the checkpoint's count).
    """
    from ..streaming.events import CONTROL_EVENTS

    directory = Path(directory)
    state = _load_latest(directory)
    index = cls(
        state.dataset,
        state.config,
        metric=state.metric if metric is None else metric,
        auto_refresh=False,
        build=False,
        n_shards=state.n_shards,
        **({} if executor is None else {"executor": executor}),
    )
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
    if n_shards is not None and index.n_shards != n_shards:
        # One final non-journaled re-shard honours the explicit count.
        index._apply_plan_flip((), n_shards)
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
