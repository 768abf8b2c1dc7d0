"""Incremental maintenance of a KIFF KNN graph under rating streams.

KIFF (Algorithm 1) is an offline batch algorithm, but its two-phase
counting/refinement split is exactly what an online system needs: item
profiles and candidate sets update in O(1) per rating event, and the
refinement step — ``merge_topk`` over freshly evaluated candidate pairs —
localises naturally to the users whose candidacies changed.

:class:`DynamicKnnIndex` maintains the **converged** KIFF graph: the
fixed point KIFF reaches with ``beta = 0`` (every Ranked Candidate Set
exhausted), which is each user's exact top-k over her co-rating
candidates and is independent of ``gamma``, ``beta`` and the iteration
schedule.  That is the graph a cold ``kiff(engine, config)`` rebuild with
``beta = 0.0`` produces on the same data, and the differential-parity
test suite (``tests/streaming/test_parity.py``) asserts exact neighbour
and similarity equality against such rebuilds after arbitrary event
interleavings.

Maintenance invariant
---------------------
After ``refresh()`` the graph equals the cold rebuild because:

* An event only changes user *u*'s profile, so for *profile-local*
  metrics only similarities involving *u* change, and *u* joins the
  **dirty set**.  For metrics with global terms (Adamic-Adar's item
  weights; see ``SimilarityMetric.profile_local``) an item-membership
  change also shifts every pair sharing that item, so all of the item's
  raters join the dirty set too.
* A dirty user's row is rebuilt from scratch: all its pair similarities
  are stale (e.g. cosine renormalises the whole row when one rating
  lands).
* A clean user *x* whose row **contains** a dirty user holds a stale
  entry whose true replacement may be an arbitrary rank-(k+1) candidate,
  so *x* joins the **affected set** and is rebuilt too.
* Every other clean user *x* has only unchanged entries; a dirty user
  can at most *enter* her row, which the mirror merge of the freshly
  evaluated (dirty, x) pairs performs — ``merge_topk`` applies the same
  (sim desc, id asc) tie-breaks as the batch algorithm.

One refresh driver
------------------
The maintained state lives in shards (``repro.streaming.sharding._Shard``:
a dirty slice, a candidate-multiset cache and a row-restricted reverse
index).  The flat index is the one-shard, in-process case; the
partitioned :class:`~repro.streaming.sharding.ShardedKnnIndex` splits
the same state across shards.  Both run the driver written once here
(``_refresh``): select the dirty users (with ``dirty_subset``
deferral), rebind the profiles, run the three per-shard stages —
affected discovery, pair planning with outboxes, dedupe/score/merge —
and record :class:`RefreshStats` and publish a read snapshot.  The
executor only carries the stage calls to the shards.

Dirty-set-proportional cost
---------------------------
Every stage of a refresh scales with the dirty set, not the dataset:

* **Snapshot** — ``MutableBipartiteBuilder.snapshot`` patches only the
  dirty CSR rows (and the CSC mirror) of the previous snapshot instead
  of re-materialising O(n_ratings) state.
* **Index** — ``SimilarityEngine.rebind(..., dirty_users=...)`` updates
  the :class:`~repro.similarity.base.ProfileIndex` in place, recomputing
  norms / profile sizes / metric caches for dirty users only.
* **Affected-row discovery** — a
  :class:`~repro.graph.updates.ReverseNeighborIndex` (user -> rows
  citing her), kept current from the row diffs of every top-k merge,
  replaces the per-pass O(n_users * k) ``np.isin`` scan with a lookup.
* **Candidate sets** — per-user candidate multisets are cached and
  delta-maintained from the item profiles touched by each event, so
  repeat-dirty users never re-derive their candidate sets; cache misses
  are re-derived in bulk by :func:`repro.core.rcs.delta_rcs`, whose cost
  is proportional to the dirty users' item profiles.
* **Similarity evaluations** — proportional to the affected users'
  candidate sets, the streaming analogue of KIFF's "only scan the RCS"
  guarantee.

The per-user work is tallied into a shared
:class:`~repro.instrumentation.counters.MaintenanceCounter`
(``index.maintenance``); ``benchmarks/bench_refresh_locality.py``
asserts the proportionality on a 95/5 workload, and the throughput bench
(``benchmarks/bench_streaming_throughput.py``) measures the evaluation
savings against rebuild-per-batch.

Ingestion and durability
------------------------
Typed events (:mod:`repro.streaming.events`) are the only ingestion
path: :meth:`DynamicKnnIndex.apply` validates, journals (into an
attached :class:`~repro.persistence.PartitionedWriteAheadLog`), absorbs
and refreshes — one choke point for every mutation.  Because of that,
restart recovery is a property of the whole API:
:meth:`DynamicKnnIndex.checkpoint` serializes the maintained state and
:meth:`DynamicKnnIndex.restore` replays the log tail on top of the
latest checkpoint, landing on a graph bit-identical to the
uninterrupted run (``tests/streaming/test_recovery.py`` pins this
across randomized kill points; ``benchmarks/bench_recovery.py`` pins
the cost).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.config import KiffConfig
from ..core.kiff import kiff
from ..core.result import ConstructionResult
from ..datasets.bipartite import BipartiteDataset, DatasetError
from ..datasets.mutable import MutableBipartiteBuilder
from ..graph.knn_graph import MISSING, KnnGraph

# The stages merge through repro.streaming.sharding; the merge stays
# importable from here as well.
from ..graph.updates import merge_topk_rows  # noqa: F401
from ..instrumentation.counters import MaintenanceCounter
from ..layout import ID_DTYPE, SCORE_DTYPE, legacy_nbytes, nbytes
from ..serving.snapshot import GraphSnapshot
from ..similarity.base import ProfileIndex, SimilarityMetric
from ..similarity.engine import SimilarityEngine, score_pairs_chunked
from .events import (
    CONTROL_EVENTS,
    EVENT_TYPES,
    AddRating,
    AddUser,
    ApplyResult,
    RemoveRating,
    RemoveUser,
    flatten_events,
)

__all__ = [
    "DynamicKnnIndex",
    "RefreshStats",
    "cold_rebuild_graph",
    "converged_config",
]


def converged_config(config: KiffConfig) -> KiffConfig:
    """The cold-rebuild configuration matching a maintained graph.

    ``beta = 0`` exhausts every Ranked Candidate Set, producing the
    gamma-independent fixed point :class:`DynamicKnnIndex` maintains.
    """
    return replace(config, beta=0.0, track_snapshots=False)


def cold_rebuild_graph(
    dataset: BipartiteDataset,
    config: KiffConfig,
    metric: str | SimilarityMetric = "cosine",
) -> KnnGraph:
    """The converged KIFF graph on *dataset* — the parity reference.

    This is the single definition of "what the streaming index must
    equal"; the CLI, the staleness experiment and the parity test suite
    all compare against it.  A fresh engine is used so the caller's
    instrumentation is not polluted.
    """
    engine = SimilarityEngine(dataset, metric=metric)
    return kiff(engine, converged_config(config)).graph


@dataclass(frozen=True)
class RefreshStats:
    """Cost accounting for one localized refinement pass."""

    #: Events absorbed since the previous refresh.
    events: int
    #: Users whose own profile changed.
    dirty_users: int
    #: Users whose row was rebuilt (dirty + rows referencing them).
    affected_users: int
    #: Similarity evaluations performed by this pass.
    evaluations: int
    #: KNN slots changed by the pass (merge_topk's change counter).
    changes: int
    #: Wall-clock seconds spent in the pass.
    wall_time: float
    #: Snapshot CSR rows materialised by this pass (dirty rows on the
    #: incremental path, ``n_users`` on a full fallback).
    rows_materialized: int = 0
    #: Users whose ProfileIndex state this pass recomputed.
    index_users_recomputed: int = 0
    #: Candidate-set cache hits / misses among the affected users.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Dirty users this pass left for a later refresh (``dirty_subset``
    #: refreshes only; always 0 for a full pass).
    deferred_users: int = 0


class _ShardHost:
    """What a shard's stages read from the object holding the shard.

    The graph rows live in backing arrays with slack capacity — the
    first ``_n_rows`` rows of ``_neighbors``/``_sims`` are the live
    graph — and ``_qualifies`` is the candidacy rule.  Subclasses add
    ``builder``, ``config``, ``n_users``, ``_shard_map``,
    ``_shard_cache_limit`` and ``_score_pairs``: the index for its own
    shards, and the worker-side host in each ``processes`` worker, so
    both grow rows and apply the rule identically.
    """

    _neighbors: np.ndarray
    _sims: np.ndarray
    _n_rows: int

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live graph rows (backing arrays may hold slack)."""
        return self._neighbors[: self._n_rows], self._sims[: self._n_rows]

    def _grow_rows(self, n_users: int) -> None:
        """Extend the live row count, doubling capacity when exhausted.

        Geometric growth keeps a burst of user joins between refreshes at
        amortized O(k) per join instead of copying the whole graph state
        on every event.
        """
        if n_users <= self._n_rows:
            return
        capacity, k = self._neighbors.shape
        if n_users > capacity:
            new_capacity = max(n_users, 2 * capacity)
            neighbors = np.full((new_capacity, k), MISSING, dtype=ID_DTYPE)
            sims = np.full((new_capacity, k), -np.inf, dtype=SCORE_DTYPE)
            neighbors[: self._n_rows] = self._neighbors[: self._n_rows]
            sims[: self._n_rows] = self._sims[: self._n_rows]
            self._neighbors, self._sims = neighbors, sims
        else:
            # Recycled capacity: reset the newly exposed rows.
            self._neighbors[self._n_rows : n_users] = MISSING
            self._sims[self._n_rows : n_users] = -np.inf
        self._n_rows = n_users

    def _qualifies(self, rating: float) -> bool:
        """Does *rating* let an item contribute candidacies?"""
        if rating == 0.0:
            return False
        min_rating = self.config.min_rating
        return min_rating is None or rating >= min_rating


class DynamicKnnIndex(_ShardHost):
    """A KIFF KNN graph maintained under insert/remove rating events.

    Parameters
    ----------
    dataset:
        Initial dataset; the index starts from a converged KIFF build on
        it (skipped with ``build=False``, leaving an empty graph that a
        first ``refresh()`` or ``rebuild()`` populates).
    config:
        KIFF parameters.  ``k``, ``min_rating`` and ``pivot`` shape the
        maintained graph and its cost; ``beta`` is forced to ``0.0``
        internally because the index maintains the converged graph.
    metric:
        Similarity metric name or instance (as for
        :class:`~repro.similarity.engine.SimilarityEngine`).
    auto_refresh:
        When True (default) every mutation batch triggers an immediate
        ``refresh()``, keeping the graph exact at all times.  When False,
        events accumulate in the dirty set and the caller chooses the
        staleness/cost trade-off by calling ``refresh()`` explicitly —
        the policy knob the staleness experiment sweeps.
    candidate_cache_size:
        Maximum users whose candidate multisets are cached.  The default
        (65536) is effectively unbounded for bench-scale datasets while
        capping long-stream memory at production scale; ``None`` removes
        the bound, ``0`` disables the cache.  Evictions are oldest-first.
    wal:
        Optional :class:`~repro.persistence.PartitionedWriteAheadLog` to
        journal every applied event into (write-ahead, i.e. before the
        event mutates in-memory state).  Equivalent to calling
        :meth:`attach_wal` after construction; the log must be at the
        index's sequence number (0 for a fresh pair).

    Ingestion
    ---------
    Typed events are the only ingestion path: :meth:`apply` is the
    single entry point every mutation flows through, which is what makes
    durability (:meth:`checkpoint` / :meth:`restore` plus the WAL) a
    property of the whole API instead of one code path.

    State
    -----
    The flat index is the one-shard case of the sharded state: its dirty
    set, candidate cache and reverse-neighbor index are its single
    shard's, :meth:`refresh` runs the same driver and per-shard stages
    as :class:`~repro.streaming.sharding.ShardedKnnIndex`, and its
    durable state is the one-shard partitioned layout.
    """

    def __init__(
        self,
        dataset: BipartiteDataset,
        config: KiffConfig | None = None,
        metric: str | SimilarityMetric = "cosine",
        auto_refresh: bool = True,
        build: bool = True,
        candidate_cache_size: int | None = 65_536,
        wal=None,
    ):
        #: Set first so close() is safe however far construction got.
        self._closed = False
        #: The latest published read snapshot (atomic pointer swap; see
        #: :mod:`repro.serving.snapshot`).  None until the first
        #: completed ``rebuild()``/``refresh()`` publishes.
        self._snapshot: GraphSnapshot | None = None
        self.config = config or KiffConfig()
        self.auto_refresh = auto_refresh
        #: Shared per-user maintenance work accounting (snapshot rows,
        #: ProfileIndex recomputations, candidate-cache traffic).
        self.maintenance = MaintenanceCounter()
        self.builder = MutableBipartiteBuilder.from_dataset(
            dataset, maintenance=self.maintenance
        )
        self.engine = SimilarityEngine(
            dataset,
            metric=metric,
            index=ProfileIndex(dataset, maintenance=self.maintenance),
        )
        # Backing arrays may hold slack capacity (geometric growth, so a
        # burst of user joins doesn't copy the graph per join).
        self._n_rows = dataset.n_users
        self._neighbors = np.full(
            (dataset.n_users, self.config.k), MISSING, dtype=ID_DTYPE
        )
        self._sims = np.full(
            (dataset.n_users, self.config.k), -np.inf, dtype=SCORE_DTYPE
        )
        self.candidate_cache_size = candidate_cache_size
        self._pending_events = 0
        self.refresh_log: list[RefreshStats] = []
        self.initial_evaluations = 0
        #: The cross-shard exchanges of the most recent refresh (always
        #: empty with a single shard).
        self.last_outboxes: tuple = ()
        #: Non-local metrics (e.g. Adamic-Adar) weigh items by global
        #: popularity, so an item-membership change invalidates every
        #: pair sharing that item — those raters must join the dirty set.
        self._profile_local = self.engine.metric.profile_local
        #: Monotonic event sequence number (aligned with the WAL's when
        #: one is attached); event 1 is the first applied event.
        self._seq = 0
        self._wal = None
        #: Provenance of a restore() (None for a fresh index).
        self.restore_info = None
        self._partition()
        if build:
            self.rebuild()
            self.initial_evaluations = self.engine.counter.evaluations
        else:
            # Deferred build: everyone is dirty, so the first refresh()
            # constructs the full converged graph.
            self._dirty.update(range(dataset.n_users))
        if wal is not None:
            self.attach_wal(wal)

    def _partition(self, shard_map=None) -> None:
        """Fresh per-shard state containers for *shard_map*.

        The index-level ``_dirty`` and ``_reverse`` route every access
        to the owner shard's slice (the flat index holds one shard).
        """
        # Imported here: the shard state lives in the sharding module,
        # which itself builds on this one.
        from .sharding import (
            ShardMap,
            _Shard,
            _ShardedDirtySet,
            _ShardedReverseIndex,
        )

        self._shard_map = shard_map or ShardMap(1)
        self._shards = [
            _Shard(shard, self) for shard in range(self._shard_map.n_shards)
        ]
        self._dirty = _ShardedDirtySet(self._shards, lambda: self._shard_map)
        self._reverse = _ShardedReverseIndex(
            self._shards, lambda: self._shard_map
        )

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> KnnGraph:
        """The maintained KNN graph (a copy; exact iff no events pending)."""
        neighbors, sims = self._rows()
        return KnnGraph(neighbors.copy(), sims.copy())

    @property
    def dataset(self) -> BipartiteDataset:
        """Snapshot of the current ratings (cached between mutations)."""
        return self.builder.snapshot()

    @property
    def n_users(self) -> int:
        """Number of allocated user ids (tombstoned users included)."""
        return self.builder.n_users

    @property
    def pending_events(self) -> int:
        """Events absorbed since the last refresh."""
        return self._pending_events

    @property
    def dirty_users(self) -> frozenset:
        """Users whose profile changed since the last refresh."""
        return frozenset(self._dirty)

    def referrer_counts(self, users) -> np.ndarray:
        """Blast radius of *users*: how many rows currently cite each.

        A dirty user's in-degree bounds the rows her refresh can
        invalidate; the bounded-staleness scheduler orders deferred work
        by it.  One bincount over the authoritative rows, on every
        executor.
        """
        self._ensure_open()
        neighbors, _ = self._rows()
        cited = neighbors[neighbors != MISSING]
        counts = np.bincount(cited, minlength=self.builder.n_users)
        return counts[np.asarray(users, dtype=np.int64)].astype(np.int64)

    def memory_stats(self) -> dict[str, int]:
        """Per-component resident-byte breakdown of the index state.

        Array-backed components report exact ``nbytes`` (graph rows
        include slack capacity from geometric growth); dict-backed
        components (reverse index, candidate caches) report entry
        counts, since their Python-object overhead is interpreter-
        dependent.  ``legacy_*`` twins re-price the compact arrays at
        the historical int64/float64 widths
        (:func:`repro.layout.legacy_nbytes`) — the analytic "before"
        column of the memory model, deterministic and hence gateable in
        benchmark baselines.
        """
        self._ensure_open()
        matrix = self.builder.snapshot().matrix
        stats = {
            "dataset_csr_bytes": nbytes(
                matrix.indptr, matrix.indices, matrix.data
            ),
            "graph_rows_bytes": nbytes(self._neighbors, self._sims),
            "profile_index_bytes": nbytes(
                self.engine.index.norms, self.engine.index.sizes
            ),
            "snapshot_rows_bytes": (
                0 if self._snapshot is None else self._snapshot.row_bytes()
            ),
            "reverse_index_entries": self._reverse.referrer_count(),
            "candidate_cache_entries": sum(
                len(counts)
                for shard in self._shards
                for counts in shard.candidate_counts.values()
            ),
            "cached_rater_entries": sum(
                len(raters)
                for shard in self._shards
                for raters in shard.cached_raters.values()
            ),
            "legacy_dataset_csr_bytes": legacy_nbytes(
                matrix.indptr, matrix.indices, matrix.data
            ),
            "legacy_graph_rows_bytes": legacy_nbytes(
                self._neighbors, self._sims
            ),
        }
        stats["total_bytes"] = (
            stats["dataset_csr_bytes"]
            + stats["graph_rows_bytes"]
            + stats["profile_index_bytes"]
            + stats["snapshot_rows_bytes"]
        )
        return stats

    @property
    def maintenance_evaluations(self) -> int:
        """Similarity evaluations spent after the initial build."""
        return self.engine.counter.evaluations - self.initial_evaluations

    @property
    def last_seq(self) -> int:
        """Sequence number of the last applied event (WAL-aligned)."""
        return self._seq

    @property
    def wal(self):
        """The attached :class:`~repro.persistence.PartitionedWriteAheadLog`
        (or None)."""
        return self._wal

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called?"""
        return getattr(self, "_closed", False)

    def close(self) -> None:
        """Retire the index.

        Idempotent, and safe whatever state construction reached — a
        double close or a close after a failed ``__init__`` is a no-op,
        never an exception.  After a close, mutation and query entry
        points (:meth:`apply`, :meth:`refresh`, :meth:`rebuild`,
        :meth:`pin`) raise a clear :class:`RuntimeError` instead of
        failing deep in pool internals.
        :class:`~repro.streaming.sharding.ShardedKnnIndex` extends the
        cleanup to its shard workers and shared-memory blocks.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True

    def _ensure_open(self) -> None:
        if getattr(self, "_closed", False):
            raise RuntimeError(
                f"{type(self).__name__} is closed; construct a new index "
                f"(or restore() one from its checkpoint state)"
            )

    # ------------------------------------------------------------------
    # Read-side snapshots (MVCC publication; see repro.serving)
    # ------------------------------------------------------------------
    def pin(self) -> GraphSnapshot:
        """Pin the latest published :class:`GraphSnapshot`.

        Holding the returned reference *is* the pin: the snapshot is
        immutable and survives any number of concurrent
        ``apply()``/``refresh()`` calls bit-unchanged; dropping the
        reference releases it.  Never blocks — publication is a single
        attribute swap, atomic under the GIL.
        """
        self._ensure_open()
        snapshot = self._snapshot
        if snapshot is None:
            raise RuntimeError(
                "no snapshot published yet: an index constructed with "
                "build=False publishes its first snapshot when "
                "refresh() or rebuild() completes"
            )
        return snapshot

    @property
    def snapshot_version(self) -> int | None:
        """Version of the latest published snapshot (None before one)."""
        snapshot = self._snapshot
        return None if snapshot is None else snapshot.version

    def _publish_snapshot(self, unchanged: bool = False) -> None:
        """Publish the current state as the pinned-readable snapshot.

        With ``unchanged=True`` (a refresh that absorbed only no-op
        events) the previous snapshot's arrays are republished under
        the new covering sequence — no copy.  Otherwise the live rows
        are frozen; the dataset and profile-index arrays are shared by
        reference (the write path replaces rather than mutates them).
        """
        previous = self._snapshot
        if unchanged and previous is not None:
            if previous.version != self._seq:
                self._snapshot = previous.at_version(self._seq)
            return
        neighbors, sims = self._rows()
        index = self.engine.index
        self._snapshot = GraphSnapshot.capture(
            self._seq,
            neighbors,
            sims,
            self.builder.snapshot(),
            index.norms,
            index.sizes,
        )

    # ------------------------------------------------------------------
    # Ingestion: typed events through one choke point
    # ------------------------------------------------------------------
    def apply(self, events) -> ApplyResult:
        """Apply typed events — the single ingestion entry point.

        *events* is one :data:`~repro.streaming.events.Event` or an
        iterable of them.  Each top-level event is processed as a unit:

        1. **validate** — the whole event (a :class:`Batch` entirely,
           with user ids checked against the population as it would
           evolve inside the batch), so a bad event cannot leave earlier
           parts applied but unrefreshed;
        2. **journal** — every primitive event is appended to the
           attached write-ahead log *before* state mutates, so a crash
           replays exactly what was applied;
        3. **absorb** — profiles, dirty set and candidate caches update
           in O(1) per event;
        4. **refresh** — under ``auto_refresh``, one refinement pass per
           top-level event (a batch refreshes once, not per member).

        Returns an :class:`ApplyResult` with the minted user ids, the
        :class:`RefreshStats` of every pass this call triggered, the
        primitive-event count and the last sequence number.
        """
        self._ensure_open()
        if isinstance(events, EVENT_TYPES):
            events = (events,)
        new_users: list[int] = []
        log_start = len(self.refresh_log)
        n_applied = 0
        for event in events:
            primitives = flatten_events(event)
            self._validate(primitives)
            self._journal(primitives)
            for primitive in primitives:
                minted = self._absorb(primitive)
                if minted is not None:
                    new_users.append(minted)
            self._pending_events += len(primitives)
            n_applied += len(primitives)
            if self.auto_refresh:
                self.refresh()
        return ApplyResult(
            new_users=tuple(new_users),
            refreshes=tuple(self.refresh_log[log_start:]),
            events=n_applied,
            last_seq=self._seq,
        )

    def _validate(self, primitives) -> None:
        """Check every primitive event before anything mutates.

        ``n_users`` is simulated forward through the list, so a batch
        may rate or remove a user minted by an earlier AddUser in the
        same batch.
        """
        n_users = self.builder.n_users
        for event in primitives:
            if isinstance(event, (AddRating, RemoveRating)):
                if not 0 <= event.user < n_users:
                    raise DatasetError(
                        f"user id {event.user} out of range [0, {n_users})"
                    )
                if event.item < 0:
                    raise DatasetError(
                        f"item id must be non-negative, got {event.item}"
                    )
                if isinstance(event, AddRating) and not math.isfinite(
                    event.rating
                ):
                    raise DatasetError("ratings must be finite")
            elif isinstance(event, AddUser):
                if event.ratings is not None and len(event.items) != len(
                    event.ratings
                ):
                    raise DatasetError(
                        f"items and ratings must have equal length, got "
                        f"{len(event.items)} vs {len(event.ratings)}"
                    )
                for item in event.items:
                    if item < 0:
                        raise DatasetError(
                            f"item id must be non-negative, got {item}"
                        )
                for rating in event.ratings or ():
                    if not math.isfinite(rating):
                        raise DatasetError(
                            f"rating must be finite, got {rating}"
                        )
                n_users += 1
            elif isinstance(event, RemoveUser):
                if not 0 <= event.user < n_users:
                    raise DatasetError(
                        f"user id {event.user} out of range [0, {n_users})"
                    )
            else:
                raise TypeError(f"unknown streaming event {event!r}")

    def _event_shard(self, event, n_users: int) -> int:
        """The shard whose segment journals *event* (its primary user)."""
        if isinstance(event, AddUser):
            return self._shard_map.owner(n_users)  # the id being minted
        return self._shard_map.owner(int(event.user))

    def _journal(self, primitives) -> None:
        """Advance the sequence; journal into the WAL when attached.

        Each primitive goes to its owner shard's segment under the
        global sequence the partitioned log assigns.  All-or-nothing
        per event unit: if an append fails partway (disk full), every
        segment is rolled back to its pre-unit state so nothing is
        journaled that was never absorbed — a caller retry starts from
        a clean log instead of double-journaling.
        """
        if self._wal is None:
            self._seq += len(primitives)
            return
        mark = self._wal.mark()
        try:
            n_users = self.builder.n_users
            for primitive in primitives:
                shard = self._event_shard(primitive, n_users)
                if isinstance(primitive, AddUser):
                    n_users += 1
                self._seq = self._wal.append(primitive, shard)
        except BaseException:
            self._wal.rollback(mark)
            self._seq = mark[0]
            raise

    def _absorb(self, event) -> int | None:
        """Mutate state for one validated primitive event (no refresh).

        Returns the minted user id for AddUser, else None.  Also the
        replay path of :meth:`restore`, which is why it must stay free
        of WAL appends and refreshes.
        """
        if isinstance(event, AddRating):
            self._absorb_rating(
                int(event.user), int(event.item), float(event.rating)
            )
            return None
        if isinstance(event, RemoveRating):
            self._absorb_rating(int(event.user), int(event.item), 0.0)
            return None
        if isinstance(event, AddUser):
            return self._absorb_user(event.items, event.ratings)
        if isinstance(event, RemoveUser):
            self._absorb_removal(int(event.user))
            return None
        if isinstance(event, CONTROL_EVENTS):
            self._absorb_control(event)
            return None
        raise TypeError(f"unknown streaming event {event!r}")

    def _absorb_control(self, event) -> None:
        """Replay hook for WAL control records (sharding fences).

        Ownership is a partitioning concern, so the flat index ignores
        them; :class:`~repro.streaming.sharding.ShardedKnnIndex`
        overrides this to flip shard ownership at the record's exact
        sequence position.  Control records never reach :meth:`apply` —
        they are journaled directly by ``rebalance()`` and only come
        back through WAL replay.
        """

    def _absorb_rating(self, user: int, item: int, rating: float) -> None:
        old = self.builder.rating(user, item)
        if old == rating:
            return  # duplicate delivery / identical overwrite: no-op
        membership_change = (old != 0.0) != (rating != 0.0)
        qualified = self._qualifies(old)
        qualifies = self._qualifies(rating)
        self.builder.set_rating(user, item, rating)
        self._dirty.add(user)
        if membership_change and not self._profile_local:
            # |IP_item| changed: every pair sharing the item shifts.
            self._dirty.update(self.builder.users_of(item))
        if qualified != qualifies:
            self._note_candidacy_change(user, item, added=qualifies)

    def _absorb_user(self, items, ratings) -> int:
        user = self.builder.add_user(items, ratings)
        self._grow_rows(self.builder.n_users)
        self._dirty.add(user)
        if not self._profile_local:
            for item in self.builder.profile(user):
                self._dirty.update(self.builder.users_of(item))
        for item, rating in self.builder.profile(user).items():
            if self._qualifies(rating):
                self._note_candidacy_change(user, item, added=True)
        return user

    def _absorb_removal(self, user: int) -> None:
        profile_items = list(self.builder.profile(user).items())
        touched_items = (
            None
            if self._profile_local
            else [item for item, _ in profile_items]
        )
        self._cache_evict(user)  # before the profile vanishes
        self.builder.clear_user(user)
        self._dirty.add(user)
        if touched_items is not None:
            for item in touched_items:
                self._dirty.update(self.builder.users_of(item))
        for item, rating in profile_items:
            if self._qualifies(rating):
                self._note_candidacy_change(user, item, added=False)

    # ------------------------------------------------------------------
    # Candidate-set cache routing (ingestion path)
    # ------------------------------------------------------------------
    def _qualifying_raters(self, item: int, user: int) -> list[int]:
        """The users other than *user* rating *item* at a qualifying level."""
        builder = self.builder
        return [
            int(other)
            for other in builder.users_of(item)
            if other != user and self._qualifies(builder.rating(other, item))
        ]

    def _note_candidacy_change(
        self, user: int, item: int, added: bool
    ) -> None:
        """Propagate a qualifying-membership flip of (user, item).

        Called after the builder mutated: every shard bumps its cached
        raters of the item, and the shard caching *user* (if any)
        updates her own multiset — the per-event delta that keeps cached
        candidate sets exact without re-derivation.
        """
        raters = functools.partial(self._qualifying_raters, item, user)
        for shard in self._shards:
            shard.note_candidacy(user, item, added, raters)

    def _cache_insert(self, user: int, counts: dict[int, int]) -> None:
        self._shards[self._shard_map.owner(user)].cache_insert(user, counts)

    def _cache_evict(self, user: int) -> None:
        self._shards[self._shard_map.owner(user)].cache_evict(
            user, self.builder.profile(user)
        )

    @property
    def _shard_cache_limit(self) -> int | None:
        """Per-shard cache bound: ``candidate_cache_size`` split evenly.

        None keeps the cache unbounded and 0 disables it.
        """
        size = self.candidate_cache_size
        if size is None:
            return None
        return 0 if size <= 0 else max(1, size // len(self._shards))

    # ------------------------------------------------------------------
    # Durability: write-ahead log + checkpoint/restore
    # ------------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Journal every subsequently applied event into *wal*.

        *wal* is a :class:`~repro.persistence.PartitionedWriteAheadLog`
        (one segment per shard).  It must either be at the index's
        sequence number (the recovered log :meth:`restore` reattaches)
        or empty — an empty log is fast-forwarded so journaling can
        begin mid-history, with a :meth:`checkpoint` covering everything
        before it (take one after attaching, or recovery has no base to
        replay onto).  Any other log, or one from a different history,
        raises :class:`~repro.persistence.PersistenceError`.
        """
        from ..persistence import PartitionedWriteAheadLog, PersistenceError

        if not isinstance(wal, PartitionedWriteAheadLog):
            raise PersistenceError(
                f"{type(self).__name__} journals into per-shard segments; "
                f"attach a PartitionedWriteAheadLog (got "
                f"{type(wal).__name__}) — PartitionedWriteAheadLog("
                f"directory, n_shards)"
            )
        if wal.last_seq != self._seq:
            if wal.last_seq == 0:
                wal.advance_to(self._seq)
            else:
                raise PersistenceError(
                    f"WAL {wal.path} is at sequence {wal.last_seq} but the "
                    f"index is at {self._seq}; recover with "
                    f"DynamicKnnIndex.restore() instead of attaching "
                    f"mid-history"
                )
        self._wal = wal

    def detach_wal(self):
        """Stop journaling; returns the detached log (left on disk)."""
        wal, self._wal = self._wal, None
        return wal

    def checkpoint(self, directory: str | Path) -> Path:
        """Serialize the full maintained state into *directory*.

        Writes the one-shard ``checkpoint-<seq>.shards/`` directory
        (atomic rename) holding the dataset snapshot, graph rows, dirty
        set, candidate cache and counters — callable mid-stream with
        events pending.  Recovery is :meth:`restore`: latest checkpoint
        + WAL-tail replay.
        """
        from ..persistence import save_checkpoint

        return save_checkpoint(self, directory)

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        metric: str | SimilarityMetric | None = None,
        refresh: bool = True,
        fsync_every: int | None = 64,
    ) -> "DynamicKnnIndex":
        """Recover an index from *directory* (checkpoint + WAL tail).

        Loads the latest checkpoint, replays logged events beyond it
        with refinement suppressed, then runs one refresh — after which
        the graph is bit-identical to the uninterrupted run's, at a cost
        proportional to the log tail rather than the dataset.  Any
        state directory restores, whatever shard count wrote it.
        ``metric`` defaults to the checkpointed metric name; pass an
        instance for unregistered custom metrics.  A one-segment
        :class:`~repro.persistence.PartitionedWriteAheadLog` is
        reattached so journaling continues seamlessly; provenance is
        stashed as ``index.restore_info``.
        """
        from ..persistence import restore_index

        return restore_index(
            cls,
            directory,
            metric=metric,
            refresh=refresh,
            fsync_every=fsync_every,
        )

    # ------------------------------------------------------------------
    # Refinement: the one refresh driver
    # ------------------------------------------------------------------
    def refresh(self, dirty_subset=None) -> RefreshStats:
        """Run the localized KIFF refinement over the dirty set.

        Rebuilds the rows of the affected set (dirty users plus rows
        referencing them, found via the reverse-neighbor index) from
        their cached candidate sets and mirror-merges the freshly
        evaluated pairs into every other row, restoring the
        converged-graph invariant.  Returns the pass's cost accounting.

        With *dirty_subset* (an iterable of user ids) only the dirty
        users in the subset are processed; the rest stay dirty —
        **deferred** — and are picked up by a later refresh.  The graph
        is then inexact until a refresh covers every deferred user, but
        convergence is guaranteed: rows may only be stale in entries
        citing a still-dirty user, so draining the dirty set restores
        the bit-exact converged graph (the contract
        :class:`repro.scheduling.RefreshScheduler` builds on).

        Completion publishes a new read snapshot (:meth:`pin`);
        concurrent readers keep answering on the previous one and never
        observe the in-place row mutations this pass performs.
        """
        return self._refresh(dirty_subset)

    def _refresh(self, dirty_subset) -> RefreshStats:
        """The refresh driver every index class and executor runs.

        Selection (with deferral), an empty pass when nothing is
        selected, one rebind, the per-shard stages (:meth:`_run_pass`),
        then :class:`RefreshStats` and the snapshot publication.
        """
        self._ensure_open()
        start = time.perf_counter()
        maintenance = self.maintenance
        rows_before = maintenance.rows_materialized
        index_before = maintenance.index_users_recomputed
        n_events = self._pending_events
        if dirty_subset is None:
            selected = set(self._dirty)
            deferred: set[int] = set()
        else:
            subset = {int(u) for u in dirty_subset}
            selected = {u for u in self._dirty if u in subset}
            deferred = {u for u in self._dirty if u not in subset}
        affected = np.empty(0, dtype=np.int64)
        evaluations = changes = hits = misses = 0
        if selected:
            # Incremental end to end: the snapshot patches only dirty
            # rows, and the ProfileIndex recomputes only dirty users.
            # The rebind covers the FULL dirty set — deferred users
            # included — because this pass's pair evaluations read
            # deferred users' profiles too, so their norms/weights must
            # be current even though their rows wait for a later pass.
            self.engine.rebind(
                self.builder.snapshot(), dirty_users=self._dirty
            )
            affected, plans, merges = self._run_pass(selected)
            hits = sum(plan[1] for plan in plans)
            misses = sum(plan[2] for plan in plans)
            evaluations = sum(merge[0] for merge in merges)
            changes = sum(merge[1] for merge in merges)
            self.engine.counter.add(evaluations)
            maintenance.candidate_cache_hits += hits
            maintenance.candidate_cache_misses += misses
        # An empty selection (only no-op events, or everything
        # deferred) still logs a pass, so refresh_log stays one entry
        # per refresh performed.
        self._dirty.clear()
        self._dirty.update(deferred)
        self._pending_events = 0
        stats = RefreshStats(
            events=n_events,
            dirty_users=len(selected),
            affected_users=int(affected.size),
            evaluations=int(evaluations),
            changes=int(changes),
            wall_time=time.perf_counter() - start,
            rows_materialized=maintenance.rows_materialized - rows_before,
            index_users_recomputed=maintenance.index_users_recomputed
            - index_before,
            cache_hits=hits,
            cache_misses=misses,
            deferred_users=len(deferred),
        )
        self._publish_snapshot(unchanged=not selected)
        self.refresh_log.append(stats)
        return stats

    def _run_pass(self, selected: set[int]):
        """Stages A-C on every shard; returns ``(affected, plans, merges)``.

        ``plans`` holds each shard's ``(outboxes, cache_hits,
        cache_misses)`` and ``merges`` each shard's ``(evaluations,
        changes, active, new_neighbors, new_sims)``.
        """
        all_dirty = np.fromiter(selected, dtype=np.int64, count=len(selected))
        owned = [
            np.fromiter(mine, dtype=np.int64, count=len(mine))
            for mine in (shard.dirty & selected for shard in self._shards)
        ]
        affected = np.unique(
            np.concatenate(
                self._stage("affected", [(all_dirty, mine) for mine in owned])
            )
        )
        # Retry safety: once their rows are cleared, affected users must
        # count as dirty until the merge lands — if the pass fails
        # midway (metric error, interrupt, worker death), the next
        # refresh rebuilds them instead of leaving their rows silently
        # empty.
        self._dirty.update(affected.tolist())
        plans = self._stage("plan", [(affected, self._seq)] * len(owned))
        inboxes: list[list] = [[] for _ in owned]
        for outboxes, _, _ in plans:
            for outbox in outboxes:
                inboxes[outbox.target].append(outbox)
        self.last_outboxes = tuple(
            outbox for outboxes, _, _ in plans for outbox in outboxes
        )
        merges = self._stage("merge", [(inbox,) for inbox in inboxes])
        return affected, plans, merges

    def _stage(self, name: str, payloads: list[tuple]) -> list:
        """Run stage *name* on every shard, in process and in order."""
        return [
            getattr(shard, name)(*payload)
            for shard, payload in zip(self._shards, payloads)
        ]

    def _score_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Chunked metric evaluation against the shared profile index.

        See :func:`~repro.similarity.engine.score_pairs_chunked` (the
        one scoring loop) for why this bypasses ``engine.batch``.
        """
        engine = self.engine
        return score_pairs_chunked(
            engine.metric, engine.index, us, vs, engine.batch_size
        )

    def rebuild(self) -> ConstructionResult:
        """Cold full KIFF rebuild — the baseline ``refresh()`` undercuts.

        Also the recovery path: whatever the graph state, a rebuild
        restores the invariant from the ratings alone (including the
        reverse-neighbor index, re-derived from the fresh rows).  Like
        :meth:`refresh`, completion publishes a new read snapshot.
        """
        self._ensure_open()
        self.engine.rebind(self.builder.snapshot())
        result = kiff(self.engine, converged_config(self.config))
        self._neighbors = result.graph.neighbors.copy()
        self._sims = result.graph.sims.copy()
        self._n_rows = result.graph.n_users
        self._reverse.rebuild(self._neighbors[: self._n_rows])
        self._dirty.clear()
        self._pending_events = 0
        self._publish_snapshot()
        return result
