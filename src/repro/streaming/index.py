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
* Every row is stored ``k + RESERVE`` wide with an **exact depth**
  ``d`` in ``[k, k + RESERVE]``: its first ``d`` entries are its exact
  top-``d``.  Readers only ever see the first ``k`` columns.
* A clean user *x* whose row **contains** a dirty user (in any column,
  reserve included) holds a stale entry.  Her row is **repaired**: the
  dirty entries are dropped, every dirty user she co-rates with is
  offered back with a fresh score (the mirror merge below), and the
  row stands if its old boundary — the entry at ``d - 1`` — was
  ``MISSING`` (it already held every candidate) or its new k-th entry
  ranks at or ahead of that boundary: every candidate it was not
  offered is clean and ranked behind the boundary before the pass.
  Its new depth is the number of entries ranking at or ahead of the
  boundary.  Only a row that loses more than its reserve is rescanned
  from its candidate set.  The rule is the same for every metric: with
  global terms, the item raters joining the dirty set (above) leave
  every pair whose score moved with a dirty endpoint.
* Every other clean user *x* has only unchanged entries; a dirty user
  can at most *enter* her row, which the mirror merge of the freshly
  evaluated (dirty, x) pairs performs — ``merge_topk`` applies the same
  (sim desc, id asc) tie-breaks as the batch algorithm — and her depth
  stands.  Rebuilt rows (a rescan) are exact to the full width.

One index class
---------------
The maintained rows are partitioned into shards
(``repro.streaming.sharding._Shard``, which hold only per-pass context)
by a :class:`~repro.streaming.sharding.ShardMap`; the dirty set is one
set, split by owner at each pass.
:class:`DynamicKnnIndex` takes the shard count (default 1) and the
executor (default ``"serial"``); the flat index is simply its
one-shard, in-process case, and
:class:`~repro.streaming.sharding.ShardedKnnIndex` is the same class
with partitioned defaults.  Every configuration runs the one driver
written here (``_refresh``): select the dirty users (with
``dirty_subset`` deferral), rebind the profiles, run the three
per-shard stages — affected discovery, pair planning with outboxes,
dedupe/score/merge — and record :class:`RefreshStats` and publish a
read snapshot.  The executor only carries the stage calls to the
shards: in shard order (``serial``), on a thread pool (``threads``) or
to one worker process per shard (``processes``, see
:mod:`repro.streaming.procpool`).  Live :meth:`DynamicKnnIndex.rebalance`
moves users between shards or changes the shard count without
stopping ingestion.

Dirty-set-proportional cost
---------------------------
The evaluations and most stages of a refresh scale with the dirty set,
not the dataset.  Three whole-dataset floors remain per pass, cheap per
element but dominant in small passes over large data: the candidacy
transpose ``B.T``, or the valued ``Rᵀ`` of the same structure on a
product-scored cosine pass (:func:`repro.core.rcs.candidacy_raters`,
one per shard, next to one pass over the ratings deciding whether the
pass is product-scored), publication (``GraphSnapshot.capture`` packs
every row with :func:`repro.layout.pack_rows`) and the snapshot patch
(``MutableBipartiteBuilder.snapshot`` splices the dirty rows into a
copy of the whole CSR).  The dirty-set-proportional stages:

* **Snapshot** — ``MutableBipartiteBuilder.snapshot`` rebuilds only the
  dirty CSR rows of the previous snapshot instead of re-materialising
  O(n_ratings) state from the per-user dicts.
* **Index** — ``SimilarityEngine.rebind(..., dirty_users=...)`` updates
  the :class:`~repro.similarity.base.ProfileIndex` in place, recomputing
  norms / profile sizes / metric caches for dirty users only.
* **Affected-row discovery** — candidacy is symmetric, so a row cites a
  dirty user only through an item both rate: one she rates now, or one
  she dropped or re-rated since her last pass (the lost-item record
  ingestion keeps for each dirty user).  Stage A reads those items'
  raters off the transpose, adds the deferred rows (their own profiles
  moved), and keeps the rows citing a selected dirty user with one masked
  gather (:meth:`~repro.graph.updates.ReverseNeighborIndex.referrers_of`),
  in time proportional to those co-raters.  No inverted index is kept,
  so the merges pay no upkeep.
* **Candidate sets** — the rebuilt rows' candidate sets are the
  structure of one sparse product per shard and pass,
  ``binarise(R[rows]) @ B.T`` (:func:`repro.core.rcs.candidate_rows`),
  whose cost is proportional to those rows' item profiles; nothing is
  kept between passes, so ingestion does no candidate bookkeeping.
* **Similarity evaluations** — proportional to the rebuilt rows'
  candidate sets plus the dirty users' own pairs, the streaming
  analogue of KIFF's "only scan the RCS" guarantee; repaired rows need
  no candidate set at all.  When the metric is built-in cosine on
  positive integer ratings or a built-in set metric, and
  ``min_rating`` is unset
  (:func:`repro.similarity.engine.product_scoring`), the candidate
  product already holds every pair's raw statistic — ``R[rows] @ Rᵀ``
  the dot products, the binarised product the intersection sizes — so
  those evaluations cost one finalize step each, and each rebuilt row
  is ranked straight off its product row with no pair dedupe or merge.
  The kernel then sees only the cross-shard inbox, and the merge only
  the mirror offers to rows not rebuilt plus that inbox.

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

import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
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
from ..instrumentation.trace import ConvergenceTrace
from ..layout import ID_DTYPE, SCORE_DTYPE, legacy_nbytes, nbytes
from ..serving.snapshot import GraphSnapshot
from ..similarity.base import ProfileIndex, SimilarityMetric
from ..similarity.engine import (
    SimilarityEngine,
    score_pairs_chunked,
    score_product,
)
from .events import (
    CONTROL_EVENTS,
    EVENT_TYPES,
    AddRating,
    AddUser,
    ApplyResult,
    MigrateBegin,
    MigrateCommit,
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


#: Reserve columns every maintained row keeps beyond its ``k``
#: published ones.  A repaired row proves exactness against its deepest
#: exact entry, so it only falls back to a rescan of its candidate set
#: when a pass pushes more than its reserve out of that exact prefix.
#: At five, 7% of the repairs on the flash-durable benchmark stream
#: fall back (54% with no reserve), for ``RESERVE / k`` more row state.
RESERVE = 5


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
    #: Rows rebuilt from their candidate sets: the dirty users' rows,
    #: plus rows citing them that could not be repaired in place.
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
    #: Always 0: no candidate set outlives its pass.
    cache_hits: int = 0
    #: Rows whose candidate set this pass derived (every rebuilt row,
    #: so it equals ``affected_users``).
    cache_misses: int = 0
    #: Dirty users this pass left for a later refresh (``dirty_subset``
    #: refreshes only; always 0 for a full pass).
    deferred_users: int = 0
    #: Clean rows citing a dirty user that kept their other entries and
    #: were repaired from the dirty users' fresh scores (rows failing
    #: the repair's check count as rebuilt).
    repaired_users: int = 0
    #: Repaired rows that failed the check — they lost more than their
    #: reserve — and were rescanned (included in ``affected_users``).
    fallbacks: int = 0


class _ShardHost:
    """What a shard's stages read from the object holding the shard.

    The graph rows live in backing arrays with slack capacity — the
    first ``_n_rows`` rows of ``_neighbors``/``_sims`` are the live
    graph, ``k + RESERVE`` columns wide, and ``_depth[row]`` is the
    number of leading entries of each that are exact.  Subclasses add
    ``builder``, ``config``, ``n_users``, ``_shard_map`` and
    ``_scoring``: the index for its own shards, and the worker-side
    host in each ``processes`` worker, so both grow rows and score
    pairs identically.
    """

    _neighbors: np.ndarray
    _sims: np.ndarray
    _depth: np.ndarray
    _n_rows: int

    def _scoring(self) -> tuple[SimilarityMetric, ProfileIndex, int]:
        """``(metric, profile index, batch size)`` the scorers read."""
        raise NotImplementedError

    def _score_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Chunked metric evaluation against the shared profile index.

        See :func:`~repro.similarity.engine.score_pairs_chunked` (the
        one scoring loop) for why this bypasses ``engine.batch``.
        """
        metric, index, batch_size = self._scoring()
        return score_pairs_chunked(metric, index, us, vs, batch_size)

    def _score_product(
        self, us: np.ndarray, vs: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        """Scores of candidate-product entries, on a pass whose metric
        and ratings :func:`~repro.similarity.engine.product_scoring`
        accepts: the bits :meth:`_score_pairs` returns for the pairs."""
        metric, index, _ = self._scoring()
        return score_product(metric, index, us, vs, raw)

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
        capacity, width = self._neighbors.shape
        if n_users > capacity:
            new_capacity = max(n_users, 2 * capacity)
            neighbors = np.full(
                (new_capacity, width), MISSING, dtype=ID_DTYPE
            )
            sims = np.full((new_capacity, width), -np.inf, dtype=SCORE_DTYPE)
            depth = np.full(new_capacity, width, dtype=ID_DTYPE)
            neighbors[: self._n_rows] = self._neighbors[: self._n_rows]
            sims[: self._n_rows] = self._sims[: self._n_rows]
            depth[: self._n_rows] = self._depth[: self._n_rows]
            self._neighbors, self._sims, self._depth = neighbors, sims, depth
        else:
            # Recycled capacity: reset the newly exposed rows.  An empty
            # row holds every candidate it has, so it is exact throughout.
            self._neighbors[self._n_rows : n_users] = MISSING
            self._sims[self._n_rows : n_users] = -np.inf
            self._depth[self._n_rows : n_users] = width
        self._n_rows = n_users


class DynamicKnnIndex(_ShardHost):
    """A KIFF KNN graph maintained under insert/remove rating events.

    Parameters
    ----------
    dataset:
        Initial dataset; the index starts from a converged KIFF build on
        it (skipped with ``build=False``, leaving an empty graph that a
        first ``refresh()`` or ``rebuild()`` populates).
    config:
        KIFF parameters.  ``k`` and ``min_rating`` shape the maintained
        graph.  ``pivot``, ``gamma``, ``beta``, ``mode`` and
        ``max_iterations`` steer only :func:`~repro.core.kiff.kiff`,
        the parity reference: the index maintains the converged
        (``beta = 0``) graph, and its build (:meth:`rebuild`) and every
        refresh score each pair once and offer it both ways.
    metric:
        Similarity metric name or instance (as for
        :class:`~repro.similarity.engine.SimilarityEngine`).
    auto_refresh:
        When True (default) every mutation batch triggers an immediate
        ``refresh()``, keeping the graph exact at all times.  When False,
        events accumulate in the dirty set and the caller chooses the
        staleness/cost trade-off by calling ``refresh()`` explicitly —
        the policy knob the staleness experiment sweeps.
    wal:
        Optional :class:`~repro.persistence.PartitionedWriteAheadLog` to
        journal every applied event into (write-ahead, i.e. before the
        event mutates in-memory state), one ``wal-<shard>.jsonl`` segment
        per shard under one global sequence.  Equivalent to calling
        :meth:`attach_wal` after construction; the log must be at the
        index's sequence number (0 for a fresh pair).
    n_shards:
        Shard count (default 1, the flat index); users are owned per
        the :class:`~repro.streaming.sharding.ShardMap` (``user %
        n_shards`` until a :meth:`rebalance` overrides it).
    executor:
        How each refresh stage reaches the shards.  ``"serial"``
        (default) calls them in process in shard order — fully
        deterministic scheduling; ``"threads"`` fans them out on a
        ``concurrent.futures.ThreadPoolExecutor`` (in process at one
        shard); ``"processes"`` sends them to a persistent
        ``multiprocessing`` worker pool over shared-memory snapshots
        (:mod:`repro.streaming.procpool`) — the mode whose refresh work
        actually escapes the GIL.  Results are bit-identical in every
        mode.  With ``"processes"`` custom
        :class:`~repro.similarity.base.ProfileIndex` subclasses are
        rejected (refresh raises ``TypeError``) because workers rebuild
        the base index from the shared buffers.

    A pair whose endpoints live on different shards may be evaluated
    once per side (evaluations are never shared across shards), so
    ``RefreshStats.evaluations`` can exceed the one-shard figure — the
    graphs still match exactly.

    Build cost
    ----------
    The constructor's :meth:`rebuild` is a refresh with every user
    dirty and nothing to repair, run in process on one shard view of
    the rows, so it scores each co-rating pair once on every shard
    count and executor (``initial_evaluations``).  It walks the users
    in ascending-id row blocks whose candidate products hold about
    :data:`~repro.streaming.sharding.BUILD_BLOCK_ENTRIES` entries, so
    its memory beyond the rows is one block's product, not the whole
    co-occurrence matrix that :func:`~repro.core.kiff.kiff` ranks.

    Ingestion
    ---------
    Typed events are the only ingestion path: :meth:`apply` is the
    single entry point every mutation flows through, which is what makes
    durability (:meth:`checkpoint` / :meth:`restore` plus the WAL) a
    property of the whole API instead of one code path.
    """

    def __init__(
        self,
        dataset: BipartiteDataset,
        config: KiffConfig | None = None,
        metric: str | SimilarityMetric = "cosine",
        auto_refresh: bool = True,
        build: bool = True,
        wal=None,
        n_shards: int = 1,
        executor: str = "serial",
    ):
        # The shard state lives in the sharding module, which itself
        # builds on this one (hence the deferred imports here).
        from .sharding import ShardMap

        #: Set first so close() is safe however far construction got.
        self._closed = False
        shard_map = ShardMap(n_shards)
        if executor not in ("threads", "serial", "processes"):
            raise ValueError(
                f"executor must be 'threads', 'serial' or 'processes', "
                f"got {executor!r}"
            )
        self.executor = executor
        #: Executor state: the shard thread pool, and under
        #: ``processes`` the worker pool and the owned shared-memory
        #: arena.
        self._pool = None
        self._procpool = None
        self._arena = None
        #: RebalanceStats of every completed rebalance() call.
        self.rebalance_log: list = []
        #: The latest published read snapshot (atomic pointer swap; see
        #: :mod:`repro.serving.snapshot`).  None until the first
        #: completed ``rebuild()``/``refresh()`` publishes.
        self._snapshot: GraphSnapshot | None = None
        self.config = config or KiffConfig()
        self.auto_refresh = auto_refresh
        #: Shared per-user maintenance work accounting (snapshot rows,
        #: ProfileIndex recomputations, scheduler tallies).
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
        width = self.config.k + RESERVE
        self._n_rows = dataset.n_users
        self._neighbors = np.full(
            (dataset.n_users, width), MISSING, dtype=ID_DTYPE
        )
        self._sims = np.full(
            (dataset.n_users, width), -np.inf, dtype=SCORE_DTYPE
        )
        self._depth = np.full(dataset.n_users, width, dtype=ID_DTYPE)
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
        #: Users whose profile changed since the last refresh.
        self._dirty: set[int] = set()
        #: Dirty user -> the items she dropped or re-rated since her
        #: last pass: rows may still cite her through them (see
        #: ``repro.streaming.sharding._Shard.affected``).  Cleared, like
        #: her dirty mark, once a pass selecting her lands.
        self._lost: dict[int, set[int]] = {}
        self._partition(shard_map)
        if build:
            self.rebuild()
            self.initial_evaluations = self.engine.counter.evaluations
        else:
            # Deferred build: everyone is dirty, so the first refresh()
            # constructs the full converged graph.
            self._dirty.update(range(dataset.n_users))
        if wal is not None:
            self.attach_wal(wal)

    def _partition(self, shard_map) -> None:
        """Fresh shards for *shard_map* (they keep no state between passes).

        The one path for any change to the rows or to ownership outside
        a refresh pass (construction, :meth:`rebuild`, a checkpoint
        install, an ownership flip).  Nothing carries over from the old
        shards and no user goes dirty: the executors stop (the next
        refresh sizes a new thread pool, or respawns the workers and
        re-creates the arena).
        """
        from .sharding import _Shard

        self._close_executors()
        self._shard_map = shard_map
        self._shards = [
            _Shard(shard, self) for shard in range(shard_map.n_shards)
        ]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> KnnGraph:
        """The maintained KNN graph (a copy; exact iff no events pending).

        Only the first ``k`` columns: the reserve never leaves the index.
        """
        neighbors, sims = self._rows()
        k = self.config.k
        return KnnGraph(neighbors[:, :k].copy(), sims[:, :k].copy())

    @property
    def dataset(self) -> BipartiteDataset:
        """Snapshot of the current ratings (cached between mutations)."""
        return self.builder.snapshot()

    @property
    def n_users(self) -> int:
        """Number of allocated user ids (tombstoned users included)."""
        return self.builder.n_users

    @property
    def n_shards(self) -> int:
        """Number of shards the maintained state is partitioned into."""
        return self._shard_map.n_shards

    @property
    def shard_map(self):
        """The authoritative user → shard ownership rule."""
        return self._shard_map

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
        by it.  Citations in the reserve columns count too: such a row
        holds a stale entry for her and is repaired like any other.
        One bincount over the authoritative rows, on every executor.
        The rows are read once, into a copy that is then filtered: a
        refresh on another thread may clear a row at any moment.
        """
        self._ensure_open()
        neighbors = self._rows()[0].copy()
        cited = neighbors[neighbors != MISSING]
        counts = np.bincount(cited, minlength=self.builder.n_users)
        return counts[np.asarray(users, dtype=np.int64)].astype(np.int64)

    def memory_stats(self) -> dict[str, int]:
        """Per-component resident-byte breakdown of the index state.

        Array-backed components report exact ``nbytes`` (graph rows
        include slack capacity from geometric growth).  ``legacy_*``
        twins re-price the compact arrays at the historical
        int64/float64 widths (:func:`repro.layout.legacy_nbytes`) — the
        analytic "before" column of the memory model, deterministic and
        hence gateable in benchmark baselines.

        ``graph_reserve_bytes`` is the share of ``graph_rows_bytes``
        held by the ``RESERVE`` trailing columns that readers never see;
        ``graph_depth_bytes`` is the rows' exact-depth array.
        ``reverse_index_entries`` counts the authoritative rows' filled
        slots, reserve included: the (row, cited user) pairs a referrer
        lookup can find.  No inverted index is kept (the refresh finds
        referrers from the rows), so the name is historical; the count
        is the same on every executor.  The ``shm_arena_*`` keys account
        for the process executor's shared-memory arena (0 in process).

        The dataset figures are read from the published snapshot (0
        before the first publication): materialising the builder's
        pending snapshot here would patch its cached CSR from whatever
        thread asks, such as the serve ``stats`` op.
        """
        self._ensure_open()
        snapshot = self._snapshot
        matrix = None if snapshot is None else snapshot.dataset.matrix
        csr = (
            ()
            if matrix is None
            else (matrix.indptr, matrix.indices, matrix.data)
        )
        neighbors, _ = self._rows()
        stats = {
            "dataset_csr_bytes": nbytes(*csr),
            "graph_rows_bytes": nbytes(self._neighbors, self._sims),
            "graph_reserve_bytes": nbytes(
                self._neighbors[:, self.config.k :],
                self._sims[:, self.config.k :],
            ),
            "graph_depth_bytes": nbytes(self._depth),
            "profile_index_bytes": nbytes(
                self.engine.index.norms, self.engine.index.sizes
            ),
            "snapshot_rows_bytes": (
                0 if snapshot is None else snapshot.row_bytes()
            ),
            "reverse_index_entries": int(
                np.count_nonzero(neighbors != MISSING)
            ),
            "legacy_dataset_csr_bytes": legacy_nbytes(*csr),
            "legacy_graph_rows_bytes": legacy_nbytes(
                self._neighbors, self._sims
            ),
        }
        arena = (
            self._arena.stats()
            if self._arena is not None
            else dict.fromkeys(
                ("capacity_bytes", "high_water_bytes", "slack_bytes"), 0
            )
        )
        stats["shm_arena_bytes"] = arena["capacity_bytes"]
        stats["shm_arena_high_water_bytes"] = arena["high_water_bytes"]
        stats["shm_arena_slack_bytes"] = arena["slack_bytes"]
        stats["total_bytes"] = (
            stats["dataset_csr_bytes"]
            + stats["graph_rows_bytes"]
            + stats["graph_depth_bytes"]
            + stats["profile_index_bytes"]
            + stats["snapshot_rows_bytes"]
            + stats["shm_arena_bytes"]
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
        """Retire the index and release every executor resource.

        Shuts the thread pool down, stops the process workers and
        unlinks the shared-memory arena.  Idempotent, and safe whatever
        state construction reached — a double close or a close after a
        failed ``__init__`` is a no-op, never an exception — so a
        ``finally: index.close()`` can never raise or leak ``/dev/shm``
        blocks; ``weakref`` finalizers on the pool and arena also run
        this cleanup on garbage collection.  After a close, mutation and
        query entry points (:meth:`apply`, :meth:`refresh`,
        :meth:`rebuild`, :meth:`pin`) raise a clear
        :class:`RuntimeError` instead of failing deep in pool internals.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self._close_executors()

    def _close_executors(self) -> None:
        """Stop the thread pool and workers; unlink the arena."""
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self._pool = None
        procpool = getattr(self, "_procpool", None)
        if procpool is not None:
            procpool.close()
            self._procpool = None
        arena = getattr(self, "_arena", None)
        if arena is not None:
            arena.close()
            self._arena = None

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
        k = self.config.k
        index = self.engine.index
        self._snapshot = GraphSnapshot.capture(
            self._seq,
            neighbors[:, :k],
            sims[:, :k],
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
        3. **absorb** — profiles and the dirty set update in O(1) per
           event;
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
        """Replay a journaled migration fence at its sequence position.

        Control records never reach :meth:`apply` — :meth:`rebalance`
        journals them directly and they only come back through WAL
        replay.  ``MigrateBegin`` is the opening fence only: a log tail
        ending after a begin without its commit replays as *no*
        ownership change (the rollback-to-the-fence guarantee).
        ``MigrateCommit`` re-applies the flip exactly as the live
        :meth:`rebalance` did.
        """
        if isinstance(event, MigrateCommit):
            self._apply_plan_flip(event.moves, event.n_shards)

    def _absorb_rating(self, user: int, item: int, rating: float) -> None:
        old = self.builder.rating(user, item)
        if old == rating:
            return  # duplicate delivery / identical overwrite: no-op
        if old != 0.0:
            # A drop, or a re-rating that may cross min_rating.
            self._lost.setdefault(user, set()).add(item)
        membership_change = (old != 0.0) != (rating != 0.0)
        self.builder.set_rating(user, item, rating)
        self._dirty.add(user)
        if membership_change and not self._profile_local:
            # |IP_item| changed: every pair sharing the item shifts.
            self._dirty.update(self.builder.users_of(item))

    def _absorb_user(self, items, ratings) -> int:
        user = self.builder.add_user(items, ratings)
        self._grow_rows(self.builder.n_users)
        self._dirty.add(user)
        if not self._profile_local:
            for item in self.builder.profile(user):
                self._dirty.update(self.builder.users_of(item))
        return user

    def _absorb_removal(self, user: int) -> None:
        items = list(self.builder.profile(user))
        self._lost.setdefault(user, set()).update(items)
        self.builder.clear_user(user)
        self._dirty.add(user)
        if not self._profile_local:
            for item in items:
                self._dirty.update(self.builder.users_of(item))

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

        Writes a ``checkpoint-<seq>.shards/`` directory (atomic rename)
        holding the dataset snapshot, graph rows, counters and one state
        file per shard (its dirty slice) — callable
        mid-stream with events pending.  Recovery is :meth:`restore`:
        latest checkpoint + WAL-tail replay.
        """
        return self._checkpoint(directory)

    def _checkpoint(self, directory: str | Path) -> Path:
        """The body of every class's :meth:`checkpoint`.

        Checkpoints mark quiescent points between refreshes, so this is
        also where the shared-memory arena sheds slack capacity: growth
        is geometric and ``publish`` never shrinks, so after a mass
        deletion the arena would otherwise pin its high-water mark in
        ``/dev/shm`` forever (the next refresh republishes into the
        compacted block or regrows it as needed).
        """
        from ..persistence import save_checkpoint

        path = save_checkpoint(self, directory)
        if self._arena is not None:
            self._arena.compact()
        return path

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
        state directory restores, whatever shard count wrote it; the
        index comes back at one shard with the ``serial`` executor
        (:meth:`ShardedKnnIndex.restore
        <repro.streaming.sharding.ShardedKnnIndex.restore>` keeps the
        checkpoint's count).  ``metric`` defaults to the checkpointed
        metric name; pass an instance for unregistered custom metrics.
        A one-segment :class:`~repro.persistence.PartitionedWriteAheadLog`
        is reattached so journaling continues seamlessly; provenance is
        stashed as ``index.restore_info``.
        """
        from ..persistence import restore_index

        return restore_index(
            cls,
            directory,
            metric=metric,
            refresh=refresh,
            fsync_every=fsync_every,
            n_shards=1,
        )

    # ------------------------------------------------------------------
    # Refinement: the one refresh driver
    # ------------------------------------------------------------------
    def refresh(self, dirty_subset=None) -> RefreshStats:
        """Run the localized KIFF refinement over the dirty set.

        Rebuilds the dirty users' rows from their candidate sets,
        repairs (or, failing the repair's check, rebuilds) the
        rows citing them, found among the raters of the items they rate
        now or dropped since their last pass, and mirror-merges the
        freshly evaluated pairs into every other row, restoring the
        converged-graph invariant.  Returns the pass's
        cost accounting.

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
        affected = repaired = fallbacks = evaluations = changes = 0
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
            rebuilt, repairs, merges = self._run_pass(selected, deferred)
            fallbacks = int(sum(merge.fallbacks for merge in merges))
            affected = rebuilt.size + fallbacks
            repaired = repairs.size - fallbacks
            evaluations = sum(merge.evaluations for merge in merges)
            changes = sum(merge.changes for merge in merges)
            self.engine.counter.add(evaluations)
        # An empty selection (only no-op events, or everything
        # deferred) still logs a pass, so refresh_log stays one entry
        # per refresh performed.
        self._dirty.clear()
        self._dirty.update(deferred)
        for user in selected.intersection(self._lost):
            del self._lost[user]
        self._pending_events = 0
        stats = RefreshStats(
            events=n_events,
            dirty_users=len(selected),
            affected_users=int(affected),
            evaluations=int(evaluations),
            changes=int(changes),
            wall_time=time.perf_counter() - start,
            rows_materialized=maintenance.rows_materialized - rows_before,
            index_users_recomputed=maintenance.index_users_recomputed
            - index_before,
            cache_misses=int(affected),
            deferred_users=len(deferred),
            repaired_users=int(repaired),
            fallbacks=fallbacks,
        )
        self._publish_snapshot(unchanged=not selected)
        self.refresh_log.append(stats)
        return stats

    def _run_pass(self, selected: set[int], deferred: set[int]):
        """Stages A-C on every shard.

        Returns ``(rebuilt, repaired, merges)``: the rows rebuilt from
        their candidate sets, the rows repaired in place (see
        :meth:`~repro.streaming.sharding._Shard.affected`) and each
        shard's :class:`~repro.streaming.sharding.ShardMerge`.

        Under ``processes`` the snapshot and profile arrays are first
        published into the shared-memory arena and attached by every
        worker, and the workers' row updates land in the authoritative
        rows after the final barrier.  Because nothing lands until every
        worker has answered, a worker death at any point leaves the
        authoritative state untouched: the pool is reset and the pass
        reruns against workers respawned from the authoritative rows.
        """
        if self.executor != "processes":
            return self._run_stages(selected, deferred)
        from .procpool import WorkerCrash
        from .shm import ShmArena

        index = self.engine.index
        if type(index) is not ProfileIndex:
            # Workers rebuild the base ProfileIndex from the shared
            # buffers; a subclass's extra state would be silently
            # dropped, breaking the bit-identity contract.
            raise TypeError(
                f"executor='processes' rebuilds a plain ProfileIndex in "
                f"each worker and cannot carry a custom index subclass "
                f"({type(index).__name__}); use the 'threads' or "
                f"'serial' executor for custom profile indexes"
            )
        if self._arena is None:
            self._arena = ShmArena(tag="repro-shard")
        block, manifest = self._arena.publish(index.to_shared_arrays())
        for attempt in range(3):
            pool = self._ensure_pool()
            try:
                # Attaching also grows each worker's row mirror to the
                # current population.
                pool.request_all(
                    "attach",
                    [(block, manifest, self.n_users)] * self.n_shards,
                )
                rebuilt, repaired, merges = self._run_stages(
                    selected, deferred
                )
                break
            except WorkerCrash:
                # Respawn: the authoritative rows are untouched, so the
                # rerun starts from workers reseeded from them.
                pool.reset()
                if attempt == 2:
                    raise
            except BaseException:
                # A worker-raised error (e.g. a failing metric): reset
                # the pool so no worker keeps half-merged rows; the
                # driver already marked the affected rows dirty.
                pool.reset()
                raise
        # Land: clear every rebuilt row, then write every row a worker
        # changed (repairs that only dropped entries included) —
        # cleared-but-candidateless rows stay MISSING, exactly as the
        # in-process executors leave them.
        neighbors, sims = self._rows()
        neighbors[rebuilt] = MISSING
        sims[rebuilt] = -np.inf
        self._depth[rebuilt] = neighbors.shape[1]
        for merge in merges:
            neighbors[merge.rows] = merge.neighbors
            sims[merge.rows] = merge.sims
            self._depth[merge.rows] = merge.depth
        return rebuilt, repaired, merges

    def _run_stages(self, selected: set[int], deferred: set[int]):
        """The three stage rounds of :meth:`_run_pass`, on any executor."""
        all_dirty = np.fromiter(selected, dtype=np.int64, count=len(selected))
        later = np.fromiter(deferred, dtype=np.int64, count=len(deferred))
        records = [self._lost[u] for u in selected.intersection(self._lost)]
        lost = np.array([i for rec in records for i in rec], dtype=np.int64)
        owners = self._shard_map.owners(all_dirty)
        owned = [all_dirty[owners == shard] for shard in range(self.n_shards)]
        splits = self._stage(
            "affected", [(all_dirty, mine, later, lost) for mine in owned]
        )
        rebuilt = np.concatenate([split[0] for split in splits])
        repaired = np.concatenate([split[1] for split in splits])
        # Retry safety: once their rows are cleared or trimmed, affected
        # users must count as dirty until the merge lands — if the pass
        # fails midway (metric error, interrupt, worker death), the next
        # refresh rebuilds them instead of leaving their rows silently
        # incomplete.
        self._dirty.update(rebuilt.tolist())
        self._dirty.update(repaired.tolist())
        plans = self._stage("plan", [(rebuilt,)] * len(owned))
        self.last_outboxes = tuple(
            outbox for outboxes in plans for outbox in outboxes
        )
        inboxes: list[list] = [[] for _ in owned]
        for outbox in self.last_outboxes:
            inboxes[outbox.target].append(outbox)
        merges = self._stage("merge", [(inbox,) for inbox in inboxes])
        return rebuilt, repaired, merges

    def _stage(self, name: str, payloads: list[tuple]) -> list:
        """Run stage *name* on every shard — the executor's one job.

        ``serial`` (and any one-shard in-process index) calls the shards
        in order, ``threads`` maps them over a pool sized per shard, and
        ``processes`` makes one request/reply round with the workers.
        """
        if self.executor == "processes":
            return self._procpool.request_all(name, payloads)

        def call(shard, payload):
            return getattr(shard, name)(*payload)

        if self.executor == "threads" and len(self._shards) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self._shards),
                    thread_name_prefix="repro-shard",
                )
            futures = [
                self._pool.submit(call, shard, payload)
                for shard, payload in zip(self._shards, payloads)
            ]
            # Every shard finishes before a failure propagates, so no
            # stage keeps mutating rows behind a caller that retries.
            wait(futures)
            return [future.result() for future in futures]
        return list(map(call, self._shards, payloads))

    def _scoring(self) -> tuple[SimilarityMetric, ProfileIndex, int]:
        engine = self.engine
        return engine.metric, engine.index, engine.batch_size

    def rebuild(self) -> ConstructionResult:
        """Cold full build — the baseline ``refresh()`` undercuts.

        Also the recovery path: whatever the graph state, a rebuild
        restores the invariant from the ratings alone (the shards are
        re-derived from the fresh rows, see :meth:`_partition`).  Like
        :meth:`refresh`, completion publishes a new read snapshot.

        Every row is cleared and rebuilt by the refresh's own candidate
        product and scorers, as if every user were dirty, one
        ascending-id row block at a time
        (:meth:`~repro.streaming.sharding._Shard.build_blocks` and
        :meth:`~repro.streaming.sharding._Shard.build`), so the peak
        memory beyond the rows is one block's candidate product.  It
        runs in process on one shard view of the rows whatever the
        executor and shard count — a shard boundary would score a
        cross-shard pair once per side — and scores each pair once.
        Rows come back exact to their full ``k + RESERVE`` width, equal
        to a cold converged :func:`~repro.core.kiff.kiff` build
        (:func:`cold_rebuild_graph`), which stays the paper's algorithm
        and the parity reference.  No :class:`RefreshStats` is logged;
        the returned result carries the published ``k``-wide graph and
        the build's evaluations.
        """
        from .sharding import _Shard

        self._ensure_open()
        self.engine.rebind(self.builder.snapshot())
        k, width = self.config.k, self.config.k + RESERVE
        self._n_rows = self.builder.n_users
        self._neighbors = np.full((self._n_rows, width), MISSING, ID_DTYPE)
        self._sims = np.full((self._n_rows, width), -np.inf, SCORE_DTYPE)
        self._depth = np.full(self._n_rows, width, dtype=ID_DTYPE)
        shard = _Shard(0, self)
        bounds = shard.build_blocks()
        evaluations = changes = 0
        for start, stop in zip(bounds[:-1], bounds[1:]):
            more, more_changes = shard.build(np.arange(start, stop))
            evaluations += more
            changes += more_changes
        self.engine.counter.add(evaluations)
        self._partition(self._shard_map)
        self._dirty.clear()
        self._lost.clear()
        self._pending_events = 0
        self._publish_snapshot()
        trace = ConvergenceTrace()
        trace.record(1, self.engine.counter.evaluations, changes)
        neighbors, sims = self._rows()
        return ConstructionResult(
            graph=KnnGraph(neighbors[:, :k].copy(), sims[:, :k].copy()),
            iterations=1,
            counter=self.engine.counter,
            timer=self.engine.timer,
            trace=trace,
            algorithm="kiff",
            extras={"k": k, "blocks": len(bounds) - 1},
        )

    # ------------------------------------------------------------------
    # Process workers: pool management
    # ------------------------------------------------------------------
    def _worker_init(self, shard_id: int) -> dict:
        """The spawn payload seeding one worker's owned state."""
        neighbors, sims = self._rows()
        return dict(
            shard_id=shard_id,
            shard_map=self._shard_map,
            config=self.config,
            metric=self.engine.metric,
            batch_size=self.engine.batch_size,
            neighbors=neighbors.copy(),
            sims=sims.copy(),
            depth=self._depth[: self._n_rows].copy(),
        )

    def _ensure_pool(self):
        from .procpool import ProcessShardPool

        if self._procpool is None:
            self._procpool = ProcessShardPool(self.n_shards)
        if not self._procpool.alive:
            self._procpool.spawn(self._worker_init)
        return self._procpool

    # ------------------------------------------------------------------
    # Live shard re-balancing
    # ------------------------------------------------------------------
    def rebalance(self, plan):
        """Migrate users between shards live, without stopping ingestion.

        The migration window is WAL-sequenced: a
        :class:`~repro.streaming.events.MigrateBegin` /
        :class:`~repro.streaming.events.MigrateCommit` record pair
        fences the batch in the partitioned log (both in shard 0's
        segment, at consecutive global sequence numbers), and ownership
        flips atomically at the commit's covering sequence.  A crash
        whose surviving log tail holds the begin fence without its
        commit replays as **no** ownership change — rollback to the
        fence — while a tail holding both replays the flip at its exact
        position relative to the surrounding rating events.  Either
        way the recovered graph stays bit-identical to a cold rebuild,
        because ownership never affects graph *content*, only where
        maintenance state lives.

        The flip moves no rows and dirties no user: the index builds
        fresh shards from the authoritative rows and the new map
        (:meth:`_partition`), so the next refresh does only the work
        the pending events ask for.  Executors restart with the new
        map at the next refresh.

        Parameters
        ----------
        plan:
            The :class:`~repro.streaming.sharding.ShardPlan`: explicit
            ``(user, shard)`` moves, a new shard count, or both.  A
            count change with a partitioned WAL attached re-opens it at
            the new segment count under the same global sequence.

        Returns
        -------
        RebalanceStats
            Moved-user count, shard counts, the fence sequence numbers
            and the wall time of the window.  A plan that changes
            nothing returns ``users_moved=0`` without journaling.

        Raises
        ------
        TypeError
            *plan* is not a :class:`~repro.streaming.sharding.ShardPlan`.
        ValueError
            A move references a user outside ``[0, n_users)`` or a
            shard outside ``[0, n_shards)``.
        RuntimeError
            The index is closed.
        """
        from .sharding import RebalanceStats, ShardMap, ShardPlan

        self._ensure_open()
        start = time.perf_counter()
        if not isinstance(plan, ShardPlan):
            raise TypeError(
                f"rebalance takes a ShardPlan, got {type(plan).__name__}"
            )
        moves = tuple(
            (int(user), int(shard)) for user, shard in plan.moves
        )
        shards_before = self.n_shards
        target = int(shards_before if plan.n_shards is None else plan.n_shards)
        if target < 1:
            raise ValueError(f"n_shards must be >= 1, got {target}")
        n_users = self.builder.n_users
        for user, shard in moves:
            if not 0 <= user < n_users:
                raise ValueError(
                    f"cannot move user {user}: outside [0, {n_users})"
                )
            if not 0 <= shard < target:
                raise ValueError(
                    f"cannot move user {user} to shard {shard}: outside "
                    f"[0, {target})"
                )
        if target == shards_before and not self._moved_users(
            self._shard_map.with_moves(moves)
        ):
            seq_begin = seq_commit = self._seq
            moved: list[int] = []
        else:
            seq_begin, seq_commit = self._journal_control(
                MigrateBegin(moves=moves, n_shards=plan.n_shards),
                MigrateCommit(moves=moves, n_shards=plan.n_shards),
            )
            moved = self._apply_plan_flip(moves, plan.n_shards)
            if self._snapshot is not None:
                # Republish under the commit's covering sequence — the
                # rows are unchanged, so readers keep the same arrays.
                self._publish_snapshot(unchanged=True)
        stats = RebalanceStats(
            users_moved=len(moved),
            shards_before=shards_before,
            shards_after=self.n_shards,
            seq_begin=seq_begin,
            seq_commit=seq_commit,
            wall_time=time.perf_counter() - start,
        )
        self.rebalance_log.append(stats)
        return stats

    def _journal_control(self, begin, commit) -> tuple[int, int]:
        """Journal the fence pair all-or-nothing; returns their seqs."""
        if self._wal is None:
            self._seq += 2
            return self._seq - 1, self._seq
        mark = self._wal.mark()
        try:
            seq_begin = self._wal.append(begin, 0)
            seq_commit = self._wal.append(commit, 0)
        except BaseException:
            self._wal.rollback(mark)
            self._seq = mark[0]
            raise
        self._seq = seq_commit
        return seq_begin, seq_commit

    def _moved_users(self, new_map) -> list[int]:
        """Users whose owner differs between the live map and *new_map*."""
        users = np.arange(self.builder.n_users, dtype=np.int64)
        changed = self._shard_map.owners(users) != new_map.owners(users)
        return users[changed].tolist()

    def _apply_plan_flip(self, moves, n_shards) -> list[int]:
        """Flip ownership for one commit record; returns the moved users.

        Shared by the live :meth:`rebalance` path and WAL replay
        (:meth:`_absorb_control`), so both reconstruct the identical
        :class:`~repro.streaming.sharding.ShardMap` from the record
        payload alone.  A count change resets the earlier overrides and
        re-opens an attached partitioned WAL at the new segment count
        (its constructor scans stray segments, so the global sequence
        carries over and old segments stay readable by the merged
        reader).
        """
        from .sharding import ShardMap

        if n_shards is None or int(n_shards) == self.n_shards:
            new_map = self._shard_map.with_moves(moves)
        else:
            new_map = ShardMap(n_shards, dict(moves))
        moved = self._moved_users(new_map)
        self._partition(new_map)
        if self._wal is not None and self._wal.n_shards != self.n_shards:
            from ..persistence import PartitionedWriteAheadLog

            old = self.detach_wal()
            old.close()
            self.attach_wal(
                PartitionedWriteAheadLog(
                    old.path, self.n_shards, fsync_every=old.fsync_every
                )
            )
        return moved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_users={self.n_users}, "
            f"n_shards={self.n_shards}, executor={self.executor!r}, "
            f"last_seq={self.last_seq})"
        )
