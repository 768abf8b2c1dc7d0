"""Shard state, the per-shard refresh stages, and the partitioned index.

The KIFF pipeline is embarrassingly partitionable: candidate selection
and top-k refinement are *per-user* computations over shared read-only
profiles.  The maintained state is therefore held in **shards**
(:class:`_Shard`), each owning one slice of the users:

* the dirty set (events dirty a user; her owner shard records it),
* the candidate-multiset cache + cached-rater index (the streaming RCS),
* a :class:`~repro.graph.updates.ReverseNeighborIndex` restricted to
  the *rows* the shard owns (keyed by cited user, which may belong to
  any shard — updates stay row-local, so they never cross shards).

The flat :class:`~repro.streaming.index.DynamicKnnIndex` is the
one-shard case; :class:`ShardedKnnIndex` partitions users across
``n_shards`` shards by a :class:`ShardMap` (the hash rule
``user % n_shards`` plus an override table populated by live
:meth:`ShardedKnnIndex.rebalance` moves).  Both run the one refresh
driver (``DynamicKnnIndex._refresh``), which rebinds the shared
snapshot/:class:`~repro.similarity.base.ProfileIndex` once and then
calls three stages on every shard:

1. **Affected discovery** (:meth:`_Shard.affected`) — each shard unions
   its selected dirty users with its own rows citing *any* selected
   dirty user (a lookup in its reverse index).
2. **Planning** (:meth:`_Shard.plan`) — each shard clears its affected
   rows, derives their candidate sets (shard-local cache; misses
   re-derived in bulk) and emits the evaluation pairs for rows it owns.
   A dirty user must also be *offered* to the rows of her clean
   candidates; when such a row belongs to another shard, the pair
   travels through a per-shard **outbox** keyed by the WAL sequence
   number the refresh covers — the cross-shard effect channel.
3. **Evaluate + merge** (:meth:`_Shard.merge`) — each shard dedupes its
   pairs, scores them against the shared profile index, and merges into
   *its own rows only* (:func:`~repro.graph.updates.merge_topk_rows`,
   no full-array copy) — writes are disjoint by construction, so
   shards touch the one shared graph concurrently without locks.  The
   merge drops every offer that loses to its row's current k-th entry
   (most mirror offers to clean rows) before it sorts, and the rows
   whose ids moved reach the shard's reverse index as one block diff.

Because similarity is a pure per-pair function of the shared profile
index, every row receives the same candidate-edge multiset at any shard
count, and the merged graph is **bit-identical** to the flat index's —
the sharded parity suite (``tests/streaming/test_sharding.py``) pins
this across the randomized stream corpus at 1/2/4 shards.

The executor is only the transport that carries the stage calls to the
shards; every executor runs the same :class:`_Shard` code:

* ``executor="threads"`` (default) — the index's own shards, fanned out
  on a ``concurrent.futures`` thread pool; speedup tracks how much of
  the work runs in NumPy/SciPy kernels (the Python-level plan/merge
  stays GIL-serialized).
* ``executor="serial"`` — the index's own shards, called in shard
  order; fully deterministic scheduling for tests and debuggers.
* ``executor="processes"`` — one persistent worker process per shard
  (:mod:`repro.streaming.procpool`), each holding its own
  :class:`_Shard`: the read-only snapshot and profile arrays are
  published into ``multiprocessing.shared_memory`` and rebuilt as
  zero-copy views in every worker, per-event cache deltas ship as
  compact messages after each ``apply()``, each stage is one
  request/reply round, and the workers' row updates land in the
  parent's authoritative rows after the final barrier.  This is the
  true multi-core mode: the Python-level refresh work escapes the GIL.
  Workers are respawned (and the delta tail replayed) on death, and the
  shared blocks are unlinked on ``close()``/GC.

``benchmarks/bench_sharded_refresh.py`` measures all of them on
multi-event batches and enforces the process executor's speedup bar.

Durability is partitioned the same way (:mod:`repro.persistence`):
events journal into per-shard ``wal-<shard>.jsonl`` segments sharing one
global sequence, checkpoints write per-shard state files, and
:meth:`ShardedKnnIndex.restore` recovers — bit-identically, at any shard
count — from any state directory, the flat index's one-shard one
included.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.rcs import delta_rcs
from ..graph.knn_graph import MISSING
from ..graph.updates import (
    ReverseNeighborIndex,
    dedupe_pairs,
    merge_topk_rows,
)
from ..layout import ID_DTYPE, SCORE_DTYPE
from ..similarity.base import ProfileIndex, SimilarityMetric
# The one chunked scoring loop, imported by name so importers of it
# from this module keep working.
from ..similarity.engine import score_pairs_chunked  # noqa: F401
from .events import MigrateBegin, MigrateCommit
from .index import DynamicKnnIndex, RefreshStats

__all__ = [
    "RebalanceStats",
    "ShardMap",
    "ShardOutbox",
    "ShardPlan",
    "ShardedKnnIndex",
    "shard_of",
]


def shard_of(user: int, n_shards: int) -> int:
    """The *base* shard of *user* — hash partitioning by the id.

    ``user % n_shards`` is the default ownership rule: derivable
    everywhere (event routing, outbox targeting, checkpoint slicing,
    re-sharding on restore) without a directory service.  A live
    :meth:`ShardedKnnIndex.rebalance` can override individual users
    away from their base shard; the :class:`ShardMap` is then the
    authoritative rule (base modulus plus an override table) and every
    routing site consults it instead of calling this function directly.
    """
    return int(user) % int(n_shards)


class ShardMap:
    """User → shard ownership: hash partitioning plus explicit overrides.

    The default owner of user *u* is ``u % n_shards``; ``overrides``
    maps individual users to a different shard (the result of live
    :meth:`ShardedKnnIndex.rebalance` moves).  Overrides equal to the
    base rule are normalized away, so a map without moves compares and
    routes exactly like pure hash partitioning.

    Parameters
    ----------
    n_shards:
        Shard count; must be >= 1.
    overrides:
        Optional ``{user: shard}`` mapping.  Raises :class:`ValueError`
        when a target shard is outside ``[0, n_shards)``.
    """

    __slots__ = ("n_shards", "_overrides", "_ov_users", "_ov_shards")

    def __init__(self, n_shards: int, overrides: dict | None = None):
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        cleaned: dict[int, int] = {}
        for user, shard in (overrides or {}).items():
            user, shard = int(user), int(shard)
            if not 0 <= shard < n_shards:
                raise ValueError(
                    f"override shard {shard} for user {user} is outside "
                    f"[0, {n_shards})"
                )
            if user % n_shards != shard:
                cleaned[user] = shard
        self._overrides = cleaned
        users = np.fromiter(
            sorted(cleaned), dtype=np.int64, count=len(cleaned)
        )
        self._ov_users = users
        self._ov_shards = np.fromiter(
            (cleaned[user] for user in users.tolist()),
            dtype=np.int64,
            count=users.size,
        )

    @property
    def overrides(self) -> dict[int, int]:
        """The non-default assignments, as a ``{user: shard}`` copy."""
        return dict(self._overrides)

    def owner(self, user: int) -> int:
        """The shard owning *user* under this map."""
        user = int(user)
        shard = self._overrides.get(user)
        return user % self.n_shards if shard is None else shard

    def owners(self, users) -> np.ndarray:
        """Vectorized :meth:`owner` over an array of user ids."""
        users = np.asarray(users, dtype=np.int64)
        owners = users % self.n_shards
        if self._ov_users.size and users.size:
            pos = np.searchsorted(self._ov_users, users)
            pos = np.minimum(pos, self._ov_users.size - 1)
            hit = self._ov_users[pos] == users
            owners[hit] = self._ov_shards[pos[hit]]
        return owners

    def owned_rows(self, shard_id: int, n_rows: int) -> np.ndarray:
        """Sorted row ids in ``[0, n_rows)`` owned by *shard_id*."""
        rows = np.arange(shard_id, n_rows, self.n_shards)
        if self._ov_users.size:
            in_range = self._ov_users < n_rows
            moved = self._ov_users[in_range]
            if moved.size:
                targets = self._ov_shards[in_range]
                rows = np.setdiff1d(rows, moved, assume_unique=True)
                rows = np.union1d(rows, moved[targets == shard_id])
        return rows

    def with_moves(self, moves) -> "ShardMap":
        """A new map with ``(user, shard)`` *moves* layered on top."""
        overrides = dict(self._overrides)
        for user, shard in moves:
            overrides[int(user)] = int(shard)
        return ShardMap(self.n_shards, overrides)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (
            self.n_shards == other.n_shards
            and self._overrides == other._overrides
        )

    def __hash__(self) -> int:
        return hash((self.n_shards, tuple(sorted(self._overrides.items()))))

    def __reduce__(self):
        # __slots__ without __dict__ needs an explicit pickle recipe;
        # workers receive the map inside their spawn payload.
        return (ShardMap, (self.n_shards, self._overrides))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardMap(n_shards={self.n_shards}, "
            f"overrides={len(self._overrides)})"
        )


@dataclass(frozen=True)
class ShardPlan:
    """A live re-balancing request for :meth:`ShardedKnnIndex.rebalance`.

    ``moves`` is a tuple of ``(user, target_shard)`` pairs pinning
    individual users to explicit shards; ``n_shards`` (when not None)
    additionally transitions the index to a new shard count.  A count
    change resets previous overrides — ownership re-derives from the
    new modulus — while ``moves`` in the same plan survive as overrides
    against it.
    """

    moves: tuple = ()
    n_shards: int | None = None


@dataclass(frozen=True)
class RebalanceStats:
    """Outcome of one :meth:`ShardedKnnIndex.rebalance` call."""

    #: Users whose owner shard changed (0 for a no-op plan).
    users_moved: int
    #: Shard count before / after the migration window.
    shards_before: int
    shards_after: int
    #: WAL sequence of the ``MigrateBegin`` fence (equals ``seq_commit``
    #: for a journal-less index or a no-op plan).
    seq_begin: int
    #: WAL sequence of the ``MigrateCommit`` fence — the covering
    #: sequence at which ownership flipped atomically.
    seq_commit: int
    #: Wall-clock seconds the migration window was open.
    wall_time: float


@dataclass(frozen=True)
class ShardOutbox:
    """Cross-shard evaluation pairs emitted by one shard's planning step.

    ``rows[j]`` (a row owned by *target*) must be offered candidate
    ``candidates[j]`` (a dirty user owned by *source*).  ``seq`` keys the
    exchange to the WAL sequence number the refresh covers, so the
    outbox protocol lines up with the partition log: replaying every
    shard's events through ``seq`` and refreshing reproduces exactly
    these exchanges.
    """

    source: int
    target: int
    seq: int
    rows: np.ndarray
    candidates: np.ndarray


#: The ``(rows, candidates)`` of a shard with no planned pairs.
_NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _bump(counts: dict[int, int], key: int, delta: int) -> None:
    """Adjust a candidate multiset entry, dropping it at zero."""
    value = counts.get(key, 0) + delta
    if value <= 0:
        counts.pop(key, None)
    else:
        counts[key] = value


class _Shard:
    """One shard's owned slice of the maintained state and its stages.

    The refresh driver calls :meth:`affected`, :meth:`plan` and
    :meth:`merge` on every shard, in that order; the executor only
    decides how the calls travel — straight to the index's own shards
    (the flat index, ``serial``, ``threads``) or through
    :mod:`repro.streaming.procpool` to the worker process holding this
    shard (``processes``).

    Whatever else a stage reads comes from the *host*
    (``repro.streaming.index._ShardHost``): the graph rows, the
    candidacy rule, the builder, the ownership map and the scorer.  In
    process the host is the index; in a worker it is the worker's view
    of the published snapshot plus its mirror of the graph rows.
    """

    __slots__ = (
        "shard_id",
        "host",
        "dirty",
        "reverse",
        "candidate_counts",
        "cached_raters",
        "_affected",
        "_truly_dirty",
        "_pairs",
    )

    def __init__(self, shard_id: int, host):
        self.shard_id = shard_id
        self.host = host
        #: Owned users whose profile changed since the last refresh.
        self.dirty: set[int] = set()
        #: cited user -> owned rows citing her (rows only from this shard).
        self.reverse = ReverseNeighborIndex()
        #: Owned user -> {candidate: shared-qualifying-item count}; the
        #: cached streaming RCS, in insertion (= eviction) order.
        self.candidate_counts: dict[int, dict[int, int]] = {}
        #: item -> owned cached users rating it at a qualifying level
        #: (the propagation targets of a membership change on that item).
        self.cached_raters: dict[int, set[int]] = {}
        # Per-pass context, set by the stages.
        self._affected = _NO_PAIRS[0]
        self._truly_dirty: frozenset = frozenset()
        self._pairs = _NO_PAIRS

    # ------------------------------------------------------------------
    # Candidate-set cache (delta-maintained between refreshes)
    # ------------------------------------------------------------------
    def cache_insert(self, user: int, counts: dict[int, int]) -> None:
        """Cache *user*'s multiset, evicting oldest-first past the bound."""
        limit = self.host._shard_cache_limit
        if limit is not None and limit <= 0:
            return  # cache disabled
        builder = self.host.builder
        # Replacing: drop stale rater links first.
        self.cache_evict(user, builder.profile(user))
        while limit is not None and len(self.candidate_counts) >= limit:
            oldest = next(iter(self.candidate_counts))
            self.cache_evict(oldest, builder.profile(oldest))
        self.candidate_counts[user] = counts
        for item, rating in builder.profile(user).items():
            if self.host._qualifies(rating):
                self.cached_raters.setdefault(item, set()).add(user)

    def cache_evict(self, user: int, items) -> None:
        """Drop *user*'s cached multiset and her rater registrations.

        *items* are the items of her profile (read before it changes).
        """
        if self.candidate_counts.pop(user, None) is None:
            return
        for item in items:
            raters = self.cached_raters.get(item)
            if raters is not None:
                raters.discard(user)
                if not raters:
                    del self.cached_raters[item]

    def note_candidacy(self, user: int, item: int, added: bool, raters):
        """Apply one qualifying-membership flip of ``(user, item)``.

        *user* started (or stopped) contributing candidacies through
        *item*: every cached rater of the item gains/loses one shared
        item with her, and her own cached multiset (if this shard holds
        it) gains/loses the item's other qualifying raters, which the
        zero-argument callable *raters* returns — called only then, so
        the common uncached case never scans the item's raters.
        """
        delta = 1 if added else -1
        cached = self.cached_raters.get(item)
        if cached:
            for other in cached:
                if other != user:
                    _bump(self.candidate_counts[other], user, delta)
        counts = self.candidate_counts.get(user)
        if counts is None:
            return
        for other in raters():
            _bump(counts, other, delta)
        if added:
            self.cached_raters.setdefault(item, set()).add(user)
        else:
            cached = self.cached_raters.get(item)
            if cached is not None:
                cached.discard(user)
                if not cached:
                    del self.cached_raters[item]

    def candidate_sets(
        self, users: np.ndarray
    ) -> tuple[dict[int, dict[int, int]], int, int]:
        """Candidate multisets for owned *users*; ``(sets, hits, misses)``.

        Misses are re-derived in one bulk
        :func:`~repro.core.rcs.delta_rcs` call on the current snapshot
        (cost proportional to the missing users' item profiles) and
        cached.  Thread-safe by ownership: only this shard's stage calls
        touch its cache dicts, and the miss path only *reads* the shared
        snapshot.  Counter deltas are returned, not written — the driver
        folds them into the shared ``MaintenanceCounter``.
        """
        result: dict[int, dict[int, int]] = {}
        missing: list[int] = []
        for user in users.tolist():
            cached = self.candidate_counts.get(user)
            if cached is not None:
                result[user] = cached
            else:
                missing.append(user)
        hits = len(result)
        if missing:
            rcs_delta = delta_rcs(
                self.host.builder.snapshot(),
                missing,
                pivot=False,
                min_rating=self.host.config.min_rating,
            )
            for user in missing:
                counts = dict(
                    zip(
                        rcs_delta.candidates_of(user).tolist(),
                        (int(c) for c in rcs_delta.counts_of(user).tolist()),
                    )
                )
                result[user] = counts
                self.cache_insert(user, counts)
        return result, hits, len(missing)

    # ------------------------------------------------------------------
    # Refresh stages
    # ------------------------------------------------------------------
    def affected(self, all_dirty: np.ndarray, my_dirty: np.ndarray):
        """Stage A: this shard's slice of the affected set.

        Its selected dirty users (*my_dirty*) plus its rows citing any
        selected dirty user (*all_dirty*).
        """
        self._truly_dirty = frozenset(all_dirty.tolist())
        self._affected = np.union1d(
            my_dirty, self.reverse.referrers_of(all_dirty)
        )
        return self._affected

    def plan(self, affected: np.ndarray, seq: int):
        """Stage B: clear owned affected rows, derive pairs and outboxes.

        *affected* is the global affected set.  Returns ``(outboxes,
        cache_hits, cache_misses)``; this shard's own pairs stay here
        for :meth:`merge`.
        """
        host = self.host
        neighbors, sims = host._rows()
        mine = self._affected
        old_rows = neighbors[mine].copy()
        neighbors[mine] = MISSING
        sims[mine] = -np.inf
        # The reverse index mirrors the rows at every exit point, so a
        # mid-pass failure leaves it consistent for the retry.
        self.reverse.apply_row(mine, old_rows, None)
        cand_sets, hits, misses = self.candidate_sets(mine)
        affected_mask = np.zeros(host.n_users, dtype=bool)
        affected_mask[affected] = True
        rows, candidates, outboxes = plan_shard_pairs(
            self.shard_id,
            host._shard_map,
            mine,
            affected_mask,
            self._truly_dirty,
            cand_sets,
            seq,
        )
        self._pairs = (rows, candidates)
        return outboxes, hits, misses

    def merge(self, inbox: list[ShardOutbox]):
        """Stage C: dedupe, evaluate and merge into this shard's rows.

        Returns ``(evaluations, changes, active, new_neighbors,
        new_sims)`` — the row updates let a process worker ship its
        merge back to the parent.
        """
        host = self.host
        neighbors, sims = host._rows()
        rows, candidates = self._pairs
        self._pairs = _NO_PAIRS  # release the pass's pairs early
        return merge_shard_pairs(
            self.shard_id,
            host._shard_map,
            host.config.pivot,
            rows,
            candidates,
            inbox,
            neighbors,
            sims,
            host.n_users,
            host._score_pairs,
            self.reverse,
        )


class _ShardedDirtySet:
    """The global dirty set, physically stored as per-shard owned slices.

    Exposes the mutable-set surface the base ingestion path and the
    refresh driver use (``add`` / ``update`` / ``clear`` / iteration /
    membership / ``len``), so
    every ``DynamicKnnIndex._absorb_*`` method lands events in the
    owner shard's slice without knowing about sharding.  Ownership is
    read live from the index's :class:`ShardMap`, so a rebalance that
    swaps the map re-routes subsequent adds without rebuilding this
    router.
    """

    __slots__ = ("_shards", "_map_of")

    def __init__(self, shards: list[_Shard], map_of):
        self._shards = shards
        #: Zero-arg callable yielding the live :class:`ShardMap`.
        self._map_of = map_of

    def add(self, user: int) -> None:
        """Mark *user* dirty in her owner shard's slice."""
        user = int(user)
        self._shards[self._map_of().owner(user)].dirty.add(user)

    def update(self, users) -> None:
        """Mark every user in *users* dirty (routed per owner)."""
        for user in users:
            self.add(user)

    def clear(self) -> None:
        """Empty every shard's dirty slice."""
        for shard in self._shards:
            shard.dirty.clear()

    def __len__(self) -> int:
        return sum(len(shard.dirty) for shard in self._shards)

    def __iter__(self):
        for shard in self._shards:
            yield from shard.dirty

    def __contains__(self, user) -> bool:
        user = int(user)
        return user in self._shards[self._map_of().owner(user)].dirty


class _ShardedReverseIndex:
    """The reverse-neighbor index, stored as the shards' row slices.

    Shard *s*'s index stores only rows *s* owns, so the row diffs of
    every merge are shard-local mutations, and ``referrers_of(dirty)``
    per shard yields exactly the shard's slice of the affected set.  The
    union over shards equals the flat index (the routing is a partition
    of the rows).
    """

    __slots__ = ("_shards", "_map_of")

    def __init__(self, shards: list[_Shard], map_of):
        self._shards = shards
        #: Zero-arg callable yielding the live :class:`ShardMap`.
        self._map_of = map_of

    def rebuild(self, neighbors: np.ndarray) -> None:
        """Re-derive every shard's row-restricted index from *neighbors*."""
        shard_map = self._map_of()
        for shard in self._shards:
            shard.reverse.rebuild(
                neighbors,
                shard_map.owned_rows(shard.shard_id, neighbors.shape[0]),
            )

    def referrers_of(self, users) -> np.ndarray:
        """All rows (any shard) citing any of *users*, sorted unique."""
        parts = [shard.reverse.referrers_of(users) for shard in self._shards]
        return np.unique(np.concatenate(parts))

    def referrer_count(self) -> int:
        """Total distinct cited users across every shard's index."""
        return sum(shard.reverse.referrer_count() for shard in self._shards)


# ----------------------------------------------------------------------
# Pure per-shard stage kernels
#
# Plain functions of explicit inputs, called by the _Shard stages — in
# process and in the worker processes alike, so every executor produces
# bit-identical results from one implementation.
# ----------------------------------------------------------------------
def plan_shard_pairs(
    shard_id: int,
    shard_map: ShardMap,
    affected: np.ndarray,
    affected_mask: np.ndarray,
    truly_dirty: frozenset,
    cand_sets: dict[int, dict[int, int]],
    seq: int,
) -> tuple[np.ndarray, np.ndarray, list[ShardOutbox]]:
    """Stage B's pair derivation: local pairs plus cross-shard outboxes.

    Every affected row owned by *shard_id* (per *shard_map*) is paired
    with its full candidate set; a truly dirty user is additionally
    *offered* to the rows of her clean candidates (the mirror
    direction), routed through an outbox when the row belongs to
    another shard.  Returns ``(rows, candidates, outboxes)``.
    """
    n_shards = shard_map.n_shards
    row_parts: list[np.ndarray] = []
    cand_parts: list[np.ndarray] = []
    out_rows: list[list[np.ndarray]] = [[] for _ in range(n_shards)]
    out_cands: list[list[np.ndarray]] = [[] for _ in range(n_shards)]
    for user in affected.tolist():
        counts = cand_sets[user]
        candidates = np.fromiter(counts.keys(), np.int64, len(counts))
        if candidates.size == 0:
            continue
        row_parts.append(np.full(candidates.size, user, dtype=np.int64))
        cand_parts.append(candidates)
        if user in truly_dirty:
            # Mirror: the dirty user must be offered to the rows of
            # her clean candidates (she can *enter* those top-ks).
            mirror = candidates[~affected_mask[candidates]]
            if mirror.size == 0:
                continue
            if n_shards == 1:
                row_parts.append(mirror)
                cand_parts.append(np.full(mirror.size, user, np.int64))
                continue
            owners = shard_map.owners(mirror)
            for target in np.unique(owners).tolist():
                rows_t = mirror[owners == target]
                users_t = np.full(rows_t.size, user, dtype=np.int64)
                if target == shard_id:
                    row_parts.append(rows_t)
                    cand_parts.append(users_t)
                else:
                    out_rows[target].append(rows_t)
                    out_cands[target].append(users_t)
    empty = np.empty(0, dtype=np.int64)
    outboxes = [
        ShardOutbox(
            source=shard_id,
            target=target,
            seq=seq,
            rows=np.concatenate(out_rows[target]),
            candidates=np.concatenate(out_cands[target]),
        )
        for target in range(n_shards)
        if out_rows[target]
    ]
    rows = np.concatenate(row_parts) if row_parts else empty
    candidates = np.concatenate(cand_parts) if cand_parts else empty
    return rows, candidates, outboxes


def merge_shard_pairs(
    shard_id: int,
    shard_map: ShardMap,
    pivot: bool,
    plan_rows: np.ndarray,
    plan_candidates: np.ndarray,
    inbox: list[ShardOutbox],
    neighbors: np.ndarray,
    sims: np.ndarray,
    n_users: int,
    score_pairs,
    reverse,
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Stage C: dedupe, evaluate, and merge into this shard's own rows.

    Writes the re-ranked rows into *neighbors*/*sims* in place (every
    active row is owned by *shard_id*, so concurrent callers never
    collide), mirrors the diffs of the rows whose ids moved into
    *reverse* as one block, and returns ``(evaluations, changes,
    active, new_neighbors, new_sims)`` so a process worker can ship the
    row updates back to the parent.  ``active`` holds only the rows the
    merge re-ranked — rows whose every offer lost to their k-th entry
    are left out.
    """
    us = np.concatenate([plan_rows] + [box.rows for box in inbox])
    vs = np.concatenate([plan_candidates] + [box.candidates for box in inbox])
    us, vs = dedupe_pairs(us, vs, n_users, ordered=not pivot)
    pair_sims = score_pairs(us, vs)
    evaluations = int(us.size)
    if pivot:
        # One evaluation serves both directions (Section II-D) — but
        # only this shard's rows are merged here; the partner shard
        # evaluates its own side of a cross-shard pair.
        cand_users = np.concatenate([us, vs])
        cand_ids = np.concatenate([vs, us])
        cand_sims = np.concatenate([pair_sims, pair_sims])
        if shard_map.n_shards > 1:
            owned = shard_map.owners(cand_users) == shard_id
            cand_users = cand_users[owned]
            cand_ids = cand_ids[owned]
            cand_sims = cand_sims[owned]
    else:
        cand_users, cand_ids, cand_sims = us, vs, pair_sims
    k = neighbors.shape[1]
    if cand_users.size == 0:
        return (
            evaluations,
            0,
            np.empty(0, dtype=np.int64),
            np.empty((0, k), dtype=ID_DTYPE),
            np.empty((0, k), dtype=SCORE_DTYPE),
        )
    active, new_neighbors, new_sims, changes = merge_topk_rows(
        neighbors, sims, cand_users, cand_ids, cand_sims
    )
    pre_merge = neighbors[active]
    # Write only the re-ranked rows back, through the views, so
    # backing-array slack capacity survives and no O(n_users * k) copy
    # is paid; every active row is owned by this shard, so shards never
    # collide.
    neighbors[active] = new_neighbors
    sims[active] = new_sims
    # Only rows whose neighbour ids actually moved need reverse-index
    # diffs — most re-ranked rows keep their ids.
    moved = np.flatnonzero((new_neighbors != pre_merge).any(axis=1))
    reverse.apply_row(active[moved], pre_merge[moved], new_neighbors[moved])
    return evaluations, int(changes), active, new_neighbors, new_sims


class ShardedKnnIndex(DynamicKnnIndex):
    """A :class:`DynamicKnnIndex` partitioned across ``n_shards`` shards.

    Same contract and same refresh driver — the maintained graph is
    bit-identical to the flat index (and therefore to a cold converged
    rebuild) after any event interleaving — with the per-shard state and
    refresh stages split across ``n_shards`` shards over one shared
    graph and profile index.  What this class adds is what partitioning
    needs: the :class:`ShardMap` and live :meth:`rebalance`, re-sharding
    on restore, and the executors that carry stage calls to the shards.

    Parameters (beyond :class:`DynamicKnnIndex`'s)
    ----------------------------------------------
    n_shards:
        Shard count; users are owned per the :class:`ShardMap`
        (``user % n_shards`` until a :meth:`rebalance` overrides it).
    executor:
        ``"threads"`` (default) fans each refresh stage out on a
        ``concurrent.futures.ThreadPoolExecutor``; ``"serial"`` calls
        the shards in-process in shard order — fully deterministic
        scheduling for tests/debugging; ``"processes"`` sends the stage
        calls to a persistent ``multiprocessing`` worker pool over
        shared-memory snapshots (see the module docstring) — the mode
        whose refresh work actually escapes the GIL.  Results are
        bit-identical in every mode.  With ``"processes"`` the
        candidate caches live in the workers, so checkpoints serialize
        an empty cache section (always safe: caches are exact-or-absent),
        and custom :class:`~repro.similarity.base.ProfileIndex`
        subclasses are rejected (refresh raises ``TypeError``) because
        workers rebuild the base index from the shared buffers.
    start_method:
        Optional ``multiprocessing`` start method for the process
        executor (default: ``"fork"`` on Linux, else ``"spawn"``).
    wal:
        Optional :class:`~repro.persistence.PartitionedWriteAheadLog`;
        each event journals into its owner shard's ``wal-<shard>.jsonl``
        segment under one global sequence.

    ``candidate_cache_size`` bounds the cache *globally*; each shard
    keeps at most ``max(1, size // n_shards)`` entries of its own users.
    Note on cost accounting: with the pivot strategy a pair whose
    endpoints live on different shards may be evaluated once per side
    (evaluations are never shared across shards), so
    ``RefreshStats.evaluations`` can exceed the flat index's — the
    graphs still match exactly.
    """

    def __init__(
        self,
        dataset,
        config=None,
        metric: str | SimilarityMetric = "cosine",
        auto_refresh: bool = True,
        build: bool = True,
        candidate_cache_size: int | None = 65_536,
        wal=None,
        n_shards: int = 2,
        executor: str = "threads",
        start_method: str | None = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if executor not in ("threads", "serial", "processes"):
            raise ValueError(
                f"executor must be 'threads', 'serial' or 'processes', "
                f"got {executor!r}"
            )
        self.n_shards = int(n_shards)
        self.executor = executor
        self._pool = None
        #: Process-executor state: the persistent worker pool, the owned
        #: shared-memory arena, the not-yet-shipped per-event deltas and
        #: the replayable delta tail since the last completed refresh.
        self._start_method = start_method
        self._procpool = None
        self._arena = None
        self._delta_buffer: list[tuple] = []
        self._delta_tail: list[tuple] = []
        #: RebalanceStats of every completed rebalance() call.
        self.rebalance_log: list[RebalanceStats] = []
        super().__init__(
            dataset,
            config,
            metric=metric,
            auto_refresh=auto_refresh,
            build=build,
            candidate_cache_size=candidate_cache_size,
            wal=wal,
        )

    def _partition(self, shard_map: ShardMap | None = None) -> None:
        """Fresh per-shard containers at ``n_shards`` (or *shard_map*)."""
        super()._partition(shard_map or ShardMap(self.n_shards))
        self.n_shards = self._shard_map.n_shards

    # ------------------------------------------------------------------
    # Transports: how a stage call reaches the shards
    # ------------------------------------------------------------------
    def _stage(self, name: str, payloads: list[tuple]) -> list:
        """Run stage *name* on every shard via this index's executor."""
        if self.executor == "processes":
            return self._procpool.request_all(name, payloads)
        if self.executor == "serial" or self.n_shards == 1:
            return super()._stage(name, payloads)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="repro-shard"
            )
        return list(
            self._pool.map(
                lambda shard, payload: getattr(shard, name)(*payload),
                self._shards,
                payloads,
            )
        )

    def _run_pass(self, selected: set[int]):
        """The stages, plus the ``processes`` publish/retry/land steps.

        Under ``processes`` the snapshot and profile arrays are
        published once into the shared-memory arena, every worker
        attaches them, the stages run as request/reply rounds, and the
        workers' row updates land in the parent's authoritative rows
        after the final barrier.  Because the parent applies nothing
        until every worker has answered, a worker death at any point
        leaves the authoritative state untouched: the pool is reset and
        the pass reruns against respawned workers (seeded from the
        authoritative rows plus the replayed delta tail).
        """
        if self.executor != "processes":
            return super()._run_pass(selected)
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
            self._flush_deltas()
            try:
                pool.request_all(
                    "attach",
                    [(block, manifest, self.n_users)] * self.n_shards,
                )
                affected, plans, merges = super()._run_pass(selected)
                break
            except WorkerCrash:
                # Respawn + replay: the authoritative rows are untouched,
                # so the rerun starts from workers reseeded from them.
                pool.reset()
                if attempt == 2:
                    raise
            except BaseException:
                # A worker-raised error (e.g. a failing metric): reset
                # the pool so no worker keeps half-merged rows; the
                # driver already marked the affected rows dirty.
                pool.reset()
                raise
        # Land: clear every affected row, then write the merged rows —
        # cleared-but-candidateless rows stay MISSING, exactly as the
        # in-process executors leave them.
        neighbors, sims = self._rows()
        neighbors[affected] = MISSING
        sims[affected] = -np.inf
        for _, _, active, new_neighbors, new_sims in merges:
            neighbors[active] = new_neighbors
            sims[active] = new_sims
        self._delta_tail.clear()
        return affected, plans, merges

    def close(self) -> None:
        """Release every worker resource and retire the index.

        Shuts the thread pool down, stops the process workers and
        unlinks the shared-memory arena.  Idempotent and safe on a
        partially constructed index (a constructor that raised before
        some attribute existed), so a ``finally: index.close()`` can
        never raise or leak ``/dev/shm`` blocks; ``weakref`` finalizers
        on the pool and arena also run this cleanup on garbage
        collection, so an abandoned index cannot leak processes or
        segments either.  Post-close
        ``apply()``/``refresh()``/``pin()`` raise :class:`RuntimeError`.
        """
        if getattr(self, "_closed", False):
            return
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
        super().close()

    # ------------------------------------------------------------------
    # Process-executor delta shipping and pool management
    # ------------------------------------------------------------------
    def _note_candidacy_change(
        self, user: int, item: int, added: bool
    ) -> None:
        if self.executor != "processes":
            super()._note_candidacy_change(user, item, added)
            return
        # The caches live in the workers; ship the flip as a compact
        # delta.  The owner's update needs the item's qualifying raters
        # *at event time* (the workers' snapshot views are only as
        # fresh as the last refresh), so they travel along.
        self._delta_buffer.append(
            ("cand", user, item, added, self._qualifying_raters(item, user))
        )

    def _cache_insert(self, user: int, counts: dict[int, int]) -> None:
        # Worker-owned caches under 'processes': the parent-side stores
        # stay empty, so a checkpoint can never serialize a stale
        # multiset (caches are exact-or-absent; absent is always safe).
        if self.executor != "processes":
            super()._cache_insert(user, counts)

    def _cache_evict(self, user: int) -> None:
        if self.executor != "processes":
            super()._cache_evict(user)
            return
        items = [int(item) for item in self.builder.profile(user)]
        self._delta_buffer.append(("evict", int(user), items))

    def _grow_rows(self, n_users: int) -> None:
        grew = n_users > self._n_rows
        super()._grow_rows(n_users)
        if grew and self.executor == "processes":
            # Absolute target, so replaying the tail is idempotent.
            self._delta_buffer.append(("grow", int(n_users)))

    def apply(self, events):
        """Validate, journal and absorb *events* (see the flat ``apply``).

        Identical contract to :meth:`DynamicKnnIndex.apply`; in
        ``processes`` mode, compact per-event deltas additionally ship
        to the workers after each call so their caches stay current.
        """
        result = super().apply(events)
        if self.executor == "processes":
            self._flush_deltas()
        return result

    def rebuild(self):
        """Cold-rebuild the graph, then restart worker state from it."""
        result = super().rebuild()
        if self._procpool is not None:
            # Worker row mirrors and reverse indexes predate the rebuilt
            # graph; restart them from the fresh authoritative rows.
            self._procpool.reset()
            self._delta_buffer.clear()
            self._delta_tail.clear()
        return result

    def _flush_deltas(self) -> None:
        """Move buffered deltas to the tail and ship them to live workers.

        The tail survives until the next completed refresh: a respawned
        worker replays it on top of the authoritative rows it is seeded
        with (candidacy/evict replays are no-ops against its empty
        cache, ``grow`` is absolute), which is what makes worker death
        recoverable at any point.
        """
        if not self._delta_buffer:
            return
        ops, self._delta_buffer = self._delta_buffer, []
        self._delta_tail.extend(ops)
        if self._procpool is not None and self._procpool.alive:
            self._procpool.broadcast_deltas(ops)

    def _worker_init(self, shard_id: int) -> dict:
        """The spawn payload seeding one worker's owned state."""
        neighbors, sims = self._rows()
        return dict(
            shard_id=shard_id,
            shard_map=self._shard_map,
            config=self.config,
            metric=self.engine.metric,
            batch_size=self.engine.batch_size,
            cache_limit=self._shard_cache_limit,
            neighbors=neighbors.copy(),
            sims=sims.copy(),
            deltas=list(self._delta_tail),
        )

    def _ensure_pool(self):
        from .procpool import ProcessShardPool

        if self._procpool is None:
            self._procpool = ProcessShardPool(
                self.n_shards, start_method=self._start_method
            )
        if not self._procpool.alive:
            self._procpool.spawn(self._worker_init)
        return self._procpool

    # ------------------------------------------------------------------
    # Live shard re-balancing
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        """The authoritative user → shard ownership rule."""
        return self._shard_map

    def rebalance(self, plan: ShardPlan) -> RebalanceStats:
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

        After the flip every moved user is marked dirty: the next
        refresh re-derives her row on the destination shard — seeding
        the destination's candidate cache and row-restricted reverse
        index from the authoritative rows — and, under a
        :class:`~repro.scheduling.RefreshScheduler`, the migration
        counts against the queue bound like any other dirty work.
        Under ``executor="processes"`` the worker pool is reset instead
        (the crash-respawn path): the next refresh respawns the workers
        from the authoritative rows with the new map, and the
        shared-memory arena views republish as usual.

        Parameters
        ----------
        plan:
            The :class:`ShardPlan`: explicit ``(user, shard)`` moves, a
            new shard count, or both.  A count change rebuilds every
            per-shard container (dirty set, reverse index; caches are
            dropped — always safe, they are exact-or-absent) and, when
            a partitioned WAL is attached, re-opens it at the new
            segment count under the same global sequence.

        Returns
        -------
        RebalanceStats
            Moved-user count, shard counts, the fence sequence numbers
            and the wall time of the window.  A plan that changes
            nothing returns ``users_moved=0`` without journaling.

        Raises
        ------
        TypeError
            *plan* is not a :class:`ShardPlan`.
        ValueError
            A move references a user outside ``[0, n_users)`` or a
            shard outside ``[0, n_shards)``.
        RuntimeError
            The index is closed.
        """
        self._ensure_open()
        start = time.perf_counter()
        if not isinstance(plan, ShardPlan):
            raise TypeError(
                f"rebalance takes a ShardPlan, got {type(plan).__name__}"
            )
        moves = tuple(
            (int(user), int(shard)) for user, shard in plan.moves
        )
        target = (
            self.n_shards if plan.n_shards is None else int(plan.n_shards)
        )
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
        if target == self.n_shards:
            new_map = self._shard_map.with_moves(moves)
        else:
            new_map = ShardMap(target, dict(moves))
        would_move = self._moved_users(new_map)
        if not would_move and target == self.n_shards:
            stats = RebalanceStats(
                users_moved=0,
                shards_before=self.n_shards,
                shards_after=self.n_shards,
                seq_begin=self._seq,
                seq_commit=self._seq,
                wall_time=time.perf_counter() - start,
            )
            self.rebalance_log.append(stats)
            return stats
        shards_before = self.n_shards
        seq_begin, seq_commit = self._journal_control(
            MigrateBegin(moves=moves, n_shards=plan.n_shards),
            MigrateCommit(moves=moves, n_shards=plan.n_shards),
        )
        moved = self._apply_plan_flip(moves, plan.n_shards)
        if self._snapshot is not None:
            # Republish under the commit's covering sequence — the rows
            # are unchanged, so readers keep the same arrays.
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

    def _absorb_control(self, event) -> None:
        """Replay a journaled migration fence at its sequence position.

        ``MigrateBegin`` is the opening fence only: a log tail ending
        after a begin without its commit replays as *no* ownership
        change (the rollback-to-the-fence guarantee).
        ``MigrateCommit`` re-applies the flip exactly as the live
        :meth:`rebalance` did.
        """
        if isinstance(event, MigrateCommit):
            self._apply_plan_flip(event.moves, event.n_shards)

    def _moved_users(self, new_map: ShardMap) -> list[int]:
        """Users whose owner differs between the live map and *new_map*."""
        users = np.arange(self.builder.n_users, dtype=np.int64)
        changed = self._shard_map.owners(users) != new_map.owners(users)
        return users[changed].tolist()

    def _apply_plan_flip(self, moves, n_shards) -> list[int]:
        """Flip ownership for one commit record; returns the moved users.

        Shared by the live :meth:`rebalance` path and WAL replay
        (:meth:`_absorb_control`), so both reconstruct the identical
        :class:`ShardMap` from the record payload alone.
        """
        target = self.n_shards if n_shards is None else int(n_shards)
        if target != self.n_shards:
            new_map = ShardMap(target, dict(moves))
            moved = self._moved_users(new_map)
            self._reshard(new_map)
        else:
            new_map = self._shard_map.with_moves(moves)
            moved = self._moved_users(new_map)
            self._migrate_users(new_map, moved)
        return moved

    def _migrate_users(self, new_map: ShardMap, moved) -> None:
        """Same-count ownership flip: surgical per-user state transfer.

        For each moved user the source shard gives up her dirty-set
        membership, candidate-cache entry (dropped — exact-or-absent,
        so eviction is always safe) and her row's citations in its
        reverse index; after the map swap the destination re-registers
        the citations and marks her dirty, so the next refresh seeds
        the destination's cache from the authoritative rows.
        """
        if self.executor == "processes":
            self._shard_map = new_map
            for user in moved:
                self._dirty.add(user)
            if self._procpool is not None:
                # The owned-row partition changed under the workers;
                # the next refresh respawns them from the authoritative
                # rows (plus the preserved delta tail) with the new map.
                self._procpool.reset()
            return
        neighbors, _ = self._rows()
        for user in moved:
            source = self._shards[self._shard_map.owner(user)]
            source.cache_evict(user, self.builder.profile(user))
            source.dirty.discard(user)
        # Users past the graph's rows (not yet refreshed) cite nobody.
        rows = np.asarray(moved, dtype=np.int64)
        rows = rows[rows < neighbors.shape[0]]
        cited = neighbors[rows]
        sources = self._shard_map.owners(rows)
        destinations = new_map.owners(rows)
        for shard in self._shards:
            gone = sources == shard.shard_id
            shard.reverse.apply_row(rows[gone], cited[gone], None)
            came = destinations == shard.shard_id
            shard.reverse.apply_row(rows[came], None, cited[came])
        self._shard_map = new_map
        for user in moved:
            self._shards[new_map.owner(user)].dirty.add(user)

    def _reshard(self, new_map: ShardMap) -> None:
        """Shard-count transition: rebuild every per-shard container.

        The dirty set carries over (re-routed through the new map), the
        reverse index rebuilds from the authoritative rows, caches are
        dropped, the per-shard cache budget re-splits, executors reset
        (thread pool sized per shard; process workers respawn at the
        next refresh), and an attached partitioned WAL re-opens at the
        new segment count under the same global sequence (its
        constructor scans stray segments, so the counter carries over
        and old segments stay readable by the merged reader).
        """
        old_dirty = list(self._dirty)
        self._partition(new_map)
        neighbors, _ = self._rows()
        self._reverse.rebuild(neighbors)
        self._dirty.update(old_dirty)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None
        if self._wal is not None and self._wal.n_shards != self.n_shards:
            from ..persistence import PartitionedWriteAheadLog

            old = self.detach_wal()
            directory = old.path
            fsync_every = old.fsync_every
            old.close()
            self.attach_wal(
                PartitionedWriteAheadLog(
                    directory, self.n_shards, fsync_every=fsync_every
                )
            )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path) -> Path:
        """Serialize ``checkpoint-<seq>.shards/``, one state file per shard.

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

    def memory_stats(self) -> dict[str, int]:
        """Flat-index breakdown plus the shared-memory arena accounting.

        In ``processes`` mode the worker-side caches are not visible
        here; the parent-side shard stores stay empty.
        """
        stats = super().memory_stats()
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
        stats["total_bytes"] += arena["capacity_bytes"]
        return stats

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        metric: str | SimilarityMetric | None = None,
        refresh: bool = True,
        fsync_every: int | None = 64,
        n_shards: int | None = None,
        executor: str | None = None,
    ) -> "ShardedKnnIndex":
        """Recover from *directory* at ``n_shards`` shards.

        ``n_shards`` defaults to the checkpoint's shard count; any other
        value re-shards the recovered state exactly, since ownership
        never affects graph content.  Live re-balancing overrides
        recorded in the checkpoint are reinstated when restoring at the
        checkpoint's own shard count and reset (back to the plain
        modulus) at any other count.
        """
        from ..persistence import restore_index

        return restore_index(
            cls,
            directory,
            metric=metric,
            refresh=refresh,
            fsync_every=fsync_every,
            n_shards=n_shards,
            executor=executor,
        )

    def refresh(self, dirty_subset=None) -> RefreshStats:
        """Run the localized refinement, partitioned across the shards.

        The same driver and contract as :meth:`DynamicKnnIndex.refresh`
        (including the ``dirty_subset`` deferral contract); the executor
        only decides how each stage call reaches the shards.  See the
        module docstring for why the result is bit-identical at any
        shard count.  Like the flat index, completion publishes a new
        read snapshot.
        """
        return self._refresh(dirty_subset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedKnnIndex(n_users={self.n_users}, "
            f"n_shards={self.n_shards}, executor={self.executor!r}, "
            f"last_seq={self.last_seq})"
        )
