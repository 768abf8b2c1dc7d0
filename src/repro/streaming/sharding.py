"""Shard state, the per-shard refresh stages, and the ownership map.

The KIFF pipeline is embarrassingly partitionable: candidate selection
and top-k refinement are *per-user* computations over shared read-only
profiles.  The maintained state is therefore held in **shards**
(:class:`_Shard`), each owning one slice of the users:

* the dirty set (events dirty a user; her owner shard records it),
* the candidate-multiset cache + cached-rater index (the streaming RCS),
* a :class:`~repro.graph.updates.ReverseNeighborIndex` restricted to
  the *rows* the shard owns (keyed by cited user, which may belong to
  any shard — updates stay row-local, so they never cross shards).

One index class holds them:
:class:`~repro.streaming.index.DynamicKnnIndex` partitions users across
its ``n_shards`` shards (default 1, the flat index) by a
:class:`ShardMap` (the hash rule ``user % n_shards`` plus an override
table populated by live
:meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` moves), and
:class:`ShardedKnnIndex` is the same class with partitioned defaults.
The one refresh driver (``DynamicKnnIndex._refresh``) rebinds the
shared snapshot/:class:`~repro.similarity.base.ProfileIndex` once and
then calls three stages on every shard:

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

* ``executor="serial"`` (the base class's default) — the index's own
  shards, called in shard order; fully deterministic scheduling for
  tests and debuggers.
* ``executor="threads"`` (:class:`ShardedKnnIndex`'s default) — the
  index's own shards, fanned out on a ``concurrent.futures`` thread
  pool; speedup tracks how much of the work runs in NumPy/SciPy kernels
  (the Python-level plan/merge stays GIL-serialized).
* ``executor="processes"`` — one persistent worker process per shard
  (:mod:`repro.streaming.procpool`), each holding its own
  :class:`_Shard`: the read-only snapshot and profile arrays are
  published into ``multiprocessing.shared_memory`` and rebuilt as
  zero-copy views in every worker, per-event cache deltas ship as
  compact messages after each ``apply()``, each stage is one
  request/reply round, and the workers' row updates land in the
  parent's authoritative rows after the final barrier.  This is the
  true multi-core mode: the Python-level refresh work escapes the GIL.
  Workers are respawned (with empty, hence exact, caches) on death, and
  the shared blocks are unlinked on ``close()``/GC.

``benchmarks/bench_sharded_refresh.py`` measures all of them on
multi-event batches and enforces the process executor's speedup bar.

Durability is partitioned the same way (:mod:`repro.persistence`):
events journal into per-shard ``wal-<shard>.jsonl`` segments sharing one
global sequence, checkpoints write per-shard state files, and
:meth:`ShardedKnnIndex.restore` recovers — bit-identically, at the
checkpoint's or any other shard count — from any state directory, the
flat index's one-shard one included.
"""

from __future__ import annotations

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
from ..similarity.base import SimilarityMetric
# The one chunked scoring loop, imported by name so importers of it
# from this module keep working.
from ..similarity.engine import score_pairs_chunked  # noqa: F401
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
    :meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` can
    override individual users away from their base shard; the
    :class:`ShardMap` is then the authoritative rule (base modulus plus
    an override table) and every routing site consults it instead of
    calling this function directly.
    """
    return int(user) % int(n_shards)


class ShardMap:
    """User → shard ownership: hash partitioning plus explicit overrides.

    The default owner of user *u* is ``u % n_shards``; ``overrides``
    maps individual users to a different shard (the result of live
    :meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` moves).
    Overrides equal to the base rule are normalized away, so a map
    without moves compares and routes exactly like pure hash
    partitioning.

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
    """A live re-balancing request for ``DynamicKnnIndex.rebalance``.

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
    """Outcome of one ``DynamicKnnIndex.rebalance`` call."""

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
    (``serial``, ``threads``) or through
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

    def apply_delta(self, op: tuple) -> None:
        """Apply one per-event cache delta (see ``_cache_delta``).

        ``("cand", user, item, added, raters)`` with *raters* a
        zero-argument callable goes to :meth:`note_candidacy`;
        ``("evict", user, items)`` to :meth:`cache_evict`, a no-op on a
        shard not caching *user*.
        """
        if op[0] == "cand":
            _, user, item, added, raters = op
            self.note_candidacy(user, item, added, raters)
        else:
            _, user, items = op
            self.cache_evict(user, items)

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
    """:class:`DynamicKnnIndex` with partitioned defaults.

    The same class in every respect — same state, same refresh driver,
    same :meth:`~DynamicKnnIndex.rebalance`, and a graph bit-identical
    to the flat index's (and therefore to a cold converged rebuild)
    after any event interleaving — constructed by default at
    ``n_shards=2`` with the ``"threads"`` executor.  Its
    :meth:`restore` comes back at the checkpoint's shard count (or an
    explicit ``n_shards``) where the base class restores at one shard.
    """

    def __init__(
        self, *args, n_shards: int = 2, executor: str = "threads", **kwargs
    ):
        super().__init__(*args, n_shards=n_shards, executor=executor, **kwargs)

    # The entry points below delegate to the shared bodies directly,
    # never through super(), so an outside-in wrapper on both classes
    # records one span per call.
    def refresh(self, dirty_subset=None) -> RefreshStats:
        """The localized refinement (:meth:`DynamicKnnIndex.refresh`)."""
        return self._refresh(dirty_subset)

    def checkpoint(self, directory: str | Path) -> Path:
        """Serialize the state (see :meth:`DynamicKnnIndex.checkpoint`)."""
        return self._checkpoint(directory)

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

        ``n_shards`` defaults to the checkpoint's shard count, whose
        live-rebalance overrides are then reinstated; any other value
        re-shards the recovered state exactly (back to the plain
        modulus), since ownership never affects graph content.
        ``executor`` defaults to ``"threads"``.
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
