"""Shard state, the per-shard refresh stages, and the ownership map.

The KIFF pipeline is embarrassingly partitionable: candidate selection
and top-k refinement are *per-user* computations over shared read-only
profiles.  The maintained rows are therefore split into **shards**
(:class:`_Shard`), each owning one slice of the users' rows; a row may
cite a user of any shard, and updates stay row-local, so they never
cross shards.  A shard keeps nothing between passes but its place in
the ownership map, so any change of rows or ownership outside a
refresh pass just builds fresh shards.  The dirty set is one
index-level set; each pass splits the selected users by owner.

One index class holds them:
:class:`~repro.streaming.index.DynamicKnnIndex` partitions users across
its ``n_shards`` shards (default 1, the flat index) by a
:class:`ShardMap` (the hash rule ``user % n_shards`` plus an override
table populated by live
:meth:`~repro.streaming.index.DynamicKnnIndex.rebalance` moves), and
:class:`ShardedKnnIndex` is the same class with partitioned defaults.
The one refresh driver (``DynamicKnnIndex._refresh``) rebinds the
shared snapshot/:class:`~repro.similarity.base.ProfileIndex` once,
decides the pass's scoring rule and builds its candidacy transpose
once (:func:`pass_candidacy`, once per worker process under
``processes``), and then calls three stages on every shard:

1. **Affected discovery** (:meth:`_Shard.affected`) — each shard finds
   its own rows citing *any* selected dirty user in any column, reserve
   included.  Candidacy is symmetric, so they are among the raters of
   the items those users rate now or dropped since their last pass
   (read off the pass's candidacy transpose) and the deferred
   dirty rows; one masked gather over those rows finds them.  A clean
   referrer is *repaired*; the shard's selected dirty users and the
   other referrers are *rebuilt*.
2. **Planning and scoring** (:meth:`_Shard.plan`) — each shard
   clears its rebuilt rows, drops the dirty entries from its repaired
   rows, derives the rebuilt rows' candidate sets (one sparse product
   over the current snapshot, :func:`~repro.core.rcs.candidate_rows`)
   and scores the pairs of the rows it owns (:func:`score_planned`).
   Each pair is scored once and offered both ways (the pivot strategy,
   Section II-D), so a dirty user also reaches the rows of her
   candidates that are not rebuilt (repaired rows included); when such
   a row belongs to another shard, the offer travels with its score
   through a per-shard **outbox** — the cross-shard effect channel.
   On a pass whose metric and ratings meet
   :func:`~repro.similarity.engine.product_scoring`'s rule (built-in
   cosine on positive integer ratings, or a built-in set metric, with
   ``min_rating`` unset) the product's values are the pairs' raw
   statistics — dot products over the valued ``R[rows] @ Rᵀ``,
   intersection sizes over the binarised one — so the pairs are scored
   straight off it, by the kernel's own finalize step, and never reach
   the kernel; on any other pass one deduped kernel call scores them.
3. **Rank + merge** (:meth:`_Shard.merge`) — every pair arrives
   scored, so this stage calls no scorer (but the fallback's).  A
   cleared rebuilt row's offers are exactly its own product row, so it
   is ranked straight off it, each row keeping its top entries before
   any sort (:func:`~repro.graph.updates.rank_fresh_rows`); only the
   mirror offers to rows not rebuilt and the inbox go through
   :func:`~repro.graph.updates.merge_topk_rows`, which drops every
   offer that loses to its row's current k-th entry (most mirror
   offers to clean rows) before it sorts.  Each shard writes *its own
   rows only*, with no full-array copy — writes are disjoint by
   construction, so shards touch the one shared graph concurrently
   without locks.  Each repaired row is then checked against its old
   boundary, the deepest entry of its exact prefix (see
   ``_ShardHost``); the rows that lost more than their reserve are
   rescanned from their candidate sets in the same stage, their pairs
   with clean candidates scored as stage B scores its own.

A pair between two rebuilt rows on different shards sits in both
rows' products, so each shard scores it for its own row: the one
evaluation a partition still repeats.

The cold build (``DynamicKnnIndex.rebuild``) runs the same kernels with
every row rebuilt and none repaired: :meth:`_Shard.build_blocks` cuts
the users into ascending-id row blocks by their estimated product size,
and :meth:`_Shard.build` derives each block's candidate product and
either ranks every row straight off it (a product-scored pass) or
scores the block's pairs with a higher-id candidate and offers them
both ways — on one in-process shard view, whatever the index's shard
count and executor.

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
  zero-copy views in every worker, each stage is one request/reply
  round, and the workers' row updates land in the parent's
  authoritative rows after the final barrier.  This is the true
  multi-core mode: the Python-level refresh work escapes the GIL.
  Workers are respawned from the authoritative rows on death, and the
  shared blocks are unlinked on ``close()``/GC.

``benchmarks/bench_sharded_refresh.py`` measures all of them on
multi-event batches and enforces the process executor's speedup bar.

Durability (:mod:`repro.persistence`) journals events into per-shard
``wal-<shard>.jsonl`` segments sharing one global sequence;
checkpoints record only the ownership map beside the state, and
:meth:`ShardedKnnIndex.restore` recovers — bit-identically, at the
checkpoint's or any other shard count — from any state directory, the
flat index's one-shard one included.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..core.rcs import candidacy_raters, candidate_rows
from ..datasets.bipartite import BipartiteDataset
from ..graph.knn_graph import MISSING
from ..graph.updates import (
    ReverseNeighborIndex,
    merge_topk_rows,
    rank_fresh_rows,
)
from ..layout import SCORE_DTYPE
from ..similarity.base import SimilarityMetric
from ..similarity.engine import product_scoring
from .index import DynamicKnnIndex, RefreshStats

__all__ = [
    "RebalanceStats",
    "ShardMap",
    "ShardOutbox",
    "ShardPlan",
    "ShardedKnnIndex",
]


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
    """Cross-shard offers emitted by one shard's planning step.

    ``rows[j]`` (a row owned by *target*) must be offered candidate
    ``candidates[j]`` (a dirty user owned by the planning shard) at
    score ``sims[j]``, scored once by the planning shard.
    """

    target: int
    rows: np.ndarray
    candidates: np.ndarray
    sims: np.ndarray


#: The ``(rows, candidates)`` of a shard with no planned pairs.
_NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

#: Estimated candidate-product entries at which a row block of the cold
#: build closes (:meth:`_Shard.build_blocks`).  A block holds that many
#: product entries at most, plus its last user's, so the build's memory
#: beyond the rows stays bounded whatever the dataset (the 50k-user
#: laptop soak builds in 534 blocks and peaks at 693 MiB RSS).  Block
#: size barely moves the build's wall time (2**17 to 2**22 measured
#: alike, 2-vCPU VM), and at 2**20 the perfbench bases build in one
#: block.  Blocks of 2**17 left the reference stream's later refreshes
#: ~10% slower in CPU time: glibc's dynamic mmap threshold only rises
#: to the largest array the process frees, so after a build of small
#: blocks the refresh's megabyte arrays were mapped afresh every pass.
BUILD_BLOCK_ENTRIES = 1 << 20

#: Pairs a pair-scored build block scores and merges at a time.  The
#: kernel's and the merge's temporaries grow with the pairs of a call:
#: with whole 131,072-pair kernel batches the tiny scale soak's build
#: peaked at 123 MB RSS and the laptop soak's at 208 MB; with 2**15
#: pairs, 96 and 174 MB, and the builds took no longer.
_BUILD_PAIRS = 1 << 15


class PassCandidacy(NamedTuple):
    """A pass's snapshot, scoring rule and transpose."""

    snapshot: BipartiteDataset
    product: str | None
    raters: sp.csr_matrix


def pass_candidacy(snapshot, metric, min_rating) -> PassCandidacy:
    """The pass's scoring rule and candidacy transpose, made once.

    KIFF builds its item profiles once, at loading time (Algorithm 1,
    lines 1-2); so does a pass, for every stage, fallback and build
    block of every shard it hosts.  ``product`` is
    :func:`~repro.similarity.engine.product_scoring`'s answer, its one
    scan of the rating values; ``raters``
    (:func:`~repro.core.rcs.candidacy_raters`) carries the candidate
    product's operand — the valued ``Rᵀ`` when that product also
    scores cosine's pairs, else ``B.T`` of the same structure.
    """
    product = product_scoring(metric, snapshot, min_rating)
    raters = candidacy_raters(snapshot, min_rating, product == "valued")
    return PassCandidacy(snapshot, product, raters)


class _Shard:
    """One shard's owned slice of the maintained state and its stages.

    The refresh driver calls :meth:`affected`, :meth:`plan` and
    :meth:`merge` on every shard, in that order; the executor only
    decides how the calls travel — straight to the index's own shards
    (``serial``, ``threads``) or through
    :mod:`repro.streaming.procpool` to the worker process holding this
    shard (``processes``).

    Whatever else a stage reads comes from the *host*
    (``repro.streaming.index._ShardHost``): the graph rows, the pass's
    candidacy (:func:`pass_candidacy`), the config, the ownership map
    and the scorer.  In process the host is the index; in a worker it
    is the worker's view of the published snapshot plus its mirror of
    the graph rows.
    """

    __slots__ = (
        "shard_id",
        "host",
        "_rebuilt",
        "_rows_mask",
        "_repaired",
        "_bound",
        "_dirty_mask",
        "_pairs",
        "_evaluations",
    )

    def __init__(self, shard_id: int, host):
        self.shard_id = shard_id
        self.host = host
        # Per-pass context, set by the stages: the owned rows rebuilt
        # from their candidate sets, the owned rows repaired in place
        # and their old boundary entries, the selected dirty users, the
        # scored pairs of stage B and their evaluations.
        self._rebuilt = _NO_PAIRS[0]
        self._rows_mask = _NO_PAIRS[0]
        self._repaired = _NO_PAIRS[0]
        self._bound = _NO_PAIRS
        self._dirty_mask = _NO_PAIRS[0]
        self._pairs = _NO_PAIRS
        self._evaluations = 0

    def candidate_sets(self, users: np.ndarray) -> sp.csr_matrix:
        """Candidate rows of owned *users*: one sparse product.

        Row ``j`` of the returned CSR matrix spans the candidates of
        ``users[j]`` on the current snapshot
        (:func:`~repro.core.rcs.candidate_rows`; it may include the
        user herself).  When the pass scores from the product, its
        values are the pairs' raw statistics; otherwise only its
        structure is read.  Each row's columns are in SpGEMM's order:
        every consumer (:func:`~repro.graph.updates.rank_fresh_rows`
        and :func:`~repro.graph.updates.merge_topk_rows`) breaks ties
        by id itself.
        """
        snapshot, product, raters = self.host._pass_candidacy
        if not users.size:
            return sp.csr_matrix((0, snapshot.n_users))
        return candidate_rows(
            snapshot,
            users,
            self.host.config.min_rating,
            raters,
            product == "valued",
        )

    # ------------------------------------------------------------------
    # Cold build (DynamicKnnIndex.rebuild): every row rebuilt
    # ------------------------------------------------------------------
    def build_blocks(self) -> list[int]:
        """Bounds of the cold build's ascending-id row blocks.

        A user's estimated product size is the sum of her candidacy
        items' rater counts (KIFF's counting phase for her, Algorithm 1
        lines 3-4, before the multiset collapses): it bounds her
        product row.  Blocks are filled in id order, each closing on
        the user whose estimate takes it to
        :data:`BUILD_BLOCK_ENTRIES`.  Returns ``[0, b1, ..., n_users]``;
        block ``j`` is ``range(bounds[j], bounds[j + 1])``.
        """
        snapshot, _, raters = self.host._pass_candidacy
        matrix = snapshot.matrix
        estimate = np.diff(raters.indptr)[matrix.indices]
        min_rating = self.host.config.min_rating
        if min_rating is not None:
            estimate[matrix.data < min_rating] = 0
        before = np.r_[0, np.cumsum(estimate)][matrix.indptr]
        bounds, n_users = [0], snapshot.n_users
        while bounds[-1] < n_users:
            start = bounds[-1]
            stop = np.searchsorted(
                before, before[start] + BUILD_BLOCK_ENTRIES, side="left"
            )
            bounds.append(min(max(int(stop), start + 1), n_users))
        return bounds

    def build(self, users: np.ndarray) -> tuple[int, int]:
        """Build the cleared rows of one block of *users* (ascending ids).

        Every row is rebuilt, so each pair is scored once, under its
        lower id (Section II-D's pivot): on a product-scored pass every
        row is ranked straight off its own product row
        (:func:`~repro.graph.updates.rank_fresh_rows`) and only the
        pairs whose row is the lower id count as evaluations; otherwise
        the block's pairs with a higher-id candidate are scored by
        ``score_pairs`` and offered both ways
        (:func:`~repro.graph.updates.merge_topk_rows`),
        :data:`_BUILD_PAIRS` at a time, so a later block's row already
        holds its offers from lower ids when its own block comes.
        Returns ``(evaluations, changes)``.
        """
        host = self.host
        neighbors, sims = host._rows()
        us, vs, raw = candidate_pairs(users, self.candidate_sets(users))
        if host._pass_candidacy.product:
            scores = host._score_product(us, vs, raw)
            del raw  # a block's arrays are the build's peak memory
            fresh, ids, scores, changes = rank_fresh_rows(
                us, vs, scores, neighbors.shape[1]
            )
            neighbors[fresh] = ids
            sims[fresh] = scores
            return int(np.count_nonzero(vs > us)), changes
        later = vs > us
        us, vs = us[later], vs[later]
        # Merging distinct offers in any grouping gives the same rows.
        evaluations = changes = 0
        for start in range(0, us.size, _BUILD_PAIRS):
            pairs = slice(start, start + _BUILD_PAIRS)
            more, *offers = _offer_both_ways(
                us[pairs], vs[pairs], host._score_pairs
            )
            evaluations += more
            changes += _merge_offers(neighbors, sims, *offers)[0]
        return evaluations, changes

    # ------------------------------------------------------------------
    # Refresh stages
    # ------------------------------------------------------------------
    def affected(
        self,
        all_dirty: np.ndarray,
        my_dirty: np.ndarray,
        deferred: np.ndarray,
        lost: np.ndarray,
    ):
        """Stage A: this shard's slice of the affected set, split in two.

        Returns ``(rebuilt, repaired)``.  The *referrers* are the owned
        rows citing any selected dirty user (*all_dirty*) in any column:
        a stale reserve entry must go too, or the merge's dedupe would
        keep its old score over her fresh, lower one.  Candidacy is
        symmetric, so a clean row cites a dirty user only through an
        item both rate: one the user rates now or rated since her last
        pass (*lost*, the items the selected users dropped or re-rated
        since theirs).  A dirty row may have dropped the shared item
        itself, so the owned *deferred* rows are checked too (the
        selected ones are rebuilt anyway).  Of those rows,
        :meth:`~repro.graph.updates.ReverseNeighborIndex.referrers_of`
        keeps the ones citing a selected dirty user.  A referrer
        is **repaired** in place when the row is not dirty itself
        (selected or *deferred*).  Its entries for deferred users keep
        their stored scores as fixed values: the repair's check ranks
        what the row holds, and every candidate it does not hold ranked
        behind its boundary when last scored.  A deferred user's own
        pass treats every row citing her as a referrer and offers her
        fresh score to every other candidate, so no stale score
        survives a drain.  This holds for every metric: a metric with
        global terms (``adamic_adar``) dirties every rater of an item
        whose weight moved, so a clean row's entries for clean users
        keep their scores.  The shard's selected dirty users
        (*my_dirty*) and the other referrers are **rebuilt** from
        their candidate sets.
        """
        host = self.host
        self._dirty_mask = np.zeros(host.n_users, dtype=bool)
        self._dirty_mask[all_dirty] = True
        snapshot, _, raters = host._pass_candidacy
        items = np.concatenate([snapshot.matrix[all_dirty].indices, lost])
        candidates = np.zeros(host.n_users, dtype=bool)
        candidates[raters[np.unique(items)].indices] = True
        candidates[deferred] = True
        rows = np.flatnonzero(candidates)
        rows = rows[host._shard_map.owners(rows) == self.shard_id]
        neighbors, _ = host._rows()
        referrers = ReverseNeighborIndex.referrers_of(
            neighbors, rows, self._dirty_mask
        )
        dirty = np.concatenate([all_dirty, deferred])
        repaired = referrers[~np.isin(referrers, dirty)]
        self._rebuilt = np.union1d(
            my_dirty, np.setdiff1d(referrers, repaired, assume_unique=True)
        )
        self._repaired = repaired
        return self._rebuilt, repaired

    def plan(self, rebuilt: np.ndarray):
        """Stage B: clear rebuilt rows, trim repaired ones, derive pairs.

        The owned rebuilt rows are cleared and paired with their whole
        candidate sets (they come back exact to the full width).  The
        owned repaired rows only drop the entries citing selected dirty
        users (the rest keep their canonical order) and remember their
        old boundary — the entry at ``depth - 1`` — for :meth:`merge`'s
        acceptance check; a dirty user's mirror offers reach every
        candidate not rebuilt, so each repaired row is offered every
        dirty user it still co-rates with.  *rebuilt* is the global
        rebuilt set.  Every pair is scored here, once
        (:func:`plan_shard_pairs`).  Returns the outboxes; this shard's
        own scored pairs stay here for :meth:`merge`.
        """
        host = self.host
        neighbors, sims = host._rows()
        mine, repaired = self._rebuilt, self._repaired
        neighbors[mine] = MISSING
        sims[mine] = -np.inf
        host._depth[mine] = neighbors.shape[1]
        if repaired.size:
            old_ids, old_sims = neighbors[repaired], sims[repaired]
            bound = np.arange(repaired.size), host._depth[repaired] - 1
            self._bound = (old_ids[bound], old_sims[bound])
            keep = (old_ids != MISSING) & ~self._dirty_mask[old_ids]
            # A stable sort of the drop flags moves the kept entries
            # left in their ranked order.
            order = np.argsort(~keep, axis=1, kind="stable")
            kept = np.take_along_axis(keep, order, axis=1)
            trimmed = np.where(
                kept, np.take_along_axis(old_ids, order, axis=1), MISSING
            )
            neighbors[repaired] = trimmed
            sims[repaired] = np.where(
                kept, np.take_along_axis(old_sims, order, axis=1), -np.inf
            )
        rebuilt_mask = np.zeros(host.n_users, dtype=bool)
        rebuilt_mask[rebuilt] = True
        self._rows_mask = rebuilt_mask
        rows, candidates, scores, outboxes = plan_shard_pairs(
            self.shard_id,
            host._shard_map,
            mine,
            rebuilt_mask,
            self._dirty_mask,
            self.candidate_sets(mine),
            host._score_product if host._pass_candidacy.product else None,
            host._score_pairs,
        )
        owned = np.zeros(host.n_users, dtype=bool)
        owned[mine] = True
        self._pairs = (rows, candidates, scores)
        self._evaluations = _count_once(rows, candidates, owned)
        return outboxes

    def merge(self, inbox: list[ShardOutbox]) -> "ShardMerge":
        """Stage C: rank and merge the scored pairs, then accept or
        rescan repairs.

        A repaired row's old boundary is the entry at ``depth - 1``.
        Every candidate it was not offered kept its score (a deferred
        user keeps the one last scored for the row, see
        :meth:`affected`) and ranked behind that boundary before the
        pass unless the row holds her, so after the
        merge the row's entries ranking at or ahead of the boundary
        (canonical ``(-sim, id)`` order) are its exact top entries: that
        count is its new depth, and the row stands when it is at least
        ``k``.  A ``MISSING`` boundary means the row held every
        candidate, so it stands exact to the full width.  The rows
        failing the check — they lost more than their reserve — fall
        back to a rescan here (:meth:`_fall_back`).
        """
        host = self.host
        neighbors, sims = host._rows()
        rows, candidates, scores = self._pairs
        self._pairs = _NO_PAIRS  # release the pass's pairs early
        evaluations, self._evaluations = self._evaluations, 0
        repaired, (bound_ids, bound_sims) = self._repaired, self._bound
        self._bound = _NO_PAIRS
        changes, active, offers = merge_shard_pairs(
            self.shard_id,
            host._shard_map,
            rows,
            candidates,
            scores,
            inbox,
            neighbors,
            sims,
            self._rows_mask,
        )
        self._rows_mask = _NO_PAIRS[0]
        failed = repaired[:0]
        if repaired.size:
            width = neighbors.shape[1]
            new_ids, new_sims = neighbors[repaired], sims[repaired]
            ids, scores = bound_ids[:, None], bound_sims[:, None]
            tied = (new_sims == scores) & (new_ids <= ids)
            ahead = (new_ids != MISSING) & ((new_sims > scores) | tied)
            depth = np.where(
                bound_ids == MISSING, width, np.count_nonzero(ahead, axis=1)
            )
            exact = depth >= host.config.k
            host._depth[repaired[exact]] = depth[exact]
            failed = repaired[~exact]
        if failed.size:
            more, more_changes = self._fall_back(failed, offers)
            evaluations += more
            changes += more_changes
            host._depth[failed] = neighbors.shape[1]
        changed = np.union1d(active, repaired)
        return ShardMerge(
            evaluations=evaluations,
            changes=changes,
            rows=changed,
            neighbors=neighbors[changed],
            sims=sims[changed],
            depth=host._depth[changed],
            fallbacks=int(failed.size),
        )

    def _fall_back(self, rows: np.ndarray, offers) -> tuple[int, ...]:
        """Rescan repaired *rows* that failed the acceptance check.

        Each row is cleared and rebuilt from its whole candidate set.
        Its pairs with clean candidates are scored here, the way stage
        B scores its pairs (:func:`score_planned`); the pass's
        *offers* ``(users, ids, sims)`` already hold its pairs with
        dirty users (her mirror offer, from this shard or another), so
        the ones to these rows are merged again.  Nothing
        reaches rows outside *rows*.  Scoring runs before the rows are
        cleared, so a failing metric leaves them as the first merge
        wrote them.  Returns ``(evaluations, changes)``.
        """
        host = self.host
        neighbors, sims = host._rows()
        target = np.zeros(host.n_users, dtype=bool)
        target[rows] = True
        us, vs, raw = candidate_pairs(rows, self.candidate_sets(rows))
        clean = ~self._dirty_mask[vs]
        us, vs = us[clean], vs[clean]
        scores = score_planned(
            us,
            vs,
            raw[clean],
            target,
            host._score_product if host._pass_candidacy.product else None,
            host._score_pairs,
        )
        # A row's own product entries are every fresh offer it gets.
        earlier = target[offers[0]]
        users, ids, scores = (
            np.concatenate([a[earlier], b])
            for a, b in zip(offers, (us, vs, scores))
        )
        neighbors[rows] = MISSING
        sims[rows] = -np.inf
        changes, _ = _merge_offers(neighbors, sims, users, ids, scores)
        return _count_once(us, vs, target), changes


# ----------------------------------------------------------------------
# Pure per-shard stage kernels
#
# Plain functions of explicit inputs, called by the _Shard stages — in
# process and in the worker processes alike, so every executor produces
# bit-identical results from one implementation.
# ----------------------------------------------------------------------
def candidate_pairs(
    rows: np.ndarray, candidates: sp.csr_matrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, candidate, value)`` of a candidate product, self pairs dropped.

    Row ``j`` of *candidates* belongs to ``rows[j]``; its structure
    repeats her id against its column indices.
    """
    us = np.repeat(rows, np.diff(candidates.indptr))
    vs = candidates.indices.astype(np.int64)
    distinct = us != vs
    return us[distinct], vs[distinct], candidates.data[distinct]


def plan_shard_pairs(
    shard_id: int,
    shard_map: ShardMap,
    rebuilt: np.ndarray,
    rebuilt_mask: np.ndarray,
    dirty_mask: np.ndarray,
    candidates: sp.csr_matrix,
    score_product,
    score_pairs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[ShardOutbox]]:
    """Stage B's pairs: scored local pairs plus cross-shard outboxes.

    Every rebuilt row owned by *shard_id* (per *shard_map*) is paired
    with its full candidate set, row ``j`` of the product *candidates*
    for ``rebuilt[j]``, and every pair is scored here, once
    (:func:`score_planned`, oriented by *rebuilt_mask*).  Each score
    serves both ends of its pair, so a dirty user's (per *dirty_mask*)
    own pairs reach her candidates' rows this shard owns; her offer to
    a candidate's row that is not rebuilt and belongs to another shard
    (the *mirror*: she can enter that top-k) travels, with its score,
    in an outbox.  Returns ``(rows, candidates, scores, outboxes)``.
    """
    rows, cands, raw = candidate_pairs(rebuilt, candidates)
    scores = score_planned(
        rows, cands, raw, rebuilt_mask, score_product, score_pairs
    )
    outboxes = []
    if shard_map.n_shards == 1:
        return rows, cands, scores, outboxes
    mirror = dirty_mask[rows] & ~rebuilt_mask[cands]
    rows_m, users_m, sims_m = cands[mirror], rows[mirror], scores[mirror]
    owners = shard_map.owners(rows_m)
    for target in range(shard_map.n_shards):
        mine = owners == target
        if target != shard_id and mine.any():
            outboxes.append(
                ShardOutbox(
                    target=target,
                    rows=rows_m[mine],
                    candidates=users_m[mine],
                    sims=sims_m[mine],
                )
            )
    return rows, cands, scores, outboxes


class ShardMerge(NamedTuple):
    """What one shard's stage C reports to the refresh driver."""

    #: Pairs scored (stage B's plan plus fallback rescans).
    evaluations: int
    #: Slots changed, summed over the stage's merges.
    changes: int
    #: Every owned row the stage changed (merged or repaired), sorted,
    #: with its final ids and scores — what a process worker ships back.
    rows: np.ndarray
    neighbors: np.ndarray
    sims: np.ndarray
    #: Those rows' exact depths (a worker's mirror ships them back too).
    depth: np.ndarray
    #: Repaired rows that failed the acceptance check and were rescanned.
    fallbacks: int


def score_planned(us, vs, raw, rows, score_product, score_pairs):
    """Scores of candidate-product pairs ``(us[j], vs[j])``, each
    distinct pair scored once.

    Every ``us[j]`` is in the boolean mask *rows* (the rows being
    rebuilt or rescanned).  With *score_product* (a pass whose product
    values *raw* are the pairs' raw statistics) every pair is scored
    straight off the product, by the kernel's own finalize step.
    Otherwise *score_pairs* scores each distinct pair once (Section
    II-D) and its score goes back to every copy.  A pair between two
    of the rows, in both rows' products, is stored with the lower id
    first; every other pair with its row first.  So the kernel gets
    the rows as the row side and the deduped pairs come out grouped by
    it: a chunk holds a few rows against their whole candidate sets,
    the work the kernel's row side is built for (see
    ``NumpyKernelBackend.score_pairs``).
    """
    if score_product is not None:
        return score_product(us, vs, raw)
    if not us.size:  # nothing to score: the kernel is not called
        return np.empty(0, dtype=SCORE_DTYPE)
    n_users = rows.size
    flip = rows[vs] & (vs < us)
    keys = np.where(flip, vs * n_users + us, us * n_users + vs)
    keys, copies = np.unique(keys, return_inverse=True)
    return score_pairs(keys // n_users, keys % n_users)[copies]


def _offer_both_ways(us, vs, score_pairs):
    """Score distinct pairs once; returns ``(evaluations, users, ids,
    sims)`` with each pair offered both ways."""
    if not us.size:  # nothing to score: the kernel is not called
        return 0, us, vs, np.empty(0, dtype=SCORE_DTYPE)
    pair_sims = score_pairs(us, vs)
    return (
        int(us.size),
        np.concatenate([us, vs]),
        np.concatenate([vs, us]),
        np.concatenate([pair_sims, pair_sims]),
    )


def _count_once(us: np.ndarray, vs: np.ndarray, rows: np.ndarray) -> int:
    """Distinct pairs among candidate-product pairs ``(us[j], vs[j])``.

    Every ``us[j]`` is in the boolean mask *rows*, and a pair between
    two of them sits in both rows' products; it counts once, under the
    row of its lower id — the one evaluation :func:`score_planned`
    makes for it, whether it scores off the product or dedupes.
    """
    return int(us.size - np.count_nonzero(rows[vs] & (vs < us)))


def _merge_offers(
    neighbors: np.ndarray,
    sims: np.ndarray,
    users: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
) -> tuple[int, np.ndarray]:
    """Merge offers into their rows in place.

    Writes only the re-ranked rows back, through the views, so
    backing-array slack capacity survives and no O(n_users * k) copy
    is paid; callers pass only rows they own, so shards never collide.
    Returns ``(changes, active)``, ``active`` the re-ranked rows.
    """
    if users.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    active, new_neighbors, new_sims, changes = merge_topk_rows(
        neighbors, sims, users, ids, scores
    )
    neighbors[active] = new_neighbors
    sims[active] = new_sims
    return int(changes), active


def merge_shard_pairs(
    shard_id: int,
    shard_map: ShardMap,
    plan_rows: np.ndarray,
    plan_candidates: np.ndarray,
    plan_scores: np.ndarray,
    inbox: list[ShardOutbox],
    neighbors: np.ndarray,
    sims: np.ndarray,
    rows_mask: np.ndarray,
) -> tuple[int, np.ndarray, tuple]:
    """Stage C's merge: rank the rebuilt rows, merge offers into the rest.

    Every pair arrives scored by stage B: the plan's
    ``(plan_rows[j], plan_candidates[j])`` at ``plan_scores[j]``, the
    *inbox* with the other shards' scores.  Writes the re-ranked rows
    into *neighbors*/*sims* in place (every active row is owned by
    *shard_id*, so concurrent callers never collide).  A cleared
    rebuilt row's offers are exactly its own product row (a pair
    between two rebuilt rows sits in both rows' products), already
    grouped by row with no id twice, so it is ranked with no dedupe
    (:func:`~repro.graph.updates.rank_fresh_rows`).  Only the mirror
    offers — each pair offered back to its candidate's row when this
    shard owns it and *rows_mask* (the rebuilt rows) does not hold it
    — and the inbox go through the merge.  Returns ``(changes, active,
    offers)``: ``active`` holds only the rows re-ranked — rows whose
    every offer lost to their k-th entry are left out — and ``offers``
    the ``(users, ids, sims)`` merged into rows that were not rebuilt,
    which the repair's fallback reuses.
    """
    fresh, new_ids, new_sims, changes = rank_fresh_rows(
        plan_rows, plan_candidates, plan_scores, neighbors.shape[1]
    )
    neighbors[fresh] = new_ids
    sims[fresh] = new_sims
    mirror = ~rows_mask[plan_candidates]
    if shard_map.n_shards > 1:
        mirror &= shard_map.owners(plan_candidates) == shard_id
    offers = (
        np.concatenate([plan_candidates[mirror]] + [b.rows for b in inbox]),
        np.concatenate([plan_rows[mirror]] + [b.candidates for b in inbox]),
        np.concatenate([plan_scores[mirror]] + [b.sims for b in inbox]),
    )
    merged, active = _merge_offers(neighbors, sims, *offers)
    return changes + merged, np.union1d(fresh, active), offers


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
        from ..persistence import save_checkpoint

        return save_checkpoint(self, directory)

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
