"""Vectorised KNN-row updates shared by the fast algorithm paths.

All fast implementations (KIFF, NN-Descent, HyRec) face the same inner
step: given the current ``(neighbors, sims)`` arrays and a batch of
candidate edges ``(user, candidate, sim)``, produce each user's new top-k
and count how many slots changed — the paper's per-iteration change counter
``c``.  Doing this with sorting primitives instead of per-user heaps is
what makes the pure-Python reproduction tractable; the heap-based reference
path in :mod:`repro.core.heap` verifies the semantics match.

The merge first drops every offer that cannot enter its row (it loses to
the row's current k-th entry), then sorts the survivors twice — once to
deduplicate ``(row, id)``, once to rank each row — on integer composite
keys.  The streaming refresh also keeps a :class:`ReverseNeighborIndex`
current from the merged rows' diffs, applied one block per stage.
"""

from __future__ import annotations

import numpy as np

from ..layout import ID_DTYPE, SCORE_DTYPE
from .knn_graph import MISSING

__all__ = [
    "ReverseNeighborIndex",
    "merge_topk",
    "merge_topk_rows",
    "dedupe_pairs",
]


class ReverseNeighborIndex:
    """Inverted KNN adjacency: user -> rows whose top-k cites her.

    Streaming maintenance must find every row holding a stale entry for
    a dirty user.  Scanning ``neighbors`` with ``np.isin`` costs
    O(n_users * k) per refresh — a full-graph floor even for one dirty
    user.  This index answers the same query by lookup and is kept
    current from the same row diffs the top-k merge produces, so its
    maintenance cost is proportional to the entries a refresh actually
    moved.  Callers pass those diffs as blocks — every row a stage
    cleared or re-ranked in one :meth:`apply_row` call — so the diffing
    is vectorised and only moved entries reach the Python dicts.

    The structure is exact, not approximate: after ``apply_row(rows,
    old, new)`` calls mirroring every row change, ``referrers_of(users)``
    equals the ``np.isin`` scan (the property suite pins this).
    """

    def __init__(self, neighbors: np.ndarray | None = None):
        self._referrers: dict[int, set[int]] = {}
        if neighbors is not None:
            self.rebuild(neighbors)

    def rebuild(self, neighbors: np.ndarray, rows=None) -> None:
        """Re-derive the whole index from a ``(n_users, k)`` row array.

        With *rows* (sorted row ids) only those rows are indexed — the
        row-restricted index one shard keeps over the rows it owns.
        """
        if rows is not None:
            neighbors = neighbors[rows]
        local, slots = np.nonzero(neighbors != MISSING)
        cited = neighbors[local, slots]
        citing = local if rows is None else rows[local]
        # One sort groups the entries by cited user; each group becomes
        # one set, instead of one dict update per entry.
        order = np.argsort(cited)
        cited, citing = cited[order], citing[order].tolist()
        starts = np.flatnonzero(np.diff(cited, prepend=MISSING)).tolist()
        ends = starts[1:] + [len(citing)]
        self._referrers = {
            user: set(citing[start:end])
            for user, start, end in zip(cited[starts].tolist(), starts, ends)
        }

    def referrers_of(self, users) -> np.ndarray:
        """Sorted unique rows citing any of *users* (compact id array)."""
        rows: set[int] = set()
        for user in np.asarray(users, dtype=np.int64).tolist():
            cited_by = self._referrers.get(user)
            if cited_by:
                rows.update(cited_by)
        return np.fromiter(sorted(rows), dtype=ID_DTYPE, count=len(rows))

    def apply_row(self, rows, old, new) -> None:
        """Record that each of *rows* changed from its old to its new ids.

        A block update: ``rows`` has shape ``(m,)`` (distinct row ids),
        ``old`` / ``new`` are the rows' ``(m, k)`` neighbour id blocks,
        or ``None`` for an empty side (a row cleared, or a row gaining
        its first entries).  ``MISSING`` slots are ignored.  One
        broadcast membership test finds the entries that actually moved,
        so the dicts are touched only for those.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        old = _id_block(old, rows.size)
        new = _id_block(new, rows.size)
        removed = (old != MISSING) & ~_row_isin(old, new)
        added = (new != MISSING) & ~_row_isin(new, old)
        where, slot = np.nonzero(removed)
        for row, neighbor in zip(
            rows[where].tolist(), old[where, slot].tolist()
        ):
            cited_by = self._referrers.get(neighbor)
            if cited_by is not None:
                cited_by.discard(row)
                if not cited_by:
                    del self._referrers[neighbor]
        where, slot = np.nonzero(added)
        for row, neighbor in zip(
            rows[where].tolist(), new[where, slot].tolist()
        ):
            self._referrers.setdefault(neighbor, set()).add(row)


def _id_block(ids, m: int) -> np.ndarray:
    """*ids* as an ``(m, width)`` block; ``None`` is the empty block."""
    if ids is None:
        return np.empty((m, 0), dtype=np.int64)
    return np.asarray(ids).reshape(m, -1)


def _row_isin(block: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Per row, whether each entry of *block* appears in *other*'s row."""
    return (block[:, :, None] == other[:, None, :]).any(axis=2)


def dedupe_pairs(
    us: np.ndarray, vs: np.ndarray, n_users: int, ordered: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate pairs (and self pairs) from parallel pair arrays.

    With ``ordered=False`` pairs are treated as unordered: (u, v) and
    (v, u) collapse to one canonical (min, max) pair — the pivot-strategy
    semantics used when one similarity evaluation serves both endpoints.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    mask = us != vs
    us, vs = us[mask], vs[mask]
    if us.size == 0:
        return us, vs
    if ordered:
        keys = us * n_users + vs
    else:
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo * n_users + hi
        us, vs = lo, hi
    _, unique_idx = np.unique(keys, return_index=True)
    return us[unique_idx], vs[unique_idx]


def merge_topk(
    neighbors: np.ndarray,
    sims: np.ndarray,
    cand_users: np.ndarray,
    cand_ids: np.ndarray,
    cand_sims: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge candidate edges into per-user top-k rows.

    Parameters
    ----------
    neighbors, sims:
        Current ``(n_users, k)`` state (canonical rows, MISSING = empty).
    cand_users, cand_ids, cand_sims:
        Parallel arrays of candidate edges: ``cand_ids[j]`` is proposed as
        a neighbour of ``cand_users[j]`` with similarity ``cand_sims[j]``.

    Returns
    -------
    (new_neighbors, new_sims, changes)
        New canonical state plus the number of changed slots, counted as
        the number of (user, neighbour) pairs present in the new state but
        not the old one — exactly the number of successful ``UPDATENN``
        heap insertions of Algorithm 1.

    Only users that receive a candidate able to enter their top-k are
    re-ranked, so the cost of a merge is proportional to the batch, not
    to ``n_users * k`` — this matters for small-gamma KIFF runs whose
    late iterations touch few users.  Ties are broken by ascending
    neighbour id, matching ``KnnGraph`` canonical ordering, so fast and
    reference paths stay comparable.  :func:`merge_topk_rows` exposes
    the same computation without the O(n_users * k) full-array copies,
    for callers that write the re-ranked rows back in place (the
    streaming refresh paths).
    """
    active, new_sub_neighbors, new_sub_sims, changes = merge_topk_rows(
        neighbors, sims, cand_users, cand_ids, cand_sims
    )
    new_neighbors = neighbors.copy()
    new_sims = sims.copy()
    if active.size:
        new_neighbors[active] = new_sub_neighbors
        new_sims[active] = new_sub_sims
    return new_neighbors, new_sims, changes


def merge_topk_rows(
    neighbors: np.ndarray,
    sims: np.ndarray,
    cand_users: np.ndarray,
    cand_ids: np.ndarray,
    cand_sims: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`merge_topk` restricted to the rows that can change.

    Returns ``(active, new_neighbors, new_sims, changes)`` where
    ``active`` is the sorted array of re-ranked row ids and the two
    ``(active.size, k)`` arrays are those rows' new canonical state —
    every row not in ``active`` is untouched.  Cost is proportional to
    the candidate batch; no full-graph array is copied, which is what
    lets shard workers merge disjoint row sets of one shared graph
    concurrently.

    Three vectorised passes, no per-row work:

    1. *Prefilter* — an offer that loses to its row's current k-th
       entry under the canonical ``(-sim, id)`` order can never enter
       (the row's k entries stay in the pool and deduplication only
       raises a score), so it is dropped together with self edges.
       Rows whose k-th slot is ``MISSING`` — partial rows, and the rows
       a refresh cleared — keep every offer.  Rows left with no offer
       are not re-ranked and not returned in ``active``.
    2. *Deduplicate* — one argsort on ``row * n_users + id``;
       each ``(row, id)`` group keeps its best score and whether the row
       already held the id.
    3. *Top-k* — one stable argsort on ``row << 32 | desc(score)``;
       the deduplicated entries arrive in ``(row, id)`` order, so
       equal scores keep ascending id.

    Scores are ranked as the float32 at-rest value
    (:data:`~repro.layout.SCORE_DTYPE`); every caller passes scores
    already cast at the score boundary (``compact_scores`` /
    ``SimilarityEngine.batch``), so the cast loses nothing.  ``-0.0``
    ties ``0.0``, and on equal scores a row keeps the first occurrence
    (current entry, then offers in input order) — what sequential
    :class:`~repro.core.heap.KnnHeap` updates keep.
    """
    n_users, k = neighbors.shape
    cand_users = np.asarray(cand_users, dtype=np.int64)
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_sims = np.asarray(cand_sims, dtype=SCORE_DTYPE)

    # 1. Prefilter against each offer's row k-th entry.
    kth_ids = neighbors[cand_users, k - 1]
    kth_sims = sims[cand_users, k - 1]
    live = (cand_users != cand_ids) & (
        (kth_ids == MISSING)
        | (cand_sims > kth_sims)
        | ((cand_sims == kth_sims) & (cand_ids < kth_ids))
    )
    if not live.all():
        cand_users = cand_users[live]
        cand_ids = cand_ids[live]
        cand_sims = cand_sims[live]
    if cand_users.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, k), dtype=ID_DTYPE),
            np.empty((0, k), dtype=SCORE_DTYPE),
            0,
        )
    row_mask = np.zeros(n_users, dtype=bool)
    row_mask[cand_users] = True
    active = np.flatnonzero(row_mask)
    local = np.cumsum(row_mask) - 1  # global row -> position in active

    # The active rows' current entries go first, so a tie between a
    # current entry and an offer keeps the current one.
    sub_neighbors = neighbors[active]
    cur_mask = sub_neighbors != MISSING
    n_cur = int(np.count_nonzero(cur_mask))
    rows = np.concatenate([np.nonzero(cur_mask)[0], local[cand_users]])
    ids = np.concatenate([sub_neighbors[cur_mask], cand_ids])
    scores = np.concatenate(
        [sims[active][cur_mask].astype(SCORE_DTYPE, copy=False), cand_sims]
    )

    # 2. Deduplicate (row, id).  Neighbour ids are global (< n_users),
    # so n_users is a safe stride.
    keys = rows * n_users + ids
    order = np.argsort(keys)
    keys, scores = keys[order], scores[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    best = np.maximum.reduceat(scores, starts)
    held = np.logical_or.reduceat(order < n_cur, starts)
    _first_signed_zero(best, scores, starts, order)
    rows, ids = rows[order[starts]], ids[order[starts]]

    # 3. Per-row top-k.  ``rows`` is sorted, so the row groups occupy
    # the same positions before and after the sort.
    bits = (best + np.float32(0.0)).view(np.uint32)
    desc = np.where(bits >> 31, bits, bits ^ np.uint32(0x7FFFFFFF))
    order = np.argsort(
        (rows.astype(np.uint64) << np.uint64(32)) | desc, kind="stable"
    )
    row_starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    ranks = np.arange(rows.size) - np.repeat(
        row_starts, np.diff(np.r_[row_starts, rows.size])
    )
    keep = ranks < k
    pick = order[keep]

    new_sub_neighbors = np.full((active.size, k), MISSING, dtype=ID_DTYPE)
    new_sub_sims = np.full((active.size, k), -np.inf, dtype=SCORE_DTYPE)
    kept_rows, kept_ranks = rows[keep], ranks[keep]
    new_sub_neighbors[kept_rows, kept_ranks] = ids[pick]
    new_sub_sims[kept_rows, kept_ranks] = best[pick]
    changes = int(pick.size - np.count_nonzero(held[pick]))
    return active, new_sub_neighbors, new_sub_sims, changes


def _first_signed_zero(
    best: np.ndarray,
    scores: np.ndarray,
    starts: np.ndarray,
    order: np.ndarray,
) -> None:
    """Give zero-scored groups the sign of their first zero, in place.

    ``np.maximum`` does not say which of ``-0.0`` and ``0.0`` it keeps;
    the merge keeps the first occurrence in input order (*order* maps
    sorted positions back to it), as a heap would.
    """
    zeros = np.flatnonzero(scores == 0)
    if zeros.size == 0 or not np.signbit(scores[zeros]).any():
        return
    group = np.searchsorted(starts, zeros, side="right") - 1
    by_input = np.lexsort((order[zeros], group))
    zeros, group = zeros[by_input], group[by_input]
    lead = np.r_[True, group[1:] != group[:-1]] & (best[group] == 0)
    best[group[lead]] = scores[zeros[lead]]
