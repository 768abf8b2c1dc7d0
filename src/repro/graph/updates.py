"""Vectorised KNN-row updates shared by the fast algorithm paths.

All fast implementations (KIFF, NN-Descent, HyRec) face the same inner
step: given the current ``(neighbors, sims)`` arrays and a batch of
candidate edges ``(user, candidate, sim)``, produce each user's new top-k
and count how many slots changed — the paper's per-iteration change counter
``c``.  Doing this with sorting primitives instead of per-user heaps is
what makes the pure-Python reproduction tractable; the heap-based reference
path in :mod:`repro.core.heap` verifies the semantics match.
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
    maintenance cost is proportional to the rows a refresh actually
    touched.

    The structure is exact, not approximate: after ``apply_row(row, old,
    new)`` calls mirroring every row change, ``referrers_of(users)``
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
        referrers: dict[int, set[int]] = {}
        if rows is not None:
            neighbors = neighbors[rows]
        local, slots = np.nonzero(neighbors != MISSING)
        cited = neighbors[local, slots]
        citing = local if rows is None else rows[local]
        for row, neighbor in zip(citing.tolist(), cited.tolist()):
            referrers.setdefault(neighbor, set()).add(row)
        self._referrers = referrers

    def referrers_of(self, users) -> np.ndarray:
        """Sorted unique rows citing any of *users* (compact id array)."""
        rows: set[int] = set()
        for user in np.asarray(users, dtype=np.int64).tolist():
            cited_by = self._referrers.get(user)
            if cited_by:
                rows.update(cited_by)
        return np.fromiter(sorted(rows), dtype=ID_DTYPE, count=len(rows))

    def apply_row(self, row: int, old_ids, new_ids) -> None:
        """Record that *row*'s neighbour list changed from old to new.

        ``old_ids`` / ``new_ids`` are the row's neighbour id arrays;
        ``MISSING`` slots are ignored.  Cost O(k) per changed row.
        """
        old = {int(i) for i in old_ids if i != MISSING}
        new = {int(i) for i in new_ids if i != MISSING}
        for neighbor in old - new:
            cited_by = self._referrers.get(neighbor)
            if cited_by is not None:
                cited_by.discard(row)
                if not cited_by:
                    del self._referrers[neighbor]
        for neighbor in new - old:
            self._referrers.setdefault(neighbor, set()).add(row)

    def referrer_count(self) -> int:
        """Total stored (user, citing-row) entries (for tests/benchmarks)."""
        return sum(len(rows) for rows in self._referrers.values())


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

    Only users that actually receive candidates are re-ranked, so the cost
    of a merge is proportional to the batch, not to ``n_users * k`` — this
    matters for small-gamma KIFF runs whose late iterations touch few
    users.  Ties are broken by ascending neighbour id, matching
    ``KnnGraph`` canonical ordering, so fast and reference paths stay
    comparable.  :func:`merge_topk_rows` exposes the same computation
    without the O(n_users * k) full-array copies, for callers that write
    the re-ranked rows back in place (the streaming refresh paths).
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
    """:func:`merge_topk` restricted to the rows that receive candidates.

    Returns ``(active, new_neighbors, new_sims, changes)`` where
    ``active`` is the sorted array of re-ranked row ids and the two
    ``(active.size, k)`` arrays are those rows' new canonical state —
    every row not in ``active`` is untouched.  Cost is proportional to
    the candidate batch; no full-graph array is copied, which is what
    lets shard workers merge disjoint row sets of one shared graph
    concurrently.
    """
    n_users, k = neighbors.shape
    cand_users = np.asarray(cand_users, dtype=np.int64)
    cand_ids = np.asarray(cand_ids, dtype=np.int64)
    cand_sims = np.asarray(cand_sims, dtype=np.float64)
    if cand_users.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            empty,
            np.empty((0, k), dtype=ID_DTYPE),
            np.empty((0, k), dtype=SCORE_DTYPE),
            0,
        )

    # Work on the subset of rows that can change.
    active = np.unique(cand_users)
    cand_rows = np.searchsorted(active, cand_users)

    sub_neighbors = neighbors[active]
    sub_sims = sims[active]
    cur_mask = sub_neighbors != MISSING
    cur_rows = np.nonzero(cur_mask)[0]
    cur_ids = sub_neighbors[cur_mask]
    cur_sims = sub_sims[cur_mask]

    all_rows = np.concatenate([cur_rows, cand_rows])
    all_ids = np.concatenate([cur_ids, cand_ids])
    all_sims = np.concatenate([cur_sims, cand_sims])

    # Drop self edges defensively (rows are local; compare global ids).
    not_self = active[all_rows] != all_ids
    all_rows, all_ids, all_sims = (
        all_rows[not_self],
        all_ids[not_self],
        all_sims[not_self],
    )

    # Deduplicate (row, id) keeping the highest similarity.  Sorting by
    # (key, -sim) makes the first occurrence of each key the best one.
    # Neighbour ids are global (< n_users), so n_users is a safe stride.
    keys = all_rows * n_users + all_ids
    order = np.lexsort((-all_sims, keys))
    keys_sorted = keys[order]
    first = np.ones(keys_sorted.size, dtype=bool)
    first[1:] = keys_sorted[1:] != keys_sorted[:-1]
    pick = order[first]
    all_rows, all_ids, all_sims = all_rows[pick], all_ids[pick], all_sims[pick]

    # Per-row top-k: sort by (row, -sim, id) and keep rank < k.
    order = np.lexsort((all_ids, -all_sims, all_rows))
    all_rows, all_ids, all_sims = (
        all_rows[order],
        all_ids[order],
        all_sims[order],
    )
    boundaries = np.ones(all_rows.size, dtype=bool)
    boundaries[1:] = all_rows[1:] != all_rows[:-1]
    run_starts = np.flatnonzero(boundaries)
    run_lengths = np.diff(np.append(run_starts, all_rows.size))
    ranks = np.arange(all_rows.size) - np.repeat(run_starts, run_lengths)
    keep = ranks < k
    kept_rows, kept_ids, kept_sims, kept_ranks = (
        all_rows[keep],
        all_ids[keep],
        all_sims[keep],
        ranks[keep],
    )

    # Back to the at-rest layout.  The merge ran in int64/float64 —
    # stride keys need the width, and float32 values widen exactly — so
    # narrowing the kept entries loses nothing: every similarity here
    # was already cast to float32 at the score boundary.
    new_sub_neighbors = np.full((active.size, k), MISSING, dtype=ID_DTYPE)
    new_sub_sims = np.full((active.size, k), -np.inf, dtype=SCORE_DTYPE)
    new_sub_neighbors[kept_rows, kept_ranks] = kept_ids
    new_sub_sims[kept_rows, kept_ranks] = kept_sims

    changes = _count_new_edges(
        cur_rows, cur_ids, kept_rows, kept_ids, n_users
    )
    return active, new_sub_neighbors, new_sub_sims, changes


def _count_new_edges(
    old_rows: np.ndarray,
    old_ids: np.ndarray,
    new_rows: np.ndarray,
    new_ids: np.ndarray,
    stride: int,
) -> int:
    """Number of (row, neighbour) edges in new but not in old."""
    if new_rows.size == 0:
        return 0
    new_keys = new_rows * stride + new_ids
    if old_rows.size == 0:
        return int(new_keys.size)
    old_keys = old_rows * stride + old_ids
    return int((~np.isin(new_keys, old_keys)).sum())
