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
keys.  Rows rebuilt from scratch out of offers already grouped by row
skip both the prefilter and the deduplication, and keep each row's top
entries before any sort (:func:`rank_fresh_rows`).
:class:`ReverseNeighborIndex` finds the rows citing a set of users
among a narrowed set of rows, without an inverted index.
"""

from __future__ import annotations

import numpy as np

from ..layout import ID_DTYPE, SCORE_DTYPE
from .knn_graph import MISSING

__all__ = [
    "ReverseNeighborIndex",
    "merge_topk",
    "merge_topk_rows",
    "rank_fresh_rows",
    "dedupe_pairs",
]


class ReverseNeighborIndex:
    """Referrer discovery with no inverted index to keep current.

    Streaming maintenance must find every row holding an entry for a
    dirty user.  KIFF's counting phase (Algorithm 1, lines 1-4) makes
    candidacy symmetric, so a row can cite a user only if the two
    co-rate an item: the caller narrows the rows to the raters of the
    dirty users' items (plus rows whose own profile moved since they
    were scored), and :meth:`referrers_of` keeps those whose row cites
    one of them.  That is one masked gather over the narrowed rows —
    not an O(n_users * k) scan — and nothing is kept between passes,
    so merges pay no upkeep.
    """

    @staticmethod
    def referrers_of(
        neighbors: np.ndarray, rows: np.ndarray, cited: np.ndarray
    ) -> np.ndarray:
        """The *rows* whose neighbour ids hold a user flagged in *cited*.

        *rows* are sorted distinct row ids into *neighbors*, every
        column of which counts; *cited* is a boolean mask over user
        ids.  ``MISSING`` slots never match (as an index, ``-1`` would
        read the mask's last user).  Returns the matching rows, sorted.
        """
        rows = np.asarray(rows, dtype=np.int64)
        ids = neighbors[rows]
        cites = (ids != MISSING) & cited[ids]
        return rows[cites.any(axis=1)]

    @staticmethod
    def apply_row(rows, old, new) -> None:
        """A no-op: the rows are the only adjacency kept.

        Kept by name because ``perfbench/tracing.py`` wraps it.
        """


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
    # Free the dedupe's offer-sized arrays before the ranking allocates
    # its own: merges in a cold build hold millions of offers.
    del keys, scores, order

    # 3. Per-row top-k.
    pick, new_sub_neighbors, new_sub_sims = _rank_rows(
        rows, ids, best, active.size, k
    )
    changes = int(pick.size - np.count_nonzero(held[pick]))
    return active, new_sub_neighbors, new_sub_sims, changes


def rank_fresh_rows(
    row_ids: np.ndarray, cand_ids: np.ndarray, cand_sims: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Top-*k* rows built from scratch out of one offer list.

    The rows' offers are their whole content — no current entry to keep
    and no id offered twice to a row — grouped by ascending *row_ids*,
    in any id order within a row (the rows of a candidate product, whose
    columns SpGEMM leaves unsorted).  So the deduplication pass of
    :func:`merge_topk_rows` has nothing to do.  Each offer gets one
    64-bit key, ``desc(score) << 32 | id``: distinct within its row and
    ascending in the canonical ``(-sim, id)`` order, so equal scores
    keep ascending id, exactly as :func:`merge_topk_rows` ranks the
    same offers into cleared rows.  Rows are laid out one per line,
    grouped by their power-of-two padded width (at most twice their
    offers), and each line keeps its *k* smallest keys
    (``np.argpartition``) before sorting them: no sort spans more than
    one row's top *k*.  Returns ``(active, new_neighbors, new_sims,
    changes)`` in :func:`merge_topk_rows`' shape: the distinct rows,
    their ``(active.size, k)`` rows, and the entries placed (every one
    is new).
    """
    if row_ids.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, k), dtype=ID_DTYPE),
            np.empty((0, k), dtype=SCORE_DTYPE),
            0,
        )
    starts = np.r_[True, row_ids[1:] != row_ids[:-1]]
    active = row_ids[starts]
    lengths = np.diff(np.r_[np.flatnonzero(starts), row_ids.size])
    firsts = np.cumsum(lengths) - lengths
    scores = np.asarray(cand_sims, dtype=SCORE_DTYPE)
    keys = _descending(scores).astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= np.asarray(cand_ids, dtype=np.int64).view(np.uint64)
    new_neighbors = np.full((active.size, k), MISSING, dtype=ID_DTYPE)
    new_sims = np.full((active.size, k), -np.inf, dtype=SCORE_DTYPE)
    widths = np.left_shift(1, np.ceil(np.log2(lengths)).astype(np.int64))
    for width in np.unique(widths).tolist():
        members = np.flatnonzero(widths == width)
        # About _LINE_SLOTS keys at a time, so the layout's temporaries
        # stay small however many offers a cold-build block holds.
        chunks = min(members.size, -(-members.size * width // _LINE_SLOTS))
        for group in np.array_split(members, chunks):
            sizes = lengths[group]
            line = np.repeat(np.arange(group.size), sizes)
            column = np.arange(line.size) - np.repeat(
                np.cumsum(sizes) - sizes, sizes
            )
            padded = np.full((group.size, width), _NO_KEY, dtype=np.uint64)
            padded[line, column] = keys[firsts[group][line] + column]
            del line, column
            if width > k:
                order = np.argpartition(padded, k - 1, axis=1)[:, :k]
                padded = np.take_along_axis(padded, order, axis=1)
                order = np.take_along_axis(
                    order, np.argsort(padded, axis=1), axis=1
                )
            else:
                order = np.argsort(padded, axis=1)
            # Padding sorts last, so a line's real keys lead it.
            placed = order < sizes[:, None]
            entries = (firsts[group][:, None] + order)[placed]
            ids = np.full(order.shape, MISSING, dtype=ID_DTYPE)
            top = np.full(order.shape, -np.inf, dtype=SCORE_DTYPE)
            ids[placed] = cand_ids[entries]
            top[placed] = scores[entries]
            new_neighbors[group, : order.shape[1]] = ids
            new_sims[group, : order.shape[1]] = top
    placed = int(np.minimum(lengths, k).sum())
    return active, new_neighbors, new_sims, placed


#: Pads a line of :func:`rank_fresh_rows` keys: above every real key.
_NO_KEY = np.iinfo(np.uint64).max
#: Padded keys :func:`rank_fresh_rows` lays out at once (2 MB of keys).
_LINE_SLOTS = 1 << 18


def _descending(scores: np.ndarray) -> np.ndarray:
    """uint32 keys ascending as float32 *scores* descend (``-0.0`` as
    ``0.0``)."""
    bits = (scores + np.float32(0.0)).view(np.uint32)
    return np.where(bits >> 31, bits, bits ^ np.uint32(0x7FFFFFFF))


def _rank_rows(
    rows: np.ndarray,
    ids: np.ndarray,
    scores: np.ndarray,
    n_rows: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's top *k* of distinct offers in ``(row, id)`` order.

    *rows* are local row positions in ``[0, n_rows)``, non-decreasing,
    so the row groups occupy the same positions before and after one
    stable argsort on ``row << 32 | desc(score)``, and equal scores keep
    ascending id.  ``-0.0`` ranks as ``0.0``.  Returns ``(pick,
    neighbors, sims)``: the offer positions kept, in rank order, and
    the ``(n_rows, k)`` rows they fill.
    """
    order = np.argsort(
        (rows.astype(np.uint64) << np.uint64(32)) | _descending(scores),
        kind="stable",
    )
    row_starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    ranks = np.arange(rows.size) - np.repeat(
        row_starts, np.diff(np.r_[row_starts, rows.size])
    )
    keep = ranks < k
    pick = order[keep]
    neighbors = np.full((n_rows, k), MISSING, dtype=ID_DTYPE)
    sims = np.full((n_rows, k), -np.inf, dtype=SCORE_DTYPE)
    kept_rows, kept_ranks = rows[keep], ranks[keep]
    neighbors[kept_rows, kept_ranks] = ids[pick]
    sims[kept_rows, kept_ranks] = scores[pick]
    return pick, neighbors, sims


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
