"""Append-friendly builder for evolving bipartite datasets.

:class:`BipartiteDataset` is deliberately immutable — experiment sweeps
share datasets safely because nothing can mutate them.  Streaming
maintenance (``repro.streaming``) needs the opposite: a store that absorbs
a continuous feed of ``(user, item, rating)`` events cheaply and can
produce an immutable snapshot on demand.

:class:`MutableBipartiteBuilder` is that store.  It holds the ratings
once, as the last canonical snapshot (the **base**, whose CSR row ``u``
is the paper's ``UP_u``) plus an **overlay** of each changed user's
changes since: ``{item: rating}`` records, ``0.0`` for a deletion, and
a *cleared* mark from ``clear_user`` that hides the user's base row.
``from_dataset`` adopts the dataset it is given as the base in O(1).
``rating`` and ``profile`` read the overlay, then the user's CSR slice;
``users_of`` (the item profile ``IP_i``) reads the base's column, from
its lazily built CSC mirror, corrected by the overlay.

``snapshot()`` derives the dirty rows from their base rows and overlay
records in one vectorised merge — O(dirty ratings) — splices them into
a copy of the base's arrays (:func:`splice_compressed`, an O(nnz)
memcpy) and wraps the result without a second canonicalisation
(:func:`dataset_from_canonical_arrays`).  It becomes the new base, the
overlay is dropped, and it is cached until the next mutation.  Without
a base, or with a dirty set spanning more than half the population,
every row is derived.  Derived rows are tallied into a
:class:`~repro.instrumentation.counters.MaintenanceCounter`; the
Hypothesis suite checks every snapshot against a plain-dict model.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain

import numpy as np
import scipy.sparse as sp

from ..instrumentation.counters import MaintenanceCounter
from ..layout import indptr_dtype
from .bipartite import BipartiteDataset, DatasetError

__all__ = [
    "MutableBipartiteBuilder",
    "dataset_from_canonical_arrays",
    "snapshot_from_arrays",
    "snapshot_to_arrays",
    "splice_compressed",
]


def snapshot_to_arrays(dataset: BipartiteDataset) -> dict[str, np.ndarray]:
    """A snapshot's ratings as plain arrays (for checkpoint archives).

    Captures the canonical CSR triplet plus the matrix shape, so
    tombstone rows (a removed user's empty profile) and trailing empty
    item columns survive the round-trip — :class:`BipartiteDataset`
    equality holds exactly after :func:`snapshot_from_arrays`.
    """
    matrix = dataset.matrix
    return {
        "dataset_indptr": matrix.indptr,
        "dataset_indices": matrix.indices,
        "dataset_data": matrix.data,
        "dataset_shape": np.asarray(matrix.shape, dtype=np.int64),
    }


def snapshot_from_arrays(arrays, name: str = "restored") -> BipartiteDataset:
    """Inverse of :func:`snapshot_to_arrays` (accepts any array mapping).

    The result is a canonical dataset; seeding a
    :class:`MutableBipartiteBuilder` from it (``from_dataset``) restores
    the builder state the snapshot was taken from, dense user ids,
    tombstones and item universe included.
    """
    shape = tuple(int(extent) for extent in np.asarray(arrays["dataset_shape"]))
    matrix = sp.csr_matrix(
        (
            np.asarray(arrays["dataset_data"], dtype=np.float64),
            # Index dtypes are normalized by canonicalization below, so
            # legacy int64 archives and compact int32 ones both restore.
            np.asarray(arrays["dataset_indices"]),
            np.asarray(arrays["dataset_indptr"]),
        ),
        shape=shape,
    )
    return BipartiteDataset(matrix=matrix, name=name)


def dataset_from_canonical_arrays(
    arrays, name: str = "shared"
) -> BipartiteDataset:
    """A :class:`BipartiteDataset` over *arrays* without copying them.

    :func:`snapshot_from_arrays` re-canonicalizes (and therefore copies)
    its input — right for untrusted checkpoint archives, wrong for the
    shared-memory transport, where the whole point is that workers view
    the parent's buffers in place.  This constructor trusts the caller's
    contract instead: the CSR triplet under the ``dataset_*`` keys is
    already canonical (float64 data, sorted indices, no duplicates or
    explicit zeros) **and must never be mutated** — exactly what a
    published snapshot guarantees, since canonical snapshots are the
    only thing the streaming side ever publishes.
    """
    shape = tuple(int(extent) for extent in np.asarray(arrays["dataset_shape"]))
    matrix = sp.csr_matrix(
        (
            arrays["dataset_data"],
            arrays["dataset_indices"],
            arrays["dataset_indptr"],
        ),
        shape=shape,
        copy=False,
    )
    dataset = object.__new__(BipartiteDataset)
    object.__setattr__(dataset, "matrix", matrix)
    object.__setattr__(dataset, "name", name)
    object.__setattr__(dataset, "symmetric", False)
    object.__setattr__(dataset, "_csc_cache", [])
    return dataset


def splice_compressed(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_segments: int,
    dirty: np.ndarray,
    replacement: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild a compressed (CSR/CSC) structure with some segments replaced.

    ``dirty`` is a sorted array of distinct segment ids and
    ``replacement`` a compressed block ``(indptr, indices, data)`` whose
    ``i``-th segment replaces segment ``dirty[i]``; every other segment
    is copied from the old arrays.  ``n_segments`` (at least 1) may
    exceed the old segment count: new segments are empty unless listed
    dirty.  Each run of consecutive clean (or dirty) segments moves as
    one bulk slice, so Python-level work is one slice pair per run
    (at most ``2 * len(dirty) + 1``) and the rest an O(nnz) ``memcpy``.
    """
    rep_indptr, rep_indices, rep_data = replacement
    n_old = indptr.size - 1
    lengths = np.zeros(n_segments, dtype=np.int64)
    lengths[:n_old] = np.diff(indptr)
    lengths[dirty] = np.diff(rep_indptr)
    new_indptr = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    new_indices = np.empty(total, dtype=indices.dtype)
    new_data = np.empty(total, dtype=data.dtype)
    is_dirty = np.zeros(n_segments, dtype=bool)
    is_dirty[dirty] = True
    starts = np.flatnonzero(np.diff(is_dirty, prepend=~is_dirty[:1]))
    ends = np.append(starts[1:], n_segments)
    replaced = (np.cumsum(is_dirty) - is_dirty)[starts]
    from_block = is_dirty[starts]
    src_lo = np.where(
        from_block, rep_indptr[replaced], indptr[np.minimum(starts, n_old)]
    )
    dst_lo, dst_hi = new_indptr[starts], new_indptr[ends]
    for block, src, lo, hi in zip(
        from_block.tolist(), src_lo.tolist(), dst_lo.tolist(), dst_hi.tolist()
    ):
        old_indices, old_data = (
            (rep_indices, rep_data) if block else (indices, data)
        )
        new_indices[lo:hi] = old_indices[src : src + hi - lo]
        new_data[lo:hi] = old_data[src : src + hi - lo]
    # indptr computed in int64 (cumsum can momentarily need the width),
    # stored at the compact layout when the nnz permits.
    return (
        new_indptr.astype(indptr_dtype(total), copy=False),
        new_indices,
        new_data,
    )


class MutableBipartiteBuilder:
    """A mutable user-item rating store over a canonical CSR base.

    User ids are allocated densely by :meth:`add_user` and never reused:
    removing a user clears its profile but keeps the id in the universe,
    so KNN graph rows and snapshots stay aligned across the stream.

    ``maintenance`` (optional) is a shared
    :class:`~repro.instrumentation.counters.MaintenanceCounter` that
    tallies snapshot row derivations; a private one is created when
    omitted.
    """

    def __init__(
        self,
        n_items: int = 0,
        name: str = "stream",
        maintenance: MaintenanceCounter | None = None,
    ):
        if n_items < 0:
            raise DatasetError(f"n_items must be >= 0, got {n_items}")
        self.name = name
        self.maintenance = (
            maintenance if maintenance is not None else MaintenanceCounter()
        )
        self._n_users = 0
        self._n_items = int(n_items)
        self._n_ratings = 0
        #: Last materialised snapshot: the ratings as of the overlay's start.
        self._base: BipartiteDataset | None = None
        #: Changes since ``_base`` per user, ``{item: rating}`` (0.0 for a
        #: deletion): its keys are the dirty rows.
        self._overlay: dict[int, dict[int, float]] = {}
        #: Users whose base row ``clear_user`` dropped (overlay keys too).
        self._cleared: set[int] = set()
        #: item -> users with an overlay record for it (for ``users_of``).
        self._changed_raters: dict[int, set[int]] = {}

    @classmethod
    def from_dataset(
        cls,
        dataset: BipartiteDataset,
        maintenance: MaintenanceCounter | None = None,
    ) -> "MutableBipartiteBuilder":
        """A builder adopting *dataset* as its base in O(1): ``snapshot()``
        returns *dataset* itself until the first mutation."""
        builder = cls(
            n_items=dataset.n_items, name=dataset.name, maintenance=maintenance
        )
        builder._n_users = dataset.n_users
        builder._n_ratings = dataset.n_ratings
        builder._base = dataset
        return builder

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of allocated user ids (removed users included)."""
        return self._n_users

    @property
    def n_items(self) -> int:
        """Size of the item universe (grows monotonically)."""
        return self._n_items

    @property
    def n_ratings(self) -> int:
        """Number of stored ratings."""
        return self._n_ratings

    @property
    def dirty_rows(self) -> frozenset:
        """Users mutated since the last materialised snapshot."""
        return frozenset(self._overlay)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_user(self, items=(), ratings=None) -> int:
        """Allocate the next user id, optionally with an initial profile.

        Returns the new id (always ``n_users`` before the call).  The
        profile is validated *before* the id is allocated, so a rejected
        call leaves the builder unchanged (no phantom user).
        """
        items = [int(item) for item in items]
        if ratings is None:
            ratings = [1.0] * len(items)
        else:
            ratings = [float(rating) for rating in ratings]
        if len(items) != len(ratings):
            raise DatasetError(
                f"items and ratings must have equal length, got "
                f"{len(items)} vs {len(ratings)}"
            )
        for item, rating in zip(items, ratings):
            if item < 0:
                raise DatasetError(f"item id must be non-negative, got {item}")
            if not math.isfinite(rating):
                raise DatasetError(f"rating must be finite, got {rating}")
        user = self._n_users
        self._n_users += 1
        # A new (possibly empty) row exists either way; the snapshot must
        # grow even when no rating lands.
        self._overlay[user] = {}
        for item, rating in zip(items, ratings):
            self.set_rating(user, item, rating)
        return user

    def set_rating(self, user: int, item: int, rating: float = 1.0) -> float:
        """Set (or overwrite) one rating; ``rating = 0`` deletes the edge.

        Returns the previous rating (``0.0`` when the edge was absent).
        Mirrors :class:`BipartiteDataset` canonicalisation, where explicit
        zeros are eliminated, so a snapshot round-trips exactly.
        Deleting an absent edge and an identical overwrite change
        nothing (the user does not become dirty).
        """
        self._check_user(user)
        item = int(item)
        if item < 0:
            raise DatasetError(f"item id must be non-negative, got {item}")
        rating = float(rating)
        if not math.isfinite(rating):
            raise DatasetError(f"rating must be finite, got {rating}")
        old = self.rating(user, item)
        if rating == old:
            return old
        self._n_ratings += (rating != 0.0) - (old != 0.0)
        # -0.0 is a deletion too; store the one zero.
        self._overlay.setdefault(user, {})[item] = rating if rating else 0.0
        self._changed_raters.setdefault(item, set()).add(user)
        if rating != 0.0:
            self._n_items = max(self._n_items, item + 1)
        return old

    def clear_user(self, user: int) -> None:
        """Remove every rating of *user* (the id stays allocated)."""
        size = len(self.profile(user))
        if not size:
            return  # already empty: the snapshot is unaffected
        self._n_ratings -= size
        self._overlay[user] = {}
        self._cleared.add(user)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _base_row(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """*user*'s ``(items, ratings)`` in the base (empty once cleared)."""
        base = self._base
        if base is None or user in self._cleared or user >= base.n_users:
            return _NO_ROWS.indices, _NO_ROWS.data
        matrix = base.matrix
        lo, hi = matrix.indptr[user], matrix.indptr[user + 1]
        return matrix.indices[lo:hi], matrix.data[lo:hi]

    def profile(self, user: int) -> dict[int, float]:
        """User *user*'s current ``{item: rating}`` profile (a fresh dict)."""
        self._check_user(user)
        items, ratings = self._base_row(user)
        profile = dict(zip(items.tolist(), ratings.tolist()))
        profile.update(self._overlay.get(user, {}))
        return {item: rating for item, rating in profile.items() if rating}

    def rating(self, user: int, item: int) -> float:
        """The stored rating, or ``0.0`` when the edge is absent."""
        self._check_user(user)
        changes = self._overlay.get(user)
        if changes is not None and item in changes:
            return changes[item]
        items, ratings = self._base_row(user)
        pos = bisect_left(items, item)  # O(log) reads, no array copy
        if pos < items.size and items[pos] == item:
            return float(ratings[pos])
        return 0.0

    def users_of(self, item: int) -> set[int]:
        """The item profile ``IP_i`` (a fresh set): the base's CSC column
        corrected by the overlay."""
        users: set[int] = set()
        base = self._base
        if base is not None and 0 <= item < base.n_items:
            column = base.csc
            lo, hi = column.indptr[item], column.indptr[item + 1]
            raters = column.indices[lo:hi].tolist()
            users.update(u for u in raters if u not in self._cleared)
        for user in self._changed_raters.get(item, ()):
            if self._overlay[user].get(item):  # None once cleared
                users.add(user)
            else:
                users.discard(user)
        return users

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self, name: str | None = None) -> BipartiteDataset:
        """The current state as an immutable dataset (cached until mutated).

        When a previous snapshot exists, only the rows of users mutated
        since it are derived; everything else is block-copied.  A dirty
        set spanning more than half the population makes every row
        derived (a full snapshot).  Passing ``name`` returns a fresh,
        uncached dataset and leaves the builder's cache and overlay
        untouched.

        Raises :class:`DatasetError` while no user exists — a dataset
        needs at least one user, and padding one in would break the
        id-alignment invariant this class documents.  An item universe is
        padded to one column when empty (users may exist before any
        rating lands; item ids are allocated by the ratings themselves).
        """
        if self._n_users == 0:
            raise DatasetError(
                "cannot snapshot a builder with no users; add_user first"
            )
        if self._base is not None and not self._overlay and name is None:
            return self._base
        if self._base is not None and 2 * len(self._overlay) <= self._n_users:
            rows = np.array(sorted(self._overlay), dtype=np.int64)
            self.maintenance.snapshots_incremental += 1
        else:
            rows = np.arange(self._n_users, dtype=np.int64)
            self.maintenance.snapshots_full += 1
        self.maintenance.rows_materialized += int(rows.size)
        dataset = self._materialize(rows, name or self.name)
        if name is not None:
            return dataset
        self._base = dataset
        self._overlay.clear()
        self._cleared.clear()
        self._changed_raters.clear()
        return dataset

    def _materialize(self, rows: np.ndarray, name: str) -> BipartiteDataset:
        """The base with *rows* (sorted, covering every overlay user)
        re-derived from their base rows and overlay records."""
        n_users, n_items = self._n_users, max(self._n_items, 1)
        width = np.int64(n_items)
        matrix = _NO_ROWS if self._base is None else self._base.matrix
        cleared = np.fromiter(self._cleared, np.int64, len(self._cleared))
        kept = (rows < matrix.shape[0]) & ~np.isin(rows, cleared)
        old = matrix[rows[kept]]
        keys = np.repeat(np.flatnonzero(kept) * width, np.diff(old.indptr))
        keys += old.indices
        changes = self._overlay.values()
        sizes = [len(change) for change in changes]
        n_changes = sum(sizes)
        changed = np.fromiter(self._overlay, np.int64, len(sizes))
        change_keys = np.repeat(np.searchsorted(rows, changed) * width, sizes)
        change_keys += np.fromiter(chain.from_iterable(changes), np.int64, n_changes)
        change_values = np.fromiter(
            chain.from_iterable(change.values() for change in changes),
            np.float64,
            n_changes,
        )
        # Base keys are sorted; each change sorts after the base entry it
        # replaces, so a key's last entry is its current rating.
        keys = np.concatenate([keys, change_keys])
        values = np.concatenate([old.data, change_values])
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        keep = values != 0.0
        keep[:-1] &= keys[1:] != keys[:-1]
        keys, values = keys[keep], values[keep]
        row_indptr = np.searchsorted(keys, np.arange(rows.size + 1) * width)
        indptr, indices, data = splice_compressed(
            matrix.indptr,
            matrix.indices,
            matrix.data,
            n_users,
            rows,
            (row_indptr, (keys % width).astype(matrix.indices.dtype), values),
        )
        return dataset_from_canonical_arrays(
            {
                "dataset_indptr": indptr,
                "dataset_indices": indices,
                "dataset_data": data,
                "dataset_shape": (n_users, n_items),
            },
            name=name,
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _check_user(self, user: int) -> None:
        if not 0 <= user < self._n_users:
            raise DatasetError(
                f"user id {user} out of range [0, {self._n_users})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableBipartiteBuilder(name={self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, ratings={self.n_ratings})"
        )


#: The base rows of a builder that has never snapshotted.
_NO_ROWS = sp.csr_matrix((0, 1), dtype=np.float64)
