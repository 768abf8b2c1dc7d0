"""Append-friendly builder for evolving bipartite datasets.

:class:`BipartiteDataset` is deliberately immutable — experiment sweeps
share datasets safely because nothing can mutate them.  Streaming
maintenance (``repro.streaming``) needs the opposite: a store that absorbs
a continuous feed of ``(user, item, rating)`` events cheaply and can
produce an immutable snapshot on demand.

:class:`MutableBipartiteBuilder` is that store.  It keeps

* per-user profiles as ``{item: rating}`` dictionaries (the paper's
  ``UP_u``), updated in O(1) per event, and
* an incremental inverted index ``item -> {users}`` (the paper's item
  profiles ``IP_i``), which is what lets the streaming subsystem compute
  a user's candidate set without touching the rest of the population.

``snapshot()`` materialises the current state as a canonical
:class:`BipartiteDataset`; the result is cached until the next mutation,
so repeated reads between event batches are free.

Incremental snapshotting
------------------------
The builder tracks which users mutated since the last materialised
snapshot.  When a new snapshot is requested and a previous one exists,
only the *dirty* CSR rows are re-materialised from the live profiles —
clean rows are block-copied from the previous snapshot; the CSC mirror
is built lazily on first use, as for any dataset.  The result is
exactly equal to a full materialisation (the Hypothesis suite
interleaves both paths and asserts equality); when the fast path's
preconditions fail (no base snapshot, a supplied ``dirty_users`` hint
that does not cover the tracked dirty set, or a dirty set too large to
be worth patching) the builder falls back to the full path, which is
always exact.  Row-materialisation work is
tallied into a :class:`~repro.instrumentation.counters.MaintenanceCounter`
so benchmarks can assert snapshot cost scales with the dirty set, not
with ``n_ratings``.
"""

from __future__ import annotations

import math

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
    replacements: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild a compressed (CSR/CSC) structure with some segments replaced.

    ``dirty`` is a sorted array of segment ids whose contents are replaced
    by the aligned ``replacements``; every other segment is block-copied
    from the old arrays.  ``n_segments`` may exceed the old segment count:
    new segments default to empty unless listed dirty.  Python-level work
    is O(len(dirty)); clean spans move as bulk ``memcpy`` slices.
    """
    n_old = indptr.size - 1
    lengths = np.zeros(n_segments, dtype=np.int64)
    lengths[:n_old] = np.diff(indptr)
    for pos, seg in enumerate(dirty.tolist()):
        lengths[seg] = replacements[pos][0].size
    new_indptr = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    new_indices = np.empty(total, dtype=indices.dtype)
    new_data = np.empty(total, dtype=data.dtype)

    def copy_clean(lo: int, hi: int) -> None:
        hi = min(hi, n_old)
        if lo >= hi:
            return
        src_lo, src_hi = indptr[lo], indptr[hi]
        dst_lo = new_indptr[lo]
        new_indices[dst_lo : dst_lo + (src_hi - src_lo)] = indices[src_lo:src_hi]
        new_data[dst_lo : dst_lo + (src_hi - src_lo)] = data[src_lo:src_hi]

    prev = 0
    for pos, seg in enumerate(dirty.tolist()):
        copy_clean(prev, seg)
        seg_indices, seg_data = replacements[pos]
        lo = new_indptr[seg]
        new_indices[lo : lo + seg_indices.size] = seg_indices
        new_data[lo : lo + seg_data.size] = seg_data
        prev = seg + 1
    copy_clean(prev, n_old)
    # indptr computed in int64 (cumsum can momentarily need the width),
    # stored at the compact layout when the nnz permits.
    return (
        new_indptr.astype(indptr_dtype(total), copy=False),
        new_indices,
        new_data,
    )


class MutableBipartiteBuilder:
    """A mutable user-item rating store with incremental item profiles.

    User ids are allocated densely by :meth:`add_user` and never reused:
    removing a user clears its profile but keeps the id in the universe,
    so KNN graph rows and snapshots stay aligned across the stream.

    ``maintenance`` (optional) is a shared
    :class:`~repro.instrumentation.counters.MaintenanceCounter` that
    tallies snapshot row materialisations; a private one is created when
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
        self._profiles: list[dict[int, float]] = []
        self._item_users: dict[int, set[int]] = {}
        self._n_items = int(n_items)
        self._n_ratings = 0
        #: Last materialised snapshot — the patch base for the fast path.
        self._base: BipartiteDataset | None = None
        #: Users mutated since ``_base``; empty means ``_base`` is current.
        self._dirty_rows: set[int] = set()

    @classmethod
    def from_dataset(
        cls,
        dataset: BipartiteDataset,
        maintenance: MaintenanceCounter | None = None,
    ) -> "MutableBipartiteBuilder":
        """Seed a builder with every rating of an existing dataset."""
        builder = cls(
            n_items=dataset.n_items, name=dataset.name, maintenance=maintenance
        )
        for _, items, ratings in dataset.iter_user_profiles():
            builder.add_user(items.tolist(), ratings.tolist())
        # The seed dataset IS the current state; reuse it as the snapshot.
        builder._base = dataset
        builder._dirty_rows.clear()
        return builder

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of allocated user ids (removed users included)."""
        return len(self._profiles)

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
        return frozenset(self._dirty_rows)

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
        user = len(self._profiles)
        self._profiles.append({})
        for item, rating in zip(items, ratings):
            self.set_rating(user, item, rating)
        # A new (possibly empty) row exists either way; the snapshot must
        # grow even when no rating landed.
        self._dirty_rows.add(user)
        return user

    def set_rating(self, user: int, item: int, rating: float = 1.0) -> None:
        """Set (or overwrite) one rating; ``rating = 0`` deletes the edge.

        Mirrors :class:`BipartiteDataset` canonicalisation, where explicit
        zeros are eliminated, so a snapshot round-trips exactly.
        """
        self._check_user(user)
        if item < 0:
            raise DatasetError(f"item id must be non-negative, got {item}")
        rating = float(rating)
        if not math.isfinite(rating):
            raise DatasetError(f"rating must be finite, got {rating}")
        profile = self._profiles[user]
        had = item in profile
        if rating == 0.0:
            if not had:
                return  # deleting an absent edge: nothing changes
            del profile[item]
            self._n_ratings -= 1
            users = self._item_users.get(item)
            if users is not None:
                users.discard(user)
                if not users:
                    del self._item_users[item]
        else:
            if had and profile[item] == rating:
                return  # identical overwrite: nothing changes
            profile[item] = rating
            if not had:
                self._n_ratings += 1
                self._item_users.setdefault(item, set()).add(user)
            self._n_items = max(self._n_items, item + 1)
        self._dirty_rows.add(user)

    def clear_user(self, user: int) -> None:
        """Remove every rating of *user* (the id stays allocated)."""
        self._check_user(user)
        profile = self._profiles[user]
        if not profile:
            return  # already empty: the snapshot is unaffected
        for item in profile:
            users = self._item_users.get(item)
            if users is not None:
                users.discard(user)
                if not users:
                    del self._item_users[item]
        self._n_ratings -= len(profile)
        profile.clear()
        self._dirty_rows.add(user)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def profile(self, user: int) -> dict[int, float]:
        """User *user*'s live ``{item: rating}`` profile (do not mutate)."""
        self._check_user(user)
        return self._profiles[user]

    def rating(self, user: int, item: int) -> float:
        """The stored rating, or ``0.0`` when the edge is absent."""
        self._check_user(user)
        return self._profiles[user].get(item, 0.0)

    def users_of(self, item: int) -> set[int]:
        """The live item profile ``IP_i`` (do not mutate)."""
        return self._item_users.get(item, _EMPTY_SET)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(
        self,
        name: str | None = None,
        dirty_users=None,
    ) -> BipartiteDataset:
        """The current state as an immutable dataset (cached until mutated).

        When a previous snapshot exists, only the rows of users mutated
        since it (plus any extra ids in the optional ``dirty_users`` hint)
        are re-materialised; everything else is block-copied, so snapshot
        cost scales with the dirty set.  ``dirty_users`` must cover the
        internally tracked dirty set — a hint that does not triggers the
        exact-equality fallback (a full materialisation), as does a dirty
        set spanning more than half the population, where patching stops
        paying for itself.  Passing ``name`` returns a fresh, uncached
        dataset and leaves the builder's cache state untouched.

        Raises :class:`DatasetError` while no user exists — a dataset
        needs at least one user, and padding one in would break the
        id-alignment invariant this class documents.  An item universe is
        padded to one column when empty (users may exist before any
        rating lands; item ids are allocated by the ratings themselves).
        """
        if self.n_users == 0:
            raise DatasetError(
                "cannot snapshot a builder with no users; add_user first"
            )
        if self._base is not None and not self._dirty_rows and name is None:
            return self._base
        dirty: set[int] | None = set(self._dirty_rows)
        if dirty_users is not None:
            supplied = {int(u) for u in dirty_users}
            for u in supplied:
                self._check_user(u)
            if dirty <= supplied:
                dirty = supplied
            else:
                dirty = None  # hint misses mutations: exact fallback
        fast = (
            dirty is not None
            and self._base is not None
            and 2 * len(dirty) <= self.n_users
        )
        if fast:
            dataset = self._materialize_incremental(sorted(dirty), name)
            self.maintenance.rows_materialized += len(dirty)
            self.maintenance.snapshots_incremental += 1
        else:
            dataset = self._materialize_full(name)
            self.maintenance.rows_materialized += self.n_users
            self.maintenance.snapshots_full += 1
        if name is not None:
            return dataset
        self._base = dataset
        self._dirty_rows.clear()
        return dataset

    def _materialize_full(self, name: str | None) -> BipartiteDataset:
        """Rebuild the whole matrix from the live profiles (exact path)."""
        users: list[int] = []
        items: list[int] = []
        ratings: list[float] = []
        for user, profile in enumerate(self._profiles):
            for item, rating in profile.items():
                users.append(user)
                items.append(item)
                ratings.append(rating)
        return BipartiteDataset.from_edges(
            users,
            items,
            ratings,
            n_users=self.n_users,
            n_items=max(self._n_items, 1),
            name=name or self.name,
        )

    def _materialize_incremental(
        self, dirty_sorted: list[int], name: str | None
    ) -> BipartiteDataset:
        """Patch the previous snapshot's CSR rows."""
        base = self._base
        assert base is not None
        base_matrix = base.matrix
        n_users = self.n_users
        n_items = max(self._n_items, 1)
        dirty_arr = np.asarray(dirty_sorted, dtype=np.int64)
        replacements: list[tuple[np.ndarray, np.ndarray]] = []
        for user in dirty_sorted:
            profile = self._profiles[user]
            row_items = np.fromiter(profile.keys(), np.int64, len(profile))
            row_data = np.fromiter(profile.values(), np.float64, len(profile))
            order = np.argsort(row_items)  # canonical rows sort indices
            replacements.append((row_items[order], row_data[order]))
        indptr, indices, data = splice_compressed(
            base_matrix.indptr,
            base_matrix.indices,
            base_matrix.data,
            n_users,
            dirty_arr,
            replacements,
        )
        matrix = sp.csr_matrix((data, indices, indptr), shape=(n_users, n_items))
        # symmetric stays False to match the full path (from_edges default).
        return BipartiteDataset(matrix=matrix, name=name or self.name)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _check_user(self, user: int) -> None:
        if not 0 <= user < len(self._profiles):
            raise DatasetError(
                f"user id {user} out of range [0, {len(self._profiles)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableBipartiteBuilder(name={self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, ratings={self.n_ratings})"
        )


_EMPTY_SET: set[int] = set()
