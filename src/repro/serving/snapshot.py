"""Immutable, versioned read views of a maintained KNN graph.

MVCC in one attribute store
---------------------------
``DynamicKnnIndex.refresh()`` mutates its graph rows in place, so a
reader walking those arrays concurrently could observe a half-applied
pass (rows cleared to ``MISSING`` but not yet re-merged).  Instead of
locking, the index *publishes*: at the end of every completed
``refresh()``/``rebuild()`` it freezes the live rows into a
:class:`GraphSnapshot` and stores it with a single attribute
assignment — atomic under the GIL, the pointer-swap of a classic MVCC
design.  Readers call ``index.pin()`` and hold the returned snapshot
for the duration of a query; the reference *is* the pin, and dropping
it is the unpin.

What is copied, what is shared
------------------------------
Only the graph rows are copied at publish time, because refresh
mutates them in place — and they are copied **CSR-packed**
(:func:`repro.layout.pack_rows`): an ``indptr`` plus flat int32 id /
float32 similarity arrays holding only the present entries, so
partially filled rows (fresh cold-start users, tombstones of removed
users) cost nothing at rest.  A snapshot's rows are two such packings:

* a **base** of every row as of some earlier publication, shared by
  reference with every version published over it;
* a **patch** of the rows changed since that base (their sorted ids
  plus the packed rows), which replaces those rows of the base.

A publication is told which rows changed since the previous one and
packs only those, the previous patch's rows and the rows appended
since; the new snapshot keeps the previous base.  When that union
would hold more than :data:`MAX_PATCH_SHARE` of the rows, every row
is packed into a new base with an empty patch, so a full O(n·k) pack
is paid at most once per ``n / 16`` changed rows.  A pinned snapshot
therefore holds its base (perhaps shared with newer versions) plus a
patch of at most ``n / 16`` rows.

Everything else is shared by reference, which is safe because the
write path replaces those structures wholesale instead of mutating
them: ``MutableBipartiteBuilder.snapshot()`` materialises a fresh
:class:`~repro.datasets.bipartite.BipartiteDataset` (deriving only
dirty CSR rows), and ``ProfileIndex.update()`` builds new norm/size
arrays before swapping them in.

Row reads go through :meth:`neighbors_of`/:meth:`sims_of`, which look
the row up in the patch (a binary search) and otherwise slice the
base — O(row + log patch) per query, no dense materialisation.  The
dense ``neighbors``/``sims`` properties rebuild the classic
``(n_users, k)`` padded arrays on *every* access; they exist for
parity checks and tests, not the serving path.

The ``version`` is the covering WAL sequence number: the snapshot
reflects exactly the events ``1..version`` (``index.last_seq`` at
publish time), which is what lets the concurrent-reader suite replay
any served response bit-identically from a cold rebuild at that
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets.bipartite import BipartiteDataset
from ..graph.knn_graph import KnnGraph
from ..layout import ID_DTYPE, compact_ids, nbytes, pack_rows, unpack_rows

__all__ = ["GraphSnapshot", "MAX_PATCH_SHARE"]

#: The largest share of the rows a patch may hold; a publication whose
#: patch would hold more packs every row into a new base instead.
MAX_PATCH_SHARE = 1 / 16


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of *array* (the base buffer is untouched)."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One published version of the serving state.

    All arrays are read-only.  ``indptr``/``packed_ids``/``packed_sims``
    are the packed base rows and the ``patch_*`` arrays the packed rows
    changed since that base (see the module docstring);
    ``dataset``/``norms``/``sizes`` are shared with the index state that
    produced them.
    """

    #: Covering WAL sequence: events ``1..version`` are reflected.
    version: int
    #: Number of user rows in this snapshot (base rows plus appended).
    n_users: int
    #: The row width the packed rows were captured from.
    row_k: int
    #: Base row offsets into ``packed_ids``/``packed_sims``.
    indptr: np.ndarray
    #: Flat present neighbour ids of the base, row-major, best first.
    packed_ids: np.ndarray
    #: Flat similarities aligned with ``packed_ids``.
    packed_sims: np.ndarray
    #: Sorted ids of the rows the patch replaces (or adds).
    patch_rows: np.ndarray
    #: Offsets of those rows into ``patch_ids``/``patch_sims``.
    patch_indptr: np.ndarray
    #: Flat present neighbour ids of the patched rows.
    patch_ids: np.ndarray
    #: Flat similarities aligned with ``patch_ids``.
    patch_sims: np.ndarray
    #: The dataset view the rows were computed from (CSR + CSC).
    dataset: BipartiteDataset
    #: Per-user profile norms from the covering ProfileIndex.
    norms: np.ndarray
    #: Per-user profile sizes from the covering ProfileIndex.
    sizes: np.ndarray

    @classmethod
    def capture(
        cls,
        version: int,
        neighbors: np.ndarray,
        sims: np.ndarray,
        dataset: BipartiteDataset,
        norms: np.ndarray,
        sizes: np.ndarray,
        *,
        previous: "GraphSnapshot | None" = None,
        changed=(),
    ) -> "GraphSnapshot":
        """Freeze the live index state into a new snapshot.

        Without *previous* every row of *neighbors*/*sims* is packed
        into a new base.  With *previous* (the last snapshot published
        from these rows) and *changed* (every row changed since it),
        only the rows changed since *previous*'s base are packed, as a
        patch over that shared base, unless they exceed
        :data:`MAX_PATCH_SHARE` of the rows.  The dataset and
        profile-index arrays are shared (the writer replaces, never
        mutates, those).
        """
        n_users = int(neighbors.shape[0])
        rows = None
        if previous is not None:
            rows = np.unique(
                np.concatenate(
                    [
                        previous.patch_rows,
                        np.asarray(changed, dtype=np.int64),
                        np.arange(previous.n_users, n_users),
                    ]
                )
            )
            if rows.size > MAX_PATCH_SHARE * n_users:
                rows = None
        if rows is None:
            base = tuple(map(_frozen, pack_rows(neighbors, sims)))
            rows = np.empty(0, dtype=ID_DTYPE)
        else:
            base = previous.indptr, previous.packed_ids, previous.packed_sims
        rows = compact_ids(rows)
        patch = pack_rows(neighbors[rows], sims[rows])
        return cls(
            int(version),
            n_users,
            int(neighbors.shape[1]),
            *base,
            *map(_frozen, (rows, *patch)),
            dataset=dataset,
            norms=_frozen(norms),
            sizes=_frozen(sizes),
        )

    def at_version(self, version: int) -> "GraphSnapshot":
        """This state re-published under a newer covering sequence.

        Used when nothing the snapshot reflects changed since it was
        published: every array is shared with ``self``, so republishing
        costs nothing.
        """
        if int(version) == self.version:
            return self
        return replace(self, version=int(version))

    @property
    def k(self) -> int:
        """Neighbourhood size of the published rows."""
        return self.row_k

    def _row(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, sims)`` of *user*: the patch's row if it has one."""
        rows = self.patch_rows
        at = int(rows.searchsorted(user))
        if at < rows.size and rows[at] == user:
            indptr, ids = self.patch_indptr, self.patch_ids
            sims = self.patch_sims
        else:
            indptr, ids, sims = self.indptr, self.packed_ids, self.packed_sims
            at = user
        lo, hi = indptr[at], indptr[at + 1]
        return ids[lo:hi], sims[lo:hi]

    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(n_users, k)`` rows: the base (rows appended since it
        empty), then the patch written over it."""
        grow = self.n_users + 1 - self.indptr.size
        neighbors, sims = unpack_rows(
            np.pad(self.indptr, (0, grow), mode="edge"),
            self.packed_ids,
            self.packed_sims,
            self.row_k,
        )
        neighbors[self.patch_rows], sims[self.patch_rows] = unpack_rows(
            self.patch_indptr, self.patch_ids, self.patch_sims, self.row_k
        )
        return neighbors, sims

    @property
    def neighbors(self) -> np.ndarray:
        """Dense ``(n_users, k)`` neighbour ids, rebuilt on every access.

        For parity checks and tests; the serving path slices the packed
        arrays via :meth:`neighbors_of` instead.
        """
        return self._dense()[0]

    @property
    def sims(self) -> np.ndarray:
        """Dense ``(n_users, k)`` similarities, rebuilt on every access."""
        return self._dense()[1]

    def neighbors_of(self, user: int) -> np.ndarray:
        """Present neighbour ids of *user*, best first (packed slice)."""
        return self._row(user)[0]

    def sims_of(self, user: int) -> np.ndarray:
        """Similarities aligned with :meth:`neighbors_of`."""
        return self._row(user)[1]

    def row_bytes(self) -> int:
        """Resident bytes of this snapshot's packed rows: its base plus
        its patch.  The base may be shared with other versions, so the
        bytes of several pinned snapshots do not simply add up."""
        return nbytes(
            self.indptr,
            self.packed_ids,
            self.packed_sims,
            self.patch_rows,
            self.patch_indptr,
            self.patch_ids,
            self.patch_sims,
        )

    def graph(self) -> KnnGraph:
        """Materialise a :class:`KnnGraph` copy (parity checks, not
        the serving path — serving reads the packed rows directly)."""
        return KnnGraph(*self._dense())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSnapshot(version={self.version}, "
            f"n_users={self.n_users}, k={self.k}, "
            f"patch_rows={self.patch_rows.size})"
        )
