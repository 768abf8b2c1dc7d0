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
Only the graph rows are captured at publish time, because refresh
mutates them in place — and they are captured **CSR-packed**
(:func:`repro.layout.pack_rows`): an ``indptr`` plus flat int32 id /
float32 similarity arrays holding only the present entries.  Partially
filled rows (fresh cold-start users, tombstones of removed users) cost
nothing at rest, so a pinned old snapshot holds
``8 * present_edges + 4 * (n_users + 1)`` bytes of row state instead
of the dense ``16 * n_users * k``.  Everything else is shared by
reference, which is safe because the write path replaces those
structures wholesale instead of mutating them:
``MutableBipartiteBuilder.snapshot()`` materialises a fresh
:class:`~repro.datasets.bipartite.BipartiteDataset` (deriving only
dirty CSR rows), and ``ProfileIndex.update()`` builds new norm/size
arrays before swapping them in.

Row reads go through :meth:`neighbors_of`/:meth:`sims_of`, which slice
the packed arrays directly — O(row) per query, no dense
materialisation.  The dense ``neighbors``/``sims`` properties rebuild
the classic ``(n_users, k)`` padded arrays on *every* access; they
exist for parity checks and tests, not the serving path.

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
from ..layout import nbytes, pack_rows, unpack_rows

__all__ = ["GraphSnapshot"]


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of *array* (the base buffer is untouched)."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One published version of the serving state.

    All arrays are read-only; ``indptr``/``packed_ids``/``packed_sims``
    are the private CSR-packed capture of the live rows,
    ``dataset``/``norms``/``sizes`` are shared with the index state that
    produced them (see the module docstring for why sharing is safe).
    """

    #: Covering WAL sequence: events ``1..version`` are reflected.
    version: int
    #: ``(n_users + 1,)`` row offsets into the packed arrays.
    indptr: np.ndarray
    #: Flat present neighbour ids, row-major, best first within a row.
    packed_ids: np.ndarray
    #: Flat similarities aligned with ``packed_ids``.
    packed_sims: np.ndarray
    #: The row width the packed rows were captured from.
    row_k: int
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
    ) -> "GraphSnapshot":
        """Freeze the live index state into a new snapshot.

        The graph rows are packed into a private CSR copy (the writer
        keeps mutating the dense rows in place); the dataset and
        profile-index arrays are shared (the writer replaces, never
        mutates, those).
        """
        indptr, ids, packed_sims = pack_rows(neighbors, sims)
        return cls(
            version=int(version),
            indptr=_frozen(indptr),
            packed_ids=_frozen(ids),
            packed_sims=_frozen(packed_sims),
            row_k=int(neighbors.shape[1]),
            dataset=dataset,
            norms=_frozen(norms),
            sizes=_frozen(sizes),
        )

    def at_version(self, version: int) -> "GraphSnapshot":
        """This state re-published under a newer covering sequence.

        Used when a refresh absorbed only no-op events: the arrays are
        shared with ``self``, so republishing costs nothing.
        """
        return replace(self, version=int(version))

    @property
    def n_users(self) -> int:
        """Number of user rows frozen into this snapshot."""
        return int(self.indptr.shape[0]) - 1

    @property
    def k(self) -> int:
        """Neighbourhood size of the published rows."""
        return self.row_k

    @property
    def neighbors(self) -> np.ndarray:
        """Dense ``(n_users, k)`` neighbour ids, rebuilt on every access.

        For parity checks and tests; the serving path slices the packed
        arrays via :meth:`neighbors_of` instead.
        """
        neighbors, _ = unpack_rows(
            self.indptr, self.packed_ids, self.packed_sims, self.row_k
        )
        return neighbors

    @property
    def sims(self) -> np.ndarray:
        """Dense ``(n_users, k)`` similarities, rebuilt on every access."""
        _, sims = unpack_rows(
            self.indptr, self.packed_ids, self.packed_sims, self.row_k
        )
        return sims

    def neighbors_of(self, user: int) -> np.ndarray:
        """Present neighbour ids of *user*, best first (packed slice)."""
        return self.packed_ids[self.indptr[user] : self.indptr[user + 1]]

    def sims_of(self, user: int) -> np.ndarray:
        """Similarities aligned with :meth:`neighbors_of`."""
        return self.packed_sims[self.indptr[user] : self.indptr[user + 1]]

    def row_bytes(self) -> int:
        """Resident bytes of this snapshot's private packed row state."""
        return nbytes(self.indptr, self.packed_ids, self.packed_sims)

    def graph(self) -> KnnGraph:
        """Materialise a :class:`KnnGraph` copy (parity checks, not
        the serving path — serving reads the packed rows directly)."""
        neighbors, sims = unpack_rows(
            self.indptr, self.packed_ids, self.packed_sims, self.row_k
        )
        return KnnGraph(neighbors, sims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSnapshot(version={self.version}, "
            f"n_users={self.n_users}, k={self.k})"
        )
