"""Canonical compact array layout shared by every storage tier.

The million-user ceiling of this reproduction is memory, not compute:
the ROADMAP's scale item names per-user state (graph rows, candidate
multisets, reverse index, CSR indices) as the actual limit, and the
historical layout spent ``int64`` on every id and ``float64`` on every
at-rest similarity.  This module is the single place the compact
contract is written down; every layer imports its dtypes from here
instead of hard-coding ``np.int64``/``np.float64``:

* **Ids** (users, items, neighbor slots) are :data:`ID_DTYPE`
  (``int32``) at rest.  2^31 - 1 users/items is far above the paper's
  scale and the north star's; arithmetic that builds stride keys
  (``u * n + v``) must still widen to ``int64`` first — NumPy's NEP 50
  promotion keeps ``int32_array * python_int`` at int32, which silently
  overflows — which is what :func:`wide_ids` is for.
* **Similarities** are :data:`SCORE_DTYPE` (``float32``) at rest, with
  **float64 accumulation inside kernels**: every scoring path computes
  the metric formula in :data:`ACCUM_DTYPE` and casts exactly once at
  the score boundary (``repro.similarity.kernels.numpy_backend`` and the
  engine's ``pair``/``batch``/``block``).  Casting at the boundary —
  not at storage — is what preserves bit-parity: a freshly computed
  score and a stored one are always the *same* float32 value, so
  near-tie comparisons in ``merge_topk`` can never disagree between an
  incremental refresh and a cold rebuild.
* **CSR indptr** arrays take :func:`indptr_dtype` — ``int32`` while the
  nnz fits, ``int64`` past 2^31 entries.
* **Rating data stays float64**: it is the accumulation input, and the
  canonical dataset equality/parity contracts are defined on it.

Ragged row packing (:func:`pack_rows`/:func:`unpack_rows`) turns dense
``(n, k)`` neighbor rows padded with ``MISSING`` into CSR-style
``(indptr, ids, values)`` triples holding only the present entries —
the at-rest form used by graph archives, checkpoints and published
serving snapshots, where partially filled rows (cold-start users, small
profiles) would otherwise pay for ``k`` slots each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACCUM_DTYPE",
    "ID_DTYPE",
    "ID_MAX",
    "LEGACY_ID_DTYPE",
    "LEGACY_SCORE_DTYPE",
    "SCORE_DTYPE",
    "compact_csr",
    "compact_ids",
    "compact_scores",
    "dtype_tags",
    "indptr_dtype",
    "legacy_nbytes",
    "nbytes",
    "pack_rows",
    "unpack_rows",
    "wide_ids",
]

#: At-rest dtype for user/item/neighbor ids.
ID_DTYPE = np.dtype(np.int32)
#: At-rest dtype for similarity scores.
SCORE_DTYPE = np.dtype(np.float32)
#: Accumulation dtype inside kernels (cast once at the score boundary).
ACCUM_DTYPE = np.dtype(np.float64)
#: The historical at-rest dtypes (checkpoint version 1, pre-compaction).
LEGACY_ID_DTYPE = np.dtype(np.int64)
LEGACY_SCORE_DTYPE = np.dtype(np.float64)
#: Largest id representable at rest.
ID_MAX = int(np.iinfo(ID_DTYPE).max)


def indptr_dtype(nnz: int) -> np.dtype:
    """The indptr dtype for a CSR block of *nnz* entries.

    ``int32`` while every offset fits (2^31 - 1 entries covers the
    million-user soak with thousands of ratings per user), ``int64``
    beyond.
    """
    return ID_DTYPE if nnz <= ID_MAX else np.dtype(np.int64)


def compact_ids(array: np.ndarray) -> np.ndarray:
    """*array* as at-rest ids (:data:`ID_DTYPE`), copying only if needed."""
    return np.asarray(array).astype(ID_DTYPE, copy=False)


def compact_scores(array: np.ndarray) -> np.ndarray:
    """*array* as at-rest scores (:data:`SCORE_DTYPE`), cast-once boundary."""
    return np.asarray(array).astype(SCORE_DTYPE, copy=False)


def wide_ids(array: np.ndarray) -> np.ndarray:
    """*array* widened to int64 for overflow-safe stride-key arithmetic."""
    return np.asarray(array).astype(np.int64, copy=False)


def compact_csr(matrix):
    """Downcast a scipy CSR/CSC matrix's index arrays in place.

    ``indices`` go to :data:`ID_DTYPE` (every column/row id fits by the
    shape check below) and ``indptr`` to :func:`indptr_dtype` of the
    nnz.  The data array is left untouched — ratings stay float64.
    Returns *matrix* for chaining.
    """
    if max(matrix.shape) - 1 <= ID_MAX:
        matrix.indices = matrix.indices.astype(ID_DTYPE, copy=False)
    matrix.indptr = matrix.indptr.astype(
        indptr_dtype(int(matrix.indptr[-1])), copy=False
    )
    return matrix


# ----------------------------------------------------------------------
# Ragged (CSR-packed) neighbor rows
# ----------------------------------------------------------------------
def pack_rows(
    neighbors: np.ndarray,
    sims: np.ndarray,
    missing: int = -1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack dense ``(n, k)`` rows into ``(indptr, ids, values)``.

    Slots equal to *missing* are dropped; the surviving entries keep
    their within-row order, so ``unpack_rows`` restores the dense rows
    bit-identically (padding included — merge results always left-align
    present entries).
    """
    present = neighbors != missing
    counts = np.count_nonzero(present, axis=1)
    total = int(counts.sum())
    indptr = np.zeros(neighbors.shape[0] + 1, dtype=indptr_dtype(total))
    np.cumsum(counts, out=indptr[1:])
    return (
        indptr,
        compact_ids(neighbors[present]),
        compact_scores(sims[present]),
    )


def unpack_rows(
    indptr: np.ndarray,
    ids: np.ndarray,
    values: np.ndarray,
    k: int,
    missing: int = -1,
    fill_value: float = -np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand packed rows back into dense ``(n, k)`` padded arrays."""
    n = int(indptr.size - 1)
    counts = np.diff(wide_ids(indptr))
    neighbors = np.full((n, k), missing, dtype=ID_DTYPE)
    sims = np.full((n, k), fill_value, dtype=SCORE_DTYPE)
    total = int(counts.sum())
    if total:
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        cols = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        neighbors[rows, cols] = ids
        sims[rows, cols] = values
    return neighbors, sims


# ----------------------------------------------------------------------
# Byte accounting (memory_stats / soak-bench counters)
# ----------------------------------------------------------------------
def nbytes(*arrays) -> int:
    """Total bytes of the given arrays (None entries are free)."""
    return int(
        sum(array.nbytes for array in arrays if array is not None)
    )


def legacy_nbytes(*arrays) -> int:
    """What the same arrays would cost at the historical dtypes.

    Ids and indptr re-priced at int64, scores at float64; float64
    payloads (ratings, norms) are unchanged.  This is the deterministic
    "before" column of the soak bench's bytes-per-user comparison — an
    analytic model, not a measurement, so it is exact and gateable.
    """
    total = 0
    for array in arrays:
        if array is None:
            continue
        if array.dtype == ID_DTYPE or array.dtype == SCORE_DTYPE:
            total += array.size * 8
        else:
            total += array.nbytes
    return int(total)


def dtype_tags() -> dict[str, str]:
    """The layout contract as serializable tags (checkpoint metadata)."""
    return {
        "ids": ID_DTYPE.str,
        "scores": SCORE_DTYPE.str,
        "accumulation": ACCUM_DTYPE.str,
    }
