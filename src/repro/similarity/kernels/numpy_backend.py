"""The similarity kernel: direct CSR pairwise scoring.

Replaces the historical ``matrix[us].multiply(matrix[vs]).sum(axis=1)``
evaluation, which built two temporary CSR matrices per chunk (scipy
fancy indexing is a sparse matmat against an extraction matrix) before
merging them.  This kernel works on the raw indptr/indices/data arrays
instead:

1. **Gather** — both sides' profile entries are pulled into flat
   pair-tagged arrays with one vectorised fancy index (no sparse
   intermediates).
2. **Match** — each entry is keyed ``pair_id * span + item``; both key
   arrays are sorted by construction (pair-major, items ascending
   within a profile — a CSR invariant), so one ``searchsorted`` finds
   every common item of every pair.
3. **Reduce** — matched products (or weights, or a plain count) are
   segment-summed per pair with ``np.add.reduceat``, whose inner
   accumulation loop is the same blocked float64 reduction scipy's
   row-sum runs over a CSR row.  Feeding it the **identical value
   sequence** scipy summed therefore reproduces the historical result
   bit for bit (asserted by the parity suite) — which is also why the
   weighted family drops zero-weight entries before reducing: the
   historical Adamic-Adar matrix had them ``eliminate_zeros()``-ed
   away, and blocked summation is not invariant to interleaved
   ``+0.0`` terms.
4. **Finalize** — the metric formula (denominators, zero guards) runs
   in float64 on the raw statistic and casts to float32 exactly once:
   the score boundary of the compact layout (:mod:`repro.layout`).  A
   freshly computed score and one read back from a graph row are then
   the *same* float32 value, which keeps incremental maintenance
   bit-identical to a cold rebuild through near-tie comparisons.

The raw-CSR signature (rather than a :class:`ProfileIndex` argument)
is what lets process workers score straight off their zero-copy
shared-memory views.
"""

from __future__ import annotations

import numpy as np

from ...layout import SCORE_DTYPE, compact_scores
from . import METRIC_FAMILIES

__all__ = ["NumpyKernelBackend", "check_kernel_backend"]


def check_kernel_backend(name: str | None) -> None:
    """Refuse any ``kernel_backend`` selection but the one kernel.

    ``None`` and ``"numpy"`` both mean :class:`NumpyKernelBackend`; the
    field survives only so configs and checkpoints naming it still
    load.  A graph scored by any other kernel could not meet the
    bit-identity invariant, so other names are refused, not ignored.
    """
    if name not in (None, "numpy"):
        raise ValueError(
            f"unknown kernel_backend {name!r}: the only similarity "
            f"kernel is 'numpy' (or None for the same)"
        )


def _gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None,
    users: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Flat ``(pair_ids, items, values)`` of every user's profile entries.

    ``pair_ids`` tags each entry with the position of its user in
    *users* (pair-major order); items stay ascending within one user —
    so the flat arrays are sorted by ``(pair_id, item)``.
    """
    starts = indptr[users].astype(np.int64, copy=False)
    counts = indptr[users + 1].astype(np.int64, copy=False) - starts
    pair_ids = np.repeat(np.arange(users.size, dtype=np.int64), counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return pair_ids, empty, (np.empty(0) if data is not None else None)
    cum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (cum - counts), counts
    )
    items = indices[pos].astype(np.int64, copy=False)
    values = data[pos] if data is not None else None
    return pair_ids, items, values


def _segment_sum(
    values: np.ndarray, pair_ids: np.ndarray, n_pairs: int
) -> np.ndarray:
    """Per-pair sums of *values* (tagged by *pair_ids*, pair-major order).

    ``np.add.reduceat`` runs the ufunc's blocked inner loop over each
    contiguous segment — the same accumulation scipy's CSR row-sum
    applies to a row's entries.  Identical value sequence in, identical
    float64 sum out: the bit-identity contract holds as long as callers
    pass exactly the values the historical scipy path summed.
    """
    out = np.zeros(n_pairs, dtype=np.float64)
    if values.size == 0:
        return out
    counts = np.bincount(pair_ids, minlength=n_pairs)
    nonempty = np.flatnonzero(counts)
    segment_starts = (np.cumsum(counts) - counts)[nonempty]
    out[nonempty] = np.add.reduceat(values, segment_starts)
    return out


def _match_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None,
    us: np.ndarray,
    vs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Common items of each pair: ``(pair_ids, items, products)``.

    Products are aligned ``data_u * data_v`` (None when *data* is);
    all outputs are in ``(pair_id, item)`` order — the order scipy's
    sparse merge produced them in.
    """
    pair_u, items_u, values_u = _gather(indptr, indices, data, us)
    pair_v, items_v, values_v = _gather(indptr, indices, data, vs)
    if items_u.size == 0 or items_v.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, (np.empty(0) if data is not None else None)
    span = np.int64(max(int(items_u.max()), int(items_v.max())) + 1)
    keys_u = pair_u * span + items_u
    keys_v = pair_v * span + items_v
    # Both key arrays are strictly increasing (pair-major, unique sorted
    # items per profile), so one binary search matches every entry.
    positions = np.searchsorted(keys_u, keys_v)
    clipped = np.minimum(positions, keys_u.size - 1)
    hit = keys_u[clipped] == keys_v
    matched_v = np.flatnonzero(hit)
    matched_u = positions[matched_v]
    products = None
    if data is not None:
        products = values_u[matched_u] * values_v[matched_v]
    return pair_v[matched_v], items_v[matched_v], products


def _finalize(
    metric_name: str,
    raw: np.ndarray,
    norms: np.ndarray | None,
    sizes: np.ndarray | None,
    us: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Turn *raw* pair statistics into final float32 similarities.

    ``raw`` is the dot product for the dot family, the float64
    intersection count for the set family, and already the final score
    for the weighted-set family (and for ``overlap``).
    """
    family = METRIC_FAMILIES[metric_name]
    if family == "dot":
        denominators = norms[us] * norms[vs]
        out = np.zeros(raw.shape[0], dtype=np.float64)
        mask = denominators > 0
        out[mask] = raw[mask] / denominators[mask]
        return compact_scores(out)
    if family == "weighted_set" or metric_name == "overlap":
        return compact_scores(raw)
    if metric_name == "jaccard":
        unions = sizes[us] + sizes[vs] - raw
        out = np.zeros(raw.shape[0], dtype=np.float64)
        mask = unions > 0
        out[mask] = raw[mask] / unions[mask]
        return compact_scores(out)
    if metric_name == "dice":
        denominators = sizes[us] + sizes[vs]
        out = np.zeros(raw.shape[0], dtype=np.float64)
        mask = denominators > 0
        out[mask] = 2.0 * raw[mask] / denominators[mask]
        return compact_scores(out)
    raise KeyError(f"no final formula for metric {metric_name!r}")


class NumpyKernelBackend:
    """Vectorised pure-numpy pairwise scoring, bit-identical to scipy.

    Stateless: one shared instance serves every
    :class:`~repro.similarity.base.ProfileIndex`.
    """

    def score_pairs(
        self,
        metric_name: str,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None,
        norms: np.ndarray | None,
        sizes: np.ndarray | None,
        us: np.ndarray,
        vs: np.ndarray,
        item_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Similarities of parallel pair arrays against one CSR matrix.

        ``indptr``/``indices``/``data`` are the matrix of the metric's
        substrate (the rating matrix for cosine, the *centred* matrix
        for pearson; set metrics pass ``data=None``, since the structure
        alone carries the profiles).  ``norms`` are the matching row
        norms (dot family), ``sizes`` the profile sizes (set family),
        ``item_weights`` the dense per-item weight vector (weighted-set
        family).  Returns one float32 score per pair.
        """
        family = METRIC_FAMILIES[metric_name]
        n_pairs = int(us.size)
        if n_pairs == 0:
            return np.empty(0, dtype=SCORE_DTYPE)
        if family == "dot":
            pair_ids, _, products = _match_pairs(indptr, indices, data, us, vs)
            raw = _segment_sum(products, pair_ids, n_pairs)
        elif family == "weighted_set":
            pair_ids, items, _ = _match_pairs(indptr, indices, None, us, vs)
            weights = item_weights[items]
            # The historical weighted matrix was eliminate_zeros()-ed,
            # so scipy never summed the zero-weight items; drop them
            # here too — blocked summation is sensitive to interleaved
            # +0.0 terms (they shift the accumulator blocks).
            nonzero = np.flatnonzero(weights)
            raw = _segment_sum(weights[nonzero], pair_ids[nonzero], n_pairs)
        else:
            # Set family: the historical path summed 1.0 per common
            # item, which is exact in float64 — a bincount is the same
            # number.
            pair_ids, _, _ = _match_pairs(indptr, indices, None, us, vs)
            raw = np.bincount(pair_ids, minlength=n_pairs).astype(np.float64)
        return _finalize(metric_name, raw, norms, sizes, us, vs)
