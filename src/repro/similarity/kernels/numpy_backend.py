"""The similarity kernel: direct CSR pairwise scoring on two paths.

Every pair's raw statistic (a dot product, an intersection count or a
weight sum over the shared items) comes from one of two paths.  Both
return the float64 value the historical
``matrix[us].multiply(matrix[vs]).sum(axis=1)`` evaluation returned,
bit for bit; they differ in how much work a chunk costs.

**Match path** (order-preserving; runs for every metric):

1. *Gather* — each distinct row user's profile is pulled once into flat
   group-tagged arrays, and every pair's column profile into flat
   pair-tagged arrays, with one vectorised fancy index per side.
2. *Match* — row entries are keyed ``group * span + item`` and column
   entries ``group_of_pair * span + item``.  The row keys are strictly
   increasing (group-major, items ascending within a CSR row), so one
   ``searchsorted`` finds every common item of every pair.  Matches
   come out in ``(pair, item)`` order: the order scipy's sparse merge
   produced them in.
3. *Reduce* — matched products (or weights, or a plain count) are
   segment-summed per pair with ``np.add.reduceat``, whose inner loop
   is the same blocked float64 reduction scipy's row-sum runs over a
   CSR row.  The **identical value sequence** therefore gives the
   identical sum.  It is also why the weighted family drops zero-weight
   entries first: the historical Adamic-Adar matrix had them
   ``eliminate_zeros()``-ed away, and blocked summation is not
   invariant to interleaved ``+0.0`` terms.

**Product path** (a sparse product; summation order differs): the
chunk's raw statistics are one SpGEMM, ``rows @ columns.T`` over the
chunk's distinct row and column users, read back per pair with one
``searchsorted`` on ``row * n_columns + column`` keys.  SpGEMM sums a
pair's products in another order than ``reduceat``, so this path only
runs where every float64 step is exact, and then any order yields the
same double:

* *set family* (jaccard, dice, overlap): always.  The product counts
  ones over the structure matrix, and counts are exact integers.
* *dot family* (cosine; pearson when its centred values happen to be
  integral): when every value in the chunk is a nonzero integer and
  ``max|value|**2 * n_items < 2**53``.  Each product and each partial
  sum is then an exact integer.  A zero total is ``+0.0`` on both
  paths: nonzero factors never make a ``-0.0`` product, ``x + (-x)``
  rounds to ``+0.0``, and SpGEMM drops zero sums, which read back as
  ``+0.0``.  (Canonical snapshots store no explicit zeros; pearson's
  centred matrix may, and fails the check.)
* *weighted set* (adamic_adar): never — its weights are not integers.

**Selection** is by work, read off the inputs.  The product's multiply
bound is the sum, over the distinct row users' items, of each item's
rater count (one ``bincount`` of the CSR ``indices``, the item ids).
The match path gathers the distinct row users' entries plus every
pair's column entries.  The product runs when its bound is at most
:data:`_PRODUCT_WORK_RATIO` times that gather, and only for chunks
that gather at least as many entries as the matrix stores: below that,
the bincount alone is a sizeable share of the match path's work, and
the product's fixed costs (building two small CSR matrices, two format
conversions) rarely paid off in measurement.  Refresh chunks (all
co-raters of each row user) pass; on a refresh pass whose metric and
ratings meet the product's exactness rule, though, the rebuilt rows
never reach the kernel — the refresh finalizes their candidate
product's values itself (:func:`~repro.similarity.engine.product_scoring`)
— so only the cross-shard inbox, the repair fallbacks and the passes
outside the rule send chunks here.  KIFF's refinement batches pass
while they are large; once they shrink to a few pairs per row, the
product would compute every co-rating pair among their users for
nothing, so they stay on the match path.

**Finalize** — the metric formula (denominators, zero guards) runs in
float64 on the raw statistic and casts to float32 exactly once: the
score boundary of the compact layout (:mod:`repro.layout`).  A freshly
computed score and one read back from a graph row are then the *same*
float32 value, which keeps incremental maintenance bit-identical to a
cold rebuild through near-tie comparisons.

The raw-CSR signature (rather than a :class:`ProfileIndex` argument)
is what lets process workers score straight off their zero-copy
shared-memory views.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...layout import SCORE_DTYPE, compact_scores
from . import METRIC_FAMILIES

__all__ = [
    "NumpyKernelBackend",
    "check_kernel_backend",
    "exact_integers",
    "finalize",
]

#: The product path runs when its multiply bound is at most this many
#: times the entries the match path would gather.  Measured on the 409
#: kernel calls of the flash-durable and replay-bulk benchmark
#: workloads (seed 101; 2-vCPU x86-64 VM, numpy 2.4, scipy 1.17): the
#: product was faster on all but two near-ties of the chunks with a
#: bound below 2 times the gather, and slower on every chunk above 2.05
#: times it.  2 gave the least summed kernel time on both workloads.
#: Those calls included the rebuilt rows' refresh chunks, which the
#: refresh has since scored off its own candidate product on integer
#: cosine and set-metric passes (both workloads'), so the ratio was
#: tuned on a chunk mix the kernel no longer sees there.
_PRODUCT_WORK_RATIO = 2.0

#: Integers up to this magnitude are exact in float64.
_EXACT_INTEGER_LIMIT = 2.0**53


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


def _groups(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, inverse)``: ``distinct[inverse]`` equals *users*.

    Sorted input (pivot-deduped pairs arrive sorted by row user) needs
    one ``not_equal`` pass; anything else takes ``np.unique``.
    """
    if users.size > 1 and np.any(users[1:] < users[:-1]):
        return np.unique(users, return_inverse=True)
    starts = np.empty(users.size, dtype=bool)
    starts[:1] = True
    np.not_equal(users[1:], users[:-1], out=starts[1:])
    return users[starts], np.cumsum(starts) - 1


def _columns(
    users: np.ndarray, n_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, inverse)`` of unsorted *users*, by a presence mask.

    The column side of a chunk is unsorted and usually longer than the
    user population, so one pass over the users beats a sort of the
    pairs.
    """
    present = np.zeros(n_users, dtype=bool)
    present[users] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present), rank[users]


def _gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None,
    users: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Flat ``(ids, items, values)`` of every user's profile entries.

    ``ids`` tags each entry with the position of its user in *users*;
    items stay ascending within one user, so the flat arrays are sorted
    by ``(id, item)``.
    """
    starts = indptr[users].astype(np.int64, copy=False)
    counts = indptr[users + 1].astype(np.int64, copy=False) - starts
    ids = np.repeat(np.arange(users.size, dtype=np.int64), counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return ids, empty, (np.empty(0) if data is not None else None)
    cum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (cum - counts), counts
    )
    items = indices[pos].astype(np.int64, copy=False)
    values = data[pos] if data is not None else None
    return ids, items, values


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
    vs: np.ndarray,
    group: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Common items of each pair: ``(pair_ids, items, products)``.

    *rows* is the gather of the distinct row users and ``group[p]``
    the position of pair ``p``'s row user among them, so each row
    profile is gathered once however many pairs share it.  Products
    are aligned ``data_u * data_v`` (None when *data* is); all outputs
    are in ``(pair_id, item)`` order — the order scipy's sparse merge
    produced them in.
    """
    row_ids, items_u, values_u = rows
    pair_v, items_v, values_v = _gather(indptr, indices, data, vs)
    if items_u.size == 0 or items_v.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, (np.empty(0) if data is not None else None)
    span = np.int64(max(int(items_u.max()), int(items_v.max())) + 1)
    keys_u = row_ids * span + items_u
    keys_v = group[pair_v] * span + items_v
    # The row keys are strictly increasing (group-major, unique sorted
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


def _match_raw(
    family: str,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None,
    vs: np.ndarray,
    group: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    item_weights: np.ndarray | None,
) -> np.ndarray:
    """Per-pair raw statistics on the order-preserving match path."""
    n_pairs = int(vs.size)
    pair_ids, items, products = _match_pairs(
        indptr, indices, data, vs, group, rows
    )
    if family == "dot":
        return _segment_sum(products, pair_ids, n_pairs)
    if family == "weighted_set":
        weights = item_weights[items]
        # The historical weighted matrix was eliminate_zeros()-ed, so
        # scipy never summed the zero-weight items; drop them here too
        # — blocked summation is sensitive to interleaved +0.0 terms
        # (they shift the accumulator blocks).
        nonzero = np.flatnonzero(weights)
        return _segment_sum(weights[nonzero], pair_ids[nonzero], n_pairs)
    # Set family: the historical path summed 1.0 per common item, which
    # is exact in float64 — a bincount is the same number.
    return np.bincount(pair_ids, minlength=n_pairs).astype(np.float64)


def exact_integers(values: np.ndarray | None, n_items: int) -> bool:
    """Whether every dot-product step over *values* is an exact integer.

    True for ``None`` (the set family's implicit ones).  Otherwise every
    value must be a nonzero integer with ``max|value|**2 * n_items``
    below ``2**53``: no product or partial sum of at most *n_items*
    terms can then leave the exact-integer range of float64.
    """
    if values is None or values.size == 0:
        return True
    peak = float(np.abs(values).max())
    return bool(
        peak * peak * n_items < _EXACT_INTEGER_LIMIT
        and values.all()
        and np.array_equal(values, np.rint(values))
    )


def _csr_rows(
    indptr: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    values: np.ndarray | None,
    n_items: int,
) -> sp.csr_matrix:
    """The rows of *users* (already gathered) as their own CSR matrix."""
    counts = indptr[users + 1] - indptr[users]
    row_ptr = np.zeros(users.size + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    if values is None:
        values = np.ones(items.size)
    return sp.csr_matrix(
        (values, items, row_ptr), shape=(users.size, n_items)
    )


def _product_raw(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None,
    vs: np.ndarray,
    group: np.ndarray,
    distinct_u: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> np.ndarray | None:
    """Per-pair raw statistics from one sparse product, if it pays.

    Returns ``None`` (the caller runs the match path) when the work
    bound favours the match path or a value fails the exactness check.
    *distinct_u* are the distinct row users, whose profiles *rows*
    holds; the other arguments are those of :func:`_match_pairs`.
    """
    _, items_u, values_u = rows
    gathered = items_u.size + int((indptr[vs + 1] - indptr[vs]).sum())
    # The rater bincount below is a pass over the whole matrix: a chunk
    # gathering fewer entries than that goes straight to the match path.
    if items_u.size == 0 or gathered < indices.size:
        return None
    raters = np.bincount(indices)
    n_items = raters.size
    multiplies = int(raters[items_u].sum())
    if multiplies > _PRODUCT_WORK_RATIO * gathered:
        return None
    if not exact_integers(values_u, n_items):
        return None
    distinct_v, group_v = _columns(vs, indptr.size - 1)
    _, items_v, values_v = _gather(indptr, indices, data, distinct_v)
    if not exact_integers(values_v, n_items):
        return None
    left = _csr_rows(indptr, distinct_u, items_u, values_u, n_items)
    right = _csr_rows(indptr, distinct_v, items_v, values_v, n_items)
    # ``(right @ left.T).tocsc()`` is ``left @ right.T`` with each row's
    # columns in ascending order: the CSC conversion is a counting sort,
    # cheaper than sorting the product's unsorted CSR rows.
    # ``sort_indices`` is then a no-op that keeps the order guaranteed.
    product = (right @ left.T).tocsc()
    product.sort_indices()
    raw = np.zeros(vs.size, dtype=np.float64)
    if product.nnz == 0:
        return raw
    n_columns = np.int64(distinct_v.size)
    keys = np.repeat(
        np.arange(distinct_u.size, dtype=np.int64) * n_columns,
        np.diff(product.indptr),
    )
    keys += product.indices
    wanted = group * n_columns + group_v
    positions = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    hit = keys[positions] == wanted
    raw[hit] = product.data[positions[hit]]
    return raw


def finalize(
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

    The one metric formula: :meth:`NumpyKernelBackend.score_pairs`
    ends here, and so does the streaming refresh when it reads a
    rebuilt row's statistics straight off its candidate product
    (:func:`~repro.similarity.engine.score_product`).  ``norms[u] *
    norms[v]`` and ``sizes[u] + sizes[v]`` are exact under swapping
    ``u`` and ``v``, so a pair scores the same bits either way round.
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
    """Vectorised numpy/scipy pairwise scoring, bit-identical to scipy.

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

        ``us`` is the row side: each distinct row user's profile is
        gathered once, and the product path multiplies the distinct row
        users against the distinct column users.  A caller scoring a
        few users against many others passes the few as ``us``.
        """
        family = METRIC_FAMILIES[metric_name]
        n_pairs = int(us.size)
        if n_pairs == 0:
            return np.empty(0, dtype=SCORE_DTYPE)
        if family != "dot":
            data = None
        distinct_u, group = _groups(us)
        rows = _gather(indptr, indices, data, distinct_u)
        raw = None
        if family != "weighted_set":
            raw = _product_raw(
                indptr, indices, data, vs, group, distinct_u, rows
            )
        if raw is None:
            raw = _match_raw(
                family, indptr, indices, data, vs, group, rows, item_weights
            )
        return finalize(metric_name, raw, norms, sizes, us, vs)
