"""Adamic-Adar coefficient: common items weighted by rarity."""

from __future__ import annotations

import numpy as np

from .base import ProfileIndex, SimilarityMetric, intersect_profiles

__all__ = ["AdamicAdarSimilarity"]


class AdamicAdarSimilarity(SimilarityMetric):
    """``AA(u, v) = sum over common items i of 1 / ln |IP_i|``.

    The third metric the paper lists in Section II-A.  Rare common items
    count more than popular ones.  Items rated by a single user get weight
    zero (they can never be shared, and ``1/ln(1)`` is undefined).
    """

    name = "adamic_adar"
    satisfies_overlap_properties = True
    #: The 1/ln|IP_i| weights depend on global item popularity, not just
    #: the two profiles being compared (see SimilarityMetric.profile_local).
    profile_local = False

    def score_pair(self, index: ProfileIndex, u: int, v: int) -> float:
        common, _, _ = intersect_profiles(index, u, v)
        if common.size == 0:
            return 0.0
        weighted = index.adamic_adar_matrix
        # Weights live in the CSR data of the reweighted matrix; look them
        # up through user u's row, whose indices are the sorted item ids.
        start, end = weighted.indptr[u], weighted.indptr[u + 1]
        row_items = weighted.indices[start:end]
        row_weights = weighted.data[start:end]
        positions = np.searchsorted(row_items, common)
        # Items may be missing from the weighted row (weight-zero items are
        # eliminated); guard the lookup.
        valid = (positions < row_items.size) & (
            row_items[np.minimum(positions, row_items.size - 1)] == common
        )
        return float(row_weights[positions[valid]].sum())

    def score_batch(
        self, index: ProfileIndex, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        # The kernel sums weights[item] over the profile intersection
        # with zero-weight items dropped first, mirroring the
        # eliminate_zeros() of the historical aa_matrix — the value
        # sequence scipy summed, hence the same float64 result bit for
        # bit.
        matrix = index.matrix
        return index.kernel.score_pairs(
            self.name,
            matrix.indptr,
            matrix.indices,
            None,
            None,
            index.sizes,
            us,
            vs,
            item_weights=index.adamic_adar_weights,
        )

    def score_block(self, index: ProfileIndex, us: np.ndarray) -> np.ndarray:
        return (index.adamic_adar_matrix[us] @ index.binary.T).toarray()
