"""Mean-centred cosine (Pearson-style) similarity — a counter-example.

Collaborative-filtering systems often mean-centre each user's ratings
before computing cosine similarity (the "Pearson" variant of user-based
CF).  Crucially, this metric **violates** the KIFF paper's property (6):
two users who share items can have *negative* similarity (they rated the
shared items on opposite sides of their means).  It still satisfies
property (5) — no shared items means a zero numerator.

It is included deliberately:

* KIFF still *works* with it (candidates still require shared items),
  but the optimality guarantee of Section III-D weakens: a negative-
  similarity candidate can displace nothing, yet zero-similarity
  non-candidates can never be ranked above it either, so the guarantee
  in fact survives for the top-k *positive* band only.  The test suite
  pins this nuance.
* It documents, in code, why the paper states its guarantee in terms of
  properties (5)/(6) instead of "any metric".
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import ProfileIndex, SimilarityMetric

__all__ = ["PearsonSimilarity"]


class PearsonSimilarity(SimilarityMetric):
    """Cosine similarity of mean-centred rating profiles.

    Each user's stored ratings are shifted by that user's mean rating;
    the similarity is the cosine of the centred vectors restricted to
    their stored entries.
    """

    name = "pearson"
    satisfies_overlap_properties = False

    def _centered(self, index: ProfileIndex) -> tuple[sp.csr_matrix, np.ndarray]:
        # The centred matrix lives on the index (like the Adamic-Adar
        # weights) so incremental ProfileIndex.update can patch it.
        return index.centered

    def score_pair(self, index: ProfileIndex, u: int, v: int) -> float:
        # A one-pair kernel call: the centred products are summed in
        # the kernel's order, so the score (the sign of a zero included)
        # is the one score_batch gives the pair.
        pair = np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
        return float(self.score_batch(index, *pair)[0])

    def score_batch(
        self, index: ProfileIndex, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        matrix, norms = self._centered(index)
        return index.kernel.score_pairs(
            self.name,
            matrix.indptr,
            matrix.indices,
            matrix.data,
            norms,
            index.sizes,
            us,
            vs,
        )

    def score_block(self, index: ProfileIndex, us: np.ndarray) -> np.ndarray:
        matrix, norms = self._centered(index)
        dots = (matrix[us] @ matrix.T).toarray()
        denominators = np.outer(norms[us], norms)
        out = np.zeros_like(dots)
        mask = denominators > 0
        out[mask] = dots[mask] / denominators[mask]
        return out
