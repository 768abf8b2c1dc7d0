"""KIFF's counting phase: item profiles and Ranked Candidate Sets.

Algorithm 1, lines 1-4: invert the user-item graph into item profiles
``IP_i``, then give each user ``u`` the multiset union of the item profiles
of her items, restricted to ids ``v > u`` (the pivot strategy of
Section II-D).  Each candidate's multiplicity is the number of items it
shares with ``u``; the RCS is then sorted by decreasing multiplicity and
*stripped* of the counts, "since only this order is used in the refinement
phase" (Section III-C).

Two construction paths are provided:

* :func:`build_rcs_reference` — a line-by-line transcription of the
  pseudocode (dict-of-Counter).  O(sum of |IP_i|^2); fine for tests.
* :func:`build_rcs` — the default: the co-occurrence counts for *all*
  users are exactly the sparse matrix product ``B @ B.T`` of the binarised
  rating matrix, whose strict upper triangle is the pivot-filtered
  candidate multiset.  Same output, orders of magnitude faster.

Both honour the paper's future-work heuristic (Section VII): an optional
``min_rating`` threshold that only lets positively-rated items contribute
candidates, shrinking the RCSs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..datasets.bipartite import BipartiteDataset

__all__ = [
    "RankedCandidateSets",
    "build_rcs",
    "build_rcs_reference",
    "candidacy_raters",
    "candidate_rows",
    "count_rcs_candidates",
]


@dataclass(frozen=True)
class RankedCandidateSets:
    """All users' RCSs in one compressed structure.

    ``candidates[offsets[u]:offsets[u+1]]`` are user ``u``'s candidates in
    rank order (decreasing shared-item count, ascending id among ties).
    ``counts`` mirrors ``candidates`` with the shared-item multiplicities
    and is ``None`` once stripped.
    """

    offsets: np.ndarray
    candidates: np.ndarray
    counts: np.ndarray | None = None

    @property
    def n_users(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def total_candidates(self) -> int:
        """Sum of all RCS sizes — KIFF's similarity-evaluation upper bound."""
        return int(self.candidates.size)

    def candidates_of(self, user: int) -> np.ndarray:
        """User *user*'s ranked candidates (zero-copy slice)."""
        return self.candidates[self.offsets[user] : self.offsets[user + 1]]

    def counts_of(self, user: int) -> np.ndarray:
        """Shared-item counts aligned with :meth:`candidates_of`."""
        if self.counts is None:
            raise ValueError("counts were stripped; build with strip=False")
        return self.counts[self.offsets[user] : self.offsets[user + 1]]

    def sizes(self) -> np.ndarray:
        """``|RCS_u|`` for every user."""
        return np.diff(self.offsets)

    @property
    def avg_size(self) -> float:
        """Average RCS size — the "avg |RCS|" column of Table V."""
        if self.n_users == 0:
            return 0.0
        return self.total_candidates / self.n_users

    def max_scan_rate(self) -> float:
        """Scan rate if every RCS were fully iterated (Table V).

        ``max_scan = (|U| * avg|RCS|) / (|U| * (|U| - 1) / 2)
                   = 2 * avg|RCS| / (|U| - 1)``
        """
        if self.n_users < 2:
            return 0.0
        return 2.0 * self.avg_size / (self.n_users - 1)

    def stripped(self) -> "RankedCandidateSets":
        """Drop the multiplicity column (the paper's memory optimisation)."""
        return RankedCandidateSets(
            offsets=self.offsets, candidates=self.candidates, counts=None
        )


def candidacy_raters(
    dataset: BipartiteDataset,
    min_rating: float | None,
    valued: bool = False,
):
    """The binarised ``B.T`` of *dataset* (items x users, CSR).

    The one whole-matrix conversion of :func:`candidate_rows`; a caller
    deriving candidate sets more than once on the same dataset builds
    it once and passes it as ``raters``.  With *valued* (only when
    *min_rating* is None) it is the valued ``Rᵀ`` instead: the same
    structure, the ratings as values.
    """
    if valued:
        if min_rating is not None:
            raise ValueError(
                "a valued candidacy product counts every rated item; "
                f"min_rating={min_rating!r} needs the binarised one"
            )
        return dataset.matrix.T.tocsr()
    return _binarized(dataset, min_rating).T.tocsr()


def candidate_rows(
    dataset: BipartiteDataset,
    users: np.ndarray,
    min_rating: float | None = None,
    raters=None,
    valued: bool = False,
):
    """The candidacy product ``binarise(R[users]) @ B.T`` (CSR).

    Row ``j``'s structure is the candidate set of ``users[j]`` (herself
    included whenever she rates a qualifying item): Algorithm 1, lines
    3-4, for those users only, touching only the item profiles of their
    items.  Its values are the shared-item counts, or with *valued*
    (only when *min_rating* is None) the dot products of ``R[users] @
    Rᵀ``, whose structure is the same as long as no dot product sums
    to zero (positive ratings).  *raters* is an optional
    :func:`candidacy_raters` of this *dataset*, *min_rating* and
    *valued*, built here when omitted.  SpGEMM leaves each row's
    columns in no particular order.
    """
    if raters is None:
        raters = candidacy_raters(dataset, min_rating, valued)
    rows = dataset.matrix[users]
    if valued:
        return rows @ raters
    return _binarize(rows, min_rating) @ raters


def _binarize(matrix, min_rating: float | None):
    """*matrix* (a private copy) as 0/1 candidacy entries, in place."""
    if min_rating is None:
        matrix.data = np.ones_like(matrix.data)
    else:
        matrix.data = np.where(matrix.data >= min_rating, 1.0, 0.0)
        matrix.eliminate_zeros()
    return matrix


def _binarized(dataset: BipartiteDataset, min_rating: float | None):
    """The 0/1 candidacy matrix: entries rated ``>= min_rating`` (all,
    when None).  Shared by :func:`build_rcs` and
    :func:`count_rcs_candidates` so their thresholding cannot diverge."""
    return _binarize(dataset.matrix.copy(), min_rating)


def build_rcs(
    dataset: BipartiteDataset,
    pivot: bool = True,
    min_rating: float | None = None,
    strip: bool = False,
) -> RankedCandidateSets:
    """Counting phase via sparse co-occurrence product (default path).

    Parameters
    ----------
    pivot:
        Keep only candidates ``v > u`` (Section II-D).  Disable to get the
        full symmetric candidate sets (costs ~2x memory, used by the
        pivot-strategy ablation).
    min_rating:
        The paper's future-work pruning heuristic: only items rated
        ``>= min_rating`` by *both* users generate candidacies.
    strip:
        Drop the multiplicity column after sorting, as the paper's
        implementation does.  Kept by default because the analysis
        experiments (Figure 7) need the counts.
    """
    binary = _binarized(dataset, min_rating)

    # Co-occurrence: cooc[u, v] = number of items shared by u and v.
    cooc = (binary @ binary.T).tocoo()
    if pivot:
        mask = cooc.row < cooc.col
    else:
        mask = cooc.row != cooc.col
    rows = cooc.row[mask].astype(np.int64)
    cols = cooc.col[mask].astype(np.int64)
    counts = cooc.data[mask]
    return _pack(rows, cols, counts, dataset.n_users, strip)


def count_rcs_candidates(
    dataset: BipartiteDataset,
    pivot: bool = True,
    min_rating: float | None = None,
) -> int:
    """``build_rcs(...).total_candidates`` without materialising the RCSs.

    The total is the number of co-rating ordered (or, with the pivot,
    unordered) user pairs — exactly the evaluation count of a converged
    KIFF run.  Counting only needs the co-occurrence sparsity pattern, so
    the sort/pack of :func:`build_rcs` is skipped; cost accounting that
    runs per stream batch (``repro.streaming.workload``) uses this.
    """
    binary = _binarized(dataset, min_rating)
    cooc = (binary @ binary.T).tocsr()
    diagonal_entries = int(np.count_nonzero(cooc.diagonal()))
    off_diagonal = int(cooc.nnz) - diagonal_entries
    # cooc is symmetric: the strict upper triangle holds half the
    # off-diagonal entries.
    return off_diagonal // 2 if pivot else off_diagonal


def build_rcs_reference(
    dataset: BipartiteDataset,
    pivot: bool = True,
    min_rating: float | None = None,
    strip: bool = False,
) -> RankedCandidateSets:
    """Counting phase exactly as written in Algorithm 1 (lines 1-4).

    Builds item profiles ``IP_i`` while scanning user profiles, then takes
    per-user multiset unions with the ``v > u`` pivot constraint.  Pure
    Python; used to validate :func:`build_rcs` and in the ablation bench.
    """
    # Lines 1-2: item profiles, built "at loading time".
    item_profiles: list[list[int]] = [[] for _ in range(dataset.n_items)]
    for user, items, ratings in dataset.iter_user_profiles():
        for item, rating in zip(items, ratings):
            if min_rating is not None and rating < min_rating:
                continue
            item_profiles[item].append(user)

    # Lines 3-4: multiset union over the user's items.
    rows: list[int] = []
    cols: list[int] = []
    counts: list[int] = []
    for user, items, ratings in dataset.iter_user_profiles():
        multiset: Counter = Counter()
        for item, rating in zip(items, ratings):
            if min_rating is not None and rating < min_rating:
                continue
            for other in item_profiles[item]:
                if pivot:
                    if other > user:
                        multiset[other] += 1
                elif other != user:
                    multiset[other] += 1
        for other, count in multiset.items():
            rows.append(user)
            cols.append(other)
            counts.append(count)
    return _pack(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(counts, dtype=np.float64),
        dataset.n_users,
        strip,
    )


def _pack(
    rows: np.ndarray,
    cols: np.ndarray,
    counts: np.ndarray,
    n_users: int,
    strip: bool,
) -> RankedCandidateSets:
    """Sort candidate triples into the compressed RCS layout.

    Order within a user: decreasing shared-item count, then ascending
    candidate id (a deterministic tie-break the paper leaves unspecified).
    """
    order = np.lexsort((cols, -counts, rows))
    rows, cols, counts = rows[order], cols[order], counts[order]
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    if rows.size:
        np.cumsum(np.bincount(rows, minlength=n_users), out=offsets[1:])
    rcs = RankedCandidateSets(
        offsets=offsets,
        candidates=cols.astype(np.int64),
        counts=counts.astype(np.int64),
    )
    return rcs.stripped() if strip else rcs
