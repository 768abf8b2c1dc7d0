"""Similarity metric interface and profile index.

All metrics in this package are *item-based* similarities over user
profiles, the setting of the KIFF paper.  Each metric can be evaluated
three ways, and all three must agree:

* ``score_pair`` — one (u, v) pair, via sorted-array intersection.  This is
  the faithful per-pair path used by the reference implementations.
* ``score_batch`` — vectorised over parallel arrays of pairs, via sparse
  row slicing.  This is what the fast algorithm implementations use.
* ``score_block`` — a dense ``len(us) x n_users`` block of similarities,
  used by the brute-force exact KNN.

Metrics also declare whether they satisfy the paper's properties (5) and
(6) (zero similarity without shared items; non-negative similarity with
shared items), which is the precondition for KIFF's optimality guarantee
(Section III-D).
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from ..datasets.bipartite import BipartiteDataset
from ..datasets.mutable import splice_compressed
from ..instrumentation.counters import MaintenanceCounter
from .kernels.numpy_backend import NumpyKernelBackend

__all__ = ["ProfileIndex", "SimilarityMetric", "intersect_profiles"]


class ProfileIndex:
    """Precomputed per-user arrays shared by all metrics.

    Holds the rating matrix, its binarised twin, row norms and profile
    sizes, plus lazily computed item weights for Adamic-Adar and the
    mean-centred matrix for Pearson.  Building one index per dataset and
    sharing it across metrics and algorithms keeps the "preprocessing"
    phase honest: profile construction is paid once, exactly as in the
    paper's measurement protocol.

    :meth:`update` rebinds the index to an evolved dataset while
    recomputing only the *dirty* users' state — the streaming subsystem's
    per-refresh path.  Per-user (re)computation work is tallied into
    ``maintenance`` (a shared
    :class:`~repro.instrumentation.counters.MaintenanceCounter`; a
    private one is created when omitted).

    Subclassing contract: custom indexes must keep this constructor
    signature (``dataset``, ``maintenance=None``) so
    :meth:`SimilarityEngine.rebind <repro.similarity.engine.SimilarityEngine.rebind>`
    can rebuild them, and subclasses that precompute extra derived state
    must override :meth:`update` (typically calling ``super().update``)
    to refresh that state — the base implementation only knows about its
    own arrays.
    """

    #: The kernel every metric's ``score_batch`` scores through: one
    #: shared, stateless instance for every index.
    kernel = NumpyKernelBackend()

    def __init__(
        self,
        dataset: BipartiteDataset,
        maintenance: MaintenanceCounter | None = None,
    ):
        self.maintenance = (
            maintenance if maintenance is not None else MaintenanceCounter()
        )
        self._build(dataset)

    def _build(self, dataset: BipartiteDataset) -> None:
        """Cold build: every user's state is (re)computed."""
        self.dataset = dataset
        self.matrix: sp.csr_matrix = dataset.matrix
        binary = dataset.matrix.copy()
        binary.data = np.ones_like(binary.data)
        self.binary: sp.csr_matrix = binary
        self.norms: np.ndarray = np.sqrt(
            np.asarray(self.matrix.multiply(self.matrix).sum(axis=1)).ravel()
        )
        self.sizes: np.ndarray = np.diff(self.matrix.indptr).astype(np.int64)
        self._adamic_adar_matrix: sp.csr_matrix | None = None
        self._adamic_adar_weight_cache: np.ndarray | None = None
        self._item_degrees: np.ndarray | None = None
        self._centered_cache: tuple[sp.csr_matrix, np.ndarray] | None = None
        self.maintenance.index_users_recomputed += dataset.n_users
        self.maintenance.index_builds_full += 1

    @property
    def n_users(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.matrix.shape[1])

    def items_of(self, user: int) -> np.ndarray:
        """Sorted item ids of *user* (zero-copy CSR slice)."""
        start, end = self.matrix.indptr[user], self.matrix.indptr[user + 1]
        return self.matrix.indices[start:end]

    def ratings_of(self, user: int) -> np.ndarray:
        """Ratings aligned with :meth:`items_of`."""
        start, end = self.matrix.indptr[user], self.matrix.indptr[user + 1]
        return self.matrix.data[start:end]

    # ------------------------------------------------------------------
    # Shared-buffer transport (the process-executor wire format)
    # ------------------------------------------------------------------
    def to_shared_arrays(self) -> dict[str, np.ndarray]:
        """The arrays a worker needs to rebuild this index, zero-copy.

        The snapshot CSR triplet (under the same ``dataset_*`` keys as
        :func:`~repro.datasets.mutable.snapshot_to_arrays`) plus the
        per-user norms and profile sizes.  The lazily derived metric
        caches (Adamic-Adar weights, the centred matrix) are *not*
        shipped: workers re-derive them on demand from the shared
        matrix, which is bit-identical to the cold build (and therefore
        to this index's incrementally patched caches — the incremental
        parity suite pins that equality).
        """
        matrix = self.matrix
        arrays = {
            "dataset_indptr": matrix.indptr,
            "dataset_indices": matrix.indices,
            "dataset_shape": np.asarray(matrix.shape, dtype=np.int64),
            "norms": self.norms,
            "sizes": self.sizes,
        }
        if matrix.data.size and not np.all(matrix.data == 1.0):
            arrays["dataset_data"] = matrix.data
        else:
            # Binary datasets (the common case for set metrics): the
            # data array is all ones, so ship a one-byte flag instead of
            # nnz redundant float64s and re-derive it worker-side.
            arrays["dataset_data_all_ones"] = np.ones(1, dtype=np.uint8)
        return arrays

    @classmethod
    def from_shared_arrays(
        cls,
        arrays,
        name: str = "shared",
        maintenance: MaintenanceCounter | None = None,
    ) -> "ProfileIndex":
        """Rebuild an index as views over :meth:`to_shared_arrays` output.

        No per-user state is recomputed (norms and sizes arrive
        precomputed; nothing is tallied into ``maintenance``): the heavy
        arrays stay where they are — typically a shared-memory block —
        and only the cheap wrappers (the dataset facade, the binarised
        matrix sharing the CSR index arrays) are constructed.
        """
        from ..datasets.mutable import dataset_from_canonical_arrays

        derived_ones: np.ndarray | None = None
        if "dataset_data" not in arrays:
            # The parent shipped the all-ones flag instead of the data
            # array (see :meth:`to_shared_arrays`): re-derive it here.
            derived_ones = np.ones(
                int(np.asarray(arrays["dataset_indices"]).size),
                dtype=np.float64,
            )
            arrays = dict(arrays)
            arrays["dataset_data"] = derived_ones
        dataset = dataset_from_canonical_arrays(arrays, name=name)
        index = cls.__new__(cls)
        index.maintenance = (
            maintenance if maintenance is not None else MaintenanceCounter()
        )
        index.dataset = dataset
        matrix = dataset.matrix
        index.matrix = matrix
        index.binary = sp.csr_matrix(
            (
                matrix.data if derived_ones is not None
                else np.ones_like(matrix.data),
                matrix.indices,
                matrix.indptr,
            ),
            shape=matrix.shape,
        )
        index.norms = np.asarray(arrays["norms"])
        index.sizes = np.asarray(arrays["sizes"])
        index._adamic_adar_matrix = None
        index._adamic_adar_weight_cache = None
        index._item_degrees = None
        index._centered_cache = None
        return index

    # ------------------------------------------------------------------
    # Lazily derived metric state
    # ------------------------------------------------------------------
    @property
    def adamic_adar_matrix(self) -> sp.csr_matrix:
        """Binary matrix reweighted by ``1 / ln |IP_i|`` per item column.

        Items with ``|IP_i| < 2`` get weight zero: they cannot be shared by
        two users, so they never contribute to a pairwise score, and
        ``1 / ln(1)`` would be infinite.
        """
        if self._adamic_adar_matrix is None:
            item_degrees = np.asarray(self.binary.sum(axis=0)).ravel()
            weights = _adamic_adar_weights(item_degrees)
            weighted = self.binary.copy().astype(np.float64)
            weighted.data = weights[weighted.indices]
            weighted.eliminate_zeros()
            self._adamic_adar_matrix = weighted
            self._item_degrees = item_degrees.astype(np.int64)
        return self._adamic_adar_matrix

    @property
    def adamic_adar_weights(self) -> np.ndarray:
        """Dense ``1 / ln |IP_i|`` per item (zero below degree two).

        The kernel's substrate for Adamic-Adar: summing
        ``weights[item]`` over the profile intersection — zero-weight
        items dropped first, mirroring the matrix's
        ``eliminate_zeros()`` — reproduces the historical
        ``adamic_adar_matrix . binary`` row product bit for bit.  Kept
        consistent with :attr:`adamic_adar_matrix` (same degree
        bookkeeping, same incremental invalidation).
        """
        if self._adamic_adar_weight_cache is None:
            self.adamic_adar_matrix  # noqa: B018 - primes _item_degrees
            self._adamic_adar_weight_cache = _adamic_adar_weights(
                self._item_degrees
            )
        return self._adamic_adar_weight_cache

    @property
    def centered(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Mean-centred matrix and its row norms (Pearson's substrate).

        Each user's stored ratings are shifted by that user's mean; the
        sparsity pattern is preserved (entries centred to zero stay
        stored) so profile intersections keep working unchanged.
        """
        if self._centered_cache is None:
            matrix = self.matrix.copy()
            sizes = np.maximum(self.sizes, 1)
            means = np.asarray(matrix.sum(axis=1)).ravel() / sizes
            row_of_entry = np.repeat(
                np.arange(self.n_users), np.diff(matrix.indptr)
            )
            matrix.data = matrix.data - means[row_of_entry]
            norms = np.sqrt(
                np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
            )
            self._centered_cache = (matrix, norms)
        return self._centered_cache

    # ------------------------------------------------------------------
    # Incremental rebind
    # ------------------------------------------------------------------
    def update(self, dataset: BipartiteDataset, dirty_users) -> "ProfileIndex":
        """Rebind to *dataset*, recomputing only *dirty_users*' state.

        Contract: the rows of every user **not** in ``dirty_users`` must
        be identical between the current and the new dataset (a superset
        of the truly changed users is always safe).  New users appended
        by the dataset must all be listed dirty.  Norms, profile sizes
        and the lazily built metric caches (Adamic-Adar weights, the
        centred matrix) are patched for the dirty users only; everything
        else is block-copied.

        Global-weight caveat: Adamic-Adar's ``1 / ln |IP_i|`` weights
        shift for *every* rater of an item whose membership changed.
        Callers honouring :attr:`SimilarityMetric.profile_local` already
        put all those raters in the dirty set (the streaming subsystem's
        documented dirty-all-raters semantics), and the patch verifies
        this cheaply — if a reweighted item has a clean rater the cache
        is dropped and lazily rebuilt instead of being patched wrongly.

        Falls back to a full :meth:`_build` (always exact) when the
        contract cannot hold — population shrank, new users are missing
        from the dirty set, the dirty set spans more than half the
        population, or the clean-row nnz bookkeeping does not line up.
        Returns ``self``.
        """
        old_matrix = self.matrix
        n_old = int(old_matrix.shape[0])
        n_new = dataset.n_users
        dirty = np.unique(
            np.fromiter((int(u) for u in dirty_users), dtype=np.int64)
        )
        usable = (
            n_new >= n_old
            and (dirty.size == 0 or (dirty[0] >= 0 and dirty[-1] < n_new))
            and int((dirty >= n_old).sum()) == n_new - n_old
            and 2 * dirty.size <= n_new
        )
        if usable:
            matrix = dataset.matrix
            old_dirty = dirty[dirty < n_old]
            old_dirty_nnz = int(
                (
                    old_matrix.indptr[old_dirty + 1]
                    - old_matrix.indptr[old_dirty]
                ).sum()
            )
            new_dirty_nnz = int(
                (matrix.indptr[dirty + 1] - matrix.indptr[dirty]).sum()
            )
            usable = (
                int(old_matrix.nnz) - old_dirty_nnz + new_dirty_nnz
                == int(matrix.nnz)
            )
        if not usable:
            self._build(dataset)
            return self

        matrix = dataset.matrix
        norms = np.empty(n_new, dtype=np.float64)
        norms[:n_old] = self.norms
        sizes = np.empty(n_new, dtype=np.int64)
        sizes[:n_old] = self.sizes
        if dirty.size:
            # Recompute through the same scipy expression as the cold
            # build (restricted to the dirty rows) so the patched values
            # are bit-identical — the parity oracle compares sims exactly,
            # and a last-ulp drift from a different summation order would
            # surface there.
            sub = matrix[dirty]
            norms[dirty] = np.sqrt(
                np.asarray(sub.multiply(sub).sum(axis=1)).ravel()
            )
            sizes[dirty] = np.diff(sub.indptr)
        self.dataset = dataset
        self.matrix = matrix
        # Content-identical to the cold build's binarised copy; sharing
        # the index arrays is safe because nothing mutates them.
        self.binary = sp.csr_matrix(
            (np.ones_like(matrix.data), matrix.indices, matrix.indptr),
            shape=matrix.shape,
        )
        self.norms = norms
        self.sizes = sizes
        self._patch_adamic_adar(old_matrix, dirty)
        self._patch_centered(dirty)
        self.maintenance.index_users_recomputed += int(dirty.size)
        self.maintenance.index_updates_incremental += 1
        return self

    def _patch_adamic_adar(
        self, old_matrix: sp.csr_matrix, dirty: np.ndarray
    ) -> None:
        """Patch the lazily built Adamic-Adar cache, if it exists."""
        if self._adamic_adar_matrix is None:
            self._adamic_adar_weight_cache = None
            return
        matrix = self.matrix
        n_old = int(old_matrix.shape[0])
        n_items_new = int(matrix.shape[1])
        old_degrees = self._item_degrees
        degrees = np.zeros(n_items_new, dtype=np.int64)
        degrees[: old_degrees.size] = old_degrees
        old_rows = old_matrix[dirty[dirty < n_old]]
        rows = matrix[dirty]
        degrees -= np.bincount(
            old_rows.indices, minlength=n_items_new
        ).astype(np.int64)
        dirty_rater_counts = np.bincount(
            rows.indices, minlength=n_items_new
        ).astype(np.int64)
        degrees += dirty_rater_counts
        old_weights = np.zeros(n_items_new, dtype=np.float64)
        old_weights[: old_degrees.size] = _adamic_adar_weights(old_degrees)
        weights = _adamic_adar_weights(degrees)
        changed = np.flatnonzero(weights != old_weights)
        if np.any(degrees[changed] != dirty_rater_counts[changed]):
            # A reweighted item has a clean rater (profile-local dirtying
            # was in force): the clean rows cannot be patched — drop the
            # cache and let the next Adamic-Adar query rebuild it.
            self._adamic_adar_matrix = None
            self._adamic_adar_weight_cache = None
            self._item_degrees = None
            return
        old_aa = self._adamic_adar_matrix
        row_weights = weights[rows.indices]
        keep = row_weights != 0.0  # mirror eliminate_zeros()
        kept_indptr = np.append(0, np.cumsum(keep))[rows.indptr]
        aa_indptr, aa_indices, aa_data = splice_compressed(
            old_aa.indptr,
            old_aa.indices,
            old_aa.data,
            self.n_users,
            dirty,
            (kept_indptr, rows.indices[keep], row_weights[keep]),
        )
        self._adamic_adar_matrix = sp.csr_matrix(
            (aa_data, aa_indices, aa_indptr),
            shape=(self.n_users, n_items_new),
        )
        self._adamic_adar_weight_cache = weights
        self._item_degrees = degrees

    def _patch_centered(self, dirty: np.ndarray) -> None:
        """Patch the lazily built mean-centred cache, if it exists."""
        if self._centered_cache is None:
            return
        old_centered, old_norms = self._centered_cache
        n_old = int(old_centered.shape[0])
        matrix = self.matrix
        norms = np.empty(self.n_users, dtype=np.float64)
        norms[:n_old] = old_norms
        # Same scipy expressions as the cold path, on the dirty rows only,
        # so the patched cache is bit-identical (see update()).
        sub = matrix[dirty]
        sub_sizes = np.diff(sub.indptr)
        means = np.asarray(sub.sum(axis=1)).ravel() / np.maximum(sub_sizes, 1)
        centered_sub = sub.copy()
        centered_sub.data = sub.data - np.repeat(means, sub_sizes)
        norms[dirty] = np.sqrt(
            np.asarray(centered_sub.multiply(centered_sub).sum(axis=1)).ravel()
        )
        c_indptr, c_indices, c_data = splice_compressed(
            old_centered.indptr,
            old_centered.indices,
            old_centered.data,
            self.n_users,
            dirty,
            (centered_sub.indptr, centered_sub.indices, centered_sub.data),
        )
        self._centered_cache = (
            sp.csr_matrix(
                (c_data, c_indices, c_indptr),
                shape=(self.n_users, self.n_items),
            ),
            norms,
        )


def _adamic_adar_weights(item_degrees: np.ndarray) -> np.ndarray:
    """``1 / ln |IP_i|`` per item, zero for degrees below two."""
    weights = np.zeros(item_degrees.shape[0], dtype=np.float64)
    mask = item_degrees >= 2
    weights[mask] = 1.0 / np.log(item_degrees[mask])
    return weights


def intersect_profiles(
    index: ProfileIndex, u: int, v: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common items of ``u`` and ``v`` with both users' aligned ratings.

    Returns ``(items, ratings_u, ratings_v)``.  Relies on CSR column
    indices being sorted (a :class:`BipartiteDataset` invariant).
    """
    items_u, items_v = index.items_of(u), index.items_of(v)
    common, idx_u, idx_v = np.intersect1d(
        items_u, items_v, assume_unique=True, return_indices=True
    )
    return common, index.ratings_of(u)[idx_u], index.ratings_of(v)[idx_v]


class SimilarityMetric(abc.ABC):
    """Abstract item-based similarity over user profiles."""

    #: Registry key, e.g. ``"cosine"``.
    name: str = "abstract"

    #: True when the metric satisfies the paper's properties (5) and (6):
    #: sim = 0 without shared items, sim >= 0 with shared items.  KIFF's
    #: gamma=infinity optimality (Section III-D) requires this.
    satisfies_overlap_properties: bool = True

    #: True when ``sim(u, v)`` depends only on the two profiles ``UP_u``
    #: and ``UP_v``.  Metrics with global terms (e.g. Adamic-Adar's
    #: ``1 / ln |IP_i|`` item weights) must set this False so streaming
    #: maintenance knows an item-membership change invalidates every
    #: pair sharing that item, not just pairs involving the rater.
    profile_local: bool = True

    @abc.abstractmethod
    def score_pair(self, index: ProfileIndex, u: int, v: int) -> float:
        """Similarity of one user pair."""

    @abc.abstractmethod
    def score_batch(
        self, index: ProfileIndex, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """Similarities of parallel pair arrays (vectorised)."""

    @abc.abstractmethod
    def score_block(self, index: ProfileIndex, us: np.ndarray) -> np.ndarray:
        """Dense ``(len(us), n_users)`` similarity block (for brute force)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
