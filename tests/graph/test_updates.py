"""Unit tests for the vectorised top-k merge kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heap import KnnHeap
from repro.graph.knn_graph import MISSING, KnnGraph
from repro.graph.updates import (
    merge_topk,
    merge_topk_rows,
    rank_fresh_rows,
)


def _empty(n, k):
    return (
        np.full((n, k), MISSING, dtype=np.int64),
        np.full((n, k), -np.inf, dtype=np.float64),
    )


class TestMergeTopk:
    def test_insert_into_empty(self):
        neighbors, sims = _empty(3, 2)
        new_n, new_s, changes = merge_topk(
            neighbors, sims, np.array([0]), np.array([1]), np.array([0.5])
        )
        assert new_n[0].tolist() == [1, MISSING]
        assert new_s[0, 0] == 0.5
        assert changes == 1

    def test_no_candidates_returns_copy(self):
        neighbors, sims = _empty(3, 2)
        new_n, new_s, changes = merge_topk(
            neighbors, sims, np.array([]), np.array([]), np.array([])
        )
        assert changes == 0
        assert new_n is not neighbors  # a copy, not an alias

    def test_keeps_top_k(self):
        neighbors, sims = _empty(1, 2)
        new_n, _, changes = merge_topk(
            neighbors,
            sims,
            np.array([0, 0, 0]),
            np.array([1, 2, 3]),
            np.array([0.1, 0.9, 0.5]),
        )
        assert new_n[0].tolist() == [2, 3]
        assert changes == 2

    def test_duplicate_candidate_keeps_best_sim(self):
        neighbors, sims = _empty(1, 2)
        new_n, new_s, _ = merge_topk(
            neighbors,
            sims,
            np.array([0, 0]),
            np.array([1, 1]),
            np.array([0.2, 0.7]),
        )
        assert new_n[0, 0] == 1
        assert new_s[0, 0] == np.float32(0.7)

    def test_self_edges_dropped(self):
        neighbors, sims = _empty(2, 2)
        new_n, _, changes = merge_topk(
            neighbors, sims, np.array([0]), np.array([0]), np.array([0.9])
        )
        assert changes == 0
        assert new_n[0, 0] == MISSING

    def test_change_counts_only_new_edges(self):
        neighbors, sims = _empty(1, 2)
        neighbors[0, 0], sims[0, 0] = 1, 0.5
        _, _, changes = merge_topk(
            KnnGraph(neighbors, sims).neighbors,
            KnnGraph(neighbors, sims).sims,
            np.array([0, 0]),
            np.array([1, 2]),
            np.array([0.5, 0.3]),
        )
        assert changes == 1  # only user 2 is new

    def test_eviction_counts_as_one_change(self):
        neighbors = np.array([[1, 2]], dtype=np.int64)
        sims = np.array([[0.5, 0.4]])
        _, _, changes = merge_topk(
            neighbors, sims, np.array([0]), np.array([3]), np.array([0.9])
        )
        assert changes == 1

    def test_ties_resolved_like_heap(self):
        neighbors = np.array([[5]], dtype=np.int64)
        sims = np.array([[0.5]])
        new_n, _, _ = merge_topk(
            neighbors, sims, np.array([0]), np.array([2]), np.array([0.5])
        )
        # Canonical order prefers the lower id on equal similarity.
        assert new_n[0, 0] == 2


class TestRankFreshRows:
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_like_a_merge_into_cleared_rows(self, seed, shuffled):
        """Offers grouped by row, ids ascending or (*shuffled*, as in an
        unsorted product row) in any order within a row, many of them
        tied (signed zeros included), from one offer to hundreds per row
        (every padded width group), rank as ``merge_topk_rows`` ranks
        them into empty rows."""
        rng = np.random.default_rng(seed)
        n, k = 300, 6
        offered = rng.random((n, n)) < rng.random((n, 1)) ** 2
        np.fill_diagonal(offered, False)
        rows, ids = np.nonzero(offered)
        if shuffled:
            order = np.lexsort((rng.random(rows.size), rows))
            rows, ids = rows[order], ids[order]
        sims = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], rows.size)
        sims = sims.astype(np.float32)
        neighbors, scores = _empty(n, k)
        expected = merge_topk_rows(neighbors, scores, rows, ids, sims)
        got = rank_fresh_rows(rows, ids, sims, k)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert got[2].tobytes() == expected[2].tobytes()
        assert got[3] == expected[3]

    def test_no_offers(self):
        active, neighbors, sims, changes = rank_fresh_rows(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float32),
            3,
        )
        assert active.size == changes == 0
        assert neighbors.shape == sims.shape == (0, 3)


class TestHeapEquivalence:
    """merge_topk must produce exactly what per-pair KnnHeap updates do."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_streams_match(self, seed):
        rng = np.random.default_rng(seed)
        n_users, k, n_cands = 12, 4, 150
        cand_users = rng.integers(0, n_users, size=n_cands)
        cand_ids = rng.integers(0, n_users, size=n_cands)
        cand_sims = np.round(rng.random(n_cands), 2)  # force ties

        neighbors, sims = _empty(n_users, k)
        new_n, new_s, _ = merge_topk(
            neighbors, sims, cand_users, cand_ids, cand_sims
        )

        heaps = [KnnHeap(k) for _ in range(n_users)]
        for user, cand, sim in zip(cand_users, cand_ids, cand_sims):
            if user != cand:
                heaps[int(user)].update(int(cand), float(sim))
        for user, heap in enumerate(heaps):
            heap_n, heap_s = heap.to_arrays()
            assert new_n[user].tolist() == heap_n.tolist()
            np.testing.assert_allclose(new_s[user], heap_s)


# Scores drawn from a small float32 set: ties are frequent, and -0.0
# and 0.0 are distinct bit patterns that compare equal.
_SCORES = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def merge_cases(draw):
    """Canonical rows (full, partial or empty) plus a batch of offers."""
    n_users = draw(st.integers(2, 8))
    k = draw(st.integers(1, 4))
    neighbors = np.full((n_users, k), MISSING, dtype=np.int64)
    sims = np.full((n_users, k), -np.inf, dtype=np.float32)
    for user in range(n_users):
        others = [v for v in range(n_users) if v != user]
        size = draw(st.integers(0, min(k, len(others))))
        ids = draw(
            st.lists(
                st.sampled_from(others),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        entries = sorted(
            ((draw(_SCORES), v) for v in ids), key=lambda e: (-e[0], e[1])
        )
        for slot, (score, v) in enumerate(entries):
            neighbors[user, slot] = v
            sims[user, slot] = score
    n_offers = draw(st.integers(0, 40))
    users = draw(
        st.lists(
            st.integers(0, n_users - 1),
            min_size=n_offers,
            max_size=n_offers,
        )
    )
    if draw(st.booleans()):
        ids = list(users)  # an all-self batch
    else:
        ids = draw(
            st.lists(
                st.integers(0, n_users - 1),
                min_size=n_offers,
                max_size=n_offers,
            )
        )
    scores = draw(st.lists(_SCORES, min_size=n_offers, max_size=n_offers))
    return (
        neighbors,
        sims,
        np.array(users, dtype=np.int64),
        np.array(ids, dtype=np.int64),
        np.array(scores, dtype=np.float32),
    )


class TestMergeFromCanonicalRows:
    """merge_topk over existing rows equals heaps seeded with those rows.

    Starting rows are full, partial or empty, so the k-th-entry
    prefilter is exercised: stale entries re-offered at a lower score,
    duplicate offers with different scores, forced ties, -0.0 against
    0.0 and all-self batches.  Scores are compared bit for bit.
    """

    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_seeded_heaps(self, case):
        neighbors, sims, users, ids, scores = case
        n_users, k = neighbors.shape
        new_n, new_s, changes = merge_topk(neighbors, sims, users, ids, scores)
        heaps = [KnnHeap(k) for _ in range(n_users)]
        for user in range(n_users):
            for v, score in zip(neighbors[user], sims[user]):
                if v != MISSING:
                    heaps[user].update(int(v), float(score))
        for user, v, score in zip(users, ids, scores):
            if user != v:
                heaps[int(user)].update(int(v), float(score))
        expected_changes = 0
        for user, heap in enumerate(heaps):
            heap_n, heap_s = heap.to_arrays()
            assert new_n[user].tolist() == heap_n.tolist()
            np.testing.assert_array_equal(
                new_s[user].view(np.uint32),
                heap_s.astype(np.float32).view(np.uint32),
            )
            expected_changes += len(set(heap_n) - set(neighbors[user]))
        assert changes == expected_changes

    @given(merge_cases())
    @settings(max_examples=100, deadline=None)
    def test_rows_variant_returns_only_reranked_rows(self, case):
        neighbors, sims, users, ids, scores = case
        active, sub_n, sub_s, _ = merge_topk_rows(
            neighbors, sims, users, ids, scores
        )
        new_n, new_s, _ = merge_topk(neighbors, sims, users, ids, scores)
        assert np.isin(active, users[users != ids]).all()
        np.testing.assert_array_equal(new_n[active], sub_n)
        untouched = np.setdiff1d(np.arange(neighbors.shape[0]), active)
        np.testing.assert_array_equal(new_n[untouched], neighbors[untouched])

    def test_all_self_batch_is_empty(self):
        neighbors = np.full((3, 2), MISSING, dtype=np.int64)
        sims = np.full((3, 2), -np.inf, dtype=np.float32)
        users = np.array([0, 1, 2, 1])
        active, sub_n, sub_s, changes = merge_topk_rows(
            neighbors, sims, users, users, np.ones(4, dtype=np.float32)
        )
        assert active.size == 0 and changes == 0
        assert sub_n.shape == sub_s.shape == (0, 2)

    def test_signed_zero_ties_keep_the_first_occurrence(self):
        neighbors = np.array([[1, MISSING, MISSING]], dtype=np.int64)
        sims = np.array([[0.0, -np.inf, -np.inf]], dtype=np.float32)
        users = np.zeros(5, dtype=np.int64)
        # 1 is held at 0.0; 2 arrives as -0.0 first; 3 arrives as 0.0
        # first; a 0.25 score beats every zero.
        ids = np.array([1, 2, 2, 3, 3])
        scores = np.array([-0.0, -0.0, 0.0, 0.0, -0.0], dtype=np.float32)
        new_n, new_s, changes = merge_topk(neighbors, sims, users, ids, scores)
        assert new_n[0].tolist() == [1, 2, 3]
        assert np.signbit(new_s[0]).tolist() == [False, True, False]
        assert changes == 2
        new_n, new_s, _ = merge_topk(
            neighbors,
            sims,
            users[:2],
            np.array([2, 2]),
            np.array([-0.0, 0.25], dtype=np.float32),
        )
        assert new_n[0].tolist() == [2, 1, MISSING]
        assert new_s[0, 0] == np.float32(0.25)

    def test_losing_offers_leave_a_full_row_out(self):
        neighbors = np.array([[1, 2], [0, MISSING]], dtype=np.int64)
        sims = np.array([[0.5, 0.5], [0.5, -np.inf]], dtype=np.float32)
        # Row 0 is full; 3 ties its k-th entry (0.5, 2) with a higher id
        # and 1 is a stale entry re-offered lower.  Row 1 has a free
        # slot, so it takes its offer.
        active, _, _, changes = merge_topk_rows(
            neighbors,
            sims,
            np.array([0, 0, 1]),
            np.array([3, 1, 2]),
            np.array([0.5, 0.25, 0.1], dtype=np.float32),
        )
        assert active.tolist() == [1]
        assert changes == 1


class TestReverseNeighborIndex:
    """``referrers_of`` keeps the given rows citing a flagged user: the
    rows an ``np.isin`` scan of every row finds, restricted to them."""

    def _graph(self):
        return np.array(
            [
                [1, 2, MISSING],
                [0, MISSING, MISSING],
                [0, 1, 3],
                [MISSING, MISSING, MISSING],
            ],
            dtype=np.int64,
        )

    @staticmethod
    def _find(neighbors, rows, users):
        from repro.graph.updates import ReverseNeighborIndex

        cited = np.zeros(neighbors.shape[0], dtype=bool)
        cited[users] = True
        return ReverseNeighborIndex.referrers_of(neighbors, rows, cited)

    @staticmethod
    def _scan(neighbors, rows, users):
        rows = np.asarray(rows, dtype=np.int64)
        return rows[np.isin(neighbors[rows], users).any(axis=1)]

    def test_every_row_matches_isin_scan(self):
        neighbors = self._graph()
        everyone = np.arange(4)
        for user in range(4):
            np.testing.assert_array_equal(
                self._find(neighbors, everyone, [user]),
                self._scan(neighbors, everyone, [user]),
            )

    def test_multiple_users_union(self):
        neighbors = self._graph()
        found = self._find(neighbors, np.arange(4), [1, 3])
        np.testing.assert_array_equal(found, [0, 2])

    def test_only_the_given_rows(self):
        neighbors = self._graph()
        np.testing.assert_array_equal(
            self._find(neighbors, [1, 3], [0, 1]), [1]
        )
        assert self._find(neighbors, [], [0]).size == 0
        assert self._find(neighbors, np.arange(4), []).size == 0

    def test_missing_slots_never_match_the_last_user(self):
        """``MISSING`` is ``-1``: used as an index it would read the
        last user's flag.  Row 1 holds ``MISSING`` while user 3 is
        flagged and must not be found."""
        neighbors = self._graph()
        np.testing.assert_array_equal(
            self._find(neighbors, np.arange(4), [3]), [2]
        )

    def test_randomized_equivalence_with_scan(self):
        rng = np.random.default_rng(7)
        n, k = 30, 4
        for _ in range(200):
            neighbors = np.full((n, k), MISSING, dtype=np.int64)
            for row in range(n):
                size = int(rng.integers(0, k + 1))
                neighbors[row, :size] = rng.choice(n, size=size, replace=False)
            rows = np.sort(
                rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            )
            users = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
            if rng.random() < 0.5:
                users = np.append(users, n - 1)  # the last id, see above
            np.testing.assert_array_equal(
                self._find(neighbors, rows, users),
                self._scan(neighbors, rows, users),
            )
