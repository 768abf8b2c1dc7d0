"""Unit tests for the counting phase (Ranked Candidate Sets)."""

import numpy as np
import pytest

from repro.core.rcs import build_rcs, build_rcs_reference
from tests.conftest import random_dataset


def _as_triples(rcs):
    out = []
    for user in range(rcs.n_users):
        cands = rcs.candidates_of(user)
        counts = rcs.counts_of(user)
        out.append((user, cands.tolist(), counts.tolist()))
    return out


class TestToyExample:
    def test_figure2_rcs(self, toy_dataset):
        """Alice and Bob share coffee; Carl and Dave share shopping."""
        rcs = build_rcs(toy_dataset)
        # Pivot: lower id stores the pair.
        assert rcs.candidates_of(0).tolist() == [1]  # Alice -> Bob
        assert rcs.counts_of(0).tolist() == [1]
        assert rcs.candidates_of(1).tolist() == []
        assert rcs.candidates_of(2).tolist() == [3]  # Carl -> Dave
        assert rcs.candidates_of(3).tolist() == []

    def test_counts_are_shared_item_counts(self, rated_dataset):
        rcs = build_rcs(rated_dataset)
        # Users 0 and 3 share items {0, 1, 2}.
        idx = rcs.candidates_of(0).tolist().index(3)
        assert rcs.counts_of(0)[idx] == 3

    def test_ordering_by_count_then_id(self, rated_dataset):
        rcs = build_rcs(rated_dataset)
        for user in range(rcs.n_users):
            counts = rcs.counts_of(user)
            cands = rcs.candidates_of(user)
            for j in range(1, counts.size):
                assert counts[j - 1] >= counts[j]
                if counts[j - 1] == counts[j]:
                    assert cands[j - 1] < cands[j]


class TestPivot:
    def test_pivot_candidates_have_higher_ids(self, tiny_wikipedia):
        rcs = build_rcs(tiny_wikipedia, pivot=True)
        for user in range(0, rcs.n_users, 17):
            cands = rcs.candidates_of(user)
            assert np.all(cands > user)

    def test_symmetric_rcs_doubles_entries(self, tiny_wikipedia):
        pivoted = build_rcs(tiny_wikipedia, pivot=True)
        full = build_rcs(tiny_wikipedia, pivot=False)
        assert full.total_candidates == 2 * pivoted.total_candidates

    def test_symmetric_rcs_excludes_self(self, tiny_wikipedia):
        full = build_rcs(tiny_wikipedia, pivot=False)
        for user in range(0, full.n_users, 23):
            assert user not in full.candidates_of(user)

    def test_symmetric_rcs_is_symmetric(self, rated_dataset):
        full = build_rcs(rated_dataset, pivot=False)
        for u in range(full.n_users):
            for v in full.candidates_of(u):
                assert u in full.candidates_of(int(v))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("pivot", [True, False])
    def test_fast_equals_reference(self, pivot):
        ds = random_dataset(n_users=40, n_items=30, density=0.15, seed=8)
        fast = build_rcs(ds, pivot=pivot)
        reference = build_rcs_reference(ds, pivot=pivot)
        assert _as_triples(fast) == _as_triples(reference)

    def test_fast_equals_reference_with_ratings(self):
        ds = random_dataset(
            n_users=30, n_items=25, density=0.2, seed=9, ratings=True
        )
        fast = build_rcs(ds, min_rating=3.0)
        reference = build_rcs_reference(ds, min_rating=3.0)
        assert _as_triples(fast) == _as_triples(reference)

    def test_fast_equals_reference_on_preset(self, tiny_arxiv):
        fast = build_rcs(tiny_arxiv)
        reference = build_rcs_reference(tiny_arxiv)
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.candidates, reference.candidates)
        assert np.array_equal(fast.counts, reference.counts)


class TestMinRating:
    def test_threshold_shrinks_rcs(self):
        ds = random_dataset(
            n_users=50, n_items=40, density=0.2, seed=10, ratings=True
        )
        base = build_rcs(ds)
        pruned = build_rcs(ds, min_rating=4.0)
        assert pruned.total_candidates < base.total_candidates

    def test_threshold_one_keeps_everything_for_counts(self):
        ds = random_dataset(
            n_users=30, n_items=30, density=0.2, seed=11, ratings=True
        )
        base = build_rcs(ds)
        pruned = build_rcs(ds, min_rating=1.0)
        assert _as_triples(base) == _as_triples(pruned)

    def test_counts_reflect_thresholded_items_only(self):
        from repro.datasets import BipartiteDataset

        ds = BipartiteDataset.from_profiles(
            [{0: 5.0, 1: 1.0}, {0: 5.0, 1: 1.0}], n_items=2
        )
        pruned = build_rcs(ds, min_rating=2.0)
        assert pruned.counts_of(0).tolist() == [1]  # only item 0 counts


class TestStructure:
    def test_stripped_drops_counts(self, tiny_wikipedia):
        rcs = build_rcs(tiny_wikipedia)
        stripped = rcs.stripped()
        assert stripped.counts is None
        with pytest.raises(ValueError, match="stripped"):
            stripped.counts_of(0)
        # Order is preserved.
        assert np.array_equal(stripped.candidates, rcs.candidates)

    def test_strip_flag_at_build_time(self, toy_dataset):
        assert build_rcs(toy_dataset, strip=True).counts is None

    def test_sizes_match_offsets(self, tiny_wikipedia):
        rcs = build_rcs(tiny_wikipedia)
        sizes = rcs.sizes()
        assert sizes.sum() == rcs.total_candidates
        assert sizes.size == rcs.n_users

    def test_avg_size(self, toy_dataset):
        rcs = build_rcs(toy_dataset)
        assert rcs.avg_size == pytest.approx(2 / 4)

    def test_max_scan_rate_formula(self, tiny_wikipedia):
        rcs = build_rcs(tiny_wikipedia)
        expected = 2.0 * rcs.avg_size / (rcs.n_users - 1)
        assert rcs.max_scan_rate() == pytest.approx(expected)

    def test_candidates_have_at_least_one_shared_item(self, tiny_wikipedia):
        """The defining RCS property: every candidate shares >= 1 item."""
        rcs = build_rcs(tiny_wikipedia)
        for user in range(0, rcs.n_users, 29):
            items_u = set(tiny_wikipedia.user_items(user).tolist())
            for v in rcs.candidates_of(user):
                items_v = set(tiny_wikipedia.user_items(int(v)).tolist())
                assert items_u & items_v

    def test_no_sharing_user_pair_absent(self, tiny_wikipedia):
        """Users not in each other's RCS (either direction) share nothing."""
        rcs = build_rcs(tiny_wikipedia, pivot=False)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v = rng.integers(0, tiny_wikipedia.n_users, size=2)
            if u == v:
                continue
            if int(v) not in rcs.candidates_of(int(u)):
                items_u = set(tiny_wikipedia.user_items(int(u)).tolist())
                items_v = set(tiny_wikipedia.user_items(int(v)).tolist())
                assert not (items_u & items_v)


class TestCountCandidates:
    """count_rcs_candidates must agree with build_rcs everywhere — it is
    the streaming workload's exact rebuild-cost accounting."""

    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("min_rating", [None, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_build_rcs(self, pivot, min_rating, seed):
        from repro.core.rcs import count_rcs_candidates

        ds = random_dataset(
            n_users=40, n_items=30, density=0.15, seed=seed, ratings=True
        )
        expected = build_rcs(
            ds, pivot=pivot, min_rating=min_rating
        ).total_candidates
        assert count_rcs_candidates(ds, pivot=pivot, min_rating=min_rating) == expected

    def test_matches_on_preset(self, tiny_wikipedia):
        from repro.core.rcs import count_rcs_candidates

        assert (
            count_rcs_candidates(tiny_wikipedia)
            == build_rcs(tiny_wikipedia).total_candidates
        )


class TestCandidateRows:
    """candidate_rows rows span exactly the full counting phase's rows."""

    @staticmethod
    def assert_rows_match(product, users, full, pivot):
        """Row ``j`` of *product*, self pair (and, with *pivot*, ids
        below ``users[j]``) dropped, holds ``users[j]``'s RCS of *full*
        as a set, with its shared-item counts."""
        for j, user in enumerate(users.tolist()):
            lo, hi = product.indptr[j], product.indptr[j + 1]
            cols = product.indices[lo:hi]
            counts = product.data[lo:hi]
            keep = cols > user if pivot else cols != user
            got = dict(zip(cols[keep].tolist(), counts[keep].tolist()))
            expected = dict(
                zip(
                    full.candidates_of(user).tolist(),
                    full.counts_of(user).tolist(),
                )
            )
            assert got == expected, user

    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("min_rating", [None, 3.0])
    def test_rows_match_build_rcs(self, pivot, min_rating):
        from repro.core.rcs import candidate_rows

        dataset = random_dataset(
            n_users=40, n_items=25, density=0.12, seed=3, ratings=True
        )
        full = build_rcs(dataset, pivot=pivot, min_rating=min_rating)
        users = np.array([0, 7, 13, 39])
        product = candidate_rows(dataset, users, min_rating)
        assert product.shape == (users.size, dataset.n_users)
        self.assert_rows_match(product, users, full, pivot)

    def test_interleaved_datasets_and_thresholds(self):
        """Calls alternating between datasets and thresholds each read
        their own dataset's ratings."""
        from repro.core.rcs import candidate_rows

        datasets = [
            random_dataset(
                n_users=30, n_items=15, density=0.2, seed=seed, ratings=True
            )
            for seed in (1, 2)
        ]
        users = np.array([0, 5, 29])
        for dataset, min_rating in [
            (datasets[0], None),
            (datasets[1], None),
            (datasets[1], 4.0),
            (datasets[0], 4.0),
            (datasets[0], None),
        ]:
            full = build_rcs(dataset, pivot=False, min_rating=min_rating)
            product = candidate_rows(dataset, users, min_rating)
            self.assert_rows_match(product, users, full, pivot=False)

    @pytest.mark.parametrize("min_rating", [None, 4.0])
    def test_shared_raters_give_the_same_rows(self, min_rating):
        """A caller-built transpose, reused across calls, changes
        nothing."""
        from repro.core.rcs import candidacy_raters, candidate_rows

        dataset = random_dataset(
            n_users=30, n_items=15, density=0.2, seed=3, ratings=True
        )
        raters = candidacy_raters(dataset, min_rating)
        for users in ([0, 5, 29], [7], list(range(30))):
            users = np.array(users)
            shared = candidate_rows(dataset, users, min_rating, raters)
            own = candidate_rows(dataset, users, min_rating)
            np.testing.assert_array_equal(shared.indptr, own.indptr)
            np.testing.assert_array_equal(shared.indices, own.indices)
            np.testing.assert_array_equal(shared.data, own.data)

    def test_user_without_ratings_has_no_candidates(self):
        from repro.core.rcs import candidate_rows

        dataset = random_dataset(n_users=20, n_items=12, density=0.2, seed=5)
        matrix = dataset.matrix.tolil()
        matrix[4, :] = 0
        from repro.datasets import BipartiteDataset

        mutated = BipartiteDataset(matrix=matrix.tocsr(), name="mutated")
        product = candidate_rows(mutated, np.array([4, 5]))
        assert product.indptr[1] == 0
        self.assert_rows_match(
            product, np.array([4, 5]), build_rcs(mutated, pivot=False), False
        )

    def test_no_users(self):
        from repro.core.rcs import candidate_rows

        dataset = random_dataset(n_users=10, n_items=8, density=0.2, seed=1)
        product = candidate_rows(dataset, np.empty(0, dtype=np.int64))
        assert product.shape == (0, dataset.n_users)
        assert product.nnz == 0
