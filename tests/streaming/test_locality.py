"""Dirty-set locality of refresh(): counters, caches, reverse index.

The parity suite proves refreshes are *exact*; this file proves they are
*local* — snapshot rows, ProfileIndex recomputations and candidate-set
derivations all scale with the dirty set, the reverse-neighbor index
replaces the full-graph referencing scan, and both survive failures and
rebuilds.
"""

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.core.rcs import delta_rcs
from repro.streaming import (
    AddRating,
    RemoveUser,
    cold_rebuild_graph,
    ratings_batch,
)
from tests.conftest import random_dataset


def _index(n_users=120, n_items=80, density=0.05, seed=3, k=5, **kwargs):
    dataset = random_dataset(
        n_users=n_users, n_items=n_items, density=density, seed=seed, ratings=True
    )
    return DynamicKnnIndex(
        dataset, KiffConfig(k=k), auto_refresh=False, **kwargs
    )


class TestRefreshLocality:
    def test_snapshot_and_index_are_incremental(self):
        index = _index()
        index.apply(ratings_batch([7], [3], [4.0]))
        stats = index.refresh()
        assert index.maintenance.snapshots_incremental >= 1
        assert index.maintenance.index_updates_incremental >= 1
        # One dirty user: one row re-materialised, one user recomputed.
        assert stats.rows_materialized == 1
        assert stats.index_users_recomputed == 1

    def test_refresh_cost_tracks_dirty_set_not_population(self):
        """Doubling the population must not change the per-refresh row /
        index work of a single dirty user."""
        small = _index(n_users=60)
        large = _index(n_users=120)
        for index in (small, large):
            index.apply(ratings_batch([7], [3], [4.0]))
        stats_small = small.refresh()
        stats_large = large.refresh()
        assert stats_large.rows_materialized == stats_small.rows_materialized
        assert (
            stats_large.index_users_recomputed
            == stats_small.index_users_recomputed
        )

    def test_stats_expose_locality_fields(self):
        index = _index()
        index.apply(ratings_batch([0, 1], [2, 2], [3.0, 5.0]))
        stats = index.refresh()
        assert stats.rows_materialized == 2
        assert stats.index_users_recomputed == 2
        assert stats.cache_misses >= stats.cache_hits == 0
        assert index.refresh_log[-1] == stats


class TestCandidateCache:
    def test_repeat_dirty_user_hits_cache(self):
        index = _index()
        index.apply(ratings_batch([9], [4], [5.0]))
        first = index.refresh()
        assert first.cache_hits == 0
        assert first.cache_misses == first.affected_users
        index.apply(ratings_batch([9], [6], [2.0]))
        second = index.refresh()
        assert second.cache_hits >= 1  # user 9 and her repeat referencers

    def test_cached_multisets_stay_exact_under_foreign_events(self):
        """Other users' events must delta-update cached candidate sets
        (the reverse item-profile propagation), not leave them stale."""
        index = _index(n_users=40, n_items=20, density=0.15)
        index.apply(ratings_batch([0], [5], [4.0]))
        index.refresh()  # caches user 0's multiset
        # Foreign membership changes on items user 0 rates:
        items = list(index.builder.profile(0))
        index.apply(ratings_batch([1, 2], [items[0], items[0]], [3.0, 0.0]))
        index.apply(RemoveUser(3))
        index.refresh()
        snapshot = index.builder.snapshot()
        cached_users = sorted(index._shards[0].candidate_counts)
        truth = delta_rcs(snapshot, cached_users, pivot=False)
        for user in cached_users:
            expected = dict(
                zip(
                    truth.candidates_of(user).tolist(),
                    (int(c) for c in truth.counts_of(user).tolist()),
                )
            )
            assert index._shards[0].candidate_counts[user] == expected

    def test_cache_size_zero_disables_caching(self):
        index = _index(candidate_cache_size=0)
        index.apply(ratings_batch([9], [4], [5.0]))
        index.refresh()
        assert index._shards[0].candidate_counts == {}
        assert index._shards[0].cached_raters == {}
        index.apply(ratings_batch([9], [6], [2.0]))
        stats = index.refresh()
        assert stats.cache_hits == 0
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_cache_size_bound_is_respected(self):
        index = _index(candidate_cache_size=3)
        index.apply(ratings_batch([1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [5.0] * 5))
        index.refresh()
        assert len(index._shards[0].candidate_counts) <= 3
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_min_rating_qualifying_threshold_crossing(self):
        """A rating crossing min_rating flips candidacy without a
        membership change; cached sets must follow."""
        dataset = random_dataset(
            n_users=25, n_items=15, density=0.2, seed=8, ratings=True
        )
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=4, min_rating=3.0), auto_refresh=False
        )
        index.apply(ratings_batch([0], [2], [5.0]))
        index.refresh()
        # 4.0 -> 1.0 -> 4.0 crossings on an existing edge:
        index.apply(ratings_batch([0], [2], [1.0]))
        index.refresh()
        index.apply(ratings_batch([0], [2], [4.0]))
        index.refresh()
        snapshot = index.builder.snapshot()
        cached_users = sorted(index._shards[0].candidate_counts)
        truth = delta_rcs(snapshot, cached_users, pivot=False, min_rating=3.0)
        for user in cached_users:
            expected = dict(
                zip(
                    truth.candidates_of(user).tolist(),
                    (int(c) for c in truth.counts_of(user).tolist()),
                )
            )
            assert index._shards[0].candidate_counts[user] == expected
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)


class TestReverseIndex:
    def test_matches_isin_scan_after_stream(self):
        index = _index(n_users=30, n_items=18, density=0.15)
        rng = np.random.default_rng(4)
        for _ in range(25):
            index.apply(
                AddRating(
                    int(rng.integers(0, index.n_users)),
                    int(rng.integers(0, 20)),
                    float(rng.integers(0, 6)),
                )
            )
            if rng.random() < 0.4:
                index.refresh()
        index.refresh()
        neighbors, _ = index._rows()
        for user in range(index.n_users):
            scan = np.flatnonzero(np.isin(neighbors, [user]).any(axis=1))
            np.testing.assert_array_equal(
                index._reverse.referrers_of([user]), scan
            )

    def test_rebuild_restores_reverse_index(self):
        index = _index(n_users=30, n_items=18, density=0.15)
        index.apply(ratings_batch([0, 1], [2, 3], [4.0, 5.0]))
        index.rebuild()
        neighbors, _ = index._rows()
        for user in range(index.n_users):
            scan = np.flatnonzero(np.isin(neighbors, [user]).any(axis=1))
            np.testing.assert_array_equal(
                index._reverse.referrers_of([user]), scan
            )

    def test_failed_refresh_leaves_reverse_index_retryable(self, monkeypatch):
        """A mid-pass evaluation failure must leave the reverse index
        mirroring the (cleared) rows so the retry is exact."""
        index = _index(n_users=30, n_items=18, density=0.15)
        index.apply(ratings_batch([0], [3], [4.0]))
        original_score = index._score_pairs

        def exploding_score(us, vs):
            raise RuntimeError("metric blew up")

        monkeypatch.setattr(index, "_score_pairs", exploding_score)
        with pytest.raises(RuntimeError, match="blew up"):
            index.refresh()
        neighbors, _ = index._rows()
        for user in range(index.n_users):
            scan = np.flatnonzero(np.isin(neighbors, [user]).any(axis=1))
            np.testing.assert_array_equal(
                index._reverse.referrers_of([user]), scan
            )
        monkeypatch.setattr(index, "_score_pairs", original_score)
        index.refresh()
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)
