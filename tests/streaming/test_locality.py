"""Dirty-set locality of refresh(): counters, candidates, referrers.

The parity suite proves refreshes are *exact*; this file proves they are
*local* — snapshot rows, ProfileIndex recomputations and candidate-set
derivations all scale with the dirty set (the derivation is pinned
against :func:`~repro.core.rcs.build_rcs`), the referrers found among
the dirty users' co-raters equal a full-graph scan, and both survive
failures and rebuilds.
"""

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.core.rcs import build_rcs
from repro.streaming import (
    AddRating,
    AddUser,
    RemoveUser,
    cold_rebuild_graph,
    ratings_batch,
    sharding,
)
from tests.conftest import random_dataset, split_checked
from tests.streaming.test_repair import (
    lower_near_users,
    reserve_rows_dataset,
)


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


def record_plans(monkeypatch):
    """Record every ``plan_shard_pairs`` call: ``(shard_id, shard_map,
    rebuilt, rebuilt_mask, dirty_mask, (rows, candidates, scores, outboxes))``."""
    plans = []
    original = sharding.plan_shard_pairs

    def recording(*args):
        result = original(*args)
        plans.append((*args[:5], result))
        return result

    monkeypatch.setattr(sharding, "plan_shard_pairs", recording)
    return plans


def assert_plans_match_oracle(plans, snapshot, min_rating):
    """Each rebuilt row is paired with exactly its candidate set, and
    each dirty row's candidates that are not rebuilt and belong to
    another shard are offered her through that shard's outbox (the
    merge offers her own pairs both ways).  Returns the mirror pairs."""
    assert plans
    truth = build_rcs(snapshot, pivot=False, min_rating=min_rating)
    mirrors, expected_mirrors = set(), set()
    for plan in plans:
        shard_id, shard_map, rebuilt, rebuilt_mask, dirty_mask, result = plan
        rows, cands, _, outboxes = result
        assert np.isin(rows, rebuilt).all()
        for user in rebuilt.tolist():
            expected = set(truth.candidates_of(user).tolist())
            assert set(cands[rows == user].tolist()) == expected
            if dirty_mask[user]:
                expected_mirrors.update(
                    (row, user)
                    for row in expected
                    if not rebuilt_mask[row]
                    and shard_map.owner(row) != shard_id
                )
        for box in outboxes:
            assert box.target != shard_id
            assert (shard_map.owners(box.rows) == box.target).all()
            mirrors.update(zip(box.rows.tolist(), box.candidates.tolist()))
    assert mirrors == expected_mirrors
    return mirrors


class TestCandidateDerivation:
    """Candidate sets come from one sparse product per shard and pass."""

    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("n_shards", [1, 2])
    @pytest.mark.parametrize("min_rating", [None, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_planned_pairs_match_build_rcs(
        self, monkeypatch, seed, min_rating, n_shards, pivot
    ):
        dataset = random_dataset(
            n_users=30, n_items=16, density=0.15, seed=seed, ratings=True
        )
        index = DynamicKnnIndex(
            dataset,
            KiffConfig(k=3, pivot=pivot, min_rating=min_rating),
            auto_refresh=False,
            n_shards=n_shards,
        )
        rng = np.random.default_rng(seed)
        events = [
            AddRating(
                int(rng.integers(0, 30)),
                int(rng.integers(0, 18)),
                float(rng.integers(0, 6)),
            )
            for _ in range(12)
        ]
        events += [
            RemoveUser(int(rng.integers(0, 30))),
            AddUser((0, 1, 2), (5.0, 2.0, 4.0)),
            AddUser((3,), (1.0,)),
        ]
        index.apply(events)
        plans = record_plans(monkeypatch)
        index.refresh()
        snapshot = index.builder.snapshot()
        mirrors = assert_plans_match_oracle(plans, snapshot, min_rating)
        assert bool(mirrors) == (n_shards > 1)
        rebuilt = np.concatenate([plan[2] for plan in plans]).tolist()
        removed = events[-3].user
        assert removed in rebuilt and index.n_users - 1 in rebuilt
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_min_rating_qualifying_threshold_crossing(self, monkeypatch):
        """A rating crossing min_rating flips candidacy without a
        membership change; the planned pairs must follow."""
        dataset = random_dataset(
            n_users=25, n_items=15, density=0.2, seed=8, ratings=True
        )
        index = DynamicKnnIndex(
            dataset,
            KiffConfig(k=4, min_rating=3.0, pivot=False),
            auto_refresh=False,
        )
        index.apply(ratings_batch([0], [2], [5.0]))
        index.refresh()
        # 5.0 -> 1.0 -> 4.0 crossings on an existing edge:
        for rating in (1.0, 4.0):
            plans = record_plans(monkeypatch)
            index.apply(ratings_batch([0], [2], [rating]))
            index.refresh()
            assert_plans_match_oracle(
                plans, index.builder.snapshot(), min_rating=3.0
            )
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config
            )
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "layout", [(1, "serial"), (2, "threads")], ids=["flat", "2-threads"]
    )
    def test_one_transpose_per_shard_and_no_csc(self, monkeypatch, layout):
        """A pass builds the candidacy transpose at most once per shard,
        fallbacks included, and never materialises the CSC mirror.  On
        integer cosine that one transpose is the valued ``Rᵀ``, whose
        product scores the pairs as well."""
        n_shards, executor = layout
        index = DynamicKnnIndex(
            reserve_rows_dataset(),
            KiffConfig(k=2),
            metric="cosine",
            auto_refresh=False,
            n_shards=n_shards,
            executor=executor,
        )
        calls = []
        original = sharding.candidacy_raters

        def counting(dataset, min_rating, valued=False):
            calls.append((dataset, valued))
            return original(dataset, min_rating, valued)

        monkeypatch.setattr(sharding, "candidacy_raters", counting)
        try:
            # The near users keep one item each: row 0 loses more than
            # its reserve and falls back to a rescan of its candidates.
            index.apply(lower_near_users())
            stats = index.refresh()
            assert stats.fallbacks == 1
            assert stats.affected_users > stats.dirty_users
            assert stats.cache_hits == 0
            assert stats.cache_misses == stats.affected_users
            assert 1 <= len(calls) <= n_shards
            assert all(
                dataset is index.dataset and valued
                for dataset, valued in calls
            )
            assert index.dataset._csc_cache == []
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config, metric="cosine"
            )
        finally:
            index.close()


class TestReferrerDiscovery:
    """Stage A finds the rows citing a selected user among the raters of
    the users' items; every split equals a scan of every row."""

    def test_matches_isin_scan_through_a_stream(self):
        index = _index(n_users=30, n_items=18, density=0.15)
        rng = np.random.default_rng(4)
        with split_checked() as checked:
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
        assert checked
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_matches_isin_scan_after_rebuild(self):
        index = _index(n_users=30, n_items=18, density=0.15)
        index.apply(ratings_batch([0, 1], [2, 3], [4.0, 5.0]))
        index.rebuild()
        index.apply(RemoveUser(0))
        with split_checked() as checked:
            index.refresh()
        assert checked
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)

    def test_failed_refresh_is_retryable(self, monkeypatch):
        """A mid-pass evaluation failure leaves cleared rows behind;
        the retry finds what a scan of those rows finds, and is exact."""
        index = _index(n_users=30, n_items=18, density=0.15)
        index.apply(ratings_batch([0], [3], [4.0]))
        def exploding_score(*args):
            raise RuntimeError("metric blew up")

        # Both scorers: the pass may score off its candidate product.
        for scorer in ("_score_pairs", "_score_product"):
            monkeypatch.setattr(index, scorer, exploding_score)
        with pytest.raises(RuntimeError, match="blew up"):
            index.refresh()
        monkeypatch.undo()
        with split_checked() as checked:
            index.refresh()
        assert checked
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)
