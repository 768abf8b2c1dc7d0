"""Differential parity: streaming maintenance vs cold KIFF rebuilds.

The contract of :class:`DynamicKnnIndex` is exactness: after any
interleaving of insert/remove events (and a refresh), its graph must be
*identical* — neighbour ids and similarities — to a cold converged
``kiff()`` rebuild on the final dataset.  The randomized suite below
drives 78 event streams (13 seeds x 3 metrics x both pivot settings)
plus 24 denser streams whose bursts exhaust a row's reserve; the
focused tests pin each event kind and policy knob.
"""

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.streaming import (
    AddRating,
    AddUser,
    RemoveUser,
    cold_rebuild_graph,
    ratings_batch,
)
from tests.conftest import exhaust_reserve_events, random_dataset


def cold_rebuild(index, metric="cosine"):
    """The converged KIFF graph on the index's current dataset."""
    return cold_rebuild_graph(index.dataset, index.config, metric=metric)


def drive_random_stream(index, seed, n_events=30, max_item=20, ratings=None):
    """A random interleaving of rating/user events with random refreshes.

    *ratings*, when given, draws the rating values: ``ratings(rng, n)``
    returns *n* floats.  The default draws 0-5 stars for a rating event
    (0 deletes the edge) and 1-5 stars for a joining user's profile.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_events):
        op = rng.integers(0, 10)
        n = index.n_users
        if op < 6:  # rating lands (insert or overwrite; 0 deletes)
            user = int(rng.integers(0, n))
            item = int(rng.integers(0, max_item))
            value = (
                rng.integers(0, 6) if ratings is None else ratings(rng, 1)[0]
            )
            event = AddRating(user, item, float(value))
        elif op < 8:  # a user joins
            size = int(rng.integers(0, 4))
            items = rng.choice(max_item, size=size, replace=False)
            values = (
                rng.integers(1, 6, size=size).astype(float)
                if ratings is None
                else ratings(rng, size)
            )
            event = AddUser(tuple(items.tolist()), tuple(values.tolist()))
        else:  # a user leaves
            event = RemoveUser(int(rng.integers(0, n)))
        index.apply(event)
        if rng.random() < 0.3:
            index.refresh()
    index.refresh()


def corpus_stream(metric, pivot, seed, **layout):
    """One stream of the 78-stream corpus, driven to its end.

    *layout* (``n_shards``, ``executor``) defaults to the flat index.
    """
    dataset = random_dataset(
        n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
    )
    index = DynamicKnnIndex(
        dataset,
        KiffConfig(k=4, pivot=pivot),
        metric=metric,
        auto_refresh=False,
        **layout,
    )
    drive_random_stream(index, seed)
    return index


def burst_stream(metric, pivot, seed, **layout):
    """A denser stream whose bursts exhaust one row's reserve each.

    The corpus rows above hold every candidate within ``k + RESERVE``
    columns, so their repairs never fall back; here each of three
    rounds of random events ends with one batch lowering more than
    ``RESERVE`` entries of a random row's exact prefix.
    """
    dataset = random_dataset(
        n_users=24, n_items=12, density=0.3, seed=seed, ratings=True
    )
    index = DynamicKnnIndex(
        dataset,
        KiffConfig(k=3, pivot=pivot),
        metric=metric,
        auto_refresh=False,
        **layout,
    )
    rng = np.random.default_rng(seed)
    for burst in range(3):
        drive_random_stream(index, 10 * seed + burst, n_events=6, max_item=12)
        row = int(rng.integers(0, index.n_users))
        index.apply(exhaust_reserve_events(index, row))
        index.refresh()
    return index


#: The corpus metrics: two profile-local ones, and ``adamic_adar``,
#: whose global item weights dirty every rater of a reweighted item.
CORPUS_METRICS = ["cosine", "jaccard", "adamic_adar"]


class TestRandomizedStreams:
    """78 randomized event streams x exact equality (acceptance bar: 50)."""

    @pytest.mark.parametrize("seed", range(13))
    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("metric", CORPUS_METRICS)
    def test_stream_equals_cold_rebuild(self, metric, pivot, seed):
        index = corpus_stream(metric, pivot, seed)
        assert index.graph == cold_rebuild(index, metric)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("metric", CORPUS_METRICS)
    def test_burst_stream_equals_cold_rebuild(self, metric, pivot, seed):
        index = burst_stream(metric, pivot, seed)
        assert index.graph == cold_rebuild(index, metric)

    def test_corpus_exercises_repair_and_fallback(self):
        """Both referrer paths must stay live across the streams: rows
        repaired in place, and rows whose repair failed its check and
        were rebuilt (every rebuilt row beyond the dirty users, since
        no stream defers).  Every metric repairs rows in place; the
        bursts exhaust reserves, so rows fall back there."""
        logs = {
            metric: [
                stats
                for pivot in (True, False)
                for seed in range(13)
                for stats in corpus_stream(metric, pivot, seed).refresh_log
            ]
            for metric in CORPUS_METRICS
        }
        bursts = [
            stats
            for metric in CORPUS_METRICS
            for pivot in (True, False)
            for seed in range(4)
            for stats in burst_stream(metric, pivot, seed).refresh_log
        ]
        for metric, log in logs.items():
            assert sum(stats.repaired_users for stats in log) > 0, metric
        every = [stats for log in logs.values() for stats in log] + bursts
        assert all(
            s.fallbacks == s.affected_users - s.dirty_users for s in every
        )
        assert sum(s.fallbacks for s in bursts) > 0


class TestEventKinds:
    def test_add_rating_parity(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        index.apply(ratings_batch([2], [0], [1.0]))  # Carl rates the book
        assert index.graph == cold_rebuild(index)
        # Carl now shares the book with Alice.
        assert 0 in index.graph.neighbors_of(2).tolist()

    def test_overwrite_and_delete_rating_parity(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=3))
        index.apply(ratings_batch([0], [0], [2.0]))  # overwrite
        assert index.graph == cold_rebuild(index)
        index.apply(ratings_batch([0], [0], [0.0]))  # delete the edge
        assert index.graph == cold_rebuild(index)
        assert index.dataset.user_items(0).tolist() == [1, 2]

    def test_add_user_parity_and_growth(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        newcomer = index.apply(AddUser([3], [1.0])).new_users[0]  # shares 'shopping' with 2, 3
        assert newcomer == 4
        assert index.n_users == 5
        assert index.graph.n_users == 5
        assert index.graph == cold_rebuild(index)
        assert set(index.graph.neighbors_of(newcomer).tolist()) == {2, 3}

    def test_burst_of_joins_between_refreshes(self, toy_dataset):
        """Many joins in deferred mode (exercises geometric row growth)."""
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3), auto_refresh=False)
        for i in range(12):
            index.apply(AddUser([i % 4], [1.0]))
        index.refresh()
        assert index.n_users == 16
        assert index.graph.n_users == 16
        assert index.graph == cold_rebuild(index)

    def test_rejected_batch_applies_nothing(self, toy_dataset):
        """apply() validates the whole batch first: a bad event must
        not leave earlier events applied but unrefreshed."""
        from repro.datasets import DatasetError

        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        before = index.dataset
        for bad_batch in (
            ([0, 99], [1, 1], [3.0, 3.0]),  # out-of-range user
            ([0, 1], [1, -2], [3.0, 3.0]),  # negative item
            ([0, 1], [1, 1], [3.0, float("nan")]),  # non-finite rating
        ):
            with pytest.raises(DatasetError):
                index.apply(ratings_batch(*bad_batch))
            assert index.pending_events == 0
            assert index.dirty_users == frozenset()
        assert index.dataset == before
        assert index.graph == cold_rebuild(index)

    def test_rejected_add_user_keeps_index_consistent(self, toy_dataset):
        """A rejected profile must not desynchronize builder and graph."""
        from repro.datasets import DatasetError

        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        with pytest.raises(DatasetError):
            index.apply(AddUser([0, 1], [1.0]))
        assert index.n_users == 4
        newcomer = index.apply(AddUser([0], [1.0])).new_users[0]
        assert newcomer == 4
        assert index.graph == cold_rebuild(index)

    def test_add_user_with_new_items_grows_item_space(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        index.apply(AddUser([99], [1.0]))
        assert index.dataset.n_items == 100
        assert index.graph == cold_rebuild(index)

    def test_remove_user_parity(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        index.apply(RemoveUser(3))  # Dave leaves; Carl loses his only neighbour
        assert index.graph == cold_rebuild(index)
        assert index.graph.neighbors_of(2).size == 0
        assert index.graph.degree()[3] == 0

    def test_remove_then_rejoin_parity(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        index.apply(RemoveUser(1))
        index.apply(ratings_batch([1], [1], [1.0]))  # Bob re-rates coffee
        assert index.graph == cold_rebuild(index)
        assert 0 in index.graph.neighbors_of(1).tolist()


class TestPolicyKnobs:
    @pytest.mark.parametrize(
        "layout",
        [(1, "serial"), (2, "threads"), (2, "processes")],
        ids=["flat", "2-threads", "2-processes"],
    )
    @pytest.mark.parametrize("min_rating", [None, 3.0])
    def test_min_rating_parity(self, min_rating, layout):
        n_shards, executor = layout
        dataset = random_dataset(
            n_users=25, n_items=18, density=0.2, seed=5, ratings=True
        )
        index = DynamicKnnIndex(
            dataset,
            KiffConfig(k=4, min_rating=min_rating),
            n_shards=n_shards,
            executor=executor,
        )
        try:
            rng = np.random.default_rng(0)
            for _ in range(15):
                index.apply(
                    AddRating(
                        int(rng.integers(0, index.n_users)),
                        int(rng.integers(0, 20)),
                        float(rng.integers(1, 6)),
                    )
                )
                assert index.graph == cold_rebuild(index)
        finally:
            index.close()

    def test_auto_refresh_keeps_graph_exact_each_event(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        for user, item, rating in [(0, 3, 4.0), (4, 0, 2.0), (1, 4, 5.0)]:
            index.apply(ratings_batch([user], [item], [rating]))
            assert index.pending_events == 0
            assert index.graph == cold_rebuild(index)

    def test_deferred_refresh_restores_parity(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), auto_refresh=False)
        index.apply(ratings_batch([0, 4], [3, 0], [4.0, 2.0]))
        assert index.pending_events == 2
        assert index.dirty_users == frozenset({0, 4})
        index.refresh()
        assert index.pending_events == 0
        assert index.graph == cold_rebuild(index)

    def test_rebuild_recovers_from_any_state(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), auto_refresh=False)
        index.apply(ratings_batch([0, 1, 2], [4, 4, 4], [1.0, 2.0, 3.0]))
        result = index.rebuild()
        assert index.pending_events == 0
        assert result.graph.k == result.extras["k"] == 2  # never the reserve
        assert index.graph == result.graph
        assert index.graph == cold_rebuild(index)

    @pytest.mark.parametrize("metric", ["cosine", "jaccard", "overlap"])
    def test_metric_plumbing(self, metric, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), metric=metric)
        index.apply(ratings_batch([2], [0], [3.0]))
        assert index.graph == cold_rebuild(index, metric)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_profile_local_metric_parity(self, seed):
        """Adamic-Adar weights shift with global item popularity: a
        membership change must dirty every rater of the item, or clean
        pairs sharing it would keep stale sims."""
        dataset = random_dataset(
            n_users=20, n_items=14, density=0.15, seed=seed, ratings=True
        )
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=4), metric="adamic_adar", auto_refresh=False
        )
        drive_random_stream(index, seed, n_events=20)
        assert index.graph == cold_rebuild(index, "adamic_adar")

    def test_deferred_build_first_refresh_constructs_graph(self, rated_dataset):
        """build=False starts empty; the first refresh() must produce the
        full converged graph, not just rows touched by events."""
        index = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False, build=False
        )
        assert index.graph.edge_count() == 0
        index.apply(ratings_batch([0], [3], [4.0]))
        index.refresh()
        assert index.graph == cold_rebuild(index)

    def test_deferred_build_refresh_without_events(self, rated_dataset):
        index = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False, build=False
        )
        index.refresh()
        assert index.graph == cold_rebuild(index)


class TestRefreshRobustness:
    def test_failed_refresh_is_retryable(self, rated_dataset, monkeypatch):
        """A mid-pass evaluation failure must not strand cleared rows:
        the next refresh rebuilds every row the failed pass touched."""
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), auto_refresh=False)
        index.apply(ratings_batch([0], [3], [4.0]))
        def exploding_score(*args):
            raise RuntimeError("metric blew up")

        # Both scorers: the pass may score off its candidate product.
        for scorer in ("_score_pairs", "_score_product"):
            monkeypatch.setattr(index, scorer, exploding_score)
        with pytest.raises(RuntimeError, match="blew up"):
            index.refresh()
        monkeypatch.undo()
        index.refresh()
        assert index.graph == cold_rebuild(index)

    def test_refresh_preserves_row_capacity(self, toy_dataset):
        """merge results are written back through views, so the slack
        from geometric growth survives refreshes between joins."""
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3), auto_refresh=False)
        index.apply(AddUser([0], [1.0]))  # grows capacity to 2 * 4 = 8 rows
        index.refresh()
        assert index._neighbors.shape[0] == 8
        assert index.n_users == 5
        index.apply(AddUser([1], [1.0]))  # fits in slack: no reallocation
        index.refresh()
        assert index._neighbors.shape[0] == index._depth.shape[0] == 8
        assert index.graph == cold_rebuild(index)


class TestRefreshAccounting:
    def test_refresh_stats_recorded(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), auto_refresh=False)
        index.apply(ratings_batch([0], [3], [4.0]))
        stats = index.refresh()
        assert stats.events == 1
        assert stats.dirty_users == 1
        assert stats.affected_users >= stats.dirty_users
        assert stats.evaluations > 0
        assert index.refresh_log[-1] == stats

    def test_duplicate_events_are_free(self, rated_dataset):
        """At-least-once delivery: redelivering an identical rating (or a
        delete of an absent edge) must not dirty anyone or spend evals."""
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        before = index.engine.counter.evaluations
        index.apply(ratings_batch([0], [0], [5.0]))  # identical to the stored rating
        index.apply(ratings_batch([0], [4], [0.0]))  # delete of an absent edge
        assert index.engine.counter.evaluations == before
        assert index.graph == cold_rebuild(index)

    def test_refresh_without_events_is_free(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        before = index.engine.counter.evaluations
        stats = index.refresh()
        assert stats.evaluations == 0
        assert index.engine.counter.evaluations == before

    def test_localized_refresh_cheaper_than_rebuild(self):
        dataset = random_dataset(
            n_users=80, n_items=60, density=0.05, seed=9, ratings=True
        )
        index = DynamicKnnIndex(dataset, KiffConfig(k=5), auto_refresh=False)
        index.apply(ratings_batch([0], [0], [5.0]))
        stats = index.refresh()
        assert 0 < stats.evaluations < index.initial_evaluations

    def test_maintenance_evaluations_accumulate(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        assert index.maintenance_evaluations == 0
        index.apply(ratings_batch([0], [3], [4.0]))
        assert index.maintenance_evaluations > 0
