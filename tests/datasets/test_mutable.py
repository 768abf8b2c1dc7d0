"""Unit tests for the append-friendly dataset builder."""

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.datasets import BipartiteDataset, DatasetError, MutableBipartiteBuilder
from repro.streaming import AddRating
from tests.conftest import random_dataset


@pytest.fixture
def builder(rated_dataset) -> MutableBipartiteBuilder:
    return MutableBipartiteBuilder.from_dataset(rated_dataset)


class TestRoundTrip:
    def test_from_dataset_snapshot_is_identical(self, rated_dataset, builder):
        assert builder.snapshot() == rated_dataset
        assert builder.n_users == rated_dataset.n_users
        assert builder.n_items == rated_dataset.n_items
        assert builder.n_ratings == rated_dataset.n_ratings

    def test_snapshot_cached_until_mutation(self, builder):
        first = builder.snapshot()
        assert builder.snapshot() is first
        builder.set_rating(0, 3, 2.0)
        assert builder.snapshot() is not first

    def test_named_snapshot_does_not_pollute_cache(self, builder):
        named = builder.snapshot(name="probe")
        assert named.name == "probe"
        assert builder.snapshot().name != "probe"


class TestSeeding:
    """Seeding adopts the dataset as the store's base: no rating is
    re-inserted, whatever builds the builder."""

    @staticmethod
    def refuse_inserts(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("seeding must not re-insert ratings")

        monkeypatch.setattr(MutableBipartiteBuilder, "add_user", refuse)
        monkeypatch.setattr(MutableBipartiteBuilder, "set_rating", refuse)

    def test_from_dataset_adopts_the_dataset(self, rated_dataset, monkeypatch):
        self.refuse_inserts(monkeypatch)
        builder = MutableBipartiteBuilder.from_dataset(rated_dataset)
        assert builder.snapshot() is rated_dataset
        assert builder.maintenance.rows_materialized == 0
        assert builder.n_ratings == rated_dataset.n_ratings

    def test_restore_with_pending_events_seeds_the_same_way(
        self, tmp_path, monkeypatch
    ):
        dataset = random_dataset(
            n_users=60, n_items=40, density=0.1, seed=5, ratings=True
        )
        index = DynamicKnnIndex(dataset, KiffConfig(k=4), auto_refresh=False)
        rng = np.random.default_rng(5)
        index.apply(
            [
                AddRating(int(user), int(item), float(rating))
                for user, item, rating in zip(
                    rng.integers(0, 60, 512),
                    rng.integers(0, 45, 512),
                    rng.integers(0, 6, 512),
                )
            ]
        )
        assert index.pending_events == 512
        index.checkpoint(tmp_path)
        # The checkpoint carries the counters, its own snapshot included.
        rows = index.maintenance.rows_materialized
        self.refuse_inserts(monkeypatch)
        restored = DynamicKnnIndex.restore(tmp_path, refresh=False)
        assert restored.builder.snapshot() is restored.engine.dataset
        assert restored.builder.snapshot() == index.dataset
        assert restored.builder.dirty_rows == frozenset()
        restored.refresh()
        assert restored.maintenance.rows_materialized == rows
        index.refresh()
        assert restored.graph == index.graph
        restored.close()
        index.close()


class TestMutations:
    def test_set_rating_adds_edge(self, builder):
        builder.set_rating(0, 3, 4.5)
        assert builder.rating(0, 3) == 4.5
        assert 0 in builder.users_of(3)
        assert builder.snapshot().user_profile(0)[3] == 4.5

    def test_set_rating_overwrites(self, builder):
        before = builder.n_ratings
        builder.set_rating(0, 0, 1.5)
        assert builder.n_ratings == before
        assert builder.rating(0, 0) == 1.5

    def test_zero_rating_deletes_edge(self, builder):
        builder.set_rating(0, 0, 0.0)
        assert builder.rating(0, 0) == 0.0
        assert 0 not in builder.users_of(0)
        assert 0 not in builder.snapshot().user_items(0).tolist()

    def test_noop_mutations_keep_snapshot_and_shape(self, builder):
        """Duplicate deliveries must be free: an absent-edge delete or an
        identical overwrite neither grows the item universe nor drops
        the snapshot cache."""
        snapshot = builder.snapshot()
        builder.set_rating(0, 5000, 0.0)  # delete of an absent edge
        assert builder.n_items == snapshot.n_items
        builder.set_rating(0, 0, builder.rating(0, 0))  # identical overwrite
        assert builder.snapshot() is snapshot

    def test_new_item_grows_item_space(self, builder):
        builder.set_rating(0, 40, 1.0)
        assert builder.n_items == 41
        assert builder.snapshot().n_items == 41

    def test_add_user_allocates_dense_ids(self, builder):
        first = builder.add_user([0, 2], [5.0, 1.0])
        second = builder.add_user()
        assert (first, second) == (5, 6)
        assert builder.profile(second) == {}
        assert builder.snapshot().n_users == 7

    def test_clear_user_empties_profile_keeps_id(self, builder):
        n = builder.n_users
        builder.clear_user(3)
        assert builder.profile(3) == {}
        assert builder.n_users == n
        assert 3 not in builder.users_of(0)

    def test_item_index_tracks_mutations(self, builder):
        assert builder.users_of(0) == {0, 1, 3}
        builder.set_rating(2, 0, 2.0)
        assert 2 in builder.users_of(0)
        builder.clear_user(1)
        assert 1 not in builder.users_of(0)


class TestValidation:
    def test_unknown_user_rejected(self, builder):
        with pytest.raises(DatasetError, match="out of range"):
            builder.set_rating(99, 0, 1.0)

    def test_negative_item_rejected(self, builder):
        with pytest.raises(DatasetError, match="non-negative"):
            builder.set_rating(0, -1, 1.0)

    def test_non_finite_rating_rejected(self, builder):
        with pytest.raises(DatasetError, match="finite"):
            builder.set_rating(0, 0, float("nan"))

    def test_mismatched_profile_lengths_rejected(self, builder):
        with pytest.raises(DatasetError, match="equal length"):
            builder.add_user([0, 1], [1.0])

    @pytest.mark.parametrize(
        "items, ratings",
        [([0, 1], [1.0]), ([-1], [1.0]), ([0], [float("inf")])],
    )
    def test_rejected_add_user_leaks_no_phantom_id(self, builder, items, ratings):
        """Validation happens before id allocation: a rejected profile
        must leave the builder (and any index built on it) unchanged."""
        before = builder.n_users
        with pytest.raises(DatasetError):
            builder.add_user(items, ratings)
        assert builder.n_users == before
        assert builder.add_user() == before  # next id unaffected

    def test_userless_builder_snapshot_rejected(self):
        """No phantom users: snapshotting before any add_user must fail
        loudly instead of desynchronizing builder and dataset shapes."""
        builder = MutableBipartiteBuilder()
        with pytest.raises(DatasetError, match="no users"):
            builder.snapshot()

    def test_ratingless_users_snapshot_pads_item_universe(self):
        builder = MutableBipartiteBuilder()
        builder.add_user()
        snapshot = builder.snapshot()
        assert isinstance(snapshot, BipartiteDataset)
        assert snapshot.n_users == 1
        assert snapshot.n_items == 1  # padded; no item ids exist yet
        assert snapshot.n_ratings == 0


class TestIncrementalSnapshot:
    def test_dirty_rows_tracked_and_cleared(self, builder):
        assert builder.dirty_rows == frozenset()
        builder.set_rating(2, 0, 4.0)
        builder.set_rating(0, 1, 2.0)
        assert builder.dirty_rows == frozenset({0, 2})
        builder.snapshot()
        assert builder.dirty_rows == frozenset()

    def test_noop_mutations_stay_clean(self, builder):
        snapshot = builder.snapshot()
        builder.set_rating(0, 0, builder.rating(0, 0))  # identical overwrite
        builder.set_rating(0, 4, 0.0)  # delete an absent edge
        assert builder.dirty_rows == frozenset()
        assert builder.snapshot() is snapshot  # cache untouched

    def test_incremental_path_engages_and_counts_rows(self, builder):
        counter = builder.maintenance
        builder.set_rating(1, 3, 5.0)
        before = counter.rows_materialized
        snapshot = builder.snapshot()
        assert counter.snapshots_incremental == 1
        assert counter.rows_materialized - before == 1
        assert snapshot == builder.snapshot(name="full-check")

    def test_large_dirty_set_falls_back_to_full(self, builder):
        for user in range(builder.n_users):
            builder.set_rating(user, 4, 1.5)
        builder.snapshot()
        assert builder.maintenance.snapshots_incremental == 0
        assert builder.maintenance.snapshots_full >= 1

    def test_csc_mirror_built_lazily_after_a_patch(self, builder):
        base = builder.snapshot()
        base.csc  # build the mirror on the patch base
        builder.set_rating(3, 1, 0.0)  # delete
        builder.set_rating(1, 4, 2.5)  # insert (new column usage)
        snapshot = builder.snapshot()
        assert builder.maintenance.snapshots_incremental == 1
        assert snapshot._csc_cache == []  # not carried over from the base
        truth = snapshot.matrix.tocsc()
        assert abs(snapshot.csc - truth).nnz == 0
        np.testing.assert_array_equal(snapshot.csc.indices, truth.indices)
        np.testing.assert_array_equal(snapshot.csc.data, truth.data)

    def test_incremental_snapshot_after_user_growth(self, builder):
        builder.snapshot()
        newcomer = builder.add_user([2], [3.0])
        snapshot = builder.snapshot()
        assert snapshot.n_users == builder.n_users
        assert snapshot.user_profile(newcomer) == {2: 3.0}
        assert builder.maintenance.snapshots_incremental == 1

    def test_incremental_snapshot_after_item_growth(self, builder):
        builder.snapshot()
        builder.set_rating(0, 11, 4.0)
        snapshot = builder.snapshot()
        assert snapshot.n_items == 12
        assert snapshot.user_profile(0)[11] == 4.0
