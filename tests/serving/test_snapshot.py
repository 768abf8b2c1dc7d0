"""GraphSnapshot publication semantics: MVCC without locks."""

from dataclasses import fields

import numpy as np
import pytest

from repro import (
    AddRating,
    AddUser,
    DynamicKnnIndex,
    GraphSnapshot,
    KiffConfig,
    RemoveRating,
    ShardedKnnIndex,
)
from repro.serving import neighbors_on
from repro.serving import snapshot as snapshot_module
from repro.streaming import ShardPlan, cold_rebuild_graph
from tests.conftest import random_dataset
from tests.streaming.test_parity import drive_random_stream


def _absent_rating(index) -> RemoveRating:
    """A RemoveRating event for an edge the dataset does not hold."""
    dataset = index.dataset
    for user in range(dataset.n_users):
        rated = set(dataset.user_items(user).tolist())
        for item in range(dataset.n_items):
            if item not in rated:
                return RemoveRating(user, item)
    raise AssertionError("dataset is dense; no absent edge to retract")


@pytest.fixture
def index():
    dataset = random_dataset(
        n_users=18, n_items=14, density=0.15, seed=3, ratings=True
    )
    ix = DynamicKnnIndex(dataset, KiffConfig(k=4), auto_refresh=False)
    yield ix
    ix.close()


class TestPublication:
    def test_initial_build_publishes_version_zero(self, index):
        snapshot = index.pin()
        assert isinstance(snapshot, GraphSnapshot)
        assert snapshot.version == 0
        assert index.snapshot_version == 0

    def test_pin_returns_latest_published(self, index):
        index.apply(AddRating(0, 1, 5.0))
        # Not yet refreshed: pin still answers at the old version.
        assert index.pin().version == 0
        index.refresh()
        assert index.pin().version == index.last_seq == 1

    def test_version_is_covering_wal_sequence(self, index):
        drive_random_stream(index, seed=5, n_events=12)
        assert index.pin().version == index.last_seq

    def test_rebuild_publishes(self, index):
        index.apply(AddRating(2, 3, 4.0))
        index.rebuild()
        assert index.pin().version == index.last_seq

    def test_deferred_build_has_no_snapshot_until_refresh(self):
        dataset = random_dataset(n_users=10, n_items=8, seed=1)
        ix = DynamicKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, build=False
        )
        try:
            assert ix.snapshot_version is None
            with pytest.raises(RuntimeError, match="no snapshot published"):
                ix.pin()
            ix.refresh()
            assert ix.pin().version == 0
        finally:
            ix.close()

    def test_noop_refresh_republishes_shared_arrays(self, index):
        before = index.pin()
        # A retraction of a rating that does not exist absorbs the
        # event (sequence advances) but dirties nobody.
        index.apply(_absent_rating(index))
        index.refresh()
        after = index.pin()
        assert after.version == index.last_seq == before.version + 1
        # The no-op republish shares the previous snapshot's packed rows
        # (the dense ``neighbors``/``sims`` views are rebuilt per access).
        assert after.indptr is before.indptr
        assert after.packed_ids is before.packed_ids
        assert after.packed_sims is before.packed_sims
        assert after.dataset is before.dataset

    def test_snapshot_matches_live_graph(self, index):
        drive_random_stream(index, seed=2, n_events=15)
        assert index.pin().graph() == index.graph


class TestImmutability:
    def test_arrays_are_read_only(self, index):
        snapshot = index.pin()
        for array in (
            snapshot.indptr,
            snapshot.packed_ids,
            snapshot.packed_sims,
            snapshot.norms,
            snapshot.sizes,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_pinned_snapshot_survives_refreshes_bit_unchanged(self, index):
        pinned = index.pin()
        neighbors = pinned.neighbors.copy()
        sims = pinned.sims.copy()
        seen = {
            user: pinned.dataset.user_items(user).copy()
            for user in range(pinned.n_users)
        }
        drive_random_stream(index, seed=9, n_events=25)
        assert index.pin().version > pinned.version
        np.testing.assert_array_equal(pinned.neighbors, neighbors)
        np.testing.assert_array_equal(pinned.sims, sims)
        for user, items in seen.items():
            np.testing.assert_array_equal(
                pinned.dataset.user_items(user), items
            )

    def test_at_version_shares_state(self, index):
        snapshot = index.pin()
        bumped = snapshot.at_version(41)
        assert bumped.version == 41
        assert bumped.packed_ids is snapshot.packed_ids
        assert bumped.packed_sims is snapshot.packed_sims
        assert snapshot.version == 0  # the original is untouched


class TestRowAccessors:
    def test_neighbors_of_drops_missing(self, index):
        snapshot = index.pin()
        graph = index.graph
        for user in range(snapshot.n_users):
            np.testing.assert_array_equal(
                snapshot.neighbors_of(user), graph.neighbors_of(user)
            )
            assert len(snapshot.sims_of(user)) == len(
                snapshot.neighbors_of(user)
            )

    def test_shape_properties(self, index):
        snapshot = index.pin()
        assert snapshot.n_users == index.n_users
        assert snapshot.k == index.config.k


class TestShardedPublication:
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_sharded_refresh_publishes(self, executor):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=4, ratings=True
        )
        ix = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=2,
            executor=executor,
        )
        try:
            assert ix.pin().version == 0
            drive_random_stream(ix, seed=4, n_events=15)
            snapshot = ix.pin()
            assert snapshot.version == ix.last_seq
            assert snapshot.graph() == ix.graph
            assert snapshot.graph() == cold_rebuild_graph(
                ix.dataset, ix.config
            )
        finally:
            ix.close()

    def test_sharded_noop_refresh_bumps_version(self):
        dataset = random_dataset(n_users=12, n_items=10, seed=6)
        ix = ShardedKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, n_shards=2
        )
        try:
            before = ix.pin()
            ix.apply(_absent_rating(ix))
            ix.refresh()
            after = ix.pin()
            assert after.version == before.version + 1
            assert after.packed_ids is before.packed_ids
        finally:
            ix.close()


def _all_arrays(snapshot) -> dict:
    """Every array field of *snapshot*, by name."""
    return {
        field.name: getattr(snapshot, field.name)
        for field in fields(snapshot)
        if isinstance(getattr(snapshot, field.name), np.ndarray)
    }


@pytest.fixture
def patching(monkeypatch):
    """Let a patch hold up to half the rows, so the small indexes of
    these tests publish patches as well as full packs."""
    monkeypatch.setattr(snapshot_module, "MAX_PATCH_SHARE", 0.5)


class TestRepublishClaimsOnlyWhatItReflects:
    def test_all_deferred_refresh_publishes_the_new_user(self):
        dataset = random_dataset(
            n_users=200, n_items=30, density=0.05, seed=8, ratings=True
        )
        ix = DynamicKnnIndex(dataset, KiffConfig(k=4), auto_refresh=False)
        try:
            result = ix.apply(AddUser((1, 2), (4.0, 5.0)))
            (user,) = result.new_users
            stats = ix.refresh(dirty_subset=[])
            snapshot = ix.pin()
            assert snapshot.version == ix.last_seq == 1
            assert snapshot.n_users == ix.n_users == 201
            assert neighbors_on(snapshot, user).neighbors == ()
            assert snapshot.dataset.user_profile(user) == {1: 4.0, 2: 5.0}
            assert snapshot.graph() == ix.graph
            assert stats.deferred_users == 1
            assert stats.rows_published == 1  # the appended row only
        finally:
            ix.close()

    def test_rebalance_with_pending_events_keeps_the_version(self):
        dataset = random_dataset(
            n_users=12, n_items=10, density=0.2, seed=2, ratings=True
        )
        ix = ShardedKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, n_shards=2
        )
        try:
            assert ix.dataset.user_profile(3).get(7, 0.0) == 0.0
            ix.apply(AddRating(3, 7, 5.0))
            ix.rebalance(ShardPlan(moves=((3, 0),)))
            assert ix.last_seq == 3
            snapshot = ix.pin()
            assert snapshot.version == 0  # event 1 is not in it
            assert snapshot.dataset.user_profile(3).get(7, 0.0) == 0.0
            ix.refresh()
            assert ix.pin().version == 3
            assert ix.pin().dataset.user_profile(3)[7] == 5.0
            # With nothing pending, a rebalance re-publishes the arrays.
            before = ix.pin()
            ix.rebalance(ShardPlan(moves=((3, 1),)))
            after = ix.pin()
            assert after.version == ix.last_seq == 5
            for name, array in _all_arrays(before).items():
                assert getattr(after, name) is array, name
        finally:
            ix.close()


class TestPatchedPublication:
    def test_one_event_pass_publishes_a_patch(self):
        dataset = random_dataset(
            n_users=400, n_items=60, density=0.03, seed=5, ratings=True
        )
        ix = DynamicKnnIndex(dataset, KiffConfig(k=4), auto_refresh=False)
        try:
            base = ix.pin()
            ix.apply(AddRating(10, 3, 5.0))
            stats = ix.refresh()
            snapshot = ix.pin()
            assert 0 < stats.rows_published < ix.n_users / 16
            assert stats.rows_published == snapshot.patch_rows.size
            assert 10 in snapshot.patch_rows
            assert snapshot.indptr is base.indptr  # the base is shared
            assert snapshot.graph() == ix.graph
            assert snapshot.row_bytes() > base.row_bytes()
        finally:
            ix.close()

    def test_a_patch_past_the_share_repacks_every_row(self, index):
        stats = []
        for user in range(index.n_users):
            index.apply(AddRating(user, 13, 3.0))
            stats.append(index.refresh())
            snapshot = index.pin()
            assert snapshot.patch_rows.size <= index.n_users / 16
            assert snapshot.graph() == index.graph
        assert {s.rows_published for s in stats} <= {0, 1, index.n_users}
        assert any(s.rows_published == index.n_users for s in stats)

    def test_failed_pass_makes_the_next_publication_full(
        self, monkeypatch, patching
    ):
        """Stage C raises in shard 1 after shard 0 merged.  Shard 0's
        merges reached clean rows that a later pass deferring the dirty
        users does not change, so the next publication must pack every
        row."""
        from repro.streaming import sharding

        dataset = random_dataset(
            n_users=30, n_items=12, density=0.25, seed=4, ratings=True
        )
        ix = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
        )
        try:
            merge = sharding.merge_shard_pairs
            merged = []

            def failing(shard_id, *args):
                if shard_id == 1:
                    raise RuntimeError("stage C failed in shard 1")
                merged.append(merge(shard_id, *args))
                return merged[-1]

            ix.apply([AddRating(u, (u * 5) % 12, 5.0) for u in (2, 3, 6, 7)])
            monkeypatch.setattr(sharding, "merge_shard_pairs", failing)
            with pytest.raises(RuntimeError, match="stage C failed"):
                ix.refresh()
            monkeypatch.setattr(sharding, "merge_shard_pairs", merge)
            assert merged and merged[0][0] > 0  # shard 0 changed slots
            stats = ix.refresh(dirty_subset=[])
            assert stats.rows_published == ix.n_users
            assert ix.pin().graph() == ix.graph
            ix.refresh()
            assert ix.pin().graph() == ix.graph
            assert ix.graph == cold_rebuild_graph(ix.dataset, ix.config)
        finally:
            ix.close()

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_appended_deferred_users_publish_as_empty_rows(
        self, patching, n_shards
    ):
        dataset = random_dataset(
            n_users=16, n_items=10, density=0.25, seed=6, ratings=True
        )
        ix = DynamicKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, n_shards=n_shards
        )
        try:
            ix.apply(AddRating(0, 9, 4.0))
            new = ix.apply([AddUser((1, 2), (3.0, 4.0)), AddUser((5,), None)])
            stats = ix.refresh(dirty_subset=[0])
            snapshot = ix.pin()
            assert stats.deferred_users == 2
            assert snapshot.indptr.size - 1 == 16  # the base is shared
            assert snapshot.n_users == ix.n_users == 18
            for user in new.new_users:
                assert user in snapshot.patch_rows
                assert snapshot.neighbors_of(user).size == 0
            assert snapshot.graph() == ix.graph
            ix.refresh()
            assert ix.pin().graph() == ix.graph
            assert ix.graph == cold_rebuild_graph(ix.dataset, ix.config)
        finally:
            ix.close()

    def test_at_version_and_noop_refresh_share_every_array(
        self, index, patching
    ):
        index.apply(AddRating(1, 2, 5.0))
        index.refresh()
        snapshot = index.pin()
        assert snapshot.patch_rows.size  # a patched snapshot
        arrays = _all_arrays(snapshot)
        assert set(arrays) >= {"indptr", "patch_rows", "patch_ids", "norms"}
        bumped = snapshot.at_version(snapshot.version + 7)
        index.apply(_absent_rating(index))
        stats = index.refresh()
        republished = index.pin()
        assert republished.version == snapshot.version + 1
        assert stats.rows_published == 0
        for other in (bumped, republished):
            assert other.dataset is snapshot.dataset
            for name, array in arrays.items():
                assert getattr(other, name) is array, name
