"""Unit tests for the typed-event ingestion API (DynamicKnnIndex.apply).

Parity semantics of each event kind live in ``test_parity.py``; this
file pins the apply() contract itself: validation atomicity, Batch
grouping, ApplyResult structure and sequence numbering.
"""

import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.datasets import DatasetError
from repro.streaming import (
    AddRating,
    AddUser,
    ApplyResult,
    Batch,
    RemoveRating,
    RemoveUser,
    cold_rebuild_graph,
    ratings_batch,
)


def cold(index):
    return cold_rebuild_graph(index.dataset, index.config)


class TestApplyContract:
    def test_single_event_and_list(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        single = index.apply(AddRating(0, 3, 4.0))
        assert isinstance(single, ApplyResult)
        assert single.events == 1
        many = index.apply([AddRating(1, 3, 2.0), RemoveRating(0, 3)])
        assert many.events == 2
        assert index.graph == cold(index)

    def test_remove_rating_deletes_edge(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        index.apply(RemoveRating(0, 0))
        assert index.dataset.user_items(0).tolist() == [1, 2]
        assert index.graph == cold(index)
        # Deleting an absent edge is a free no-op (at-least-once safety).
        before = index.engine.counter.evaluations
        index.apply(RemoveRating(0, 0))
        assert index.engine.counter.evaluations == before

    def test_new_users_minted_in_order(self, toy_dataset):
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        result = index.apply([AddUser((0,)), AddUser((1,), (2.0,))])
        assert result.new_users == (4, 5)
        assert index.n_users == 6
        assert index.graph == cold(index)

    def test_sequence_numbers_without_wal(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        assert index.last_seq == 0
        assert index.apply(AddRating(0, 3, 4.0)).last_seq == 1
        assert index.apply(Batch((RemoveRating(0, 3), AddUser()))).last_seq == 3
        assert index.last_seq == 3

    def test_refreshes_collected(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        result = index.apply([AddRating(0, 3, 4.0), AddRating(1, 3, 2.0)])
        assert len(result.refreshes) == 2  # auto_refresh: one per event
        assert result.refreshes == tuple(index.refresh_log[-2:])
        deferred = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False
        )
        assert deferred.apply([AddRating(0, 3, 4.0)]).refreshes == ()
        assert deferred.pending_events == 1

    def test_unknown_event_rejected(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        with pytest.raises(TypeError, match="unknown streaming event"):
            index.apply(("rate", 0, 1, 2.0))


class TestBatchSemantics:
    def test_batch_refreshes_once(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        result = index.apply(
            Batch((AddRating(0, 3, 4.0), AddRating(1, 3, 2.0), RemoveUser(2)))
        )
        assert result.events == 3
        assert len(result.refreshes) == 1
        assert result.refreshes[0].events == 3
        assert index.graph == cold(index)

    def test_nested_batches_flatten(self, rated_dataset):
        index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2))
        result = index.apply(
            Batch((AddRating(0, 3, 4.0), Batch((AddRating(1, 3, 2.0),))))
        )
        assert result.events == 2
        assert len(result.refreshes) == 1
        assert index.graph == cold(index)

    def test_batch_may_reference_users_it_mints(self, toy_dataset):
        """Validation simulates population growth inside the batch."""
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        result = index.apply(
            Batch((AddUser((3,)), AddRating(4, 1, 5.0), RemoveUser(4)))
        )
        assert result.new_users == (4,)
        assert index.graph == cold(index)

    def test_bad_batch_applies_nothing(self, toy_dataset):
        """The whole batch validates before anything mutates."""
        index = DynamicKnnIndex(toy_dataset, KiffConfig(k=3))
        before = index.dataset
        for bad in (
            Batch((AddRating(0, 1, 3.0), AddRating(99, 1, 3.0))),
            Batch((AddRating(0, 1, 3.0), AddRating(1, -2, 3.0))),
            Batch((AddRating(0, 1, 3.0), AddRating(1, 1, float("nan")))),
            Batch((AddRating(0, 1, 3.0), RemoveUser(99))),
            Batch((AddRating(0, 1, 3.0), AddUser((0, 1), (1.0,)))),
            Batch((AddRating(0, 1, 3.0), AddUser((-1,)))),
            # The rated user would only exist if the AddUser came first.
            Batch((AddRating(4, 1, 3.0), AddUser((3,)))),
        ):
            with pytest.raises(DatasetError):
                index.apply(bad)
            assert index.pending_events == 0
            assert index.dirty_users == frozenset()
            assert index.last_seq == 0  # nothing journaled either
        assert index.dataset == before
        assert index.graph == cold(index)

    def test_ratings_batch_helper(self, rated_dataset):
        batch = ratings_batch([0, 1], [3, 3], [4.0, 2.0])
        assert batch == Batch((AddRating(0, 3, 4.0), AddRating(1, 3, 2.0)))
        assert ratings_batch([2], [0]).events == (AddRating(2, 0, 1.0),)
        with pytest.raises(ValueError, match="equal length"):
            ratings_batch([0, 1], [3])


class TestApplyResultListCompat:
    """ApplyResult is a plain frozen dataclass, not a list of ids."""

    def make(self):
        return ApplyResult(
            new_users=(4, 5), refreshes=(), events=3, last_seq=3
        )

    def test_is_not_a_list_of_minted_ids(self):
        result = self.make()
        with pytest.raises(TypeError):
            iter(result)
        with pytest.raises(TypeError):
            len(result)
        assert result != [4, 5]

    def test_structured_equality_does_not_warn(self, recwarn):
        assert self.make() == self.make()
        assert self.make() != ApplyResult((4,), (), 1, 1)
        assert not (self.make() == "not a result")
        assert not recwarn.list

    def test_new_users_access_does_not_warn(self, recwarn):
        assert self.make().new_users == (4, 5)
        assert not recwarn.list

    def test_hashable_like_any_frozen_dataclass(self, recwarn):
        assert hash(self.make()) == hash(self.make())
        assert len({self.make(), self.make()}) == 1
        assert not recwarn.list
