"""Property-based tests for the incremental snapshot / index fast paths.

The dirty-set-proportional refresh rests on two exactness claims:

* ``MutableBipartiteBuilder.snapshot()`` — however snapshots
  interleave with mutations, the snapshot derived from the base and
  the overlay of pending changes equals a full materialisation of a
  plain-dict model of the profiles, array for array, CSC mirror
  included; and the builder's reads (``profile``, ``rating``,
  ``users_of``) agree with the model while changes are pending.
* ``ProfileIndex.update(dataset, dirty)`` chained across arbitrary
  mutation steps equals a cold ``ProfileIndex`` on the final dataset.

Both are driven here by the shared shrinkable event strategy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import BipartiteDataset, MutableBipartiteBuilder
from repro.similarity import ProfileIndex
from tests.conftest import random_dataset, streaming_events


def _apply_builder_events(builder, events, model):
    """Replay conftest event tuples directly against a builder and
    against *model*, a plain list of ``{item: rating}`` dicts."""
    for event in events:
        kind = event[0]
        if kind == "rate":
            _, slot, item, rating = event
            user = slot % builder.n_users
            builder.set_rating(user, item, float(rating))
            if rating:
                model[user][item] = float(rating)
            else:
                model[user].pop(item, None)
        elif kind == "add_user":
            profile = {item: float(rating) for item, rating in event[1]}
            builder.add_user(tuple(profile), tuple(profile.values()))
            model.append(profile)
        else:  # remove
            user = event[1] % builder.n_users
            builder.clear_user(user)
            model[user] = {}


def _seed(dataset):
    """A builder adopting *dataset*, and the dict model of its profiles."""
    model = [dataset.user_profile(u) for u in range(dataset.n_users)]
    return MutableBipartiteBuilder.from_dataset(dataset), model


def _reference_dataset(builder, model):
    """Full materialisation of *model*, bypassing the builder."""
    return BipartiteDataset.from_profiles(
        model, n_users=builder.n_users, n_items=max(builder.n_items, 1)
    )


class TestInterleavedSnapshots:
    @given(
        chunks=st.lists(streaming_events(max_events=8), max_size=5),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_incremental_snapshots_equal_full(self, chunks, data):
        """Snapshots interleaved with mutation chunks stay exact, CSC
        mirror included."""
        seed_dataset = random_dataset(
            n_users=5, n_items=10, density=0.25, seed=11, ratings=True
        )
        builder, model = _seed(seed_dataset)
        assert builder.snapshot() is seed_dataset  # adopted as the base
        for chunk in chunks:
            _apply_builder_events(builder, chunk, model)
            # Reads while the changes are pending in the overlay.
            assert [builder.profile(u) for u in range(len(model))] == model
            for item in range(builder.n_items):
                assert builder.users_of(item) == {
                    u for u, profile in enumerate(model) if item in profile
                }
                assert [builder.rating(u, item) for u in range(len(model))] == [
                    profile.get(item, 0.0) for profile in model
                ]
            mode = data.draw(
                st.sampled_from(["auto", "csc", "named"]),
                label="snapshot mode",
            )
            if mode == "csc" and builder._base is not None:
                builder._base.csc  # a mirror on the base must not leak
            elif mode == "named":
                pending = builder.dirty_rows
                named = builder.snapshot(name="probe")
                assert named == _reference_dataset(builder, model)
                assert builder.dirty_rows == pending  # overlay kept
            snapshot = builder.snapshot()
            reference = _reference_dataset(builder, model)
            assert snapshot == reference
            assert snapshot.n_users == reference.n_users
            assert snapshot.n_items == reference.n_items
            for field in ("indptr", "indices", "data"):
                ours = getattr(snapshot.matrix, field)
                theirs = getattr(reference.matrix, field)
                assert ours.dtype == theirs.dtype
                np.testing.assert_array_equal(ours, theirs)
            mirror = snapshot.csc
            truth = reference.matrix.tocsc()
            assert abs(mirror - truth).nnz == 0
            np.testing.assert_array_equal(mirror.indices, truth.indices)
            np.testing.assert_array_equal(mirror.data, truth.data)
        # Final full-path cross-check.
        assert builder.snapshot(name="check") == _reference_dataset(
            builder, model
        )


class TestChainedIndexUpdates:
    @given(chunks=st.lists(streaming_events(max_events=8), min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_chained_updates_equal_cold_build(self, chunks):
        seed_dataset = random_dataset(
            n_users=6, n_items=10, density=0.25, seed=17, ratings=True
        )
        builder, model = _seed(seed_dataset)
        index = ProfileIndex(seed_dataset)
        index.adamic_adar_matrix  # exercise the lazy-cache patches too
        index.centered
        for chunk in chunks:
            _apply_builder_events(builder, chunk, model)
            dirty = set(builder.dirty_rows)
            snapshot = builder.snapshot()
            index.update(snapshot, dirty)
        cold = ProfileIndex(builder.snapshot())
        np.testing.assert_array_equal(index.norms, cold.norms)
        np.testing.assert_array_equal(index.sizes, cold.sizes)
        assert abs(index.matrix - cold.matrix).nnz == 0
        centered_matrix, centered_norms = index.centered
        cold_matrix, cold_norms = cold.centered
        np.testing.assert_array_equal(centered_norms, cold_norms)
        assert abs(centered_matrix - cold_matrix).nnz == 0
        np.testing.assert_array_equal(
            index.adamic_adar_matrix.toarray(),
            cold.adamic_adar_matrix.toarray(),
        )
