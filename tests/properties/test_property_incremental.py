"""Property-based tests for the incremental snapshot / index fast paths.

The dirty-set-proportional refresh rests on two exactness claims:

* ``MutableBipartiteBuilder.snapshot(dirty_users=...)`` — however
  snapshots interleave with mutations (and whatever dirty hints callers
  pass), the patched dataset equals a from-scratch materialisation of
  the live profiles, CSC mirror included.
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


def _apply_builder_events(builder, events):
    """Replay conftest event tuples directly against a builder."""
    for event in events:
        kind = event[0]
        if kind == "rate":
            _, slot, item, rating = event
            builder.set_rating(slot % builder.n_users, item, float(rating))
        elif kind == "add_user":
            profile = {item: float(rating) for item, rating in event[1]}
            builder.add_user(tuple(profile), tuple(profile.values()))
        else:  # remove
            builder.clear_user(event[1] % builder.n_users)


def _reference_dataset(builder):
    """Full materialisation of the live profiles, bypassing the cache."""
    return BipartiteDataset.from_profiles(
        [dict(builder.profile(u)) for u in range(builder.n_users)],
        n_users=builder.n_users,
        n_items=max(builder.n_items, 1),
    )


class TestInterleavedSnapshots:
    @given(
        chunks=st.lists(streaming_events(max_events=8), max_size=5),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_incremental_snapshots_equal_full(self, chunks, data):
        """Snapshots interleaved with mutation chunks stay exact, with
        or without caller-supplied dirty hints, CSC mirror included."""
        seed_dataset = random_dataset(
            n_users=5, n_items=10, density=0.25, seed=11, ratings=True
        )
        builder = MutableBipartiteBuilder.from_dataset(seed_dataset)
        for chunk in chunks:
            _apply_builder_events(builder, chunk)
            mode = data.draw(
                st.sampled_from(["auto", "hint", "superset", "csc"]),
                label="snapshot mode",
            )
            dirty_hint = None
            if mode == "hint":
                dirty_hint = sorted(builder.dirty_rows)
            elif mode == "superset":
                extra = data.draw(
                    st.sets(
                        st.integers(0, builder.n_users - 1), max_size=3
                    ),
                    label="extra dirty",
                )
                dirty_hint = sorted(set(builder.dirty_rows) | extra)
            elif mode == "csc" and builder._base is not None:
                builder._base.csc  # a mirror on the base must not leak
            snapshot = builder.snapshot(dirty_users=dirty_hint)
            reference = _reference_dataset(builder)
            assert snapshot == reference
            assert snapshot.n_users == reference.n_users
            assert snapshot.n_items == reference.n_items
            mirror = snapshot.csc
            truth = reference.matrix.tocsc()
            assert abs(mirror - truth).nnz == 0
            np.testing.assert_array_equal(mirror.indices, truth.indices)
            np.testing.assert_array_equal(mirror.data, truth.data)
        # Final full-path cross-check.
        assert builder.snapshot(name="check") == _reference_dataset(builder)

    @given(chunks=st.lists(streaming_events(max_events=8), max_size=4))
    @settings(max_examples=40)
    def test_uncovering_hint_falls_back_exactly(self, chunks):
        """A dirty hint missing tracked mutations triggers the full
        fallback, never a wrong patch."""
        seed_dataset = random_dataset(
            n_users=5, n_items=10, density=0.25, seed=13, ratings=True
        )
        builder = MutableBipartiteBuilder.from_dataset(seed_dataset)
        for chunk in chunks:
            _apply_builder_events(builder, chunk)
            assert builder.snapshot(dirty_users=[0]) == _reference_dataset(
                builder
            )


class TestChainedIndexUpdates:
    @given(chunks=st.lists(streaming_events(max_events=8), min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_chained_updates_equal_cold_build(self, chunks):
        seed_dataset = random_dataset(
            n_users=6, n_items=10, density=0.25, seed=17, ratings=True
        )
        builder = MutableBipartiteBuilder.from_dataset(seed_dataset)
        index = ProfileIndex(seed_dataset)
        index.adamic_adar_matrix  # exercise the lazy-cache patches too
        index.centered
        for chunk in chunks:
            _apply_builder_events(builder, chunk)
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
