"""Model-based test of the rating store against plain dictionaries.

A Hypothesis state machine drives one :class:`MutableBipartiteBuilder`
— seeded from a dataset (adopted as its base) or started empty —
through ``add_user`` (with and without ratings), ``set_rating`` (new
edges, overwrites, identical overwrites, deletions, deletions of absent
edges, items beyond ``n_items``), ``clear_user`` (re-rating a cleared
user included) and ``snapshot()`` with and without a ``name``.  The
model is a list of ``{item: rating}`` dicts plus the dirty set and the
item universe.  After every step ``profile``, ``rating``, ``users_of``,
``n_ratings``, ``n_items`` and ``dirty_rows`` must equal the model's;
every snapshot must equal the model's dataset array for array (compact
dtypes included) and charge the model's ``rows_materialized``.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.datasets import BipartiteDataset, MutableBipartiteBuilder
from tests.conftest import random_dataset

RATINGS = st.sampled_from([1.0, 2.0, 2.5, 3.0, 5.0])
USER = st.integers(0, 1_000)


class BuilderModel(RuleBasedStateMachine):
    @initialize(seeded=st.booleans(), seed=st.integers(0, 3))
    def start(self, seeded, seed):
        if seeded:
            dataset = random_dataset(
                n_users=5, n_items=8, density=0.3, seed=seed, ratings=True
            )
            self.builder = MutableBipartiteBuilder.from_dataset(dataset)
            self.profiles = [
                dataset.user_profile(u) for u in range(dataset.n_users)
            ]
            self.n_items = dataset.n_items
            self.has_base = True
        else:
            self.builder = MutableBipartiteBuilder(n_items=3)
            self.profiles = []
            self.n_items = 3
            self.has_base = False
        self.dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    @rule(
        entries=st.lists(
            st.tuples(st.integers(0, 12), RATINGS | st.just(0.0)), max_size=4
        )
    )
    def add_user(self, entries):
        profile: dict[int, float] = {}
        for item, rating in entries:
            if rating:
                profile[item] = rating
                self.n_items = max(self.n_items, item + 1)
            else:
                profile.pop(item, None)
        items = [item for item, _ in entries]
        ratings = [rating for _, rating in entries]
        user = self.builder.add_user(items, ratings)
        assert user == len(self.profiles)
        self.profiles.append(profile)
        self.dirty.add(user)

    @precondition(lambda self: self.profiles)
    @rule(slot=USER, item=st.integers(0, 12), rating=RATINGS)
    def rate(self, slot, item, rating):
        """A new edge or an overwrite (possibly identical)."""
        self._set(slot % len(self.profiles), item, rating)

    @precondition(lambda self: self.profiles)
    @rule(slot=USER, pick=st.integers(0, 100))
    def overwrite_identically(self, slot, pick):
        user = slot % len(self.profiles)
        if self.profiles[user]:
            items = sorted(self.profiles[user])
            item = items[pick % len(items)]
            self._set(user, item, self.profiles[user][item])

    @precondition(lambda self: self.profiles)
    @rule(slot=USER, pick=st.integers(0, 100), absent=st.booleans())
    def delete(self, slot, pick, absent):
        """Delete a present edge, or one the user does not hold (an
        item beyond ``n_items`` included)."""
        user = slot % len(self.profiles)
        items = sorted(self.profiles[user])
        if absent or not items:
            item = self.n_items + pick % 3
        else:
            item = items[pick % len(items)]
        self._set(user, item, 0.0)

    @precondition(lambda self: self.profiles)
    @rule(slot=USER)
    def clear_user(self, slot):
        user = slot % len(self.profiles)
        self.builder.clear_user(user)
        if self.profiles[user]:
            self.profiles[user] = {}
            self.dirty.add(user)

    def _set(self, user, item, rating):
        self.builder.set_rating(user, item, rating)
        profile = self.profiles[user]
        if profile.get(item, 0.0) == rating:
            return
        if rating:
            profile[item] = rating
            self.n_items = max(self.n_items, item + 1)
        else:
            del profile[item]
        self.dirty.add(user)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    @precondition(lambda self: self.profiles)
    @rule()
    def snapshot(self):
        n_users = len(self.profiles)
        rows_before = self.builder.maintenance.rows_materialized
        cached = self.has_base and not self.dirty
        previous = self.builder.snapshot() if cached else None
        snapshot = self.builder.snapshot()
        self._check_snapshot(snapshot)
        if cached:
            assert snapshot is previous
            expected_rows = 0
        else:
            incremental = self.has_base and 2 * len(self.dirty) <= n_users
            expected_rows = len(self.dirty) if incremental else n_users
        assert (
            self.builder.maintenance.rows_materialized - rows_before
            == expected_rows
        )
        assert self.builder.snapshot() is snapshot
        self.dirty.clear()
        self.has_base = True

    @precondition(lambda self: self.profiles)
    @rule()
    def named_snapshot(self):
        dirty_before = self.builder.dirty_rows
        snapshot = self.builder.snapshot(name="probe")
        assert snapshot.name == "probe"
        self._check_snapshot(snapshot)
        assert self.builder.dirty_rows == dirty_before

    def _check_snapshot(self, snapshot):
        truth = BipartiteDataset.from_profiles(
            self.profiles,
            n_users=len(self.profiles),
            n_items=max(self.n_items, 1),
        ).matrix
        matrix = snapshot.matrix
        assert matrix.shape == truth.shape
        for field in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, field), getattr(truth, field)
            assert ours.dtype == theirs.dtype, field
            np.testing.assert_array_equal(ours, theirs, err_msg=field)
        assert not snapshot.symmetric

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @invariant()
    def reads_match_the_model(self):
        builder = self.builder
        assert builder.n_users == len(self.profiles)
        assert builder.n_items == self.n_items
        assert builder.n_ratings == sum(map(len, self.profiles))
        assert builder.dirty_rows == frozenset(self.dirty)
        for user, profile in enumerate(self.profiles):
            assert builder.profile(user) == profile
            for item in range(self.n_items + 2):
                assert builder.rating(user, item) == profile.get(item, 0.0)
        for item in range(self.n_items + 2):
            raters = {u for u, p in enumerate(self.profiles) if item in p}
            assert builder.users_of(item) == raters


TestBuilderModel = BuilderModel.TestCase
TestBuilderModel.settings = settings(
    settings.default,
    max_examples=max(settings.default.max_examples, 60),
    stateful_step_count=30,
)
