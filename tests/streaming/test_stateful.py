"""Stateful fuzzing of the streaming index through its public surface.

A Hypothesis rule-based state machine drives one index through rating
events (re-ratings that lower a cited neighbour's score included, the
case the referrer repair must catch, and batches lowering more than
``RESERVE`` entries of one row's exact prefix, which exhaust its
reserve and force a rescan), drops of the one item a cited user shares
with a clean row citing her (only her lost-item record leads the
refresh to that row), fractional ratings (they take cosine's passes
off the candidate-product scoring until overwritten by whole ones),
user joins and removals, partial
``refresh(dirty_subset)`` and full refreshes, checkpoint + restore into
a fresh index, and live rebalancing.  Invariants:

* after every full refresh the graph equals ``cold_rebuild_graph``;
* a restored index, refreshed, equals the cold rebuild of the live
  data, and the live graph itself whenever nothing is pending;
* snapshot versions never go backwards;
* the pinned snapshot holds the live rows: every row it publishes
  equals the live one, and every row appended since is empty (the
  patch limit is raised to half the rows, so these 14-user indexes
  publish patches over a shared base as well as full packs);
* every pass's stage-A split (rows rebuilt, rows repaired) equals the
  split a brute-force ``np.isin`` scan of every row gives, reserve
  columns included;
* whenever nothing is dirty, every row's first ``depth`` entries equal
  the cold converged top-``(k + RESERVE)`` prefix.

Each run draws its metric (``cosine``, ``jaccard``, or ``adamic_adar``,
whose global item weights send it through the same referrer repair).
The machine runs on the flat serial index, on two shards under
``threads``, and on the flat index with ``min_rating=3.0`` (ratings
crossing the threshold change candidate sets without a membership
change).  Tier-1 keeps a small example budget; the ``soak``
Hypothesis profile (``--hypothesis-profile soak``, registered in
``tests/conftest.py``) lifts it for the scheduled CI job.
"""

import shutil
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import (
    DynamicKnnIndex,
    KiffConfig,
    ShardedKnnIndex,
    SimilarityEngine,
    kiff,
)
from repro.streaming import (
    AddRating,
    AddUser,
    RemoveRating,
    RemoveUser,
    ShardPlan,
    cold_rebuild_graph,
    converged_config,
)
from repro.graph.knn_graph import MISSING
from repro.serving import snapshot as snapshot_module
from repro.similarity.engine import get_metric, product_scoring
from repro.streaming.index import RESERVE
from tests.conftest import (
    exhaust_reserve_events,
    random_dataset,
    split_checked,
)

N_ITEMS = 10


def _budget() -> settings:
    """The tier-1 budget, or the loaded profile's when that is the soak's."""
    soak = settings.get_profile("soak")
    if settings.default.max_examples >= soak.max_examples:
        return settings.default
    return settings(max_examples=40, stateful_step_count=20)


class IndexMachine(RuleBasedStateMachine):
    """One index under a random interleaving of the public operations."""

    #: Shard count, executor and candidacy threshold of the index.
    n_shards = 1
    executor = "serial"
    min_rating = None

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-fuzz-")
        self.index = None
        self.version = None
        # Patches of up to half the rows, as BUILD_BLOCK_ENTRIES is
        # lowered for small builds: the default share would pack every
        # row of a 14-user index on every publication.
        self._patch_share = snapshot_module.MAX_PATCH_SHARE
        snapshot_module.MAX_PATCH_SHARE = 0.5

    @initialize(
        seed=st.integers(0, 3),
        metric=st.sampled_from(["cosine", "jaccard", "adamic_adar"]),
        pivot=st.booleans(),
        dense=st.booleans(),
    )
    def build(self, seed, metric, pivot, dense):
        """Sparse data leaves most rows holding every candidate; dense
        data fills rows past their reserve, so repairs can fall back."""
        self.metric = metric
        dataset = random_dataset(
            n_users=14,
            n_items=N_ITEMS,
            density=0.45 if dense else 0.25,
            seed=seed,
            ratings=True,
        )
        self.index = DynamicKnnIndex(
            dataset,
            KiffConfig(k=3, pivot=pivot, min_rating=self.min_rating),
            metric=metric,
            auto_refresh=False,
            n_shards=self.n_shards,
            executor=self.executor,
        )
        self.version = self.index.snapshot_version

    def teardown(self):
        snapshot_module.MAX_PATCH_SHARE = self._patch_share
        if self.index is not None:
            self.index.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _user(self, slot: int) -> int:
        return slot % self.index.n_users

    def _cold(self):
        return cold_rebuild_graph(
            self.index.dataset, self.index.config, metric=self.metric
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    @rule(
        slot=st.integers(0, 63),
        item=st.integers(0, N_ITEMS - 1),
        rating=st.integers(0, 5),
    )
    def rate(self, slot, item, rating):
        """A rating lands, is overwritten, or (0) is deleted."""
        self.index.apply(AddRating(self._user(slot), item, float(rating)))

    @rule(slot=st.integers(0, 63), pick=st.integers(0, 7))
    def lower_cited_neighbour(self, slot, pick):
        """A cited neighbour drops a shared item or gains a foreign one,
        lowering her score in the citing row."""
        row = self._user(slot)
        cited = [
            int(user)
            for user in self.index.graph.neighbors_of(row).tolist()
            if user >= 0
        ]
        if not cited:
            return
        neighbour = cited[pick % len(cited)]
        builder = self.index.builder
        shared = sorted(
            set(builder.profile(row)) & set(builder.profile(neighbour))
        )
        if shared:
            event = RemoveRating(neighbour, shared[pick % len(shared)])
        else:
            foreign = sorted(set(range(N_ITEMS)) - set(builder.profile(row)))
            if not foreign:
                return
            event = AddRating(neighbour, foreign[pick % len(foreign)], 5.0)
        self.index.apply(event)

    @rule(slot=st.integers(0, 63))
    def exhaust_reserve(self, slot):
        """One batch lowers more than the reserve of the first clean
        row from *slot* on whose exact prefix does not hold every
        candidate: the row must fall back to a rescan."""
        n_users = self.index.n_users
        for offset in range(n_users):
            row = (slot + offset) % n_users
            if row in self.index.dirty_users:
                continue
            events = exhaust_reserve_events(self.index, row)
            if events:
                self.index.apply(events)
                return

    def _sole_shared_item(self, slot: int, pick: int):
        """``(user, item)``: a user cited by a clean row from *slot* on,
        in any column, who shares exactly one candidacy item with it."""
        index = self.index
        neighbors, _ = index._rows()
        threshold = index.config.min_rating

        def items(user):
            return {
                item
                for item, rating in index.builder.profile(user).items()
                if threshold is None or rating >= threshold
            }

        n_users = index.n_users
        for offset in range(n_users):
            row = (slot + offset) % n_users
            if row in index.dirty_users:
                continue
            cited = [user for user in neighbors[row].tolist() if user >= 0]
            if not cited:
                continue
            start = pick % len(cited)
            mine = items(row)
            for user in cited[start:] + cited[:start]:
                shared = mine & items(user)
                if len(shared) == 1:
                    return user, shared.pop()
        return None

    @rule(
        slot=st.integers(0, 63),
        pick=st.integers(0, 7),
        then=st.sampled_from(["stay", "defer_her", "only_her", "restore"]),
    )
    def drop_shared_item(self, slot, pick, then):
        """A cited user drops the one item she shares with a clean row
        citing her: the row is no co-rater of her items any more, and
        only her lost-item record finds it.  *then* is what follows:
        nothing, a pass deferring her (her record must outlive it), a
        pass selecting only her, or a checkpoint + restore while she
        is still dirty (the record must travel in the checkpoint)."""
        found = self._sole_shared_item(slot, pick)
        if found is None:
            return
        user, item = found
        self.index.apply(RemoveRating(user, item))
        if then == "defer_her":
            with split_checked():
                self.index.refresh(
                    dirty_subset=self.index.dirty_users - {user}
                )
            assert user in self.index.dirty_users
        elif then == "only_her":
            with split_checked():
                self.index.refresh(dirty_subset=[user])
        elif then == "restore":
            self.checkpoint_and_restore()

    @rule(
        slot=st.integers(0, 63),
        item=st.integers(0, N_ITEMS - 1),
        overwrite=st.booleans(),
    )
    def fractional_rating(self, slot, item, overwrite):
        """A fractional rating takes cosine's passes off the product
        scoring; overwriting it with a whole one brings them back once
        no other fractional rating is left."""
        user = self._user(slot)
        self.index.apply(AddRating(user, item, 2.5))
        self._refresh_spying_on_scorer()
        if overwrite:
            self.index.apply(AddRating(user, item, 2.0))
            self._refresh_spying_on_scorer()

    def _refresh_spying_on_scorer(self):
        """A full refresh (checked exact) that scores off the candidate
        product exactly when :func:`product_scoring` accepts the pass,
        and then never calls the pair scorer: every pair, cross-shard
        offers included, is scored once, where it is planned."""
        index = self.index
        calls = {"_score_product": [], "_score_pairs": []}

        def counting(name):
            scorer = getattr(index, name)

            def score(*args):
                calls[name].append(1)
                return scorer(*args)

            return score

        for name in calls:
            setattr(index, name, counting(name))
        try:
            self.refresh()
        finally:
            for name in calls:
                delattr(index, name)
        stats = index.refresh_log[-1]
        operand = product_scoring(
            get_metric(self.metric), index.dataset, index.config.min_rating
        )
        values = index.dataset.matrix.data
        if self.metric == "cosine" and self.min_rating is None:
            fractional = (values != np.rint(values)).any()
            assert (operand is None) == fractional
        if operand is None:
            assert not calls["_score_product"]
        else:
            assert not calls["_score_pairs"]
            if stats.evaluations:
                assert calls["_score_product"]

    @rule(
        profile=st.dictionaries(
            st.integers(0, N_ITEMS - 1), st.integers(1, 5), max_size=4
        )
    )
    def add_user(self, profile):
        self.index.apply(
            AddUser(tuple(profile), tuple(float(r) for r in profile.values()))
        )

    @rule(slot=st.integers(0, 63))
    def remove_user(self, slot):
        self.index.apply(RemoveUser(self._user(slot)))

    # ------------------------------------------------------------------
    # Refreshes, durability, ownership
    # ------------------------------------------------------------------
    @rule(bits=st.integers(0, 2**12 - 1))
    def refresh_subset(self, bits):
        """Refresh an arbitrary subset of the dirty users; defer the rest."""
        dirty = sorted(self.index.dirty_users)
        subset = [
            user for i, user in enumerate(dirty) if bits >> (i % 12) & 1
        ]
        with split_checked():
            stats = self.index.refresh(dirty_subset=subset)
        assert stats.deferred_users == len(dirty) - len(subset)

    @rule()
    def refresh(self):
        with split_checked():
            self.index.refresh()
        assert not self.index.dirty_users
        assert self.index.graph == self._cold()  # ids AND sims, exact

    @rule()
    def checkpoint_and_restore(self):
        self.index.checkpoint(self.directory)
        sharded = self.index.n_shards > 1
        cls = ShardedKnnIndex if sharded else DynamicKnnIndex
        with split_checked():
            restored = cls.restore(self.directory, metric=self.metric)
        try:
            restored.detach_wal().close()
            assert restored.dataset == self.index.dataset
            assert restored.graph == self._cold()
            assert restored.pin().graph() == restored.graph
            if not self.index.dirty_users:
                assert restored.graph == self.index.graph
        finally:
            restored.close()

    @rule(
        slot=st.integers(0, 63),
        shard=st.integers(0, 1),
        n_shards=st.sampled_from([None, 1, 2]),
    )
    def rebalance(self, slot, shard, n_shards):
        target = self.index.n_shards if n_shards is None else n_shards
        plan = ShardPlan(
            moves=((self._user(slot), shard % target),), n_shards=n_shards
        )
        self.index.rebalance(plan)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def versions_are_monotonic(self):
        if self.index is None:
            return
        version = self.index.snapshot_version
        assert version >= self.version
        self.version = version

    @invariant()
    def pinned_snapshot_holds_the_live_rows(self):
        if self.index is None:
            return
        published = self.index.pin().graph()
        live = self.index.graph
        n_users = published.n_users
        assert (live.neighbors[:n_users] == published.neighbors).all()
        assert (live.sims[:n_users] == published.sims).all()
        assert (live.neighbors[n_users:] == MISSING).all()

    @invariant()
    def exact_prefixes_match_the_wide_cold_rebuild(self):
        if self.index is None or self.index.dirty_users:
            return
        index = self.index
        wide = replace(
            converged_config(index.config), k=index.config.k + RESERVE
        )
        cold = kiff(SimilarityEngine(index.dataset, self.metric), wide).graph
        neighbors, sims = index._rows()
        depth = index._depth[: neighbors.shape[0]]
        assert ((depth >= index.config.k) & (depth <= wide.k)).all()
        prefix = np.arange(wide.k) < depth[:, None]
        assert (neighbors[prefix] == cold.neighbors[prefix]).all()
        assert (sims[prefix] == cold.sims[prefix]).all()


class FlatSerialMachine(IndexMachine):
    n_shards = 1
    executor = "serial"


class TwoShardThreadsMachine(IndexMachine):
    n_shards = 2
    executor = "threads"


class FlatMinRatingMachine(IndexMachine):
    n_shards = 1
    executor = "serial"
    min_rating = 3.0


TestFlatSerial = FlatSerialMachine.TestCase
TestFlatSerial.settings = _budget()
TestTwoShardThreads = TwoShardThreadsMachine.TestCase
TestTwoShardThreads.settings = _budget()
TestFlatMinRating = FlatMinRatingMachine.TestCase
TestFlatMinRating.settings = _budget()
