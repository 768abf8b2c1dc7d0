"""Differential parity and recovery for the shard-parallel index.

The contract of :class:`ShardedKnnIndex` is that sharding is invisible
in the result: after any event interleaving, its graph is **bit-identical**
— neighbour ids and similarities — to the sequential
:class:`DynamicKnnIndex` driven by the same events (and therefore to a
cold converged rebuild).  The randomized suite below replays the
78-stream corpus (13 seeds x 3 metrics x 2 pivot settings) at 1, 2 and
4 shards; focused tests pin the shard-state ownership, the outbox
protocol, the thread executor's determinism, and partitioned
crash-recovery landing bit-identical to the uninterrupted sharded run.
"""

import numpy as np
import pytest

from repro import (
    BipartiteDataset,
    DynamicKnnIndex,
    KiffConfig,
    ShardedKnnIndex,
)
from repro.persistence import (
    PartitionedWriteAheadLog,
    PersistenceError,
    read_partitioned_wal,
)
from repro.streaming import (
    AddRating,
    AddUser,
    RemoveRating,
    RemoveUser,
    ShardMap,
    cold_rebuild_graph,
    ratings_batch,
)
from repro.similarity.engine import get_metric, product_scoring
from repro.streaming import sharding
from tests.conftest import random_dataset, split_checked
from tests.streaming.test_recovery import random_events


def sharded_events(seed, n_users, n_events=24, max_item=18):
    """A pre-generated random stream plus seeded refresh points."""
    events = random_events(seed, n_users, n_events=n_events, max_item=max_item)
    rng = np.random.default_rng(seed + 77)
    refresh_after = rng.random(len(events)) < 0.3
    return events, refresh_after


def drive(index, events, refresh_after):
    """Replay a pre-generated stream with its refresh schedule."""
    for event, refresh in zip(events, refresh_after):
        index.apply(event)
        if refresh:
            index.refresh()
    index.refresh()
    return index


class TestShardedParity:
    """78 randomized streams x 1/2/4 shards x exact equality."""

    @pytest.mark.parametrize("seed", range(13))
    @pytest.mark.parametrize("pivot", [True, False])
    @pytest.mark.parametrize("metric", ["cosine", "jaccard", "adamic_adar"])
    def test_sharded_equals_sequential(self, metric, pivot, seed):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 18)
        config = KiffConfig(k=4, pivot=pivot)
        reference = drive(
            DynamicKnnIndex(
                dataset, config, metric=metric, auto_refresh=False
            ),
            events,
            refresh_after,
        )
        for n_shards in (1, 2, 4):
            sharded = drive(
                ShardedKnnIndex(
                    dataset,
                    config,
                    metric=metric,
                    auto_refresh=False,
                    n_shards=n_shards,
                    executor="serial",
                ),
                events,
                refresh_after,
            )
            assert sharded.graph == reference.graph  # ids AND sims, exact
            assert sharded.dataset == reference.dataset
            assert sharded.last_seq == reference.last_seq

    @pytest.mark.parametrize("seed", range(3))
    def test_thread_executor_is_bit_identical(self, seed):
        """The thread pool must not change results vs serial shard order."""
        dataset = random_dataset(
            n_users=20, n_items=15, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 20)
        config = KiffConfig(k=4)
        serial = drive(
            ShardedKnnIndex(
                dataset, config, auto_refresh=False, n_shards=4,
                executor="serial",
            ),
            events,
            refresh_after,
        )
        threaded = ShardedKnnIndex(
            dataset, config, auto_refresh=False, n_shards=4,
            executor="threads",
        )
        drive(threaded, events, refresh_after)
        threaded.close()
        assert threaded.graph == serial.graph

    def test_non_profile_local_metric_parity(self):
        """Adamic-Adar's global item weights must stay exact under
        sharded dirtying too."""
        dataset = random_dataset(
            n_users=20, n_items=14, density=0.15, seed=5, ratings=True
        )
        events, refresh_after = sharded_events(5, 20, n_events=20)
        reference = drive(
            DynamicKnnIndex(
                dataset, KiffConfig(k=4), metric="adamic_adar",
                auto_refresh=False,
            ),
            events,
            refresh_after,
        )
        sharded = drive(
            ShardedKnnIndex(
                dataset, KiffConfig(k=4), metric="adamic_adar",
                auto_refresh=False, n_shards=3, executor="serial",
            ),
            events,
            refresh_after,
        )
        assert sharded.graph == reference.graph

    def test_auto_refresh_stays_exact(self, rated_dataset):
        from repro.streaming import cold_rebuild_graph

        index = ShardedKnnIndex(
            rated_dataset, KiffConfig(k=2), n_shards=2, executor="serial"
        )
        for user, item, rating in [(0, 3, 4.0), (4, 0, 2.0), (1, 4, 5.0)]:
            index.apply(ratings_batch([user], [item], [rating]))
            assert index.pending_events == 0
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config
            )

    def test_failed_refresh_is_retryable(self, rated_dataset, monkeypatch):
        """A worker failure mid-pass must leave cleared rows rebuildable."""
        from repro.streaming import cold_rebuild_graph

        index = ShardedKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False, n_shards=2,
            executor="serial",
        )
        index.apply(ratings_batch([0], [3], [4.0]))
        def exploding(*args):
            raise RuntimeError("metric blew up")

        # Both scorers: the pass may score off its candidate product.
        for scorer in ("_score_pairs", "_score_product"):
            monkeypatch.setattr(index, scorer, exploding)
        with pytest.raises(RuntimeError, match="blew up"):
            index.refresh()
        monkeypatch.undo()
        index.refresh()
        assert index.graph == cold_rebuild_graph(index.dataset, index.config)


class TestShardState:
    def test_invalid_construction(self, rated_dataset):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedKnnIndex(rated_dataset, KiffConfig(k=2), n_shards=0)
        with pytest.raises(ValueError, match="executor"):
            ShardedKnnIndex(
                rated_dataset, KiffConfig(k=2), executor="fibers"
            )

    def test_stage_a_gets_the_owned_dirty_slice(
        self, rated_dataset, monkeypatch
    ):
        """The one dirty set is split by owner: each shard's stage A
        sees every selected dirty user, and as its own only hers."""
        index = ShardedKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False, n_shards=2,
            executor="serial",
        )
        index.apply(ratings_batch([0, 1, 2], [4, 4, 4], [1.0, 2.0, 3.0]))
        assert index.dirty_users == frozenset({0, 1, 2})
        seen = {}
        original = sharding._Shard.affected

        def recording(shard, all_dirty, my_dirty, deferred, lost):
            seen[shard.shard_id] = (set(all_dirty.tolist()), my_dirty)
            return original(shard, all_dirty, my_dirty, deferred, lost)

        monkeypatch.setattr(sharding._Shard, "affected", recording)
        index.refresh()
        assert len(index.dirty_users) == 0
        for shard_id, (all_dirty, mine) in seen.items():
            assert all_dirty == {0, 1, 2}
            assert sorted(mine.tolist()) == [
                user
                for user in (0, 1, 2)
                if ShardMap(2).owner(user) == shard_id
            ]
        assert sorted(seen) == [0, 1]

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_stage_a_split_matches_a_scan_of_owned_rows(self, executor):
        """Each shard's referrers are exactly the owned rows a scan of
        every row finds citing a selected user: drops, removals and
        deferred passes included."""
        dataset = random_dataset(
            n_users=30, n_items=14, density=0.2, seed=5, ratings=True
        )
        index = ShardedKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, n_shards=2,
            executor=executor,
        )
        rng = np.random.default_rng(5)
        try:
            with split_checked() as checked:
                for step in range(16):
                    user = int(rng.integers(0, index.n_users))
                    profile = sorted(index.builder.profile(user))
                    if step % 5 == 4:
                        event = RemoveUser(user)
                    elif profile and step % 2:
                        event = RemoveRating(user, profile[0])
                    else:
                        event = AddRating(
                            user,
                            int(rng.integers(0, 14)),
                            float(rng.integers(1, 6)),
                        )
                    index.apply(event)
                    dirty = sorted(index.dirty_users)
                    subset = dirty[::2] if step % 3 else None
                    index.refresh(dirty_subset=subset)
                index.refresh()
            assert checked
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config
            )
        finally:
            index.close()

    def test_planned_pairs_are_owned_by_shard(self, monkeypatch):
        """Each shard derives candidate sets only for rows it owns and
        keeps only those rows' own pairs; the mirrors into other
        shards' rows travel by outbox."""
        dataset = random_dataset(
            n_users=24, n_items=16, density=0.2, seed=1, ratings=True
        )
        index = ShardedKnnIndex(
            dataset, KiffConfig(k=3, pivot=False), auto_refresh=False,
            n_shards=3, executor="serial",
        )
        plans = []
        original = sharding.plan_shard_pairs

        def recording(shard_id, shard_map, rebuilt, *rest):
            result = original(shard_id, shard_map, rebuilt, *rest)
            plans.append((shard_id, rebuilt, result))
            return result

        monkeypatch.setattr(sharding, "plan_shard_pairs", recording)
        index.apply(ratings_batch([0, 1, 5], [2, 2, 2], [3.0, 4.0, 5.0]))
        index.refresh()
        assert sorted(shard_id for shard_id, _, _ in plans) == [0, 1, 2]
        planned = 0
        for shard_id, rebuilt, (rows, _, _, outboxes) in plans:
            assert all(ShardMap(3).owner(row) == shard_id for row in rebuilt)
            assert np.isin(rows, rebuilt).all()
            assert all(box.target != shard_id for box in outboxes)
            planned += rows.size
        assert planned > 0

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    @pytest.mark.parametrize(
        "fractional", [False, True], ids=["product-scored", "pair-scored"]
    )
    def test_outboxes_carry_cross_shard_mirrors(self, fractional, executor):
        """Every outbox targets a foreign shard, whose rows it carries
        offers of this shard's dirty users to, each at the score the
        planning shard gave the pair: the pair scorer's bits for it, on
        a pass scored off the candidate product (whole ratings) as on
        one scored pair by pair (fractional ratings)."""
        dataset = random_dataset(
            n_users=30, n_items=10, density=0.35, seed=3, ratings=True
        )
        if fractional:
            ratings = dataset.matrix.tocoo()
            values = ratings.data.copy()
            values[::2] += 0.5
            dataset = BipartiteDataset.from_edges(
                ratings.row, ratings.col, values, n_users=30, n_items=10
            )
        index = ShardedKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False, n_shards=2,
            executor=executor,
        )
        try:
            index.apply(ratings_batch([0], [0], [5.0]))
            index.refresh()
            operand = product_scoring(
                get_metric("cosine"), index.dataset, None
            )
            assert (operand is None) == fractional
            assert index.last_outboxes  # a dense dataset crosses shards
            for outbox in index.last_outboxes:
                assert all(
                    ShardMap(2).owner(row) == outbox.target
                    for row in outbox.rows.tolist()
                )
                assert all(
                    ShardMap(2).owner(user) != outbox.target
                    for user in outbox.candidates.tolist()
                )
                expected = index._score_pairs(outbox.candidates, outbox.rows)
                assert outbox.sims.tobytes() == expected.tobytes()
        finally:
            index.close()

    def test_close_is_idempotent_and_terminal(self, rated_dataset):
        index = ShardedKnnIndex(
            rated_dataset, KiffConfig(k=2), n_shards=2, executor="threads"
        )
        index.apply(ratings_batch([0], [3], [4.0]))
        index.close()
        index.close()
        # close() retires the index: no silent pool re-creation.
        with pytest.raises(RuntimeError, match="closed"):
            index.apply(ratings_batch([1], [3], [4.0]))
        index.close()


class TestShardedRecovery:
    """Kill at a random event; partitioned recovery is bit-identical."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    def test_recovery_equals_uninterrupted_sharded_run(
        self, tmp_path, metric, seed
    ):
        dataset = random_dataset(
            n_users=16, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events = random_events(seed, n_users=16)
        rng = np.random.default_rng(seed + 2048)
        kill_at = int(rng.integers(1, len(events)))
        checkpoint_every = int(rng.integers(2, 8))
        config = KiffConfig(k=4)
        state = tmp_path / "state"

        live = ShardedKnnIndex(
            dataset,
            config,
            metric=metric,
            auto_refresh=False,
            n_shards=2,
            executor="serial",
            wal=PartitionedWriteAheadLog(state, 2, fsync_every=4),
        )
        live.checkpoint(state)
        for done, event in enumerate(events[:kill_at], start=1):
            live.apply(event)
            if done % checkpoint_every == 0:
                if rng.random() < 0.5:  # checkpoints mid-dirty and clean
                    live.refresh()
                live.checkpoint(state)
        del live  # the crash: in-memory state is gone

        reference = ShardedKnnIndex(
            dataset, config, metric=metric, auto_refresh=False, n_shards=2,
            executor="serial",
        )
        reference.apply(events[:kill_at])
        reference.refresh()

        restored = ShardedKnnIndex.restore(state, executor="serial")
        assert restored.n_shards == 2
        assert restored.graph == reference.graph  # ids AND sims, exact
        assert restored.dataset == reference.dataset
        assert restored.last_seq == reference.last_seq

        # The recovered index keeps journaling into its segments; finish
        # the stream and a second recovery still agrees end to end.
        restored.apply(events[kill_at:])
        restored.refresh()
        full = ShardedKnnIndex(
            dataset, config, metric=metric, auto_refresh=False, n_shards=2,
            executor="serial",
        )
        full.apply(events)
        full.refresh()
        assert restored.graph == full.graph
        rerestored = ShardedKnnIndex.restore(state, executor="serial")
        assert rerestored.graph == full.graph

    def test_events_route_to_owner_segments(self, tmp_path):
        dataset = random_dataset(n_users=10, n_items=8, seed=4, ratings=True)
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
            wal=PartitionedWriteAheadLog(tmp_path, 2),
        )
        index.apply(
            [AddRating(0, 3, 4.0), AddRating(1, 3, 2.0), RemoveUser(3)]
        )
        new_user = index.apply(AddUser((2,), (1.0,))).new_users[0]
        from repro.persistence import read_wal

        for shard in range(2):
            for _, event in read_wal(tmp_path / f"wal-{shard}.jsonl"):
                owner = (
                    ShardMap(2).owner(new_user)
                    if isinstance(event, AddUser)
                    else ShardMap(2).owner(event.user)
                )
                assert owner == shard
        # The merged reader reconstructs the global order 1..4.
        assert [seq for seq, _ in read_partitioned_wal(tmp_path)] == [
            1,
            2,
            3,
            4,
        ]

    def test_flat_index_state_reshards(self, tmp_path):
        """ShardedKnnIndex.restore reads the flat index's one-shard
        state at any shard count: ownership is a pure function of the
        user id."""
        dataset = random_dataset(n_users=14, n_items=12, seed=2, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply([AddRating(0, 5, 4.0), AddUser((1, 5), (3.0, 2.0))])
        assert ShardedKnnIndex.restore(state).n_shards == 1  # as recorded
        for n_shards in (2, 3):
            adopted = ShardedKnnIndex.restore(
                state, n_shards=n_shards, executor="serial"
            )
            assert adopted.n_shards == n_shards
            assert adopted.graph == live.graph
            assert adopted.last_seq == live.last_seq

    def test_rejected_batch_rolls_back_every_segment(self, tmp_path):
        """Disk-full mid-batch: no segment keeps a phantom record."""
        dataset = random_dataset(n_users=12, n_items=10, seed=9, ratings=True)
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
            wal=PartitionedWriteAheadLog(tmp_path, 2),
        )
        index.checkpoint(tmp_path)
        from repro.streaming import Batch

        batch = Batch((AddRating(0, 4, 3.0), AddRating(1, 4, 2.0)))
        real_append = index.wal.segments[1].append
        index.wal.segments[1].append = lambda *a, **k: (_ for _ in ()).throw(
            OSError("no space left on device")
        )
        with pytest.raises(OSError, match="no space"):
            index.apply(batch)
        index.wal.segments[1].append = real_append
        assert index.last_seq == 0
        assert index.pending_events == 0
        assert list(read_partitioned_wal(tmp_path)) == []
        result = index.apply(batch)  # the retry, after space was freed
        assert result.last_seq == 2
        index.refresh()
        restored = ShardedKnnIndex.restore(tmp_path, executor="serial")
        assert restored.graph == index.graph

    def test_bare_segment_cannot_attach(self, rated_dataset, tmp_path):
        from repro.persistence import WriteAheadLog

        for index in (
            DynamicKnnIndex(rated_dataset, KiffConfig(k=2)),
            ShardedKnnIndex(
                rated_dataset, KiffConfig(k=2), n_shards=2, executor="serial"
            ),
        ):
            with pytest.raises(
                PersistenceError, match="PartitionedWriteAheadLog"
            ):
                index.attach_wal(WriteAheadLog(tmp_path / "wal-0.jsonl"))
