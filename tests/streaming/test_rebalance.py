"""Live shard re-balancing: WAL-fenced migration without stopping ingest.

The contract of :meth:`ShardedKnnIndex.rebalance` is that ownership is
invisible in the result: moving users between shards (or changing the
shard count) mid-stream leaves the graph **bit-identical** — neighbour
ids and similarities — to the sequential :class:`DynamicKnnIndex` on
the same events, at every point of the stream, on every executor.  The
fence pair (``migrate_begin``/``migrate_commit``) journaled around each
flip makes the migration crash-safe: recovery replays a committed flip
at its exact sequence position and rolls an uncommitted one back.
"""

import asyncio
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DynamicKnnIndex,
    KiffConfig,
    KnnServer,
    ShardMap,
    ShardPlan,
    ShardedKnnIndex,
)
from repro.graph import load_graph
from repro.persistence import (
    PartitionedWriteAheadLog,
    read_partitioned_wal,
)
from repro.scheduling import RefreshScheduler, SchedulerPolicy
from repro.streaming import (
    AddRating,
    MigrateCommit,
    RemoveUser,
    cold_rebuild_graph,
)
from tests.conftest import random_dataset
from tests.streaming.test_sharding import drive, sharded_events

REPO_ROOT = Path(__file__).resolve().parents[2]


def _plan_for(seed):
    """A seed-dependent mid-stream plan: moves or a shard-count change."""
    if seed % 3 == 0:
        return ShardPlan(moves=((1, 1), (4, 0), (7, 1)))
    if seed % 3 == 1:
        return ShardPlan(n_shards=3)
    return ShardPlan(moves=((0, 1),), n_shards=4)


def drive_with_rebalance(index, events, refresh_after, plan, at):
    """Replay a stream, injecting ``rebalance(plan)`` after event *at*."""
    for done, (event, refresh) in enumerate(
        zip(events, refresh_after), start=1
    ):
        index.apply(event)
        if refresh:
            index.refresh()
        if done == at:
            index.rebalance(plan)
    index.refresh()
    return index


class TestShardMap:
    def test_modulo_base_and_overrides(self):
        base = ShardMap(3)
        assert [base.owner(user) for user in range(6)] == [0, 1, 2, 0, 1, 2]
        moved = base.with_moves([(4, 2), (5, 0)])
        assert moved.owner(4) == 2
        assert moved.owner(5) == 0
        assert moved.owner(1) == 1  # untouched users keep the modulo rule
        assert moved.overrides == {4: 2, 5: 0}

    def test_redundant_overrides_normalize_away(self):
        assert ShardMap(2, {4: 0, 5: 1}).overrides == {}
        assert ShardMap(2, {4: 0, 5: 0}).overrides == {5: 0}

    def test_owners_matches_owner_elementwise(self):
        shard_map = ShardMap(3, {1: 2, 9: 0, 14: 1})
        users = np.arange(20, dtype=np.int64)
        vectorized = shard_map.owners(users)
        assert vectorized.tolist() == [
            shard_map.owner(user) for user in users
        ]

    def test_owned_rows_partition_the_population(self):
        shard_map = ShardMap(3, {0: 2, 7: 0})
        rows = [shard_map.owned_rows(shard, 11).tolist() for shard in (0, 1, 2)]
        flat = sorted(row for shard_rows in rows for row in shard_rows)
        assert flat == list(range(11))
        assert 0 in rows[2] and 7 in rows[0]

    def test_validation_and_equality(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(2, {3: 2})
        assert ShardMap(2, {3: 0}) == ShardMap(2, {3: 0})
        assert ShardMap(2, {3: 0}) != ShardMap(2)
        assert hash(ShardMap(2, {3: 0})) == hash(ShardMap(2, {3: 0}))

    def test_pickles_for_worker_transport(self):
        shard_map = ShardMap(4, {2: 1, 11: 3})
        clone = pickle.loads(pickle.dumps(shard_map))
        assert clone == shard_map
        assert clone.owner(2) == 1


class TestRebalanceParity:
    """Mid-stream rebalance injection over the randomized corpus."""

    @pytest.mark.parametrize("seed", range(13))
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    def test_rebalanced_equals_sequential(self, metric, seed):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events, refresh_after = sharded_events(seed, 18)
        config = KiffConfig(k=4)
        reference = drive(
            DynamicKnnIndex(
                dataset, config, metric=metric, auto_refresh=False
            ),
            events,
            refresh_after,
        )
        sharded = drive_with_rebalance(
            ShardedKnnIndex(
                dataset,
                config,
                metric=metric,
                auto_refresh=False,
                n_shards=2,
                executor="serial",
            ),
            events,
            refresh_after,
            _plan_for(seed),
            at=len(events) // 2,
        )
        assert sharded.graph == reference.graph  # ids AND sims, exact
        assert sharded.dataset == reference.dataset

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_rebalanced_parity_on_parallel_executors(self, executor):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=3, ratings=True
        )
        events, refresh_after = sharded_events(3, 18)
        config = KiffConfig(k=4)
        reference = drive(
            DynamicKnnIndex(dataset, config, auto_refresh=False),
            events,
            refresh_after,
        )
        sharded = ShardedKnnIndex(
            dataset,
            config,
            auto_refresh=False,
            n_shards=2,
            executor=executor,
        )
        try:
            third = len(events) // 3
            for done, (event, refresh) in enumerate(
                zip(events, refresh_after), start=1
            ):
                sharded.apply(event)
                if refresh:
                    sharded.refresh()
                if done == third:
                    sharded.rebalance(ShardPlan(moves=((2, 1), (5, 0))))
                if done == 2 * third:
                    sharded.rebalance(ShardPlan(n_shards=3))
            sharded.refresh()
            assert sharded.graph == reference.graph
        finally:
            sharded.close()
            reference.close()


class TestRebalanceApi:
    def _index(self, n_shards=2, n_users=14, executor="serial"):
        dataset = random_dataset(
            n_users=n_users, n_items=12, density=0.2, seed=5, ratings=True
        )
        return ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=n_shards,
            executor=executor,
        )

    def test_noop_plan_neither_moves_nor_journals(self, tmp_path):
        index = self._index()
        index.attach_wal(PartitionedWriteAheadLog(tmp_path, 2))
        stats = index.rebalance(ShardPlan(moves=((0, 0), (3, 1))))
        assert stats.users_moved == 0
        assert stats.seq_begin == stats.seq_commit == index.last_seq
        assert index.wal.last_seq == 0  # no fence pair for a no-op
        index.close()

    def test_plan_validation(self):
        index = self._index()
        with pytest.raises(TypeError):
            index.rebalance({"n_shards": 3})
        with pytest.raises(ValueError):
            index.rebalance(ShardPlan(moves=((0, 7),)))  # shard range
        with pytest.raises(ValueError):
            index.rebalance(ShardPlan(moves=((99, 1),)))  # user range
        with pytest.raises(ValueError):
            index.rebalance(ShardPlan(n_shards=0))
        index.close()

    def test_stats_and_log(self):
        index = self._index()
        stats = index.rebalance(ShardPlan(moves=((1, 0),)))
        assert stats.users_moved == 1
        assert (stats.shards_before, stats.shards_after) == (2, 2)
        assert stats.wall_time >= 0.0
        assert index.rebalance_log == [stats]
        assert index.shard_map.overrides == {1: 0}
        index.close()

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    @pytest.mark.parametrize(
        "plan",
        [ShardPlan(moves=((1, 0), (6, 1))), ShardPlan(n_shards=3)],
        ids=["same-count", "count-change"],
    )
    def test_moved_users_stay_clean(self, plan, executor):
        """A flip is bookkeeping: no user goes dirty and the next pass
        evaluates nothing, whichever flip kind and executor."""
        index = self._index(executor=executor)
        try:
            index.refresh()
            graph_before = index.graph
            stats = index.rebalance(plan)
            assert stats.users_moved > 0
            assert not index.dirty_users
            assert index.refresh().evaluations == 0
            assert index.graph == graph_before
        finally:
            index.close()

    def test_snapshot_republishes_after_rebalance(self):
        index = self._index()
        index.refresh()
        before = index.pin()
        index.rebalance(ShardPlan(moves=((1, 0),)))
        after = index.pin()
        assert after.version == index.last_seq
        np.testing.assert_array_equal(
            before.neighbors_of(1), after.neighbors_of(1)
        )
        index.close()


class TestRebalanceDurability:
    def _durable(self, tmp_path, n_shards=2):
        dataset = random_dataset(
            n_users=16, n_items=14, density=0.15, seed=5, ratings=True
        )
        events, refresh_after = sharded_events(5, 16)
        state = tmp_path / "state"
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=n_shards,
            executor="serial",
            wal=PartitionedWriteAheadLog(state, n_shards, fsync_every=4),
        )
        index.checkpoint(state)
        return index, events, refresh_after, state

    def test_restore_replays_committed_flips(self, tmp_path):
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:10], refresh_after[:10])
        index.rebalance(ShardPlan(moves=((0, 1), (3, 0))))
        drive(index, events[10:18], refresh_after[10:18])
        index.rebalance(ShardPlan(n_shards=3))
        drive(index, events[18:], refresh_after[18:])
        reference_graph = index.graph
        reference_map = index.shard_map
        reference_seq = index.last_seq
        del index  # the crash: in-memory state is gone

        restored = ShardedKnnIndex.restore(state, executor="serial")
        assert restored.n_shards == 3
        assert restored.shard_map == reference_map
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        # The fence pair is journaled as consecutive control records.
        kinds = [
            type(event).__name__
            for _, event in read_partitioned_wal(state)
        ]
        assert kinds.count("MigrateBegin") == 2
        assert kinds.count("MigrateCommit") == 2
        restored.close()

    def test_checkpoint_carries_overrides(self, tmp_path):
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:8], refresh_after[:8])
        index.rebalance(ShardPlan(moves=((0, 1),)))
        index.refresh()
        index.checkpoint(state)  # overrides must survive via meta alone
        drive(index, events[8:14], refresh_after[8:14])
        reference_graph, reference_seq = index.graph, index.last_seq
        reference_map = index.shard_map
        del index

        restored = ShardedKnnIndex.restore(state, executor="serial")
        assert restored.shard_map == reference_map
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        restored.close()

    def test_begin_without_commit_rolls_back(self, tmp_path):
        """A crash between the fences must not flip ownership."""
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:10], refresh_after[:10])
        reference_graph = index.graph
        reference_map = index.shard_map
        crash_seq = index.last_seq
        del index
        dangling = {
            "seq": crash_seq + 1,
            "type": "migrate_begin",
            "moves": [[0, 1], [3, 0]],
            "n_shards": None,
        }
        with open(state / "wal-0.jsonl", "a") as fh:
            fh.write(json.dumps(dangling) + "\n")

        restored = ShardedKnnIndex.restore(state, executor="serial")
        assert restored.shard_map == reference_map  # no flip
        assert restored.graph == reference_graph
        assert restored.last_seq == crash_seq + 1  # fence consumed
        # Journaling continues cleanly past the dangling fence.
        restored.apply(AddRating(1, 3, 4.0))
        restored.refresh()
        final_graph, final_seq = restored.graph, restored.last_seq
        restored.close()
        again = ShardedKnnIndex.restore(state, executor="serial")
        assert again.graph == final_graph
        assert again.last_seq == final_seq
        again.close()

    def test_explicit_shards_overrides_replayed_flip(self, tmp_path):
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:10], refresh_after[:10])
        index.rebalance(ShardPlan(n_shards=3))
        index.refresh()
        reference_graph, reference_seq = index.graph, index.last_seq
        del index
        restored = ShardedKnnIndex.restore(
            state, n_shards=4, executor="serial"
        )
        assert restored.n_shards == 4
        assert restored.wal.n_shards == 4  # segments re-homed
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        restored.close()

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_restore_below_the_count_a_move_was_journaled_at(
        self, tmp_path, n_shards
    ):
        """A 2-shard move fence replays at 2 shards, whatever the target.

        Pinning one shard used to replay the fence's override (user 0
        to shard 1) against a one-shard map and raise.
        """
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:10], refresh_after[:10])
        index.rebalance(ShardPlan(moves=((0, 1), (3, 0))))
        drive(index, events[10:], refresh_after[10:])
        reference_graph, reference_seq = index.graph, index.last_seq
        del index
        restored = ShardedKnnIndex.restore(
            state, n_shards=n_shards, executor="serial"
        )
        assert restored.n_shards == n_shards
        assert restored.shard_map == ShardMap(n_shards)
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        restored.close()
        flat = DynamicKnnIndex.restore(state)
        assert len(flat._shards) == 1
        assert flat.graph == reference_graph
        flat.close()

    def test_reshard_reopens_wal_at_new_segment_count(self, tmp_path):
        index, events, refresh_after, state = self._durable(tmp_path)
        drive(index, events[:6], refresh_after[:6])
        index.rebalance(ShardPlan(n_shards=4))
        assert index.wal.n_shards == 4
        seq_before = index.last_seq
        index.apply(AddRating(3, 2, 4.0))  # lands in a new-count segment
        assert index.last_seq == seq_before + 1
        index.refresh()
        reference_graph, reference_seq = index.graph, index.last_seq
        del index
        restored = ShardedKnnIndex.restore(state)
        assert restored.n_shards == 4
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        restored.close()


class TestRestoreReshardingEdgeCases:
    def test_rebalance_down_to_one_shard(self, tmp_path):
        dataset = random_dataset(
            n_users=14, n_items=12, density=0.2, seed=9, ratings=True
        )
        events, refresh_after = sharded_events(9, 14)
        state = tmp_path / "state"
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=3,
            executor="serial",
            wal=PartitionedWriteAheadLog(state, 3, fsync_every=4),
        )
        index.checkpoint(state)
        drive(index, events[:10], refresh_after[:10])
        stats = index.rebalance(ShardPlan(n_shards=1))
        assert stats.shards_after == 1
        drive(index, events[10:], refresh_after[10:])
        reference_graph, reference_seq = index.graph, index.last_seq
        reference = drive(
            DynamicKnnIndex(dataset, KiffConfig(k=3), auto_refresh=False),
            events,
            refresh_after,
        )
        assert reference_graph == reference.graph
        del index
        restored = ShardedKnnIndex.restore(state)
        assert restored.n_shards == 1
        assert restored.graph == reference_graph
        assert restored.last_seq == reference_seq
        restored.close()

    def test_tombstoned_users_mid_plan(self, tmp_path):
        """Moving a removed (tombstoned) user is a harmless no-op row."""
        dataset = random_dataset(
            n_users=14, n_items=12, density=0.2, seed=4, ratings=True
        )
        state = tmp_path / "state"
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
            wal=PartitionedWriteAheadLog(state, 2, fsync_every=4),
        )
        index.checkpoint(state)
        index.apply([RemoveUser(3), AddRating(1, 5, 4.0)])
        index.refresh()
        stats = index.rebalance(ShardPlan(moves=((3, 0), (1, 0))))
        assert stats.users_moved >= 1
        index.refresh()
        reference = DynamicKnnIndex(
            dataset, KiffConfig(k=3), auto_refresh=False
        )
        reference.apply([RemoveUser(3), AddRating(1, 5, 4.0)])
        reference.refresh()
        assert index.graph == reference.graph
        reference_graph, reference_map = index.graph, index.shard_map
        del index
        restored = ShardedKnnIndex.restore(state)
        assert restored.shard_map == reference_map
        assert restored.graph == reference_graph
        restored.close()


class TestSchedulerComposition:
    def _scheduled(self, queue_bound=None):
        dataset = random_dataset(
            n_users=14, n_items=12, density=0.2, seed=6, ratings=True
        )
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
        )
        policy = SchedulerPolicy(
            max_event_lag=1000, queue_bound=queue_bound
        )
        return RefreshScheduler(index, policy)

    def _assert_drains_to_parity(self, scheduler):
        index = scheduler.index
        scheduler.drain()
        assert not index.dirty_users
        reference = DynamicKnnIndex(
            index.dataset, KiffConfig(k=3), auto_refresh=False
        )
        reference.refresh()
        assert index.graph == reference.graph
        reference.close()
        scheduler.close()

    def test_migration_at_the_queue_bound_adds_no_work(self):
        scheduler = self._scheduled(queue_bound=4)
        index = scheduler.index
        index.refresh()
        # Fill the queue right up to the bound, then rebalance: the
        # flip dirties nobody, so the queue neither grows nor sheds.
        for user in range(4):
            scheduler.submit(AddRating(user, 2, 2.5))
        assert scheduler.queue_depth == 4
        dirty_before = index.dirty_users
        signals_before = index.maintenance.scheduler_backpressure
        stats = index.rebalance(ShardPlan(moves=((1, 0), (6, 1))))
        assert stats.users_moved == 2
        assert index.dirty_users == dirty_before
        assert index.maintenance.scheduler_backpressure == signals_before
        self._assert_drains_to_parity(scheduler)

    def test_reshard_mid_schedule_drains_to_parity(self):
        scheduler = self._scheduled()
        index = scheduler.index
        index.refresh()
        scheduler.submit(AddRating(3, 2, 4.0))
        index.rebalance(ShardPlan(n_shards=3))
        assert index.n_shards == 3
        self._assert_drains_to_parity(scheduler)


class TestServeRebalanceOp:
    @pytest.fixture
    def index(self):
        dataset = random_dataset(
            n_users=20, n_items=15, density=0.2, seed=12, ratings=True
        )
        ix = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
        )
        yield ix
        ix.close()

    def _run(self, index, scenario, **kwargs):
        async def wrapper():
            server = KnnServer(index, port=0, **kwargs)
            await server.start()
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    return await scenario(server, reader, writer)
                finally:
                    writer.close()
            finally:
                await server.stop()

        return asyncio.run(wrapper())

    @staticmethod
    async def _ask(reader, writer, request):
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=10)
        return json.loads(line)

    def test_rebalance_op_flips_ownership_live(self, index):
        async def scenario(server, reader, writer):
            stats = await self._ask(reader, writer, {"op": "stats"})
            assert stats["sharding"]["n_shards"] == 2
            assert stats["sharding"]["rebalances"] == 0
            reply = await self._ask(
                reader,
                writer,
                {"op": "rebalance", "shards": 3, "moves": [[1, 0]]},
            )
            assert reply["ok"] is True
            assert reply["shards_after"] == 3
            assert reply["users_moved"] > 0
            stats = await self._ask(reader, writer, {"op": "stats"})
            assert stats["sharding"]["n_shards"] == 3
            assert stats["sharding"]["overrides"] == 1
            assert stats["sharding"]["rebalances"] == 1
            # Queries keep answering on the republished snapshot.
            reply = await self._ask(
                reader, writer, {"op": "neighbors", "user": 1}
            )
            assert reply["ok"] is True

        self._run(index, scenario)

    def test_readers_answer_while_rebalance_waits_on_the_writer(
        self, index
    ):
        """A rebalance queued behind a held ``mutate_lock`` (a writer
        mid-refresh) must not stall the event loop: a ``neighbors``
        request on another connection is answered before the lock is
        released, and the rebalance reply follows the release."""
        lock = threading.Lock()
        lock.acquire()
        fired = []

        def failsafe_release():
            fired.append(True)
            lock.release()

        # Fail-safe: a blocked event loop cannot run the release below,
        # so a timer frees the lock and the test fails instead of hanging.
        failsafe = threading.Timer(5.0, failsafe_release)
        failsafe.start()

        async def scenario(server, reader, writer):
            writer.write(
                json.dumps(
                    {"op": "rebalance", "shards": 3, "moves": [[1, 0]]}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.1)  # the dispatcher takes the rebalance
            host, port = server.address
            reader2, writer2 = await asyncio.open_connection(host, port)
            try:
                reply = await self._ask(
                    reader2, writer2, {"op": "neighbors", "user": 2}
                )
                answered_while_held = not fired
            finally:
                writer2.close()
            failsafe.cancel()
            failsafe.join(timeout=10)
            assert not failsafe.is_alive()
            if not fired:
                lock.release()
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            return reply, answered_while_held, json.loads(line)

        reply, answered_while_held, rebalanced = self._run(
            index, scenario, mutate_lock=lock
        )
        assert reply["ok"] is True
        assert answered_while_held
        assert rebalanced["ok"] is True
        assert rebalanced["shards_after"] == 3
        assert index.n_shards == 3

    def test_rebalance_op_on_default_index_stays_exact(self):
        """The one index class: a default (one-shard, serial)
        ``DynamicKnnIndex`` re-shards live like any other."""
        dataset = random_dataset(
            n_users=12, n_items=10, density=0.2, seed=1, ratings=True
        )
        flat = DynamicKnnIndex(dataset, KiffConfig(k=3), auto_refresh=False)

        async def scenario(server, reader, writer):
            reply = await self._ask(
                reader,
                writer,
                {"op": "rebalance", "shards": 2, "moves": [[3, 0]]},
            )
            assert reply["ok"] is True
            assert reply["shards_before"] == 1
            assert reply["shards_after"] == 2
            stats = await self._ask(reader, writer, {"op": "stats"})
            assert stats["sharding"] == {
                "n_shards": 2,
                "executor": "serial",
                "overrides": 1,
                "rebalances": 1,
            }

        try:
            self._run(flat, scenario)
            flat.apply(AddRating(3, 2, 4.0))
            flat.refresh()
            assert flat.graph == cold_rebuild_graph(
                flat.dataset, flat.config
            )
        finally:
            flat.close()


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGKILL")
class TestSigkillMidMigrationHistory:
    """Real-crash drill through the example script, across a fence."""

    def run_example(self, state_dir, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "examples" / "streaming_updates.py"),
                "--state-dir",
                str(state_dir),
                "--checkpoint-every",
                "10",
                "--seed",
                "11",
                "--shards",
                "2",
                "--executor",
                "serial",
                "--rebalance-after",
                "20",
                "--rebalance-to",
                "3",
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sigkill_after_rebalance_recovers_bit_identically(
        self, tmp_path
    ):
        killed_dir = tmp_path / "killed"
        proc = self.run_example(
            killed_dir, "--events", "60", "--kill-after", "37"
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # Uninterrupted reference: same seed, stopped cleanly at event 37.
        ref_dir = tmp_path / "reference"
        proc = self.run_example(ref_dir, "--events", "37")
        assert proc.returncode == 0, proc.stderr
        restored = ShardedKnnIndex.restore(killed_dir)
        assert restored.n_shards == 3  # the replayed fence flipped it
        assert any(
            isinstance(event, MigrateCommit)
            for _, event in read_partitioned_wal(killed_dir)
        )
        assert restored.graph == load_graph(ref_dir / "final-graph.npz")
        restored.close()
