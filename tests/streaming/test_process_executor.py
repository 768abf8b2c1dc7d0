"""The process-backed shard executor: parity, crash recovery, cleanup.

``executor="processes"`` must be invisible in the result — the same
bit-identical contract the thread/serial executors carry — while its
failure modes are physical: worker processes die (SIGKILL here), and
shared-memory segments must never outlive the index.  The suite covers:

* a parity subset of the randomized stream corpus (1/2/4 shards, both
  metrics, both pivot settings) against the sequential
  :class:`DynamicKnnIndex`,
* worker SIGKILL at several points (mid-stream, with shipped deltas
  pending, repeatedly) — the pool must respawn, replay the delta tail
  and land on the exact graph,
* partitioned checkpoint/restore driven with the process executor,
* shared-memory hygiene: no orphaned blocks after ``close()`` or GC.
"""

import gc
import os
import signal
import time
from multiprocessing import shared_memory

import pytest

from repro import DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.persistence import PartitionedWriteAheadLog
from repro.streaming import ratings_batch
from tests.conftest import random_dataset
from tests.streaming.test_sharding import drive, sharded_events


def make_processes_index(dataset, config, **kwargs):
    return ShardedKnnIndex(
        dataset, config, auto_refresh=False, executor="processes", **kwargs
    )


def block_exists(name: str) -> bool:
    """Is the shared-memory segment *name* still linked?"""
    try:
        block = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    block.close()
    return True


def wait_dead(pid: int, timeout: float = 5.0) -> None:
    """Block until *pid* is gone (reaped or reparented-and-exited)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.01)


class TestProcessParity:
    """Corpus subset: the worker fan-out must be invisible in the result."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    def test_processes_equal_sequential(self, metric, seed):
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
        for n_shards in (1, 2, 4):
            index = drive(
                make_processes_index(
                    dataset, config, metric=metric, n_shards=n_shards
                ),
                events,
                refresh_after,
            )
            try:
                assert index.graph == reference.graph  # ids AND sims
                assert index.dataset == reference.dataset
                assert index.last_seq == reference.last_seq
            finally:
                index.close()

    def test_pivot_off_parity(self):
        dataset = random_dataset(
            n_users=20, n_items=14, density=0.15, seed=9, ratings=True
        )
        events, refresh_after = sharded_events(9, 20)
        config = KiffConfig(k=4, pivot=False)
        reference = drive(
            DynamicKnnIndex(dataset, config, auto_refresh=False),
            events,
            refresh_after,
        )
        index = drive(
            make_processes_index(dataset, config, n_shards=3),
            events,
            refresh_after,
        )
        try:
            assert index.graph == reference.graph
        finally:
            index.close()

    def test_non_profile_local_metric_parity(self):
        """Adamic-Adar re-derives its item weights worker-side from the
        shared matrix; the result must still match exactly."""
        dataset = random_dataset(
            n_users=20, n_items=14, density=0.15, seed=5, ratings=True
        )
        events, refresh_after = sharded_events(5, 20, n_events=20)
        config = KiffConfig(k=4)
        reference = drive(
            DynamicKnnIndex(
                dataset, config, metric="adamic_adar", auto_refresh=False
            ),
            events,
            refresh_after,
        )
        index = drive(
            make_processes_index(
                dataset, config, metric="adamic_adar", n_shards=2
            ),
            events,
            refresh_after,
        )
        try:
            assert index.graph == reference.graph
        finally:
            index.close()

    def test_custom_profile_index_is_rejected(self, rated_dataset):
        """Workers rebuild the base ProfileIndex; a subclass's extra
        state cannot travel, so refresh must fail loudly, not drift."""
        from repro.similarity.base import ProfileIndex

        class ExtendedIndex(ProfileIndex):
            pass

        index = make_processes_index(
            rated_dataset, KiffConfig(k=2), n_shards=2
        )
        try:
            index.engine.index = ExtendedIndex(rated_dataset)
            index.apply(ratings_batch([0], [3], [4.0]))
            with pytest.raises(TypeError, match="ExtendedIndex"):
                index.refresh()
        finally:
            index.close()

    def test_auto_refresh_stays_exact(self, rated_dataset):
        from repro.streaming import cold_rebuild_graph

        index = ShardedKnnIndex(
            rated_dataset, KiffConfig(k=2), n_shards=2, executor="processes"
        )
        try:
            for user, item, rating in [(0, 3, 4.0), (4, 0, 2.0), (1, 4, 5.0)]:
                index.apply(ratings_batch([user], [item], [rating]))
                assert index.pending_events == 0
                assert index.graph == cold_rebuild_graph(
                    index.dataset, index.config
                )
        finally:
            index.close()


class TestWorkerDeath:
    """SIGKILL a worker; the pool respawns and replays the delta tail."""

    @pytest.mark.parametrize("victim", [0, 1])
    def test_kill_mid_stream(self, victim):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=3, ratings=True
        )
        events, _ = sharded_events(3, 18)
        config = KiffConfig(k=4)
        reference = DynamicKnnIndex(dataset, config, auto_refresh=False)
        reference.apply(events)
        reference.refresh()

        index = make_processes_index(dataset, config, n_shards=2)
        try:
            index.apply(events[:8])
            index.refresh()  # the pool is live now
            pid = index._procpool.pids[victim]
            os.kill(pid, signal.SIGKILL)
            wait_dead(pid)
            index.apply(events[8:])
            index.refresh()
            assert index.graph == reference.graph  # ids AND sims, exact
            assert index.last_seq == reference.last_seq
        finally:
            index.close()

    def test_kill_with_pending_deltas(self):
        """Deltas shipped to a worker that then dies are not lost: its
        respawned replacement starts from an empty (exact) cache."""
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=7, ratings=True
        )
        events, _ = sharded_events(7, 18)
        config = KiffConfig(k=4)
        reference = DynamicKnnIndex(dataset, config, auto_refresh=False)
        reference.apply(events)
        reference.refresh()

        index = make_processes_index(dataset, config, n_shards=3)
        try:
            index.apply(events[:5])
            index.refresh()
            index.apply(events[5:12])  # deltas now shipped and pending
            pid = index._procpool.pids[0]
            os.kill(pid, signal.SIGKILL)
            wait_dead(pid)
            index.apply(events[12:])
            index.refresh()
            assert index.graph == reference.graph
        finally:
            index.close()

    def test_repeated_kills(self):
        """Every refresh loses a worker; every refresh still lands exact."""
        dataset = random_dataset(
            n_users=16, n_items=12, density=0.2, seed=1, ratings=True
        )
        events, _ = sharded_events(1, 16, n_events=12)
        config = KiffConfig(k=3)
        reference = DynamicKnnIndex(dataset, config, auto_refresh=False)
        index = make_processes_index(dataset, config, n_shards=2)
        try:
            for lo in range(0, len(events), 4):
                chunk = events[lo : lo + 4]
                reference.apply(chunk)
                reference.refresh()
                index.apply(chunk)
                if index._procpool is not None and index._procpool.alive:
                    pid = index._procpool.pids[lo // 4 % 2]
                    os.kill(pid, signal.SIGKILL)
                    wait_dead(pid)
                index.refresh()
                assert index.graph == reference.graph
        finally:
            index.close()


class TestProcessRecovery:
    """Partitioned durability driven through the process executor."""

    def test_checkpoint_restore_roundtrip(self, tmp_path):
        dataset = random_dataset(
            n_users=16, n_items=14, density=0.15, seed=4, ratings=True
        )
        events, _ = sharded_events(4, 16)
        config = KiffConfig(k=4)
        state = tmp_path / "state"

        live = make_processes_index(
            dataset,
            config,
            n_shards=2,
            wal=PartitionedWriteAheadLog(state, 2, fsync_every=4),
        )
        live.checkpoint(state)
        live.apply(events[:15])
        live.refresh()
        live.checkpoint(state)
        live.apply(events[15:])  # journaled beyond the checkpoint
        seq = live.last_seq
        live.close()

        reference = DynamicKnnIndex(dataset, config, auto_refresh=False)
        reference.apply(events)
        reference.refresh()

        restored = ShardedKnnIndex.restore(state, executor="processes")
        try:
            assert restored.executor == "processes"
            assert restored.last_seq == seq
            assert restored.graph == reference.graph
        finally:
            restored.close()


class TestSharedMemoryHygiene:
    """No leaked segments, no leaked workers."""

    def _streamed_index(self):
        dataset = random_dataset(
            n_users=16, n_items=12, density=0.2, seed=2, ratings=True
        )
        index = make_processes_index(dataset, KiffConfig(k=3), n_shards=2)
        index.apply(ratings_batch([0, 1, 2], [3, 3, 3], [4.0, 5.0, 3.0]))
        index.refresh()
        return index

    def test_close_unlinks_blocks_and_stops_workers(self):
        index = self._streamed_index()
        name = index._arena.name
        pids = index._procpool.pids
        assert name is not None and block_exists(name)
        index.close()
        assert not block_exists(name)
        for pid in pids:
            wait_dead(pid)
        index.close()  # idempotent

    def test_close_retires_the_index(self):
        """close() is terminal: mutation and query entry points raise a
        clear RuntimeError instead of silently respawning a pool (the
        historical behaviour, which made leaks easy to reintroduce)."""
        index = self._streamed_index()
        name = index._arena.name
        index.close()
        assert not block_exists(name)
        with pytest.raises(RuntimeError, match="closed"):
            index.apply(ratings_batch([3], [5], [2.0]))
        with pytest.raises(RuntimeError, match="closed"):
            index.refresh()
        assert not block_exists(name)  # no pool was respawned

    def test_gc_unlinks_blocks(self):
        index = self._streamed_index()
        name = index._arena.name
        pids = index._procpool.pids
        del index
        gc.collect()
        assert not block_exists(name)
        for pid in pids:
            wait_dead(pid)
