"""ShmArena sizing: capacity follows the payload both ways.

``publish`` reallocates at twice the payload whenever the payload
outgrows the block or fills less than a quarter of it, so the block
never holds more than four times what the last refresh published — a
mass deletion hands the space back on the next refresh, with no
separate compaction step.
"""

import numpy as np
import pytest

from repro import KiffConfig, RemoveUser, ShardedKnnIndex
from repro.streaming import cold_rebuild_graph
from repro.streaming.shm import ShmArena, attach_block, unpack_arrays
from tests.conftest import random_dataset


def _payload(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "ids": rng.integers(0, 100, size=n).astype(np.int32),
        "scores": rng.random(n).astype(np.float32),
    }


def _round_trips(name, manifest, expected):
    block = attach_block(name)
    try:
        views = unpack_arrays(block, manifest)
        for key, array in expected.items():
            np.testing.assert_array_equal(views[key], array)
    finally:
        block.close()


@pytest.fixture
def arena():
    arena = ShmArena(tag="repro-test")
    yield arena
    arena.close()


class TestArenaSizing:
    def test_empty_arena(self, arena):
        assert arena.stats() == {"capacity_bytes": 0, "payload_bytes": 0}
        assert arena.name is None

    def test_first_publish_allocates_twice_the_payload(self, arena):
        arena.publish(_payload(1_000))
        stats = arena.stats()
        assert stats["capacity_bytes"] == 2 * stats["payload_bytes"] > 0

    def test_block_is_reused_between_a_quarter_and_full(self, arena):
        name, _ = arena.publish(_payload(1_000))
        for n in (2_000, 500, 1_000):  # 4x .. 1x the payload
            again, manifest = arena.publish(_payload(n, seed=n))
            assert again == name
            _round_trips(again, manifest, _payload(n, seed=n))

    @pytest.mark.parametrize("n", [2_100, 400])
    def test_outgrown_or_quarter_empty_block_is_reallocated(self, arena, n):
        """Growing past the block or shrinking below a quarter of it
        moves the payload to a block twice its size, under a new name
        (which tells workers to reattach)."""
        name, _ = arena.publish(_payload(1_000))
        again, manifest = arena.publish(_payload(n, seed=1))
        assert again != name
        stats = arena.stats()
        assert stats["capacity_bytes"] == 2 * stats["payload_bytes"]
        _round_trips(again, manifest, _payload(n, seed=1))

    def test_capacity_stays_within_four_times_the_payload(self, arena):
        for step, n in enumerate([10, 50_000, 40, 3, 7_000, 6_999, 0, 20]):
            name, manifest = arena.publish(_payload(n, seed=step))
            stats = arena.stats()
            assert (
                stats["payload_bytes"]
                <= stats["capacity_bytes"]
                <= 4 * stats["payload_bytes"]
            )
            _round_trips(name, manifest, _payload(n, seed=step))


class TestShrinkAfterDeletion:
    def test_remove_user_wave_shrinks_the_arena(self):
        """A mass deletion and one refresh, with no checkpoint taken:
        the arena falls to at most 4x the last published payload, the
        next refresh still round-trips through the workers, and the
        graph stays the cold rebuild's."""
        dataset = random_dataset(
            n_users=40, n_items=40, density=0.5, seed=2, ratings=True
        )
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=2,
            executor="processes",
        )
        try:
            # The arena is created lazily on the first process fan-out,
            # so dirty a user before refreshing.
            index.apply(RemoveUser(39))
            index.refresh()
            before = index.memory_stats()["shm_arena_bytes"]
            assert before > 0
            for user in range(30):  # mass deletion
                index.apply(RemoveUser(user))
            index.refresh()
            after = index.memory_stats()["shm_arena_bytes"]
            assert after < before
            assert after <= 4 * index._arena.stats()["payload_bytes"]
            index.apply(RemoveUser(35))
            index.refresh()
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config
            )
        finally:
            index.close()
