"""memory_stats(): per-component byte breakdowns on both index classes.

The compact layout's acceptance bar — resident bytes per user — is
computed from these counters, so the suite pins the component keys, the
exactness of the array accounting, and the ``legacy_*`` analytic twins
that price the same arrays at the historical int64/float64 widths.
"""

import numpy as np

from repro import DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.graph.knn_graph import MISSING
from repro.layout import ID_DTYPE, SCORE_DTYPE
from repro.streaming import AddRating
from repro.streaming.index import RESERVE
from tests.conftest import random_dataset

COMPONENT_KEYS = {
    "dataset_csr_bytes",
    "graph_rows_bytes",
    "graph_reserve_bytes",
    "graph_depth_bytes",
    "profile_index_bytes",
    "snapshot_rows_bytes",
    "reverse_index_entries",
    "legacy_dataset_csr_bytes",
    "legacy_graph_rows_bytes",
    "total_bytes",
}


def _index(**kwargs):
    dataset = random_dataset(
        n_users=30, n_items=20, density=0.2, seed=1, ratings=True
    )
    return DynamicKnnIndex(
        dataset, KiffConfig(k=4), auto_refresh=False, **kwargs
    )


class TestFlatIndex:
    def test_component_keys(self):
        index = _index()
        try:
            stats = index.memory_stats()
            assert COMPONENT_KEYS <= set(stats)
            assert all(
                isinstance(value, int) and value >= 0
                for value in stats.values()
            )
        finally:
            index.close()

    def test_graph_rows_bytes_are_exact(self):
        index = _index()
        try:
            stats = index.memory_stats()
            expected = index._neighbors.nbytes + index._sims.nbytes
            assert stats["graph_rows_bytes"] == expected
            # Rows are k + RESERVE wide; the reserve is their tail.
            width = index.config.k + RESERVE
            assert index._neighbors.shape[1] == width
            assert stats["graph_reserve_bytes"] * width == (
                stats["graph_rows_bytes"] * RESERVE
            )
            # One depth per row of capacity, counted on its own.
            assert stats["graph_depth_bytes"] == index._depth.nbytes
            assert index._depth.shape == index._neighbors.shape[:1]
            assert index._neighbors.dtype == ID_DTYPE
            assert index._sims.dtype == SCORE_DTYPE
        finally:
            index.close()

    def test_legacy_twins_double_the_compact_arrays(self):
        index = _index()
        try:
            stats = index.memory_stats()
            # Graph rows are pure int32 ids + float32 sims: the legacy
            # layout costs exactly twice.
            assert stats["legacy_graph_rows_bytes"] == (
                2 * stats["graph_rows_bytes"]
            )
            # The dataset keeps float64 ratings, so the saving is
            # real but smaller than 2x.
            assert (
                stats["dataset_csr_bytes"]
                < stats["legacy_dataset_csr_bytes"]
                < 2 * stats["dataset_csr_bytes"]
            )
        finally:
            index.close()

    def test_total_is_sum_of_byte_components(self):
        index = _index()
        try:
            stats = index.memory_stats()
            assert stats["total_bytes"] == (
                stats["dataset_csr_bytes"]
                + stats["graph_rows_bytes"]
                + stats["graph_depth_bytes"]
                + stats["profile_index_bytes"]
                + stats["snapshot_rows_bytes"]
            )
        finally:
            index.close()

    def test_stats_track_growth(self):
        index = _index()
        try:
            before = index.memory_stats()
            index.apply(
                [AddRating(u, 19, 5.0) for u in range(10)]
            )
            index.refresh()
            after = index.memory_stats()
            assert after["dataset_csr_bytes"] > before["dataset_csr_bytes"]
        finally:
            index.close()


class TestReadOnly:
    def test_stats_between_apply_and_refresh_mutate_nothing(self):
        """The serve ``stats`` op reaches memory_stats() off the writer
        thread, so it must not materialise the pending snapshot."""
        index = _index()
        try:
            published = index.memory_stats()
            index.apply([AddRating(u, 19, 5.0) for u in range(10)])
            builder = index.builder
            rows_before = index.maintenance.rows_materialized
            cached = builder._base
            pending = builder.dirty_rows
            assert pending  # the apply left rows to patch
            stats = index.memory_stats()
            assert index.maintenance.rows_materialized == rows_before
            assert builder._base is cached
            assert builder.dirty_rows == pending
            # The figures describe the published snapshot.
            assert stats["dataset_csr_bytes"] == (
                published["dataset_csr_bytes"]
            )
            index.refresh()
            assert index.memory_stats()["dataset_csr_bytes"] > (
                published["dataset_csr_bytes"]
            )
        finally:
            index.close()


class TestShardedIndex:
    def test_includes_arena_accounting(self):
        dataset = random_dataset(
            n_users=24, n_items=16, density=0.2, seed=2, ratings=True
        )
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=3),
            auto_refresh=False,
            n_shards=2,
            executor="serial",
        )
        try:
            stats = index.memory_stats()
            assert COMPONENT_KEYS <= set(stats)
            # Serial executor: no shared-memory arena, zeros reported.
            assert stats["shm_arena_bytes"] == 0
            assert [key for key in stats if key.startswith("shm_")] == [
                "shm_arena_bytes"
            ]
        finally:
            index.close()


class TestReverseIndexEntries:
    def test_every_executor_reports_the_live_row_slots(self):
        """``processes`` workers merge into their own row mirrors; the
        figure must still follow the rows after a refresh, not the
        build."""
        dataset = random_dataset(
            n_users=40, n_items=12, density=0.08, seed=6, ratings=True
        )
        reported = {}
        for executor in ("serial", "threads", "processes"):
            index = DynamicKnnIndex(
                dataset,
                KiffConfig(k=6),
                auto_refresh=False,
                n_shards=2,
                executor=executor,
            )
            try:
                before = index.memory_stats()["reverse_index_entries"]
                index.apply([AddRating(u, 11, 5.0) for u in range(0, 40, 3)])
                index.refresh()
                # The reserve columns count too.
                neighbors, _ = index._rows()
                after = index.memory_stats()["reverse_index_entries"]
                assert after == np.count_nonzero(neighbors != MISSING)
                assert after != before  # the refresh filled empty slots
                reported[executor] = after
            finally:
                index.close()
        assert len(set(reported.values())) == 1


def _stats_reply(index):
    """One ``stats`` op over TCP; returns ``(reply, memory_stats)``."""
    import asyncio
    import json

    from repro.serving.server import KnnServer

    async def drive():
        server = KnnServer(index, port=0)
        await server.start()
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return reply, index.memory_stats()
        finally:
            await server.stop()
            index.close()

    return asyncio.run(drive())


class TestServingSurface:
    def test_server_stats_op_reports_memory(self):
        reply, expected = _stats_reply(_index())
        assert reply["ok"] is True
        assert reply["memory"] == expected

    def test_server_stats_op_always_reports_sharding(self):
        reply, _ = _stats_reply(_index())
        assert reply["sharding"] == {
            "n_shards": 1,
            "executor": "serial",
            "overrides": 0,
            "rebalances": 0,
        }
