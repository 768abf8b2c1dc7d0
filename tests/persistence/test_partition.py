"""Partitioned WAL segments, the checkpoint layout, and fsync barriers."""

import json
import shutil

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.persistence import (
    CheckpointError,
    PartitionedWriteAheadLog,
    WalError,
    WriteAheadLog,
    checkpoint_path,
    load_checkpoint,
    read_partitioned_wal,
    read_wal,
    save_checkpoint,
    wal_segment_path,
)
from repro.streaming import AddRating, RemoveRating, ShardPlan, ratings_batch
from tests.conftest import random_dataset


def sharded_index(n_users=12, seed=3, n_shards=2, **kwargs):
    dataset = random_dataset(
        n_users=n_users, n_items=10, seed=seed, ratings=True
    )
    return ShardedKnnIndex(
        dataset,
        KiffConfig(k=3),
        auto_refresh=False,
        n_shards=n_shards,
        executor="serial",
        **kwargs,
    )


class TestPartitionedWal:
    def test_segments_share_one_global_sequence(self, tmp_path):
        wal = PartitionedWriteAheadLog(tmp_path, 2)
        assert wal.append(AddRating(0, 1, 2.0), shard=0) == 1
        assert wal.append(AddRating(1, 1, 2.0), shard=1) == 2
        assert wal.append(AddRating(2, 1, 2.0), shard=0) == 3
        wal.close()
        # Each segment is a standard WAL file (same header format) whose
        # records carry the *global* sequence — gaps are expected.
        segments = [wal_segment_path(tmp_path, shard) for shard in range(2)]
        assert [s for s, _ in read_wal(segments[0])] == [1, 3]
        assert [s for s, _ in read_wal(segments[1])] == [2]
        header = json.loads(
            wal_segment_path(tmp_path, 0).read_text().splitlines()[0]
        )
        assert header["type"] == "header"

    def test_merged_read_restores_global_order(self, tmp_path):
        wal = PartitionedWriteAheadLog(tmp_path, 3)
        events = [AddRating(user, 0, 1.0) for user in range(7)]
        for user, event in enumerate(events):
            wal.append(event, shard=user % 3)
        wal.close()
        merged = list(read_partitioned_wal(tmp_path))
        assert [seq for seq, _ in merged] == list(range(1, 8))
        assert [event.user for _, event in merged] == list(range(7))
        assert [seq for seq, _ in read_partitioned_wal(tmp_path, after=4)] == [5, 6, 7]

    def test_reopen_resumes_global_counter(self, tmp_path):
        with PartitionedWriteAheadLog(tmp_path, 2) as wal:
            wal.append(AddRating(0, 1, 2.0), shard=0)
            wal.append(AddRating(1, 1, 2.0), shard=1)
        reopened = PartitionedWriteAheadLog(tmp_path, 2)
        assert reopened.last_seq == 2
        assert reopened.append(AddRating(0, 2, 1.0), shard=0) == 3
        reopened.close()

    def test_duplicate_sequences_across_segments_rejected(self, tmp_path):
        for shard in range(2):
            with WriteAheadLog(wal_segment_path(tmp_path, shard)) as segment:
                segment.append(AddRating(shard, 1, 2.0), 5)
        with pytest.raises(WalError, match="duplicate"):
            list(read_partitioned_wal(tmp_path))

    def test_rollback_spans_every_segment(self, tmp_path):
        wal = PartitionedWriteAheadLog(tmp_path, 2)
        wal.append(AddRating(0, 1, 2.0), shard=0)
        mark = wal.mark()
        wal.append(AddRating(1, 1, 2.0), shard=1)
        wal.append(AddRating(2, 1, 2.0), shard=0)
        wal.rollback(mark)
        assert wal.last_seq == 1
        assert wal.append(AddRating(3, 1, 2.0), shard=1) == 2
        wal.close()
        assert [seq for seq, _ in read_partitioned_wal(tmp_path)] == [1, 2]

    def test_advance_to_skips_checkpoint_covered_gap(self, tmp_path):
        wal = PartitionedWriteAheadLog(tmp_path, 2)
        wal.append(AddRating(0, 1, 2.0), shard=0)
        wal.advance_to(5)  # events 2..5 live only in a durable checkpoint
        assert wal.append(AddRating(1, 1, 2.0), shard=1) == 6
        with pytest.raises(WalError, match="advance"):
            wal.advance_to(3)
        wal.close()

    def test_fsync_batches_as_a_group_commit(self, tmp_path, monkeypatch):
        """The disk barrier must cover every segment together: a segment
        fsyncing on its own cadence could make a high sequence durable
        while a lower one in a sibling segment is still unsynced — a
        mid-history gap no replay can bridge."""
        wal = PartitionedWriteAheadLog(tmp_path, 2, fsync_every=2)
        flushed = []
        real_flush = WriteAheadLog.flush

        def recording_flush(self):
            flushed.append(self.path.name)
            real_flush(self)

        monkeypatch.setattr(WriteAheadLog, "flush", recording_flush)
        wal.append(AddRating(0, 1, 2.0), shard=0)
        assert flushed == []  # below the cadence: no barrier yet
        wal.append(AddRating(1, 1, 2.0), shard=1)
        assert sorted(flushed) == ["wal-0.jsonl", "wal-1.jsonl"]
        wal.close()

    def test_stray_segments_advance_the_counter(self, tmp_path):
        """Segments beyond n_shards (a run at a higher shard count)
        still hold history: new appends must never reuse their seqs."""
        with PartitionedWriteAheadLog(tmp_path, 2) as wal:
            wal.append(AddRating(0, 1, 2.0), shard=0)
            wal.append(AddRating(1, 1, 2.0), shard=1)
        with PartitionedWriteAheadLog(tmp_path, 1) as wal:
            assert wal.last_seq == 2
            assert wal.append(AddRating(2, 1, 2.0), shard=0) == 3
        assert [seq for seq, _ in read_partitioned_wal(tmp_path)] == [1, 2, 3]


class TestCheckpointLayout:
    def test_layout_and_round_trip(self, tmp_path):
        index = sharded_index()
        index.apply(ratings_batch([0, 1], [3, 3], [4.0, 2.0]))
        path = index.checkpoint(tmp_path)
        assert path == checkpoint_path(tmp_path, 2)
        assert (path / "meta.json").exists()
        assert (path / "base.npz").exists()
        assert (path / "shard-0.npz").exists()
        assert (path / "shard-1.npz").exists()
        state = load_checkpoint(path)
        assert state.n_shards == 2
        assert state.seq == 2
        assert state.dirty == (0, 1)
        assert state.dataset == index.dataset

    def test_per_shard_files_hold_owned_slices(self, tmp_path):
        index = sharded_index()
        index.apply(ratings_batch([0, 1, 2, 3], [3] * 4, [4.0] * 4))
        path = index.checkpoint(tmp_path)  # the dirty set is pending
        for shard in range(2):
            with np.load(path / f"shard-{shard}.npz") as archive:
                assert archive.files == ["dirty", "lost_users", "lost_items"]
                assert archive["dirty"].tolist() == [shard, shard + 2]
                assert archive["lost_users"].size == 0  # first ratings

    def test_lost_item_records_follow_their_owners(self, tmp_path):
        """Each shard file holds the lost-item records of its own dirty
        users; loading merges them back."""
        index = sharded_index()
        builder = index.builder
        users = [u for u in range(index.n_users) if builder.profile(u)][:3]
        drops = [(u, min(builder.profile(u))) for u in users]
        index.apply([RemoveRating(u, item) for u, item in drops])
        path = index.checkpoint(tmp_path)
        for shard in range(2):
            with np.load(path / f"shard-{shard}.npz") as archive:
                saved = list(
                    zip(
                        archive["lost_users"].tolist(),
                        archive["lost_items"].tolist(),
                    )
                )
            owner = index.shard_map.owner
            assert saved == [d for d in drops if owner(d[0]) == shard]
        assert load_checkpoint(path).lost == {u: {i} for u, i in drops}

    def test_dirty_slices_follow_a_same_count_rebalance(self, tmp_path):
        """After moves at the same shard count, shard *i*'s file holds
        exactly the dirty users the live map assigns to shard *i*."""
        index = sharded_index()
        index.apply(ratings_batch([0, 1, 2, 5], [3] * 4, [4.0] * 4))
        stats = index.rebalance(ShardPlan(moves=((0, 1), (5, 0), (7, 0))))
        assert stats.users_moved == 3 and index.n_shards == 2
        dirty = index.dirty_users
        assert dirty == frozenset({0, 1, 2, 5})  # moves dirty nobody
        path = index.checkpoint(tmp_path)
        for shard in range(2):
            with np.load(path / f"shard-{shard}.npz") as archive:
                assert archive["dirty"].tolist() == sorted(
                    user
                    for user in dirty
                    if index.shard_map.owner(user) == shard
                )
        assert load_checkpoint(path).dirty == tuple(sorted(dirty))

    def test_version_check(self, tmp_path):
        index = sharded_index()
        path = index.checkpoint(tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        meta["version"] = 99
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupt_latest_falls_back_to_older(self, tmp_path):
        index = sharded_index(wal=PartitionedWriteAheadLog(tmp_path, 2))
        index.checkpoint(tmp_path)
        index.apply(AddRating(0, 4, 3.0))
        newest = index.checkpoint(tmp_path)
        (newest / "base.npz").write_bytes(b"")  # torn archive
        index.refresh()
        restored = ShardedKnnIndex.restore(tmp_path, executor="serial")
        assert restored.restore_info.checkpoint != newest
        assert restored.restore_info.replayed_events == 1
        assert restored.graph == index.graph

    def test_flat_index_writes_the_one_shard_case(self, tmp_path):
        dataset = random_dataset(n_users=10, n_items=8, seed=1, ratings=True)
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(tmp_path, 1)
        )
        index.apply(AddRating(0, 4, 3.0))
        path = index.checkpoint(tmp_path)
        assert path == checkpoint_path(tmp_path, 1)
        assert sorted(p.name for p in path.iterdir()) == [
            "base.npz",
            "meta.json",
            "shard-0.npz",
        ]
        state = load_checkpoint(path)
        assert (state.n_shards, state.shard_overrides) == (1, {})
        assert sorted(p.name for p in tmp_path.glob("wal-*")) == [
            "wal-0.jsonl"
        ]

    def test_parent_flat_format_is_refused(self, tmp_path):
        """A ``wal.jsonl`` + ``checkpoint-<seq>.npz`` directory (the flat
        layout older versions wrote) has no reader: both index classes
        refuse it loudly and never restore it as an empty state."""
        dataset = random_dataset(n_users=10, n_items=8, seed=4, ratings=True)
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(tmp_path, 1)
        )
        index.apply(AddRating(0, 4, 3.0))
        shards = index.checkpoint(tmp_path)
        index.wal.close()
        # Rewrite the state in the flat format: one archive with the
        # metadata inline, one gap-free log.
        meta = json.loads((shards / "meta.json").read_text())
        meta.pop("layout")
        meta.pop("n_shards")
        arrays = {}
        for name in ("base.npz", "shard-0.npz"):
            with np.load(shards / name) as archive:
                arrays.update(archive)
        np.savez_compressed(
            tmp_path / "checkpoint-000000000001.npz",
            meta=np.asarray(json.dumps(meta)),
            **arrays,
        )
        shutil.rmtree(shards)
        wal_segment_path(tmp_path, 0).rename(tmp_path / "wal.jsonl")
        before = sorted(p.name for p in tmp_path.iterdir())
        for restore in (
            DynamicKnnIndex.restore,
            lambda path: ShardedKnnIndex.restore(path, executor="serial"),
        ):
            with pytest.raises(CheckpointError, match="no checkpoint"):
                restore(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_flat_restore_of_rebalanced_sharded_state(self, tmp_path):
        """DynamicKnnIndex.restore reads any state directory: a 2-shard
        one whose log tail holds a committed rebalance fence pair
        recovers the live graph and sequence at one shard."""
        index = sharded_index(wal=PartitionedWriteAheadLog(tmp_path, 2))
        index.checkpoint(tmp_path)
        index.apply(ratings_batch([0, 1, 5], [4, 4, 2], [3.0, 2.0, 5.0]))
        stats = index.rebalance(ShardPlan(moves=((0, 1), (3, 0))))
        assert stats.users_moved == 2
        index.apply(AddRating(2, 6, 4.0))
        index.refresh()
        restored = DynamicKnnIndex.restore(tmp_path)
        assert restored.restore_info.replayed_events == 6  # fences included
        assert restored.graph == index.graph
        assert restored.last_seq == index.last_seq == 6
        # It keeps journaling, one segment at its own shard count, and
        # the sharded reader still sees one history.
        restored.apply(AddRating(4, 1, 1.0))
        restored.refresh()
        again = ShardedKnnIndex.restore(tmp_path, executor="serial")
        assert again.n_shards == 2
        assert again.shard_map.overrides == {0: 1, 3: 0}
        assert again.graph == restored.graph
        assert again.last_seq == 7


class TestDirFsyncBarriers:
    """The rename/creation durability barriers must actually be requested."""

    @pytest.fixture
    def fsync_calls(self, monkeypatch):
        calls: list = []
        from repro.persistence import wal as wal_module

        monkeypatch.setattr(
            wal_module, "fsync_dir", lambda path: calls.append(str(path))
        )
        return calls

    def test_flat_index_checkpoint_fsyncs_directory_after_rename(
        self, tmp_path, fsync_calls
    ):
        dataset = random_dataset(n_users=10, n_items=8, seed=2, ratings=True)
        index = DynamicKnnIndex(dataset, KiffConfig(k=3))
        fsync_calls.clear()
        save_checkpoint(index, tmp_path)
        assert str(tmp_path) in fsync_calls

    def test_sharded_checkpoint_fsyncs_directory_after_rename(
        self, tmp_path, fsync_calls
    ):
        index = sharded_index()
        fsync_calls.clear()
        save_checkpoint(index, tmp_path)
        assert str(tmp_path) in fsync_calls

    def test_wal_creation_fsyncs_directory(self, tmp_path, fsync_calls):
        PartitionedWriteAheadLog(tmp_path, 1).close()
        assert str(tmp_path) in fsync_calls
