"""Unit tests for checkpoint save/load and checkpoint-only restore."""

import json

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.layout import ID_DTYPE, SCORE_DTYPE
from repro.persistence import (
    CheckpointError,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.persistence import checkpoint as checkpoint_module
from repro.streaming import AddRating, AddUser, RemoveUser
from repro.streaming.index import RESERVE
from tests.conftest import random_dataset
from tests.streaming.test_repair import (
    FAR,
    lower_near_users,
    reserve_rows_dataset,
)


@pytest.fixture
def streamed_index(rated_dataset):
    """An index mid-stream: applied events and a pending dirty set —
    the state a checkpoint must capture fully."""
    index = DynamicKnnIndex(rated_dataset, KiffConfig(k=2), auto_refresh=False)
    index.apply([AddRating(0, 3, 4.0), AddUser((1, 4), (5.0, 2.0))])
    index.refresh()
    index.apply([RemoveUser(2), AddRating(4, 1, 3.0)])  # left pending
    return index


class TestSaveLoad:
    def test_archive_name_carries_sequence(self, streamed_index, tmp_path):
        path = save_checkpoint(streamed_index, tmp_path)
        assert path == checkpoint_path(tmp_path, streamed_index.last_seq)
        assert path.exists()

    def test_state_round_trip(self, streamed_index, tmp_path):
        state = load_checkpoint(save_checkpoint(streamed_index, tmp_path))
        assert state.seq == streamed_index.last_seq == 4
        assert state.dataset == streamed_index.dataset
        assert state.config == streamed_index.config
        assert state.metric == "cosine"
        assert state.auto_refresh is False
        assert state.pending_events == streamed_index.pending_events == 2
        assert set(state.dirty) == set(streamed_index.dirty_users)
        assert state.evaluations == streamed_index.engine.counter.evaluations
        assert state.initial_evaluations == streamed_index.initial_evaluations
        neighbors, sims = streamed_index._rows()
        assert np.array_equal(state.neighbors, neighbors)
        assert np.array_equal(state.sims, sims)
        assert np.array_equal(
            state.depth, streamed_index._depth[: neighbors.shape[0]]
        )

    def test_reserve_and_depths_survive_a_restore(self, tmp_path):
        """A restored index repairs like the live one: it comes back
        with the full-width rows and each row's exact depth."""
        index = DynamicKnnIndex(
            reserve_rows_dataset(),
            KiffConfig(k=2),
            metric="jaccard",
            auto_refresh=False,
        )
        index.apply(lower_near_users())
        index.refresh()
        assert index._depth[FAR].tolist() == [2, 2]  # repaired in place
        index.checkpoint(tmp_path)
        restored = DynamicKnnIndex.restore(tmp_path, refresh=False)
        try:
            live, restored_rows = index._rows(), restored._rows()
            assert restored_rows[0].shape[1] == index.config.k + RESERVE
            assert np.array_equal(restored_rows[0], live[0])
            assert np.array_equal(restored_rows[1], live[1])
            n_rows = live[0].shape[0]
            assert np.array_equal(
                restored._depth[:n_rows], index._depth[:n_rows]
            )
            assert restored.graph == index.graph
        finally:
            restored.close()
            index.close()

    def test_rows_of_another_width_are_refused(
        self, streamed_index, tmp_path, monkeypatch
    ):
        path = save_checkpoint(streamed_index, tmp_path)
        monkeypatch.setattr(checkpoint_module, "RESERVE", RESERVE + 1)
        with pytest.raises(CheckpointError, match="wide rows"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [0, 1, 2 + RESERVE + 1])
    def test_depths_outside_k_and_the_width_are_refused(
        self, streamed_index, tmp_path, bad
    ):
        """A depth below k reads a wrong boundary column and one past
        the width indexes out of the row: both fail the load."""
        path = save_checkpoint(streamed_index, tmp_path)
        with np.load(path / "base.npz", allow_pickle=False) as archive:
            arrays = dict(archive)
        arrays["row_depth"] = arrays["row_depth"].copy()
        arrays["row_depth"][0] = bad
        np.savez_compressed(path / "base.npz", **arrays)
        with pytest.raises(CheckpointError, match="row depths outside"):
            load_checkpoint(path)

    def test_shard_file_holds_only_the_dirty_slice(
        self, streamed_index, tmp_path
    ):
        """Candidate sets are derived per pass, never checkpointed; the
        shard file holds the dirty users and their lost-item records."""
        path = save_checkpoint(streamed_index, tmp_path)
        with np.load(path / "shard-0.npz") as archive:
            assert archive.files == ["dirty", "lost_users", "lost_items"]
            assert set(archive["dirty"].tolist()) == set(
                streamed_index.dirty_users
            )
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        assert "candidate_cache_size" not in meta

    def test_lost_items_round_trip(self, rated_dataset, tmp_path):
        """A dirty user's dropped items travel with her dirty mark; a
        user whose pass landed has no record left."""
        removed = sorted(rated_dataset.user_items(2).tolist())
        index = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2), auto_refresh=False
        )
        index.apply(
            [RemoveUser(2), AddRating(0, 1, 0.0), AddRating(4, 1, 3.0)]
        )
        assert sorted(index._lost) == [0, 2]
        index.refresh(dirty_subset=[0])
        state = load_checkpoint(save_checkpoint(index, tmp_path))
        assert {user: sorted(items) for user, items in state.lost.items()} == {
            2: removed
        }
        restored = DynamicKnnIndex.restore(tmp_path, refresh=False)
        assert restored._lost == index._lost
        restored.refresh()
        assert restored._lost == {}
        index.refresh()
        assert restored.graph == index.graph

    def test_config_inf_gamma_round_trips(self, rated_dataset, tmp_path):
        import math

        index = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2, gamma=math.inf, min_rating=2.0)
        )
        state = load_checkpoint(save_checkpoint(index, tmp_path))
        assert state.config.gamma == math.inf
        assert state.config.min_rating == 2.0

    def test_version_check(self, streamed_index, tmp_path):
        path = save_checkpoint(streamed_index, tmp_path)
        set_version(path, 99)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", [None, "numpy"])
    def test_numpy_kernel_backend_round_trips(
        self, rated_dataset, tmp_path, name
    ):
        index = DynamicKnnIndex(
            rated_dataset, KiffConfig(k=2, kernel_backend=name)
        )
        state = load_checkpoint(save_checkpoint(index, tmp_path))
        assert state.config.kernel_backend == name
        restored = DynamicKnnIndex.restore(tmp_path)
        assert restored.config.kernel_backend == name
        assert restored.graph == index.graph

    def test_other_kernel_backend_is_refused(self, streamed_index, tmp_path):
        """Rows scored by a tolerance kernel cannot meet bit-identity."""
        path = save_checkpoint(streamed_index, tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        meta["config"]["kernel_backend"] = "numba"
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="kernel_backend 'numba'"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="kernel_backend 'numba'"):
            DynamicKnnIndex.restore(tmp_path)


def set_version(path, version):
    """Rewrite the format version in checkpoint *path*'s metadata."""
    meta = json.loads((path / "meta.json").read_text())
    meta["version"] = version
    (path / "meta.json").write_text(json.dumps(meta))


class TestFormatVersion:
    def test_v4_is_the_written_version(self, streamed_index, tmp_path):
        path = save_checkpoint(streamed_index, tmp_path)
        meta = json.loads((path / "meta.json").read_text())
        assert meta["version"] == 4
        assert meta["n_shards"] == 1
        assert np.dtype(meta["dtypes"]["ids"]) == ID_DTYPE
        assert np.dtype(meta["dtypes"]["scores"]) == SCORE_DTYPE
        with np.load(path / "base.npz", allow_pickle=False) as archive:
            assert "graph_indptr" in archive  # packed, not dense
            assert "graph_neighbors" not in archive
            # The rows keep their reserve, and each its exact depth.
            assert int(archive["graph_k"]) == 2 + RESERVE
            assert archive["row_depth"].shape == (streamed_index.n_users,)

    def test_v3_archive_is_refused(self, streamed_index, tmp_path):
        """Version 3 (no lost-item records) has no reader: a restored
        index could not find the rows citing a user through an item
        she dropped before the checkpoint."""
        path = save_checkpoint(streamed_index, tmp_path)
        set_version(path, 3)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 3"
        ):
            load_checkpoint(path)

    def test_v2_archive_is_refused(self, streamed_index, tmp_path):
        """Version 2 (k-wide rows, no depths) has no reader."""
        path = save_checkpoint(streamed_index, tmp_path)
        set_version(path, 2)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 2"
        ):
            load_checkpoint(path)

    def test_v1_archive_is_refused(self, streamed_index, tmp_path):
        """Version 1 (dense rows) has no reader: loading fails loudly."""
        path = save_checkpoint(streamed_index, tmp_path)
        set_version(path, 1)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 1"
        ):
            load_checkpoint(path)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 1"
        ):
            DynamicKnnIndex.restore(tmp_path)


class TestLatestCheckpoint:
    def test_picks_highest_sequence(self, streamed_index, tmp_path):
        early = save_checkpoint(streamed_index, tmp_path)
        streamed_index.apply(AddRating(0, 2, 2.0))
        late = save_checkpoint(streamed_index, tmp_path)
        assert latest_checkpoint(tmp_path) == late != early

    def test_ignores_foreign_files(self, streamed_index, tmp_path):
        (tmp_path / "checkpoint-garbage.shards").mkdir()
        (tmp_path / "checkpoint-000000000099.shards").write_bytes(b"")
        (tmp_path / "checkpoint-000000000099.npz").write_bytes(b"")
        (tmp_path / "notes.txt").write_text("hi")
        path = save_checkpoint(streamed_index, tmp_path)
        assert latest_checkpoint(tmp_path) == path

    def test_missing_directory_is_none(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None


class TestSameSequenceRecheckpoint:
    def test_replaces_in_place(self, streamed_index, tmp_path):
        first = save_checkpoint(streamed_index, tmp_path)
        second = save_checkpoint(streamed_index, tmp_path)
        assert first == second
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
        assert load_checkpoint(second).seq == streamed_index.last_seq

    def test_failed_swap_keeps_the_existing_checkpoint(
        self, streamed_index, tmp_path, monkeypatch
    ):
        """The old directory survives a failure to swap the new one in."""
        import os

        path = save_checkpoint(streamed_index, tmp_path)
        real_replace = os.replace

        def failing_replace(src, dst):
            if str(src).endswith(".tmp"):
                raise OSError("injected rename failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(streamed_index, tmp_path)
        monkeypatch.setattr(os, "replace", real_replace)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        streamed_index.refresh()
        restored = DynamicKnnIndex.restore(tmp_path)
        assert restored.graph == streamed_index.graph


class TestCheckpointOnlyRestore:
    """restore() of a checkpoint alone (no log was ever attached)."""

    def test_restore_resumes_exactly(self, streamed_index, tmp_path):
        streamed_index.checkpoint(tmp_path)
        streamed_index.refresh()
        restored = DynamicKnnIndex.restore(tmp_path)
        # The pending dirty set was serialized; restore's refresh
        # converges it to the same graph the live index reached.
        assert restored.graph == streamed_index.graph
        assert restored.dataset == streamed_index.dataset
        assert restored.last_seq == streamed_index.last_seq
        assert restored.pending_events == 0
        assert restored.restore_info.replayed_events == 0
        assert restored.auto_refresh is False
        # Journaling resumes into a fresh one-segment partitioned log.
        assert restored.wal.n_shards == 1
        assert restored.wal.last_seq == restored.last_seq

    def test_restore_without_refresh_keeps_pending_state(
        self, streamed_index, tmp_path
    ):
        streamed_index.checkpoint(tmp_path)
        restored = DynamicKnnIndex.restore(tmp_path, refresh=False)
        assert restored.pending_events == streamed_index.pending_events
        assert restored.dirty_users == streamed_index.dirty_users
        neighbors, sims = restored._rows()
        live_neighbors, live_sims = streamed_index._rows()
        assert np.array_equal(neighbors, live_neighbors)
        assert np.array_equal(sims, live_sims)

    def test_restore_continues_accounting(self, streamed_index, tmp_path):
        streamed_index.checkpoint(tmp_path)
        restored = DynamicKnnIndex.restore(tmp_path)
        # Counter continuity: maintenance_evaluations includes the
        # pre-crash history plus the recovery refresh, nothing is reset.
        assert (
            restored.engine.counter.evaluations
            >= streamed_index.engine.counter.evaluations
        )
        assert restored.initial_evaluations == streamed_index.initial_evaluations
        assert restored.restore_info.evaluations > 0  # the pending refresh

    def test_restore_metric_override(self, tmp_path):
        dataset = random_dataset(n_users=12, n_items=10, seed=3, ratings=True)
        index = DynamicKnnIndex(dataset, KiffConfig(k=3), metric="jaccard")
        index.checkpoint(tmp_path)
        assert DynamicKnnIndex.restore(tmp_path).engine.metric.name == "jaccard"
        override = DynamicKnnIndex.restore(tmp_path, metric="cosine")
        assert override.engine.metric.name == "cosine"

    def test_restore_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            DynamicKnnIndex.restore(tmp_path)

    def test_restore_after_remove_user_keeps_tombstone(self, tmp_path):
        dataset = random_dataset(n_users=10, n_items=8, seed=1, ratings=True)
        index = DynamicKnnIndex(dataset, KiffConfig(k=3))
        index.apply(RemoveUser(4))
        index.checkpoint(tmp_path)
        restored = DynamicKnnIndex.restore(tmp_path)
        assert restored.n_users == 10  # the id stays allocated
        assert restored.dataset.user_items(4).size == 0
        assert restored.graph == index.graph
