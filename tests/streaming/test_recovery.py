"""Differential crash-recovery parity: checkpoint + WAL-tail replay.

The durability contract extends the streaming parity invariant across
process death: kill the stream at a random event, recover from the
latest checkpoint plus the write-ahead log tail, and the refreshed graph
must be **bit-identical** — neighbour ids and similarities — to the
uninterrupted ``DynamicKnnIndex`` run at the same point.  The randomized
suite below drives 20+ distinct kill points across two metrics
(acceptance bar: >= 20 streams, >= 2 metrics); the subprocess test does
it with a real SIGKILL through ``examples/streaming_updates.py``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import DynamicKnnIndex, KiffConfig
from repro.graph import load_graph
from repro.persistence import (
    CheckpointError,
    PartitionedWriteAheadLog,
    checkpoint_path,
    read_partitioned_wal,
    wal_segment_path,
)
from repro.streaming import (
    AddRating,
    AddUser,
    Batch,
    RemoveRating,
    RemoveUser,
)
from tests.conftest import random_dataset

REPO_ROOT = Path(__file__).resolve().parents[2]


def random_events(seed, n_users, n_events=24, max_item=18):
    """A pre-generated random event stream (population simulated, so the
    same list can drive several independent index runs)."""
    rng = np.random.default_rng(seed)
    events = []
    n = n_users
    for _ in range(n_events):
        op = int(rng.integers(0, 12))
        if op < 5:
            events.append(
                AddRating(
                    int(rng.integers(0, n)),
                    int(rng.integers(0, max_item)),
                    float(rng.integers(0, 6)),
                )
            )
        elif op < 6:
            events.append(
                RemoveRating(
                    int(rng.integers(0, n)), int(rng.integers(0, max_item))
                )
            )
        elif op < 8:
            size = int(rng.integers(0, 4))
            events.append(
                AddUser(
                    tuple(rng.choice(max_item, size=size, replace=False).tolist()),
                    tuple(rng.integers(1, 6, size=size).astype(float).tolist()),
                )
            )
            n += 1
        elif op < 9:
            events.append(
                Batch(
                    tuple(
                        AddRating(
                            int(rng.integers(0, n)),
                            int(rng.integers(0, max_item)),
                            float(rng.integers(1, 6)),
                        )
                        for _ in range(int(rng.integers(1, 4)))
                    )
                )
            )
        else:
            events.append(RemoveUser(int(rng.integers(0, n))))
    return events


class TestKillAtRandomEvent:
    """20 randomized streams x 2 metrics: recovery is bit-identical."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    def test_recovery_equals_uninterrupted_run(self, tmp_path, metric, seed):
        dataset = random_dataset(
            n_users=16, n_items=14, density=0.15, seed=seed, ratings=True
        )
        events = random_events(seed, n_users=16)
        rng = np.random.default_rng(seed + 4096)
        kill_at = int(rng.integers(1, len(events)))
        checkpoint_every = int(rng.integers(2, 8))
        config = KiffConfig(k=4)

        # The run that dies: WAL + periodic checkpoints, then the
        # process state is abandoned at a random event.
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset,
            config,
            metric=metric,
            auto_refresh=False,
            wal=PartitionedWriteAheadLog(state, 1, fsync_every=4),
        )
        live.checkpoint(state)
        for done, event in enumerate(events[:kill_at], start=1):
            live.apply(event)
            if done % checkpoint_every == 0:
                if rng.random() < 0.5:  # checkpoints mid-dirty and clean
                    live.refresh()
                live.checkpoint(state)
        del live  # the crash: in-memory state is gone

        # The uninterrupted reference at the same point.
        reference = DynamicKnnIndex(
            dataset, config, metric=metric, auto_refresh=False
        )
        reference.apply(events[:kill_at])
        reference.refresh()

        restored = DynamicKnnIndex.restore(state)
        assert restored.graph == reference.graph  # ids AND sims, exact
        assert restored.dataset == reference.dataset
        assert restored.last_seq == reference.last_seq

        # The recovered index keeps journaling: finish the stream and it
        # still matches a never-crashed run end to end.
        restored.apply(events[kill_at:])
        restored.refresh()
        full = DynamicKnnIndex(
            dataset, config, metric=metric, auto_refresh=False
        )
        full.apply(events)
        full.refresh()
        assert restored.graph == full.graph
        assert restored.dataset == full.dataset
        # ... and a second crash-recovery of the continued WAL agrees.
        rerestored = DynamicKnnIndex.restore(state)
        assert rerestored.graph == full.graph


class TestRecoveryDetails:
    def test_auto_refresh_stream_recovers(self, tmp_path):
        """auto_refresh=True streams checkpoint a clean graph; recovery
        replays the tail and matches the per-event-refreshed run."""
        dataset = random_dataset(n_users=14, n_items=12, seed=2, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply([AddRating(0, 5, 4.0), AddUser((1, 5), (3.0, 2.0))])
        restored = DynamicKnnIndex.restore(state)
        assert restored.restore_info.replayed_events == 2
        assert restored.graph == live.graph
        assert restored.auto_refresh is True

    def test_restored_wal_continues_sequence(self, tmp_path):
        dataset = random_dataset(n_users=10, n_items=8, seed=5, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply(AddRating(0, 2, 3.0))
        restored = DynamicKnnIndex.restore(state)
        result = restored.apply(AddRating(1, 2, 2.0))
        assert result.last_seq == 2
        assert [seq for seq, _ in read_partitioned_wal(state)] == [1, 2]

    def test_corrupt_latest_checkpoint_falls_back_to_older(self, tmp_path):
        """A truncated newest checkpoint (power loss after rename) must
        not brick recovery while an older complete one + the WAL-tail
        replay can reconstruct the same state."""
        dataset = random_dataset(n_users=12, n_items=10, seed=7, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply(AddRating(0, 4, 3.0))
        newest = live.checkpoint(state)
        (newest / "base.npz").write_bytes(b"")  # the lost-bytes torn archive
        restored = DynamicKnnIndex.restore(state)
        assert restored.restore_info.checkpoint != newest
        assert restored.restore_info.replayed_events == 1
        assert restored.graph == live.graph

    def test_fallback_refuses_to_skip_unjournaled_events(self, tmp_path):
        """If the only checkpoint covering a journaling gap is the
        corrupt one, restore must fail loudly rather than silently
        dropping the gap's events."""
        dataset = random_dataset(n_users=12, n_items=10, seed=12, ratings=True)
        state = tmp_path / "state"
        index = DynamicKnnIndex(dataset, KiffConfig(k=3))
        index.checkpoint(state)  # checkpoint-0, before any journaling
        index.apply([AddRating(0, 4, 3.0), AddRating(1, 4, 2.0)])  # not logged
        index.checkpoint(state)  # checkpoint-2 covers the unlogged events
        index.attach_wal(PartitionedWriteAheadLog(state, 1))  # starts at 2
        index.apply(AddRating(2, 4, 5.0))  # journaled as seq 3
        # checkpoint-2 — the only bridge over the unlogged events — dies:
        (checkpoint_path(state, 2) / "base.npz").write_bytes(b"")
        with pytest.raises(CheckpointError, match="not recoverable"):
            DynamicKnnIndex.restore(state)

    def test_all_checkpoints_corrupt_raises_checkpoint_error(self, tmp_path):
        dataset = random_dataset(n_users=10, n_items=8, seed=8, ratings=True)
        state = tmp_path / "state"
        index = DynamicKnnIndex(dataset, KiffConfig(k=3))
        (index.checkpoint(state) / "meta.json").write_text("not metadata")
        with pytest.raises(CheckpointError, match="no readable checkpoint"):
            DynamicKnnIndex.restore(state)

    def test_lost_unsynced_tail_behind_durable_checkpoint(self, tmp_path):
        """fsync batching can lose WAL lines that a durable checkpoint
        already covers; recovery must proceed from the checkpoint and
        resume journaling past the gap instead of aborting — while a
        restore from an *older* checkpoint fails loudly at that gap."""
        dataset = random_dataset(n_users=12, n_items=10, seed=9, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply([AddRating(0, 4, 3.0), AddRating(1, 4, 2.0)])
        live.checkpoint(state)  # durable through seq 2
        # Simulate the OS losing the unsynced tail: drop the last line.
        segment = wal_segment_path(state, 0)
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:-1]))
        restored = DynamicKnnIndex.restore(state)
        assert restored.last_seq == 2  # the checkpoint's sequence
        assert restored.wal.last_seq == 2  # advanced past the lost seq 2
        assert restored.graph == live.graph
        # Journaling resumes past the gap; the segment keeps seq 1.
        assert restored.apply(AddRating(2, 4, 5.0)).last_seq == 3
        assert [seq for seq, _ in read_partitioned_wal(state)] == [1, 3]
        assert DynamicKnnIndex.restore(state).graph == restored.graph
        # Only checkpoint-2 bridges the lost event: without it, replay
        # from checkpoint-0 must refuse the gap rather than skip it.
        for child in checkpoint_path(state, 2).iterdir():
            child.unlink()
        checkpoint_path(state, 2).rmdir()
        with pytest.raises(CheckpointError, match="resumes at sequence 3"):
            DynamicKnnIndex.restore(state)

    def test_failed_journal_append_rolls_back_cleanly(self, tmp_path):
        """Disk-full on the Kth append of a batch: nothing is journaled
        or absorbed, and the retry neither double-journals nor diverges
        recovery from the live run."""
        dataset = random_dataset(n_users=12, n_items=10, seed=10, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        batch = Batch((AddRating(0, 4, 3.0), AddUser((2,), (4.0,))))
        real_append = live.wal.append
        calls = []

        def failing_append(event, shard):
            if len(calls) == 1:
                raise OSError("no space left on device")
            calls.append(event)
            return real_append(event, shard)

        live.wal.append = failing_append
        with pytest.raises(OSError, match="no space"):
            live.apply(batch)
        live.wal.append = real_append
        assert live.last_seq == 0
        assert live.pending_events == 0
        assert list(read_partitioned_wal(state)) == []
        result = live.apply(batch)  # the retry, after space was freed
        assert result.last_seq == 2
        assert result.new_users == (12,)
        restored = DynamicKnnIndex.restore(state)
        assert restored.graph == live.graph
        assert restored.n_users == live.n_users == 13

    def test_log_from_another_history_cannot_attach(self, tmp_path):
        """A non-empty log whose sequence differs from the index's would
        replay onto the wrong state: attaching it is refused."""
        from repro.persistence import PersistenceError

        dataset = random_dataset(n_users=10, n_items=8, seed=3, ratings=True)
        with PartitionedWriteAheadLog(tmp_path, 1) as wal:
            wal.append(AddRating(0, 2, 3.0), 0)
        index = DynamicKnnIndex(dataset, KiffConfig(k=3))
        with pytest.raises(PersistenceError, match="recover with"):
            index.attach_wal(PartitionedWriteAheadLog(tmp_path, 1))
        assert index.wal is None

    def test_torn_wal_tail_is_survivable(self, tmp_path):
        """A crash mid-append loses at most the torn record, never the
        ability to recover."""
        dataset = random_dataset(n_users=10, n_items=8, seed=6, ratings=True)
        state = tmp_path / "state"
        live = DynamicKnnIndex(
            dataset, KiffConfig(k=3), wal=PartitionedWriteAheadLog(state, 1)
        )
        live.checkpoint(state)
        live.apply(AddRating(0, 2, 3.0))
        with wal_segment_path(state, 0).open("ab") as handle:
            handle.write(b'{"seq": 2, "type": "add_r')  # died mid-write
        reference = DynamicKnnIndex(dataset, KiffConfig(k=3))
        reference.apply(AddRating(0, 2, 3.0))
        restored = DynamicKnnIndex.restore(state)
        assert restored.last_seq == 1
        assert restored.graph == reference.graph


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGKILL")
class TestSigkillSmoke:
    """End-to-end crash recovery through the example script."""

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
                *extra,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sigkill_mid_stream_recovers_bit_identically(self, tmp_path):
        killed_dir = tmp_path / "killed"
        proc = self.run_example(
            killed_dir, "--events", "60", "--kill-after", "37"
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # Uninterrupted reference: same seed, stopped cleanly at event 37.
        ref_dir = tmp_path / "reference"
        proc = self.run_example(ref_dir, "--events", "37")
        assert proc.returncode == 0, proc.stderr
        restored = DynamicKnnIndex.restore(killed_dir)
        assert restored.restore_info.replayed_events > 0  # WAL tail used
        assert restored.graph == load_graph(ref_dir / "final-graph.npz")
