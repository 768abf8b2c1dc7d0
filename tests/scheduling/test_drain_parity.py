"""Drain-to-parity: every policy converges to the bit-exact graph.

The scheduler's contract is that staleness is *bounded and temporary*:
whatever the policy deferred, :meth:`RefreshScheduler.drain` must
restore the exact converged graph — neighbour ids and similarities —
that a cold ``kiff()`` rebuild produces on the final dataset.  The
matrix below drives randomized scheduled streams (the differential
parity corpus's generator) through every policy shape on both index
classes and all three executors, and finishes with a real-SIGKILL
restore drill whose pending set is non-empty at the kill point.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DynamicKnnIndex,
    KiffConfig,
    RefreshScheduler,
    SchedulerPolicy,
)
from repro.streaming import (
    ShardedKnnIndex,
    cold_rebuild_graph,
    ratings_batch,
)
from tests.conftest import random_dataset

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every policy shape the scheduler distinguishes: eager degenerate,
#: lag-budgeted + capped, wall-budgeted + shedding admission control,
#: and rejecting admission control.
POLICIES = {
    "always-exact": SchedulerPolicy(),
    "lag-capped": SchedulerPolicy(max_event_lag=6, max_dirty_per_refresh=3),
    "wall-shed": SchedulerPolicy(
        max_wall_staleness=1e9,
        max_dirty_per_refresh=2,
        queue_bound=4,
        on_backpressure="refresh",
    ),
    "lag-reject": SchedulerPolicy(
        max_event_lag=10,
        max_dirty_per_refresh=2,
        queue_bound=5,
        on_backpressure="reject",
    ),
}


def drive_scheduled_stream(scheduler, seed, n_events=30, max_item=20):
    """The parity corpus's random rating stream, in scheduled bursts."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < n_events:
        size = min(int(rng.integers(1, 5)), n_events - produced)
        produced += size
        n = scheduler.index.n_users
        batch = ratings_batch(
            rng.integers(0, n, size=size),
            rng.integers(0, max_item, size=size),
            rng.integers(0, 6, size=size).astype(float),
        )
        while not scheduler.submit(batch).admitted:
            scheduler.refresh()  # the reject-mode retry contract
        if rng.random() < 0.2:
            scheduler.tick()
    return scheduler.drain()


def assert_drains_to_parity(index, policy, seed, metric="cosine"):
    scheduler = RefreshScheduler(index, policy)
    drive_scheduled_stream(scheduler, seed)
    assert scheduler.queue_depth == 0
    assert index.pending_events == 0
    assert index.graph == cold_rebuild_graph(
        index.dataset, index.config, metric=metric
    )


class TestDynamicIndex:
    @pytest.mark.parametrize("seed", range(7))
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_drains_to_parity(self, name, metric, seed):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=4), metric=metric, auto_refresh=False
        )
        try:
            assert_drains_to_parity(index, POLICIES[name], seed, metric)
        finally:
            index.close()


class TestShardedIndex:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_drains_to_parity(self, name, executor, seed):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=seed, ratings=True
        )
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=3,
            executor=executor,
        )
        try:
            assert_drains_to_parity(index, POLICIES[name], seed)
        finally:
            index.close()

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_drains_to_parity_processes(self, name):
        dataset = random_dataset(
            n_users=18, n_items=14, density=0.15, seed=1, ratings=True
        )
        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=4),
            auto_refresh=False,
            n_shards=2,
            executor="processes",
        )
        try:
            assert_drains_to_parity(index, POLICIES[name], seed=1)
        finally:
            index.close()


_DRILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import numpy as np

    from repro import DynamicKnnIndex, KiffConfig, RefreshScheduler, \\
        SchedulerPolicy
    from repro.datasets import BipartiteDataset
    from repro.persistence import PartitionedWriteAheadLog
    from repro.streaming import ratings_batch

    state = sys.argv[1]
    rng = np.random.default_rng(7)
    rows, cols = np.nonzero(rng.random((16, 12)) < 0.3)
    dataset = BipartiteDataset.from_edges(
        rows, cols, rng.integers(1, 6, size=rows.size).astype(float),
        n_users=16, n_items=12, name="drill",
    )
    scheduler = RefreshScheduler(
        DynamicKnnIndex(
            dataset, KiffConfig(k=4), auto_refresh=False,
            wal=PartitionedWriteAheadLog(state, 1, fsync_every=1),
        ),
        SchedulerPolicy(max_event_lag=8, max_dirty_per_refresh=2),
    )
    scheduler.checkpoint(state)
    for lo in range(0, 24, 3):
        users = rng.integers(0, 16, size=3)
        scheduler.submit(ratings_batch(
            users, rng.integers(0, 14, size=3),
            rng.integers(0, 6, size=3) + 0.5,  # never a duplicate
        ))
        if lo == 12:
            scheduler.checkpoint(state)
    assert scheduler.queue_depth > 0, "drill needs a pending set"
    print(f"pending={scheduler.queue_depth}", flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGKILL")
class TestSigkillRestoreDrill:
    def test_sigkill_with_pending_set_restores_and_drains(self, tmp_path):
        """Die by SIGKILL mid-deferral; the restored scheduler resumes
        the journaled pending set and drains to the exact graph."""
        state = tmp_path / "state"
        state.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", _DRILL_SCRIPT, str(state)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "pending=" in proc.stdout  # killed past the assert

        scheduler = RefreshScheduler.restore(
            DynamicKnnIndex,
            state,
            SchedulerPolicy(max_event_lag=8, max_dirty_per_refresh=2),
        )
        try:
            assert scheduler.index.restore_info.replayed_events > 0
            assert scheduler.queue_depth > 0  # the pending set survived
            passes = scheduler.drain()
            assert passes  # draining did real deferred work
            index = scheduler.index
            assert index.graph == cold_rebuild_graph(
                index.dataset, index.config
            )
        finally:
            scheduler.close()
