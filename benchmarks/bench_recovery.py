"""Crash-recovery bench: restore cost vs a cold KIFF rebuild.

A 90%/10% hold-out workload streams through a WAL'd
:class:`DynamicKnnIndex` with periodic checkpoints, then "crashes" (the
in-memory state is abandoned) with a log tail beyond the last
checkpoint.  ``DynamicKnnIndex.restore`` recovers by loading the
checkpoint and replaying the tail — work proportional to the tail's
dirty set, not the dataset.

The headline assertion mirrors the durability acceptance bar: on the
2k-user workload, restore must spend **< 25% of a cold ``kiff()``
rebuild's similarity evaluations** (the converged rebuild evaluates each
Ranked Candidate Set entry exactly once, so its cost is the snapshot's
RCS total) — and the recovered graph must be bit-identical to the
uninterrupted run's.
"""

import os

import numpy as np

from repro import (
    BipartiteDataset,
    DynamicKnnIndex,
    KiffConfig,
    PartitionedWriteAheadLog,
)
from repro.core.rcs import count_rcs_candidates
from repro.streaming import holdout_stream, ratings_batch

from _bench_utils import run_once

#: 90%-prebuilt / 10%-streamed synthetic workloads (paper-style sparsity).
#: ``max_fraction`` is the acceptance bar on restore evaluations vs a
#: cold rebuild: the headline < 25% is pinned at the 2k-user (laptop)
#: workload; the tiny smoke workload's WAL tail dirties a far larger
#: share of its 400-user population, so its proportional bound is looser.
_SCALES = {
    "tiny": dict(
        n_users=400, n_items=300, density=0.01, batch_size=5, k=8,
        max_fraction=0.40,
    ),
    "laptop": dict(
        n_users=2_000, n_items=1_200, density=0.005, batch_size=10, k=10,
        max_fraction=0.25,
    ),
}
_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop")

#: Checkpoint cadence (batches) — the stream's durability knob.  Chosen
#: to not divide either scale's batch count, so the crash always leaves
#: a WAL tail beyond the last checkpoint (else the bench would only
#: measure checkpoint loading).
_CHECKPOINT_EVERY = 11


def _workload(n_users, n_items, density, seed=7):
    """A seeded sparse rating matrix, 90/10-split via holdout_stream."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    users, items = np.nonzero(mask)
    ratings = rng.integers(1, 6, size=users.size).astype(np.float64)
    dataset = BipartiteDataset.from_edges(
        users, items, ratings,
        n_users=n_users,
        n_items=n_items,
        name="recovery-bench",
    )
    return holdout_stream(dataset, fraction=0.1, seed=seed)


def test_recovery_cost(benchmark, tmp_path):
    """Restore < 25% of a cold rebuild's evaluations, bit-identical."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    benchmark.group = "recovery:restore"
    base, users, items, ratings = _workload(
        params["n_users"], params["n_items"], params["density"]
    )
    index = DynamicKnnIndex(
        base,
        KiffConfig(k=params["k"]),
        auto_refresh=False,
        wal=PartitionedWriteAheadLog(tmp_path, 1, fsync_every=256),
    )
    index.checkpoint(tmp_path)
    batch_size = params["batch_size"]
    batches = 0
    for lo in range(0, len(users), batch_size):
        hi = lo + batch_size
        index.apply(ratings_batch(users[lo:hi], items[lo:hi], ratings[lo:hi]))
        index.refresh()
        batches += 1
        if batches % _CHECKPOINT_EVERY == 0:
            index.checkpoint(tmp_path)
    # The crash: abandon the in-memory state with a WAL tail beyond the
    # last checkpoint, and recover from disk alone.
    restored = run_once(benchmark, lambda: DynamicKnnIndex.restore(tmp_path))

    restore_evaluations = restored.restore_info.evaluations
    rebuild_evaluations = count_rcs_candidates(
        restored.dataset,
        pivot=restored.config.pivot,
        min_rating=restored.config.min_rating,
    )
    benchmark.extra_info["events_streamed"] = int(len(users))
    benchmark.extra_info["wal_tail_events"] = restored.restore_info.replayed_events
    benchmark.extra_info["checkpoint_every_batches"] = _CHECKPOINT_EVERY
    benchmark.extra_info["restore_evaluations"] = int(restore_evaluations)
    benchmark.extra_info["rebuild_evaluations"] = int(rebuild_evaluations)
    benchmark.extra_info["restore_fraction"] = round(
        restore_evaluations / rebuild_evaluations, 4
    )
    assert restored.restore_info.replayed_events > 0, (
        "workload left no WAL tail to replay; the bench would measure "
        "checkpoint loading only"
    )
    # Durability acceptance bar: recovery stays a small fraction of a
    # cold rebuild (< 25% on the 2k-user workload).
    assert restore_evaluations < params["max_fraction"] * rebuild_evaluations, (
        restore_evaluations,
        rebuild_evaluations,
    )
    # And it lands on the exact graph the crashed run maintained.
    assert restored.graph == index.graph
    assert restored.last_seq == index.last_seq
