"""Streaming maintenance: keep a KNN graph exact under live rating events.

Run the narrative walkthrough with::

    python examples/streaming_updates.py

Durable-stream mode (used by the crash-recovery smoke job) journals a
seeded random event stream into a write-ahead log (``wal-<shard>.jsonl``
segments) with periodic ``checkpoint-<seq>.shards`` checkpoints, and
can SIGKILL itself mid-stream to simulate a crash::

    python examples/streaming_updates.py --state-dir /tmp/state \
        --events 120 --checkpoint-every 25 --kill-after 73
    repro-kiff recover /tmp/state --verify

Running the same seed with ``--events K`` (no kill) produces the
uninterrupted reference state at event K — what the recovery test
compares bit-identically against.  ``--shards N`` runs the same durable
stream through a :class:`ShardedKnnIndex`, one log segment per shard
and the same two-file checkpoints (the sharded crash-recovery smoke job
drives this mode); ``--executor processes``
additionally fans each refresh out to one OS worker per shard over
shared-memory snapshots — the crash drill then exercises SIGKILL of a
whole process tree mid-stream.  ``--rebalance-after N`` runs a live
WAL-fenced shard re-balance (to ``--rebalance-to`` shards) mid-stream,
so the drill also covers recovery across a migration fence.
"""

import argparse
import os
import signal
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AddRating,
    AddUser,
    DynamicKnnIndex,
    KiffConfig,
    PartitionedWriteAheadLog,
    RemoveRating,
    RemoveUser,
    ratings_batch,
)
from repro.datasets import load_dataset
from repro.graph import save_graph
from repro.streaming import cold_rebuild_graph


def random_event(rng, n_users, max_item=30):
    """One seeded random event against a population of *n_users*."""
    op = int(rng.integers(0, 12))
    if op < 7:
        return AddRating(
            int(rng.integers(0, n_users)),
            int(rng.integers(0, max_item)),
            float(rng.integers(1, 6)),
        )
    if op < 9:
        return RemoveRating(
            int(rng.integers(0, n_users)), int(rng.integers(0, max_item))
        )
    if op < 11:
        size = int(rng.integers(1, 4))
        items = rng.choice(max_item, size=size, replace=False)
        return AddUser(
            tuple(int(item) for item in items),
            tuple(float(r) for r in rng.integers(1, 6, size=size)),
        )
    return RemoveUser(int(rng.integers(0, n_users)))


def durable_stream(args) -> None:
    """Stream seeded events through a WAL'd index, optionally crashing."""
    dataset = load_dataset("wikipedia", scale="tiny")
    state = Path(args.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    wal = PartitionedWriteAheadLog(state, args.shards, fsync_every=8)
    if args.shards > 1:
        from repro import ShardedKnnIndex

        index = ShardedKnnIndex(
            dataset,
            KiffConfig(k=8),
            auto_refresh=False,
            n_shards=args.shards,
            executor=args.executor,
            wal=wal,
        )
    else:
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=8), auto_refresh=False, wal=wal
        )
    # However the stream ends (completion, a bad event, SIGINT), the
    # index must release its worker pool and /dev/shm arena; only the
    # simulated SIGKILL below escapes this (that leak is exactly what
    # the crash-recovery drill then observes and cleans up).
    try:
        index.checkpoint(state)  # seed checkpoint: recovery's replay base
        rng = np.random.default_rng(args.seed)
        for done in range(1, args.events + 1):
            index.apply(random_event(rng, index.n_users))
            if done == args.rebalance_after and args.shards > 1:
                from repro import ShardPlan

                stats = index.rebalance(
                    ShardPlan(n_shards=args.rebalance_to)
                )
                print(
                    f"Rebalanced after event {done}: "
                    f"{stats.shards_before} -> {stats.shards_after} "
                    f"shards, {stats.users_moved} users moved "
                    f"(fence {stats.seq_begin}..{stats.seq_commit})",
                    flush=True,
                )
            if done % args.checkpoint_every == 0:
                index.refresh()
                index.checkpoint(state)
            if args.kill_after is not None and done == args.kill_after:
                print(
                    f"Simulating crash: SIGKILL after event {done}",
                    flush=True,
                )
                os.kill(os.getpid(), signal.SIGKILL)
        index.refresh()
        # The uninterrupted final graph, for bit-identical recovery checks.
        save_graph(index.graph, state / "final-graph.npz")
        parity = index.graph == cold_rebuild_graph(index.dataset, index.config)
        print(
            f"Streamed {args.events} events into {state} "
            f"(last sequence {index.last_seq}); parity with cold rebuild: "
            f"{parity}"
        )
    finally:
        index.close()


def narrative() -> None:
    # 1. Start from an offline KIFF build, exactly like the batch setting.
    dataset = load_dataset("wikipedia", scale="tiny")
    index = DynamicKnnIndex(dataset, KiffConfig(k=8), metric="cosine")
    print(f"Initial build: {dataset}")
    print(
        f"  {index.initial_evaluations:,} similarity evaluations, "
        f"{index.graph.edge_count():,} edges"
    )

    # 2. Ratings arrive continuously as typed events; apply() is the
    #    single ingestion path and the graph stays exact after each
    #    event (auto_refresh=True, the default).
    result = index.apply(
        ratings_batch(
            users=[0, 3, 7], items=[5, 5, 9], ratings=[4.0, 5.0, 3.0]
        )
    )
    stats = result.refreshes[-1]
    print(
        f"\nAbsorbed {result.events} rating events: {stats.dirty_users} dirty "
        f"users, {stats.affected_users} rows rebuilt, "
        f"{stats.evaluations} similarity evaluations "
        f"(vs ~{index.initial_evaluations:,} for a cold rebuild)."
    )

    # 3. New users join mid-stream; ids are allocated densely and
    #    returned in ApplyResult.new_users.
    result = index.apply(AddUser(items=(5, 9, 12), ratings=(5.0, 4.0, 2.0)))
    newcomer = result.new_users[0]
    print(
        f"\nUser {newcomer} joined; neighbours: "
        f"{index.graph.neighbors_of(newcomer).tolist()}"
    )

    # 4. Users leave (and single ratings retract); referencing rows are
    #    repaired in the same pass.
    index.apply([RemoveRating(3, 5), RemoveUser(0)])
    print(f"User 0 left; degree now {index.graph.degree()[0]}")

    # 5. Deferred mode: batch events and refresh on your own schedule.
    index.auto_refresh = False
    index.apply(ratings_batch([1, 2], [3, 3], [5.0, 5.0]))
    print(f"\nDeferred mode: {index.pending_events} events pending")
    stats = index.refresh()
    print(
        f"Refresh evaluated {stats.evaluations} pairs, "
        f"{stats.changes} slots changed"
    )

    # 6. The maintained graph is *exactly* the converged KIFF graph.
    cold = cold_rebuild_graph(index.dataset, index.config, metric="cosine")
    print(f"\nParity with cold rebuild: {index.graph == cold}")
    print(
        f"Total maintenance cost: {index.maintenance_evaluations:,} "
        f"evaluations across {len(index.refresh_log)} refreshes"
    )

    # 7. Durability: journal events into a write-ahead log, checkpoint,
    #    and restore a bit-identical index after a "crash".
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp)
        index.attach_wal(PartitionedWriteAheadLog(state, 1))
        index.checkpoint(state)
        index.apply(AddRating(1, 7, 4.0))  # journaled, not checkpointed
        index.refresh()  # restore() also lands on the refreshed graph
        restored = DynamicKnnIndex.restore(state)
        info = restored.restore_info
        print(
            f"\nRestored from {info.checkpoint.name} + {info.replayed_events} "
            f"replayed WAL event(s); bit-identical: "
            f"{restored.graph == index.graph}"
        )
        restored.close()
    index.close()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--state-dir",
        default=None,
        help="durable-stream mode: WAL + checkpoints land here",
    )
    parser.add_argument("--events", type=int, default=80)
    parser.add_argument("--checkpoint-every", type=int, default=20)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "durable-stream mode: shard the index across N workers "
            "(one wal-<shard>.jsonl segment and checkpoint file per shard)"
        ),
    )
    parser.add_argument(
        "--executor",
        default="threads",
        choices=("serial", "threads", "processes"),
        help=(
            "durable-stream mode with --shards > 1: the shard refresh "
            "executor (processes = multiprocessing workers over "
            "shared-memory snapshots)"
        ),
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=None,
        help="SIGKILL this process after N events (crash simulation)",
    )
    parser.add_argument(
        "--rebalance-after",
        type=int,
        default=None,
        help=(
            "durable-stream mode with --shards > 1: run a live "
            "WAL-fenced rebalance to --rebalance-to shards after N "
            "events (combine with --kill-after to crash mid-migration "
            "history)"
        ),
    )
    parser.add_argument(
        "--rebalance-to",
        type=int,
        default=3,
        help="target shard count for --rebalance-after (default: 3)",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.state_dir:
        durable_stream(args)
    else:
        narrative()


if __name__ == "__main__":
    main()
