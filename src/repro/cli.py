"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    repro-kiff table2 --scale laptop
    repro-kiff all --scale tiny
    python -m repro figure8
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import EXPERIMENTS, ExperimentContext

__all__ = ["main", "build_parser"]


def _open_unit_fraction(value: str) -> float:
    """Argparse type for fractions strictly inside (0, 1)."""
    try:
        fraction = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0.0 < fraction < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be strictly between 0 and 1, got {value}"
        )
    return fraction


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kiff",
        description=(
            "Regenerate the evaluation tables and figures of the KIFF "
            "paper (Boutet et al., ICDE 2016)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + [
            "all",
            "datasets",
            "graph-stats",
            "stream",
            "serve",
            "recover",
            "rebalance",
        ],
        help=(
            "which paper artefact to regenerate ('all' runs everything; "
            "'datasets' prints Table-I statistics for every registry "
            "preset and can cache them to disk; 'graph-stats' builds a "
            "KNN graph with KIFF and prints its analytics; 'stream' "
            "replays a hold-out rating stream through the dynamic KNN "
            "index and reports maintenance cost vs full rebuilds; "
            "'serve' answers neighbors/recommend queries over TCP from "
            "lock-free graph snapshots, optionally while a writer "
            "thread streams events; 'recover' restores a crashed "
            "streaming index from a state directory's checkpoint + "
            "write-ahead log tail; 'rebalance' restores a sharded state "
            "directory and applies a WAL-fenced shard re-balancing plan "
            "— --shards M and/or --move USER:SHARD)"
        ),
    )
    parser.add_argument(
        "directory",
        nargs="?",
        default=None,
        help=(
            "with 'recover'/'rebalance': the state directory holding "
            "wal-<shard>.jsonl segments and checkpoint-<seq>.shards "
            "directories"
        ),
    )
    parser.add_argument(
        "--scale",
        default="laptop",
        choices=("tiny", "laptop", "paper"),
        help="dataset scale (default: laptop; 'paper' is very slow)",
    )
    parser.add_argument(
        "--metric",
        default="cosine",
        help="similarity metric (default: cosine)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomised baselines"
    )
    parser.add_argument(
        "--save-dir",
        default=None,
        help="with 'datasets': also write each preset as an edge list here",
    )
    parser.add_argument(
        "--dataset",
        default="wikipedia",
        help="with 'graph-stats'/'stream': the registry preset to build on",
    )
    parser.add_argument(
        "--k",
        type=int,
        default=None,
        help="with 'graph-stats'/'stream': neighbourhood size",
    )
    parser.add_argument(
        "--stream-fraction",
        type=_open_unit_fraction,
        default=0.1,
        help="with 'stream': fraction of ratings held out and streamed",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=10,
        help="with 'stream': events absorbed between refinement passes",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "with 'stream'/'serve': partition the index's users across "
            "N shards (default 1, the flat index).  With --wal, events "
            "journal into per-shard wal-<i>.jsonl segments in the "
            "state directory.  "
            "With 'rebalance': the target shard count to migrate the "
            "restored state to (default: keep the current count)"
        ),
    )
    parser.add_argument(
        "--move",
        action="append",
        metavar="USER:SHARD",
        default=None,
        help=(
            "with 'rebalance': pin user USER to shard SHARD "
            "(repeatable; combines with --shards, but a shard-count "
            "change resets previously journaled pins)"
        ),
    )
    parser.add_argument(
        "--executor",
        default="threads",
        choices=("serial", "threads", "processes"),
        help=(
            "with 'stream'/'serve': how each refresh stage reaches "
            "the index's shards (threads: one thread per shard, in "
            "process at one shard; processes: one OS process per shard "
            "over shared-memory snapshots — the multi-core mode; "
            "serial: deterministic in-process order)"
        ),
    )
    parser.add_argument(
        "--wal",
        default=None,
        help=(
            "with 'stream': the state directory to journal every event "
            "into (wal-<shard>.jsonl segments) and checkpoint into; a "
            ".jsonl path means its parent directory"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help=(
            "with 'stream' + --wal: checkpoint the index every N "
            "batches (a seed checkpoint is always written before the "
            "stream starts)"
        ),
    )
    parser.add_argument(
        "--max-event-lag",
        type=int,
        default=None,
        help=(
            "with 'stream'/'serve': bounded-staleness scheduling — "
            "force a refresh once any dirty user trails the applied "
            "event sequence by this many events (see README "
            "'Scheduling'; any scheduler flag switches 'stream' to the "
            "scheduled burst replay)"
        ),
    )
    parser.add_argument(
        "--staleness-budget",
        type=float,
        default=None,
        help=(
            "with 'stream'/'serve': force a refresh once any dirty "
            "user has been deferred this many wall-clock seconds"
        ),
    )
    parser.add_argument(
        "--max-dirty-per-refresh",
        type=int,
        default=None,
        help=(
            "with 'stream'/'serve': cap each scheduled pass at this "
            "many dirty users, highest blast radius first; the tail "
            "defers to later passes"
        ),
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        help=(
            "with 'stream'/'serve': admission control — once this many "
            "dirty users queue up, submissions hit backpressure"
        ),
    )
    parser.add_argument(
        "--on-backpressure",
        default="refresh",
        choices=("refresh", "reject"),
        help=(
            "with --queue-bound: shed load with an immediate scheduled "
            "pass (refresh, default) or reject the submission and "
            "leave the retry to the caller"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="with 'serve': interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help=(
            "with 'serve': TCP port (default: 0 = ephemeral; the bound "
            "port is printed on startup)"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=(
            "with 'serve': shut down cleanly after this many seconds "
            "(default: run until SIGINT/SIGTERM)"
        ),
    )
    parser.add_argument(
        "--serve-events",
        type=int,
        default=0,
        help=(
            "with 'serve': stream up to N held-out rating events "
            "through a writer thread while serving (--batch-size events "
            "per refresh), demonstrating reads during live ingestion"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "with 'recover'/'rebalance': also cold-rebuild the "
            "converged graph on the recovered dataset and check exact "
            "parity (exit 1 on mismatch)"
        ),
    )
    return parser


def _run_datasets(args) -> int:
    """The 'datasets' utility command: stats (+ optional disk cache)."""
    from .datasets import dataset_names, describe, load_dataset, save_dataset
    from .experiments.report import render_table

    rows = []
    for name in dataset_names():
        dataset = load_dataset(name, scale=args.scale)
        rows.append(describe(dataset).as_row())
        if args.save_dir:
            save_dataset(dataset, args.save_dir)
    print(
        render_table(
            [
                "Dataset",
                "|U|",
                "|I|",
                "|E|",
                "Density",
                "Avg |UPu|",
                "Avg |IPi|",
            ],
            rows,
            title=f"Registry presets at scale={args.scale!r}",
        )
    )
    if args.save_dir:
        print(f"\nEdge lists written to {args.save_dir}")
    return 0


def _cli_k(args) -> int:
    """Scale-aware k default shared by the graph-stats/stream utilities."""
    if args.k is not None:
        return args.k
    return 8 if args.scale == "tiny" else 20


def _scheduler_policy(args):
    """The stream/serve scheduling flags as a ``SchedulerPolicy``.

    ``None`` when no scheduling flag is set (the unscheduled path);
    ``--staleness-budget`` is the policy's ``max_wall_staleness``.
    Raises :class:`ValueError` when a knob fails the policy's
    validation, or when ``--on-backpressure reject`` comes without
    ``--queue-bound``, the only source of backpressure.
    """
    if args.on_backpressure == "reject" and args.queue_bound is None:
        raise ValueError(
            "--on-backpressure reject needs --queue-bound: backpressure "
            "only arises when the dirty queue reaches its bound"
        )
    knobs = dict(
        max_event_lag=args.max_event_lag,
        max_wall_staleness=args.staleness_budget,
        max_dirty_per_refresh=args.max_dirty_per_refresh,
        queue_bound=args.queue_bound,
    )
    if all(value is None for value in knobs.values()):
        return None
    from .scheduling import SchedulerPolicy

    return SchedulerPolicy(**knobs, on_backpressure=args.on_backpressure)


def _run_graph_stats(args) -> int:
    """The 'graph-stats' utility: build with KIFF, print analytics."""
    from .core import KiffConfig, kiff
    from .datasets import load_dataset
    from .experiments.report import render_table
    from .graph import analyze
    from .similarity import SimilarityEngine

    dataset = load_dataset(args.dataset, scale=args.scale)
    k = _cli_k(args)
    engine = SimilarityEngine(dataset, metric=args.metric)
    result = kiff(engine, KiffConfig(k=k))
    stats = analyze(result.graph)
    print(
        render_table(
            ["Statistic", "Value"],
            stats.as_rows(),
            title=(
                f"KIFF graph on {args.dataset} ({args.scale}), "
                f"metric={args.metric}, k={k}"
            ),
        )
    )
    print(
        f"\nConstruction: {result.iterations} iterations, "
        f"{result.evaluations:,} evaluations "
        f"(scan rate {result.scan_rate:.2%}), {result.wall_time:.2f}s"
    )
    return 0


def _run_stream(args) -> int:
    """The 'stream' utility: hold-out replay through the dynamic index."""
    from pathlib import Path

    from .core import KiffConfig
    from .datasets import load_dataset
    from .experiments.report import render_table
    from .streaming import (
        DynamicKnnIndex,
        cold_rebuild_graph,
        holdout_stream,
        replay_stream,
    )

    if args.shards is None:
        args.shards = 1
    try:
        policy = _scheduler_policy(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scheduled = policy is not None
    if args.checkpoint_every is not None and not args.wal:
        print("error: --checkpoint-every requires --wal", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every <= 0:
        print(
            f"error: --checkpoint-every must be a positive number of "
            f"batches, got {args.checkpoint_every}",
            file=sys.stderr,
        )
        return 2
    if scheduled and args.checkpoint_every is not None:
        print(
            "error: --checkpoint-every is not supported with scheduler "
            "flags (the scheduled replay owns the refresh cadence); "
            "checkpoint from the API or drop the scheduling flags",
            file=sys.stderr,
        )
        return 2
    if args.shards < 1:
        print(
            f"error: --shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    dataset = load_dataset(args.dataset, scale=args.scale)
    k = _cli_k(args)
    base, users, items, ratings = holdout_stream(
        dataset, fraction=args.stream_fraction, seed=args.seed
    )
    index = DynamicKnnIndex(
        base,
        KiffConfig(k=k),
        metric=args.metric,
        auto_refresh=False,
        n_shards=args.shards,
        executor=args.executor,
    )
    # Whatever happens mid-stream (validation error, SIGINT), the index
    # must release its worker pool and /dev/shm arena on the way out.
    try:
        state_dir = None
        if args.wal:
            from .persistence import PartitionedWriteAheadLog

            # Per-shard segments live in the state directory; a .jsonl
            # path names a log file inside it.
            wal_path = Path(args.wal)
            state_dir = (
                wal_path.parent if wal_path.suffix == ".jsonl" else wal_path
            )
            wal = PartitionedWriteAheadLog(state_dir, args.shards)
            if wal.last_seq > 0:
                wal.close()
                print(
                    f"error: {state_dir}/wal-<shard>.jsonl already holds "
                    f"events up to sequence {wal.last_seq}; recover that "
                    f"state with 'repro-kiff recover {state_dir}' or pass "
                    f"a fresh --wal path",
                    file=sys.stderr,
                )
                return 2
            index.attach_wal(wal)
            # Seed checkpoint: recovery needs a base to replay onto.
            index.checkpoint(state_dir)
        if scheduled:
            from .scheduling import RefreshScheduler, scheduled_replay
            from .streaming import poisson_burst_sizes

            scheduler = RefreshScheduler(index, policy)
            # Bursty arrivals centred on --batch-size: lulls let wall
            # budgets fire, bursts exercise the queue bound.
            sizes = poisson_burst_sizes(
                len(users),
                seed=args.seed,
                base_rate=max(1.0, args.batch_size / 2),
                burst_rate=max(4.0, args.batch_size * 2),
            )
            outcome = scheduled_replay(
                scheduler, users, items, ratings, sizes
            )
            cold = cold_rebuild_graph(
                index.dataset, index.config, metric=args.metric
            )
            parity = index.graph == cold
            rows = [
                ["events streamed", outcome.events],
                ["bursts (submissions)", outcome.submissions],
                ["rejected submissions", outcome.rejected_submissions],
                ["scheduled passes", outcome.passes],
                ["drain passes", outcome.drain_passes],
                ["max queue depth", outcome.max_queue_depth],
                ["queue bound", scheduler.policy.queue_bound],
                ["backpressure signals", outcome.backpressure_signals],
                ["deferrals", outcome.deferrals],
                ["events/s", round(outcome.events_per_second, 1)],
                ["evals (incremental)", outcome.evaluations],
                ["parity with cold rebuild", parity],
            ]
            if args.shards > 1:
                rows.insert(1, ["shards", args.shards])
                rows.insert(2, ["executor", args.executor])
        else:
            outcome = replay_stream(
                index,
                users,
                items,
                ratings,
                batch_size=args.batch_size,
                checkpoint_every=(
                    args.checkpoint_every if state_dir else None
                ),
                checkpoint_dir=state_dir,
            )
            cold = cold_rebuild_graph(
                index.dataset, index.config, metric=args.metric
            )
            parity = index.graph == cold
            rows = [
                ["events streamed", outcome.events],
                ["batch size", args.batch_size],
                ["refreshes", outcome.batches],
                ["events/s", round(outcome.events_per_second, 1)],
                ["evals (incremental)", outcome.incremental_evaluations],
                ["evals (rebuild per batch)", outcome.rebuild_evaluations],
                ["savings", f"{outcome.savings:.1f}x"],
                ["parity with cold rebuild", parity],
            ]
            if args.shards > 1:
                rows.insert(1, ["shards", args.shards])
                rows.insert(2, ["executor", args.executor])
        if state_dir is not None:
            rows.append(["wal", str(index.wal.path)])
            rows.append(["last sequence", index.last_seq])
            if args.checkpoint_every is not None:
                rows.append(
                    [
                        "checkpoint cadence",
                        f"every {args.checkpoint_every} batches",
                    ]
                )
        print(
            render_table(
                ["Statistic", "Value"],
                rows,
                title=(
                    f"Streaming {int(args.stream_fraction * 100)}% of "
                    f"{args.dataset} ({args.scale}) through "
                    f"{type(index).__name__}, metric={args.metric}, k={k}"
                ),
            )
        )
        if scheduled:
            # One greppable line for smoke checks (CI asserts on it).
            print(
                f"scheduler: backpressure_signals="
                f"{outcome.backpressure_signals} "
                f"max_queue_depth={outcome.max_queue_depth} "
                f"scheduled_passes={outcome.passes} "
                f"drain_passes={outcome.drain_passes} "
                f"parity={parity}",
                flush=True,
            )
            if not parity:
                return 1
    finally:
        index.close()
    return 0


def _run_serve(args) -> int:
    """The 'serve' utility: lock-free query serving over TCP.

    Builds the index on the retained split of a hold-out stream, then
    answers newline-delimited JSON ``neighbors``/``recommend``/``stats``
    requests from pinned graph snapshots (see :mod:`repro.serving`).
    With ``--serve-events N`` a writer thread concurrently applies up
    to N held-out rating events (one refresh per ``--batch-size``
    batch), so queries are served against live, versioned publications
    while ingestion runs.  Shuts down on SIGINT/SIGTERM or after
    ``--duration`` seconds; the index is always closed on the way out.
    """
    import asyncio
    import signal
    import threading

    from .core import KiffConfig
    from .datasets import load_dataset
    from .serving import KnnServer
    from .streaming import (
        DynamicKnnIndex,
        holdout_stream,
        ratings_batch,
    )

    if args.shards is None:
        args.shards = 1
    if args.shards < 1:
        print(
            f"error: --shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    try:
        policy = _scheduler_policy(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset, scale=args.scale)
    k = _cli_k(args)
    base, users, items, ratings = holdout_stream(
        dataset, fraction=args.stream_fraction, seed=args.seed
    )
    index = DynamicKnnIndex(
        base,
        KiffConfig(k=k),
        metric=args.metric,
        auto_refresh=False,
        n_shards=args.shards,
        executor=args.executor,
    )
    scheduler = None
    if policy is not None:
        from .scheduling import RefreshScheduler

        scheduler = RefreshScheduler(index, policy)
    stop_writer = threading.Event()
    # Shared with the server's rebalance admin op, so a live migration
    # serializes against the writer thread's apply()/refresh() calls.
    mutate_lock = threading.Lock()
    writer = None
    try:
        n_events = min(args.serve_events, len(users))
        if n_events > 0:

            def _ingest() -> None:
                for lo in range(0, n_events, args.batch_size):
                    if stop_writer.is_set():
                        return
                    hi = min(lo + args.batch_size, n_events)
                    batch = ratings_batch(
                        users[lo:hi], items[lo:hi], ratings[lo:hi]
                    )
                    if scheduler is not None:
                        # Deferred-tail ingestion: the scheduler defers
                        # low-impact users and (if backpressure rejects)
                        # we retry after an explicit shedding pass.
                        while True:
                            with mutate_lock:
                                if scheduler.submit(batch).admitted:
                                    break
                            if stop_writer.is_set():
                                return
                            with mutate_lock:
                                scheduler.refresh()
                    else:
                        with mutate_lock:
                            index.apply(batch)
                            index.refresh()
                if scheduler is not None and not stop_writer.is_set():
                    with mutate_lock:
                        scheduler.drain()

            writer = threading.Thread(
                target=_ingest, name="repro-serve-writer", daemon=True
            )

        async def _serve() -> None:
            server = KnnServer(
                index,
                host=args.host,
                port=args.port,
                scheduler=scheduler,
                mutate_lock=mutate_lock,
            )
            await server.start()
            host, port = server.address
            print(
                f"serving {args.dataset} ({args.scale}, "
                f"{type(index).__name__}, k={k}) on {host}:{port} "
                f"at snapshot version {index.pin().version}",
                flush=True,
            )
            if writer is not None:
                writer.start()
            loop = asyncio.get_running_loop()
            done = asyncio.Event()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, done.set)
            if args.duration is not None:
                loop.call_later(args.duration, done.set)
            await done.wait()
            await server.stop()
            print(
                f"served {server.requests} requests in {server.batches} "
                f"batches (max batch {server.max_batch_seen}), final "
                f"snapshot version {index.snapshot_version}",
                flush=True,
            )

        asyncio.run(_serve())
    finally:
        stop_writer.set()
        if writer is not None and writer.is_alive():
            writer.join(timeout=30)
        index.close()
        print("index closed", flush=True)
    return 0


def _run_recover(args) -> int:
    """The 'recover' utility: checkpoint + WAL-tail restart recovery.

    Restores a :class:`ShardedKnnIndex` at the shard count the latest
    checkpoint recorded (one for a state directory the flat index
    wrote).
    """
    from pathlib import Path

    from .experiments.report import render_table
    from .streaming import ShardedKnnIndex, cold_rebuild_graph

    if not args.directory:
        print(
            "error: recover needs a state directory "
            "(repro-kiff recover <dir>)",
            file=sys.stderr,
        )
        return 2
    directory = Path(args.directory)
    if _report_unrecoverable(directory):
        return 2
    index = ShardedKnnIndex.restore(directory)
    try:
        info = index.restore_info
        dataset = index.dataset
        rows = [
            ["shards", index.n_shards],
            ["checkpoint", info.checkpoint.name],
            ["checkpoint sequence", info.checkpoint_seq],
            ["wal events replayed", info.replayed_events],
            ["last sequence", info.last_seq],
            ["users", dataset.n_users],
            ["items", dataset.n_items],
            ["ratings", dataset.n_ratings],
            ["recovery evaluations", info.evaluations],
        ]
        parity = None
        if args.verify:
            cold = cold_rebuild_graph(
                dataset, index.config, metric=index.engine.metric
            )
            parity = index.graph == cold
            rows.append(["parity with cold rebuild", parity])
        print(
            render_table(
                ["Statistic", "Value"],
                rows,
                title=(
                    f"Recovered {type(index).__name__} from "
                    f"{args.directory}"
                ),
            )
        )
    finally:
        index.close()
    return 0 if parity in (None, True) else 1


def _report_unrecoverable(directory) -> bool:
    """Print the exit-2 message when *directory* holds no checkpoint."""
    from .persistence import latest_checkpoint

    if directory.is_dir() and latest_checkpoint(directory) is not None:
        return False
    state = (
        "is missing"
        if not directory.is_dir()
        else "holds no recoverable streaming state (no "
        "checkpoint-<seq>.shards directory)"
    )
    print(
        f"error: {directory} {state}; stream with "
        f"'repro-kiff stream --wal {directory}' first",
        file=sys.stderr,
    )
    return True


def _run_rebalance(args) -> int:
    """The 'rebalance' utility: restore, migrate shard ownership, exit.

    Restores the state directory at its recorded shard count, applies
    one WAL-fenced :class:`~repro.streaming.ShardPlan` built from
    ``--shards`` / ``--move``, and reports what moved.  The fence pair is
    journaled, so the next ``recover`` (or a crashed copy of this
    command) replays the flip exactly; a live
    server offers the same operation without a restart via the
    ``rebalance`` op of ``repro-kiff serve``.
    """
    from pathlib import Path

    from .experiments.report import render_table
    from .streaming import ShardPlan, ShardedKnnIndex, cold_rebuild_graph

    if not args.directory:
        print(
            "error: rebalance needs a state directory "
            "(repro-kiff rebalance <dir> --shards M)",
            file=sys.stderr,
        )
        return 2
    moves = []
    for spec in args.move or ():
        user_text, _, shard_text = spec.partition(":")
        try:
            moves.append((int(user_text), int(shard_text)))
        except ValueError:
            print(
                f"error: --move expects USER:SHARD "
                f"(e.g. --move 12:0), got {spec!r}",
                file=sys.stderr,
            )
            return 2
    if args.shards is None and not moves:
        print(
            "error: nothing to do — pass --shards M and/or "
            "--move USER:SHARD",
            file=sys.stderr,
        )
        return 2
    directory = Path(args.directory)
    if _report_unrecoverable(directory):
        return 2
    index = ShardedKnnIndex.restore(directory)
    parity = None
    try:
        before = index.n_shards
        try:
            stats = index.rebalance(
                ShardPlan(moves=tuple(moves), n_shards=args.shards)
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        rows = [
            ["shards before", before],
            ["shards after", stats.shards_after],
            ["users moved", stats.users_moved],
            ["fence sequences", f"{stats.seq_begin}..{stats.seq_commit}"],
            ["last sequence", index.last_seq],
            ["overrides in effect", len(index.shard_map.overrides)],
            ["migration wall time", f"{stats.wall_time * 1e3:.1f}ms"],
        ]
        if args.verify:
            cold = cold_rebuild_graph(
                index.dataset, index.config, metric=index.engine.metric
            )
            parity = index.graph == cold
            rows.append(["parity with cold rebuild", parity])
        print(
            render_table(
                ["Statistic", "Value"],
                rows,
                title=f"Rebalanced {args.directory}",
            )
        )
    finally:
        index.close()
    return 0 if parity in (None, True) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "datasets":
        return _run_datasets(args)
    if args.experiment == "graph-stats":
        return _run_graph_stats(args)
    if args.experiment == "stream":
        return _run_stream(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "recover":
        return _run_recover(args)
    if args.experiment == "rebalance":
        return _run_rebalance(args)
    context = ExperimentContext(
        scale=args.scale, metric=args.metric, seed=args.seed
    )
    names = (
        sorted(EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        module = EXPERIMENTS[name]
        start = time.perf_counter()
        report = module.run(context)
        elapsed = time.perf_counter() - start
        print(report.render())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
