"""Sharded refresh bench: the three executors vs the sequential index.

A synthetic sparse workload is split 90%/10%; the 90% is prebuilt and
the 10% streamed back in *multi-event batches* (hundreds of events per
refresh — the regime where a refresh touches enough rows for the
shard fan-out to amortize).  The same stream is replayed through the
sequential :class:`DynamicKnnIndex` and a :class:`ShardedKnnIndex` per
executor (``serial`` / ``threads`` / ``processes``), and per-refresh
wall time is compared.

Assertions:

* **Parity always** — every sharded graph is bit-identical to the
  sequential one after every replay (the subsystem's contract).
* **Speedup at full scale** — on the 20k-user laptop workload, at 4
  shards, the thread executor must be >= 1.5x faster than the
  sequential index and the process executor >= 2x faster than the
  serial executor (the per-shard single-core baseline): the process
  fan-out is the mode whose Python-level plan/merge work actually
  escapes the GIL.  The tiny (``--quick``) workload is a smoke run
  only: its refreshes are far too small to amortize either fan-out, so
  only parity is asserted there.  Workers need hardware to run on, so
  the bars also only apply when the machine has at least ``n_shards``
  cores (a single-core runner physically cannot express the
  parallelism; the numbers are still reported).
"""

import os
import time

import numpy as np

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig, ShardedKnnIndex
from repro.similarity.base import ProfileIndex
from repro.similarity.engine import get_metric, score_pairs_chunked
from repro.streaming import holdout_stream, ratings_batch

from _bench_utils import run_once

#: 90%-prebuilt / 10%-streamed synthetic workloads.  ``batch_size`` is
#: deliberately large (multi-event batches): sharding parallelizes the
#: *refresh*, so each refresh must carry enough dirty users to split.
_SCALES = {
    "tiny": dict(
        n_users=500,
        n_items=350,
        density=0.012,
        batch_size=64,
        k=8,
        n_shards=2,
        min_speedup_threads=None,
        min_speedup_processes=None,
        kernel_pairs=50_000,
    ),
    "laptop": dict(
        n_users=20_000,
        n_items=6_000,
        density=0.0012,
        batch_size=1_024,
        k=10,
        n_shards=4,
        min_speedup_threads=1.5,
        min_speedup_processes=2.0,
        kernel_pairs=400_000,
    ),
}
_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop")


def _workload(n_users, n_items, density, seed=7):
    """A seeded sparse rating matrix, 90/10-split via holdout_stream."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    users, items = np.nonzero(mask)
    ratings = rng.integers(1, 6, size=users.size).astype(np.float64)
    dataset = BipartiteDataset.from_edges(
        users,
        items,
        ratings,
        n_users=n_users,
        n_items=n_items,
        name="sharded-bench",
    )
    return holdout_stream(dataset, fraction=0.1, seed=seed)


def _replay(index, users, items, ratings, batch_size):
    """Stream the hold-out in batches; returns summed refresh seconds."""
    refresh_seconds = 0.0
    for lo in range(0, len(users), batch_size):
        hi = lo + batch_size
        index.apply(ratings_batch(users[lo:hi], items[lo:hi], ratings[lo:hi]))
        start = time.perf_counter()
        index.refresh()
        refresh_seconds += time.perf_counter() - start
    return refresh_seconds


def test_sharded_refresh_speedup(benchmark):
    """Executor comparison: bit-identical, and faster at full scale."""
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    benchmark.group = "sharded:refresh"
    base, users, items, ratings = _workload(
        params["n_users"], params["n_items"], params["density"]
    )
    config = KiffConfig(k=params["k"])
    batch_size = params["batch_size"]
    n_shards = params["n_shards"]

    sequential = DynamicKnnIndex(base, config, auto_refresh=False)
    sequential_seconds = _replay(sequential, users, items, ratings, batch_size)

    seconds = {}
    graphs = {}
    for executor in ("serial", "threads", "processes"):
        index = ShardedKnnIndex(
            base,
            config,
            auto_refresh=False,
            n_shards=n_shards,
            executor=executor,
        )
        def replay(index=index):
            return _replay(index, users, items, ratings, batch_size)

        if executor == "processes":
            # The tentpole mode is the measured one; the others are
            # timed inline as comparison points.
            seconds[executor] = run_once(benchmark, replay)
        else:
            seconds[executor] = replay()
        graphs[executor] = index.graph
        last_seq = index.last_seq
        index.close()
        # The contract first: sharding must never change the graph.
        assert graphs[executor] == sequential.graph
        assert last_seq == sequential.last_seq

    def speedup(baseline, candidate):
        return baseline / candidate if candidate > 0 else float("inf")

    threads_speedup = speedup(sequential_seconds, seconds["threads"])
    processes_speedup = speedup(seconds["serial"], seconds["processes"])
    benchmark.extra_info["events_streamed"] = int(len(users))
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["n_shards"] = n_shards
    benchmark.extra_info["sequential_refresh_s"] = round(sequential_seconds, 4)
    for executor, value in seconds.items():
        benchmark.extra_info[f"{executor}_refresh_s"] = round(value, 4)
    benchmark.extra_info["threads_speedup_vs_sequential"] = round(
        threads_speedup, 3
    )
    benchmark.extra_info["processes_speedup_vs_serial"] = round(
        processes_speedup, 3
    )
    enough_cores = (os.cpu_count() or 1) >= n_shards
    benchmark.extra_info["cores"] = os.cpu_count() or 1

    if params["min_speedup_threads"] is not None and enough_cores:
        assert threads_speedup >= params["min_speedup_threads"], (
            f"threaded refresh speedup {threads_speedup:.2f}x at "
            f"{n_shards} shards is below the "
            f"{params['min_speedup_threads']}x acceptance bar "
            f"({sequential_seconds:.2f}s sequential vs "
            f"{seconds['threads']:.2f}s threaded)"
        )
    if params["min_speedup_processes"] is not None and enough_cores:
        assert processes_speedup >= params["min_speedup_processes"], (
            f"process refresh speedup {processes_speedup:.2f}x at "
            f"{n_shards} shards is below the "
            f"{params['min_speedup_processes']}x acceptance bar "
            f"({seconds['serial']:.2f}s serial vs "
            f"{seconds['processes']:.2f}s process-backed)"
        )


def test_kernel_evaluate_stage(benchmark):
    """Evaluate-stage kernel timing on one seeded candidate-pair batch.

    Scores the batch through ``score_pairs_chunked``, the exact call
    the shard workers' evaluate stage makes, and records deterministic
    fingerprints of the scores (gated) next to the wall time (reported,
    never gated).
    """
    params = _SCALES.get(_SCALE, _SCALES["laptop"])
    benchmark.group = "sharded:kernels"
    base, _, _, _ = _workload(
        params["n_users"], params["n_items"], params["density"]
    )
    index = ProfileIndex(base)
    metric = get_metric("cosine")
    rng = np.random.default_rng(11)
    n_pairs = params["kernel_pairs"]
    us = rng.integers(0, base.n_users, n_pairs)
    vs = rng.integers(0, base.n_users, n_pairs)
    batch_size = 8_192

    def evaluate():
        # A warm-up pass outside the timed region.
        score_pairs_chunked(metric, index, us[:512], vs[:512], batch_size)
        start = time.perf_counter()
        scores = score_pairs_chunked(metric, index, us, vs, batch_size)
        return scores, time.perf_counter() - start

    reference, seconds = run_once(benchmark, evaluate)

    benchmark.extra_info["kernel_pairs_scored"] = n_pairs
    # Deterministic fingerprints of the seeded workload: any kernel
    # behavior change moves these, wall times never do.
    benchmark.extra_info["kernel_nonzero_scores"] = int(
        np.count_nonzero(reference)
    )
    benchmark.extra_info["kernel_score_checksum"] = round(
        float(reference.sum()), 6
    )
    benchmark.extra_info["kernel_numpy_evaluate_s"] = round(seconds, 4)
    benchmark.extra_info["cores"] = os.cpu_count() or 1
