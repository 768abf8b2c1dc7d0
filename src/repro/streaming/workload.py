"""Streaming workload helpers shared by the CLI, experiments and benches.

The canonical maintenance workload is *hold-out replay*: take a dataset,
hold out a fraction of its ratings, cold-build the index on the rest and
stream the hold-out back in batches.  The final state equals the original
dataset, so parity against a cold rebuild is checkable by construction.

The full-rebuild baseline cost is computed exactly without running the
rebuilds: a converged KIFF run (``beta = 0``) evaluates each Ranked
Candidate Set entry exactly once, so its evaluation count *is* the RCS
total of the snapshot (pinned by
``tests/core/test_kiff.py::TestTermination::test_terminates_with_beta_zero``),
which :func:`repro.core.rcs.count_rcs_candidates` computes from the
co-occurrence sparsity pattern alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.rcs import count_rcs_candidates
from ..datasets.bipartite import BipartiteDataset
from .events import ratings_batch
from .index import DynamicKnnIndex

__all__ = [
    "StreamReplayResult",
    "flash_crowd_events",
    "holdout_stream",
    "poisson_burst_sizes",
    "replay_stream",
]


@dataclass(frozen=True)
class StreamReplayResult:
    """Cost accounting for one hold-out replay."""

    events: int
    batches: int
    wall_time: float
    #: Similarity evaluations spent by incremental maintenance.
    incremental_evaluations: int
    #: Exact evaluations a cold converged rebuild per batch would spend.
    rebuild_evaluations: int

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_time if self.wall_time > 0 else float("inf")

    @property
    def savings(self) -> float:
        """How many times fewer evaluations than rebuild-per-batch."""
        if self.incremental_evaluations == 0:
            return float("inf")
        return self.rebuild_evaluations / self.incremental_evaluations


def holdout_stream(
    dataset: BipartiteDataset,
    fraction: float = 0.1,
    seed: int = 0,
) -> tuple[BipartiteDataset, np.ndarray, np.ndarray, np.ndarray]:
    """Split *dataset* into a base dataset and a shuffled event stream.

    Returns ``(base, users, items, ratings)`` where streaming the parallel
    event arrays into an index built on ``base`` reproduces *dataset*.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    coo = dataset.matrix.tocoo()
    rng = np.random.default_rng(seed)
    order = rng.permutation(coo.nnz)
    n_stream = max(1, int(round(fraction * coo.nnz)))
    stream, base = order[:n_stream], order[n_stream:]
    if base.size == 0:
        raise ValueError("hold-out fraction leaves no base ratings")
    base_dataset = BipartiteDataset.from_edges(
        coo.row[base],
        coo.col[base],
        coo.data[base],
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        name=f"{dataset.name}-base",
    )
    return (
        base_dataset,
        coo.row[stream].astype(np.int64),
        coo.col[stream].astype(np.int64),
        coo.data[stream].astype(np.float64),
    )


def poisson_burst_sizes(
    n_events: int,
    seed: int = 0,
    base_rate: float = 2.0,
    burst_rate: float = 20.0,
    p_enter: float = 0.05,
    p_exit: float = 0.25,
) -> np.ndarray:
    """Bursty arrival-batch sizes summing exactly to *n_events*.

    A two-state Markov-modulated Poisson process, the standard bursty
    traffic model: each tick the arrival process sits in a *base* or
    *burst* state (entered with probability ``p_enter``, left with
    ``p_exit``) and emits ``Poisson(rate)`` events at that state's
    rate.  Zero-sized ticks are kept — they are the idle lulls a
    wall-staleness budget needs to observe (the scheduled replay runs
    ``tick()`` on them).  The tail is clipped (and the final tick
    padded) so the sizes partition an *n_events*-long stream exactly.
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    if base_rate <= 0 or burst_rate <= 0:
        raise ValueError(
            f"rates must be positive, got base={base_rate} "
            f"burst={burst_rate}"
        )
    if not (0 <= p_enter <= 1 and 0 <= p_exit <= 1):
        raise ValueError(
            f"transition probabilities must be in [0, 1], got "
            f"enter={p_enter} exit={p_exit}"
        )
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    total = 0
    bursting = False
    while total < n_events:
        if bursting:
            if rng.random() < p_exit:
                bursting = False
        elif rng.random() < p_enter:
            bursting = True
        size = int(rng.poisson(burst_rate if bursting else base_rate))
        size = min(size, n_events - total)
        sizes.append(size)
        total += size
    if total < n_events:  # n_events == 0 never enters the loop
        sizes.append(n_events - total)
    return np.asarray(sizes, dtype=np.int64)


def flash_crowd_events(
    dataset: BipartiteDataset,
    n_events: int,
    seed: int = 0,
    hot_item: int | None = None,
    hot_fraction: float = 0.8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A flash-crowd rating stream: one item suddenly gains raters.

    Returns ``(users, items, ratings)`` where ``hot_fraction`` of the
    events rate *hot_item* (default: a brand-new item id, the
    cold-start-goes-viral case) and the rest land uniformly on the
    existing catalogue.  Every event dirties its user *and* — through
    the shared hot item — couples the raters' candidate sets, so
    refreshing any one of them has a growing blast radius: the
    worst-case concentration the scheduler's prioritization is built
    for.  Ratings are uniform integers in [1, 5]; users are drawn
    uniformly, so a long stream revisits users (overwrites, the
    realistic case).
    """
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    if dataset.n_users == 0:
        raise ValueError("dataset has no users to rate with")
    rng = np.random.default_rng(seed)
    if hot_item is None:
        hot_item = dataset.n_items
    users = rng.integers(0, dataset.n_users, size=n_events, dtype=np.int64)
    items = np.full(n_events, int(hot_item), dtype=np.int64)
    cold = rng.random(n_events) >= hot_fraction
    n_cold = int(cold.sum())
    if n_cold and dataset.n_items:
        items[cold] = rng.integers(
            0, dataset.n_items, size=n_cold, dtype=np.int64
        )
    ratings = rng.integers(1, 6, size=n_events).astype(np.float64)
    return users, items, ratings


def replay_stream(
    index: DynamicKnnIndex,
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    batch_size: int = 10,
    track_rebuild_cost: bool = True,
    on_batch=None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
) -> StreamReplayResult:
    """Stream events into *index* in batches, refreshing after each batch.

    ``on_batch(index)`` (when given) is called *before* each refresh, with
    the graph stale — the hook the staleness experiment uses to sample
    recall.  The rebuild baseline is accumulated per refresh point, i.e.
    the cost of the "just rebuild on every batch" strategy the streaming
    subsystem replaces.  Only the maintenance work (event absorption +
    refresh) is timed; the hook, the baseline accounting and checkpoint
    writes run outside the measured window so ``events_per_second``
    reflects the subsystem, not the instrumentation.

    ``checkpoint_every`` (with ``checkpoint_dir``) checkpoints the index
    every that many batches — the durability cadence ``repro-kiff stream
    --wal ... --checkpoint-every N`` drives; attach the WAL on the index
    itself.

    *index* may be any maintained index sharing the ``apply`` /
    ``refresh`` / ``checkpoint`` surface — in particular a
    :class:`~repro.streaming.index.DynamicKnnIndex` built with
    ``n_shards > 1``, whose refreshes then run shard-parallel
    (``repro-kiff stream --shards N``).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
    evaluations_before = index.engine.counter.evaluations
    rebuild_evaluations = 0
    batches = 0
    wall_time = 0.0
    for lo in range(0, len(users), batch_size):
        hi = lo + batch_size
        batch = ratings_batch(users[lo:hi], items[lo:hi], ratings[lo:hi])
        was_auto = index.auto_refresh
        index.auto_refresh = False
        start = time.perf_counter()
        try:
            index.apply(batch)
        finally:
            index.auto_refresh = was_auto
        if on_batch is not None:
            wall_time += time.perf_counter() - start
            on_batch(index)
            start = time.perf_counter()
        index.refresh()
        wall_time += time.perf_counter() - start
        batches += 1
        if checkpoint_every is not None and batches % checkpoint_every == 0:
            index.checkpoint(checkpoint_dir)
        if track_rebuild_cost:
            rebuild_evaluations += count_rcs_candidates(
                index.dataset,
                pivot=index.config.pivot,
                min_rating=index.config.min_rating,
            )
    return StreamReplayResult(
        events=int(len(users)),
        batches=batches,
        wall_time=wall_time,
        incremental_evaluations=index.engine.counter.evaluations - evaluations_before,
        rebuild_evaluations=int(rebuild_evaluations),
    )
