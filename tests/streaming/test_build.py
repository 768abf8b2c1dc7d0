"""The index's cold build against two independent oracles.

:meth:`DynamicKnnIndex.rebuild` (which the constructor runs) clears
every row and rebuilds it with the refresh's own candidate product and
scorers, one ascending-id row block at a time.  Its ``k + RESERVE``-wide
rows must be byte-equal to

* a wide converged :func:`~repro.core.kiff.kiff` build — the paper's
  algorithm: ranked candidate sets popped ``gamma`` at a time;
* a brute-force reference: the co-rating pairs read off a dense
  rating matrix, each scored once by the engine's batch scorer (the
  one ``kiff()`` uses; the scalar ``score_pair`` rounds pearson's
  near-zero scores differently), each row ranked by a Python sort on
  ``(-sim, id)``;

with every row exact to its full width, and ``initial_evaluations``
must be the number of co-rating pairs (each pair scored once, whatever
``pivot`` says).  The grid is metric × ``min_rating`` × integer or
fractional ratings × ``pivot`` over the datasets of the stream parity
corpus and the kiff mode-parity grid; then shard count × executor, a
``rebuild()`` after live passes, and the block constant shrunk until
every block holds one or two users.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.core.kiff import kiff
from repro.graph.knn_graph import MISSING
from repro.layout import ID_DTYPE, SCORE_DTYPE
from repro.similarity.engine import SimilarityEngine
from repro.streaming import cold_rebuild_graph, converged_config, sharding
from repro.streaming.index import RESERVE
from tests.conftest import random_dataset
from tests.streaming.test_parity import drive_random_stream

METRICS = ["cosine", "jaccard", "pearson", "adamic_adar"]
LAYOUTS = [
    dict(n_shards=1, executor="serial"),
    dict(n_shards=2, executor="serial"),
    dict(n_shards=1, executor="threads"),
    dict(n_shards=2, executor="threads"),
    dict(n_shards=1, executor="processes"),
    dict(n_shards=2, executor="processes"),
]
LAYOUT_IDS = [f"{lay['n_shards']}-{lay['executor']}" for lay in LAYOUTS]

#: ``(shape, k)`` of every grid dataset: the 13 parity-corpus streams'
#: bases, the 4 reserve-exhausting burst streams' and the two kiff
#: mode-parity datasets.
CORPUS = dict(n_users=18, n_items=14, density=0.15)
BURSTS = dict(n_users=24, n_items=12, density=0.3)
MODES = dict(n_users=40, n_items=30, density=0.15)
SHAPES = (
    [(dict(CORPUS, seed=seed), 4) for seed in range(13)]
    + [(dict(BURSTS, seed=seed), 3) for seed in range(4)]
    + [(dict(MODES, seed=seed), 5) for seed in (11, 12)]
)


@lru_cache(maxsize=None)
def grid_dataset(position: int, fractional: bool) -> BipartiteDataset:
    """Grid dataset *position*; *fractional* ratings are 0.5 lower
    (0.5-4.5 stars), so neither cosine's product scoring nor the
    kernel's exact-integer path applies."""
    dataset = random_dataset(**SHAPES[position][0], ratings=True)
    if not fractional:
        return dataset
    edges = dataset.matrix.tocoo()
    return BipartiteDataset.from_edges(
        edges.row,
        edges.col,
        edges.data - 0.5,
        n_users=dataset.n_users,
        n_items=dataset.n_items,
    )


def config_for(position: int, min_rating, pivot: bool = True) -> KiffConfig:
    k = SHAPES[position][1]
    return KiffConfig(k=k, min_rating=min_rating, pivot=pivot)


@lru_cache(maxsize=None)
def brute_force(position, fractional, metric, min_rating):
    """``(neighbors, sims, pairs)``: the reference rows, ``k + RESERVE``
    wide, and the number of co-rating pairs."""
    dataset = grid_dataset(position, fractional)
    width = SHAPES[position][1] + RESERVE
    engine = SimilarityEngine(dataset, metric=metric)
    ratings = dataset.matrix.toarray()
    counted = ratings != 0 if min_rating is None else ratings >= min_rating
    counted = counted.astype(np.int64)
    corate = (counted @ counted.T) > 0
    np.fill_diagonal(corate, False)
    lower, higher = np.nonzero(np.triu(corate))
    score = dict(
        zip(zip(lower.tolist(), higher.tolist()), engine.batch(lower, higher))
    )
    neighbors = np.full((dataset.n_users, width), MISSING, dtype=ID_DTYPE)
    sims = np.full((dataset.n_users, width), -np.inf, dtype=SCORE_DTYPE)
    for user in range(dataset.n_users):
        scored = sorted(
            (-float(score[min(user, other), max(user, other)]), other)
            for other in np.flatnonzero(corate[user]).tolist()
        )[:width]
        for column, (_, other) in enumerate(scored):
            neighbors[user, column] = other
            sims[user, column] = score[min(user, other), max(user, other)]
    return neighbors, sims, int(lower.size)


@lru_cache(maxsize=None)
def wide_kiff(position, fractional, metric, min_rating, pivot):
    """A converged ``kiff()`` build ``k + RESERVE`` wide."""
    config = config_for(position, min_rating, pivot)
    wide = replace(converged_config(config), k=config.k + RESERVE)
    engine = SimilarityEngine(grid_dataset(position, fractional), metric)
    graph = kiff(engine, wide).graph
    return graph.neighbors, graph.sims


def row_bytes(index) -> tuple[bytes, bytes, bytes]:
    neighbors, sims = index._rows()
    depth = index._depth[: neighbors.shape[0]]
    return neighbors.tobytes(), sims.tobytes(), depth.tobytes()


def assert_converged(index, position, fractional, metric, min_rating, pivot):
    """The index's full-width rows equal both oracles, and every row
    is exact to its full width."""
    neighbors, sims = index._rows()
    width = neighbors.shape[1]
    assert width == index.config.k + RESERVE
    assert (index._depth[: neighbors.shape[0]] == width).all()
    cold = wide_kiff(position, fractional, metric, min_rating, pivot)
    assert neighbors.tobytes() == cold[0].tobytes()
    assert sims.tobytes() == cold[1].tobytes()
    reference = brute_force(position, fractional, metric, min_rating)
    assert neighbors.tobytes() == reference[0].tobytes()
    assert sims.tobytes() == reference[1].tobytes()


GRID = pytest.mark.parametrize(
    "metric,min_rating,fractional,pivot",
    list(product(METRICS, (None, 3.0), (False, True), (True, False))),
)


class TestBuildEqualsOracles:
    @GRID
    def test_flat_build(self, metric, min_rating, fractional, pivot):
        for position in range(len(SHAPES)):
            index = DynamicKnnIndex(
                grid_dataset(position, fractional),
                config_for(position, min_rating, pivot),
                metric=metric,
                auto_refresh=False,
            )
            assert_converged(
                index, position, fractional, metric, min_rating, pivot
            )
            pairs = brute_force(position, fractional, metric, min_rating)[2]
            assert index.initial_evaluations == pairs
            assert index.refresh_log == []  # the build logs no pass
            index.close()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_every_layout_builds_the_flat_rows(self, layout):
        """The build runs on one shard view in process whatever the
        index's shard count and executor."""
        cells = product(
            METRICS, (None, 3.0), (False, True), range(len(SHAPES))
        )
        for metric, min_rating, fractional, position in cells:
            dataset = grid_dataset(position, fractional)
            config = config_for(position, min_rating)
            flat = DynamicKnnIndex(
                dataset, config, metric=metric, auto_refresh=False
            )
            index = DynamicKnnIndex(
                dataset, config, metric=metric, auto_refresh=False, **layout
            )
            assert row_bytes(index) == row_bytes(flat)
            assert index.initial_evaluations == flat.initial_evaluations
            index.close()
            flat.close()

    def test_rebuild_does_not_call_kiff(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the index build must not run kiff()")

        monkeypatch.setattr("repro.streaming.index.kiff", refuse)
        index = DynamicKnnIndex(grid_dataset(0, False), config_for(0, None))
        index.rebuild()
        index.close()


class TestRebuildAfterLivePasses:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("metric", ["cosine", "pearson"])
    def test_rebuild_restores_the_converged_rows(self, metric, layout):
        """After live passes (worker processes running, rows repaired
        and grown), ``rebuild()`` lands on a cold ``kiff()`` build's
        wide rows, returns the ``k``-wide graph, logs no pass, and the
        next refresh works from the rebuilt rows."""
        dataset = random_dataset(
            n_users=24, n_items=12, density=0.3, seed=5, ratings=True
        )
        config = KiffConfig(k=3)
        index = DynamicKnnIndex(
            dataset, config, metric=metric, auto_refresh=False, **layout
        )
        try:
            drive_random_stream(index, 5, n_events=20, max_item=12)
            passes = len(index.refresh_log)
            result = index.rebuild()
            assert len(index.refresh_log) == passes
            assert result.graph == index.graph
            assert result.graph.k == result.extras["k"] == config.k
            wide = replace(converged_config(config), k=config.k + RESERVE)
            cold = kiff(SimilarityEngine(index.dataset, metric), wide).graph
            neighbors, sims = index._rows()
            assert neighbors.tobytes() == cold.neighbors.tobytes()
            assert sims.tobytes() == cold.sims.tobytes()
            drive_random_stream(index, 6, n_events=10, max_item=12)
            assert index.graph == cold_rebuild_graph(
                index.dataset, config, metric
            )
        finally:
            index.close()


class TestTinyBlocks:
    @GRID
    def test_one_or_two_users_per_block(
        self, monkeypatch, metric, min_rating, fractional, pivot
    ):
        """Blocks change neither rows, depths nor evaluations."""
        built = []
        for position in range(len(SHAPES)):
            index = DynamicKnnIndex(
                grid_dataset(position, fractional),
                config_for(position, min_rating, pivot),
                metric=metric,
                auto_refresh=False,
            )
            built.append((row_bytes(index), index.initial_evaluations))
            index.close()
        monkeypatch.setattr(sharding, "BUILD_BLOCK_ENTRIES", 1)
        for position, expected in enumerate(built):
            dataset = grid_dataset(position, fractional)
            index = DynamicKnnIndex(
                dataset,
                config_for(position, min_rating, pivot),
                metric=metric,
                auto_refresh=False,
            )
            assert (row_bytes(index), index.initial_evaluations) == expected
            assert_converged(
                index, position, fractional, metric, min_rating, pivot
            )
            # Each block closes on its first user with a candidacy item
            # (a user without one estimates 0 and joins the next block).
            bounds = sharding._Shard(0, index).build_blocks()
            counted = np.add.reduceat(
                estimates(dataset, min_rating) > 0, bounds[:-1]
            )
            assert (counted[:-1] == 1).all() and counted[-1] <= 1
            assert index.rebuild().extras["blocks"] == len(bounds) - 1
            index.close()


def estimates(dataset, min_rating) -> np.ndarray:
    """Each user's sum of her candidacy items' rater counts."""
    ratings = dataset.matrix.toarray()
    counted = ratings != 0 if min_rating is None else ratings >= min_rating
    return (counted * counted.sum(axis=0)).sum(axis=1)


class TestBuildBlocks:
    def test_blocks_close_on_the_user_reaching_the_constant(
        self, monkeypatch
    ):
        dataset = random_dataset(
            n_users=60, n_items=20, density=0.2, seed=3, ratings=True
        )
        index = DynamicKnnIndex(dataset, KiffConfig(k=3), build=False)
        estimate = estimates(dataset, None)
        monkeypatch.setattr(sharding, "BUILD_BLOCK_ENTRIES", 200)
        bounds = sharding._Shard(0, index).build_blocks()
        assert bounds[0] == 0 and bounds[-1] == 60
        assert len(bounds) > 3
        for start, stop in zip(bounds[:-2], bounds[1:-1]):
            assert estimate[start:stop].sum() >= 200
            assert estimate[start : stop - 1].sum() < 200
        assert estimate[bounds[-2] :].sum() > 0
        index.close()

    def test_min_rating_counts_only_qualifying_items(self, monkeypatch):
        dataset = random_dataset(
            n_users=30, n_items=10, density=0.3, seed=4, ratings=True
        )
        index = DynamicKnnIndex(
            dataset, KiffConfig(k=3, min_rating=4.0), build=False
        )
        estimate = estimates(dataset, 4.0)
        monkeypatch.setattr(sharding, "BUILD_BLOCK_ENTRIES", 1)
        bounds = sharding._Shard(0, index).build_blocks()
        closing = (np.flatnonzero(estimate) + 1).tolist()
        assert bounds == sorted({0, *closing, dataset.n_users})
        index.close()

    def test_no_corating_pair_scores_nothing(self):
        dataset = BipartiteDataset.from_edges(
            np.array([1]), np.array([0]), np.array([1.0]), n_users=3, n_items=1
        )
        index = DynamicKnnIndex(dataset, KiffConfig(k=2))
        assert index.initial_evaluations == 0
        assert (index._rows()[0] == MISSING).all()
        index.close()
