"""The refresh's product scoring against the pair scorer it replaces.

When the metric is built-in cosine on positive integer ratings, or a
built-in set metric, and ``min_rating`` is unset, a rebuilt row's
candidate product ``R[rows] @ Rᵀ`` also holds its pairs' raw
statistics: the refresh finalizes them with the kernel's formula and
ranks each rebuilt row straight off its product row
(:func:`repro.similarity.engine.product_scoring`).  Every other pass
scores its pairs through ``score_pairs``.  The two must be
indistinguishable:

* the 78 + 24 stream parity corpus, run as is and with the product
  scoring refused, gives byte-equal rows, depths and ``RefreshStats``
  counters after every pass, on the flat serial index and on two
  shards under ``threads`` and ``processes``;
* binary ratings (scores tie everywhere) keep equal scores in
  ascending id order — SpGEMM leaves a product row's columns unsorted,
  and the ranking relies on sorted ones.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import BipartiteDataset, DynamicKnnIndex, KiffConfig
from repro.graph.knn_graph import MISSING
from repro.streaming import cold_rebuild_graph, ratings_batch, sharding
from repro.streaming.index import _ShardHost
from tests.conftest import random_dataset
from tests.streaming.test_parity import (
    CORPUS_METRICS,
    burst_stream,
    corpus_stream,
    drive_random_stream,
)

LAYOUTS = [
    dict(n_shards=1, executor="serial"),
    dict(n_shards=2, executor="threads"),
    dict(n_shards=2, executor="processes"),
]
LAYOUT_IDS = ["flat-serial", "2-threads", "2-processes"]


def record_passes(monkeypatch):
    """Record, after every refresh, its stats (wall time aside) and the
    index's rows and depths as bytes."""
    passes = []
    refresh = DynamicKnnIndex.refresh

    def recording(index, dirty_subset=None):
        stats = refresh(index, dirty_subset)
        neighbors, sims = index._rows()
        counters = {**asdict(stats), "wall_time": None}
        passes.append(
            (
                counters,
                neighbors.tobytes(),
                sims.tobytes(),
                index._depth[: index.n_users].tobytes(),
            )
        )
        return stats

    monkeypatch.setattr(DynamicKnnIndex, "refresh", recording)
    return passes


def count_product_calls(monkeypatch):
    """Calls of the in-process product scorer (workers are not seen)."""
    calls = []
    score_product = _ShardHost._score_product

    def counting(host, *args):
        calls.append(1)
        return score_product(host, *args)

    monkeypatch.setattr(_ShardHost, "_score_product", counting)
    return calls


def run_corpus(metric, layout):
    """Every corpus and burst stream of *metric* on *layout*."""
    for pivot in (True, False):
        for seed in range(13):
            corpus_stream(metric, pivot, seed, **layout).close()
        for seed in range(4):
            burst_stream(metric, pivot, seed, **layout).close()


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("metric", CORPUS_METRICS)
def test_corpus_is_byte_equal_without_product_scoring(
    monkeypatch, metric, layout
):
    calls = count_product_calls(monkeypatch)
    passes = record_passes(monkeypatch)
    run_corpus(metric, layout)
    if layout["executor"] != "processes":
        # adamic_adar's item weights are outside the rule.
        assert bool(calls) == (metric != "adamic_adar")
    scored = passes[:]
    passes.clear()
    monkeypatch.setattr(sharding, "product_scoring", lambda *args: None)
    calls.clear()
    run_corpus(metric, layout)
    assert not calls
    assert len(scored) == len(passes) > 0
    for fused, paired in zip(scored, passes):
        assert fused == paired


def binary_dataset(seed):
    """Binary ratings: every score is a ratio of small integers, so
    rows hold long runs of ties."""
    return random_dataset(
        n_users=40, n_items=8, density=0.35, seed=seed, ratings=False
    )


@pytest.mark.parametrize("metric", ["cosine", "jaccard", "overlap"])
@pytest.mark.parametrize("seed", range(3))
def test_binary_ties_keep_ascending_ids(monkeypatch, metric, seed):
    calls = count_product_calls(monkeypatch)
    config = KiffConfig(k=4)
    index = DynamicKnnIndex(
        binary_dataset(seed), config, metric=metric, auto_refresh=False
    )
    rng = np.random.default_rng(seed)
    for _ in range(4):
        users = rng.integers(0, index.n_users, 6)
        items = rng.integers(0, 8, 6)
        index.apply(ratings_batch(users, items, np.ones(6)))
        index.refresh()
        neighbors, sims = index._rows()
        tied = (sims[:, 1:] == sims[:, :-1]) & (neighbors[:, 1:] != MISSING)
        assert tied.any()
        assert (neighbors[:, 1:][tied] > neighbors[:, :-1][tied]).all()
        assert index.graph == cold_rebuild_graph(
            index.dataset, config, metric=metric
        )
    assert calls


def test_rebuilt_row_ties_against_a_hand_ranking():
    """Six clones of one profile tie at 1.0 in the hub's rebuilt row,
    whatever order the product lists them in."""
    profile = {0: 1.0, 1: 1.0}
    dataset = BipartiteDataset.from_profiles(
        [profile] * 7 + [{0: 1.0, 2: 1.0}], n_items=3
    )
    index = DynamicKnnIndex(
        dataset, KiffConfig(k=3), metric="jaccard", auto_refresh=False
    )
    index.apply(ratings_batch([0], [1], [1.0]))  # a no-op re-rating
    index.apply(ratings_batch([0, 0], [2, 2], [1.0, 0.0]))
    index.refresh()
    neighbors, sims = index._rows()
    assert neighbors[0, :6].tolist() == [1, 2, 3, 4, 5, 6]
    assert (sims[0, :6] == 1.0).all()
    assert neighbors[0, 6] == 7
